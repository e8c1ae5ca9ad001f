#include "kernels.h"

namespace e2ebench {
namespace {

// Signed overflow in the host references would be undefined behaviour,
// so every accumulator that can wrap is unsigned on both sides.

std::int32_t SortReference(int reps) {
  int arr[64];
  int total = 0;
  for (int rep = 0; rep < reps; rep++) {
    for (int i = 0; i < 64; i++) arr[i] = (i * 37 + 11 + rep) % 101;
    for (int i = 1; i < 64; i++) {
      int key = arr[i];
      int j = i - 1;
      while (j >= 0 && arr[j] > key) { arr[j + 1] = arr[j]; j--; }
      arr[j + 1] = key;
    }
    total += arr[0] + arr[63];
  }
  return total;
}

std::int32_t FloatReference(int reps) {
  float x[32];
  float y[32];
  int total = 0;
  for (int rep = 0; rep < reps; rep++) {
    for (int i = 0; i < 32; i++) {
      x[i] = static_cast<float>(i) * 0.25f;
      y[i] = static_cast<float>(32 - i + rep % 3);
    }
    float acc = 0.0f;
    for (int r = 0; r < 8; r++) {
      for (int i = 0; i < 32; i++) acc += x[i] * y[i];
    }
    total += static_cast<int>(acc);
  }
  return total;
}

std::int32_t BatchSortReference() {
  int a[64];
  unsigned s = 12345u;
  for (int i = 0; i < 64; i++) {
    s = s * 1103515245u + 12345u;
    a[i] = static_cast<int>((s >> 16) & 1023u);
  }
  for (int i = 1; i < 64; i++) {
    int key = a[i];
    int j = i - 1;
    while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j--; }
    a[j + 1] = key;
  }
  unsigned chk = 0;
  for (int i = 0; i < 64; i++) chk = chk * 31u + static_cast<unsigned>(a[i]);
  return static_cast<std::int32_t>(chk);
}

std::int32_t MatmulReference() {
  static int A[1024];
  static int B[1024];
  static int C[4];
  for (int i = 0; i < 1024; i++) {
    A[i] = ((i * 7 + 3) & 15) - 8;
    B[i] = ((i * 5 + 1) & 31) - 16;
  }
  for (int i = 0; i < 2; i++) {
    for (int j = 0; j < 2; j++) {
      int sum = 0;
      for (int k = 0; k < 512; k++) sum += A[i * 512 + k] * B[k * 2 + j];
      C[i * 2 + j] = sum;
    }
  }
  unsigned chk = 0;
  for (int i = 0; i < 4; i++) chk = chk * 31u + static_cast<unsigned>(C[i]);
  return static_cast<std::int32_t>(chk);
}

std::int32_t BranchReference() {
  unsigned s = 7u;
  int count = 0;
  for (int i = 0; i < 600; i++) {
    s = s * 1664525u + 1013904223u;
    unsigned v = s >> 24;
    if (v & 1u) count += 3; else count -= 1;
    if (v & 2u) {
      if (v & 4u) count ^= 5; else count += 7;
    }
    if (v > 128u) count++;
  }
  for (unsigned n = 1u; n < 60u; n++) {
    unsigned x = n;
    while (x != 1u) {
      if (x & 1u) x = 3u * x + 1u; else x = x >> 1;
      count++;
    }
  }
  return count;
}

std::int32_t BatchFloatReference() {
  float v[64];
  float w[64];
  for (int i = 0; i < 64; i++) {
    v[i] = static_cast<float>(1 << (i % 3)) * 0.5f;
    w[i] = static_cast<float>(i % 5) - 2.0f;
  }
  int total = 0;
  for (int rep = 0; rep < 10; rep++) {
    float acc = 0.0f;
    for (int i = 0; i < 64; i++) acc += v[i] * w[i] + 0.25f;
    for (int i = 0; i < 64; i++) w[i] = w[i] * 0.5f + v[i];
    total += static_cast<int>(acc);
  }
  return total;
}

// The C texts below mirror the references above line for line; products
// of a power of two and a float are exact, so fused and unfused
// multiply-add give the same bits and the float references hold.

constexpr int kGuiSortReps = 2000;
constexpr int kGuiFloatReps = 4000;

}  // namespace

const Kernel& GuiSortKernel() {
  static const Kernel kernel{"sort", R"(
int arr[64];
int main() {
  int total = 0;
  for (int rep = 0; rep < 2000; rep++) {
    for (int i = 0; i < 64; i++) arr[i] = (i * 37 + 11 + rep) % 101;
    for (int i = 1; i < 64; i++) {
      int key = arr[i];
      int j = i - 1;
      while (j >= 0 && arr[j] > key) { arr[j + 1] = arr[j]; j--; }
      arr[j + 1] = key;
    }
    total += arr[0] + arr[63];
  }
  return total;
}
)",
                             SortReference(kGuiSortReps)};
  return kernel;
}

const Kernel& GuiFloatKernel() {
  static const Kernel kernel{"float", R"(
float x[32]; float y[32];
int main() {
  int total = 0;
  for (int rep = 0; rep < 4000; rep++) {
    for (int i = 0; i < 32; i++) { x[i] = (float)i * 0.25f; y[i] = (float)(32 - i + rep % 3); }
    float acc = 0.0f;
    for (int r = 0; r < 8; r++)
      for (int i = 0; i < 32; i++) acc += x[i] * y[i];
    total += (int)acc;
  }
  return total;
}
)",
                             FloatReference(kGuiFloatReps)};
  return kernel;
}

const std::vector<Kernel>& BatchKernels() {
  static const std::vector<Kernel> kernels = {
      {"sort", R"(
int a[64];
int main() {
  unsigned s = 12345u;
  for (int i = 0; i < 64; i++) { s = s * 1103515245u + 12345u; a[i] = (int)((s >> 16) & 1023u); }
  for (int i = 1; i < 64; i++) {
    int key = a[i];
    int j = i - 1;
    while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j--; }
    a[j + 1] = key;
  }
  unsigned chk = 0u;
  for (int i = 0; i < 64; i++) chk = chk * 31u + (unsigned)a[i];
  return (int)chk;
}
)",
       BatchSortReference()},
      {"matmul", R"(
int A[1024]; int B[1024]; int C[4];
int main() {
  for (int i = 0; i < 1024; i++) { A[i] = ((i * 7 + 3) & 15) - 8; B[i] = ((i * 5 + 1) & 31) - 16; }
  for (int i = 0; i < 2; i++)
    for (int j = 0; j < 2; j++) {
      int sum = 0;
      for (int k = 0; k < 512; k++) sum += A[i * 512 + k] * B[k * 2 + j];
      C[i * 2 + j] = sum;
    }
  unsigned chk = 0u;
  for (int i = 0; i < 4; i++) chk = chk * 31u + (unsigned)C[i];
  return (int)chk;
}
)",
       MatmulReference()},
      {"branchy", R"(
int main() {
  unsigned s = 7u;
  int count = 0;
  for (int i = 0; i < 600; i++) {
    s = s * 1664525u + 1013904223u;
    unsigned v = s >> 24;
    if (v & 1u) count += 3; else count -= 1;
    if (v & 2u) { if (v & 4u) count ^= 5; else count += 7; }
    if (v > 128u) count++;
  }
  for (unsigned n = 1u; n < 60u; n++) {
    unsigned x = n;
    while (x != 1u) { if (x & 1u) x = 3u * x + 1u; else x = x >> 1; count++; }
  }
  return count;
}
)",
       BranchReference()},
      {"float", R"(
float v[64]; float w[64];
int main() {
  for (int i = 0; i < 64; i++) { v[i] = (float)(1 << (i % 3)) * 0.5f; w[i] = (float)(i % 5) - 2.0f; }
  int total = 0;
  for (int rep = 0; rep < 10; rep++) {
    float acc = 0.0f;
    for (int i = 0; i < 64; i++) acc += v[i] * w[i] + 0.25f;
    for (int i = 0; i < 64; i++) w[i] = w[i] * 0.5f + v[i];
    total += (int)acc;
  }
  return total;
}
)",
       BatchFloatReference()},
  };
  return kernels;
}

}  // namespace e2ebench
