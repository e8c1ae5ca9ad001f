// The C programs the workloads run, each with a host-side reference of
// its return value, so the benchmark can check the simulator's answer
// without trusting the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// One C program plus the value `main` must return.
struct Kernel {
  std::string name;
  std::string source;
  std::int32_t expected = 0;
};

/// gui-step / gui-scrub: the paper's Table I programs (an insertion sort
/// of 64 ints and a float dot-product loop), wrapped in a repetition loop
/// so that no session reaches the end of its program during a run.
const Kernel& GuiSortKernel();
const Kernel& GuiFloatKernel();

/// batch-run: a sort whose data fits the 2 KiB default L1, an int matmul
/// whose two 4 KiB arrays are together 4x the L1, a branch-heavy kernel
/// and a float kernel.
const std::vector<Kernel>& BatchKernels();

}  // namespace e2ebench
