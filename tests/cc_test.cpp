// rvcc compiler tests: the paper's integration workloads (quicksort,
// linked list, dynamic dispatch) in C, plus language-feature cases run on
// the golden-model ISS at every optimization level.
#include <gtest/gtest.h>

#include "cc/compiler.h"
#include "cc/lexer.h"
#include "cc/parser.h"
#include "test_util.h"

namespace rvss::cc {
namespace {

struct CompileRunCase {
  const char* name;
  const char* source;
  std::int32_t expected;  ///< return value of main()
};

std::int32_t CompileAndRun(const std::string& source, int optLevel,
                           std::uint64_t* instructions = nullptr) {
  auto compiled = Compile(source, CompileOptions{optLevel});
  EXPECT_TRUE(compiled.ok())
      << (compiled.ok() ? "" : compiled.error().ToText());
  if (!compiled.ok()) return INT32_MIN;
  auto run = testutil::RunOnIss(compiled.value().assembly, "main");
  EXPECT_NE(run.interp, nullptr);
  if (!run.interp) return INT32_MIN;
  EXPECT_EQ(run.reason, ref::ExitReason::kMainReturned)
      << compiled.value().assembly;
  if (instructions != nullptr) {
    *instructions = run.interp->stats().executedInstructions;
  }
  return static_cast<std::int32_t>(run.interp->ReadIntReg(10));
}

class CompileRun : public ::testing::TestWithParam<CompileRunCase> {};

TEST_P(CompileRun, O0) {
  EXPECT_EQ(CompileAndRun(GetParam().source, 0), GetParam().expected);
}
TEST_P(CompileRun, O1) {
  EXPECT_EQ(CompileAndRun(GetParam().source, 1), GetParam().expected);
}
TEST_P(CompileRun, O2) {
  EXPECT_EQ(CompileAndRun(GetParam().source, 2), GetParam().expected);
}
TEST_P(CompileRun, O3) {
  EXPECT_EQ(CompileAndRun(GetParam().source, 3), GetParam().expected);
}

const CompileRunCase kCases[] = {
    {"return_constant", "int main() { return 42; }", 42},
    {"arithmetic", "int main() { return (3 + 4 * 5 - 1) / 2 % 7; }", 4},
    {"precedence", "int main() { return 2 + 3 << 1 | 1; }", 11},
    {"unsigned_division",
     "int main() { unsigned a = 0u - 2u; return (int)(a / 2147483647u); }", 2},
    {"locals_and_assignment",
     "int main() { int a = 1; int b; b = a + 2; a += b; return a * b; }", 12},
    {"compound_ops",
     "int main() { int x = 10; x -= 3; x *= 2; x /= 7; x <<= 4; x |= 1;"
     " return x; }", 33},
    {"increments",
     "int main() { int i = 5; int a = i++; int b = ++i; return a * 100 + b"
     " * 10 + i; }", 577},
    {"ternary_and_logic",
     "int main() { int x = 3; return (x > 2 ? 10 : 20) + (x == 3 && x < 5)"
     " + (x == 9 || x == 3); }", 12},
    {"while_loop", "int main() { int s = 0; int i = 1; while (i <= 10) { s"
                   " += i; i++; } return s; }", 55},
    {"do_while", "int main() { int i = 0; do { i++; } while (i < 7);"
                 " return i; }", 7},
    {"for_break_continue",
     "int main() { int s = 0; for (int i = 0; i < 20; i++) { if (i == 15)"
     " break; if (i % 2) continue; s += i; } return s; }", 56},
    {"nested_loops",
     "int main() { int s = 0; for (int i = 0; i < 5; i++) for (int j = 0;"
     " j < 5; j++) if (i == j) s += i * j; return s; }", 30},
    {"recursion_fib",
     "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }"
     " int main() { return fib(15); }", 610},
    {"mutual_recursion",
     "int isOdd(int n);"
     " int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }"
     " int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }"
     " int main() { return isEven(10) * 10 + isOdd(7); }", 11},
    {"pointers_and_swap",
     "void swap(int* a, int* b) { int t = *a; *a = *b; *b = t; }"
     " int main() { int x = 3; int y = 9; swap(&x, &y); return x * 10 + y; }",
     93},
    {"global_array_sum",
     "int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};"
     " int main() { int s = 0; for (int i = 0; i < 8; i++) s += data[i];"
     " return s; }", 36},
    {"local_array",
     "int main() { int v[4]; for (int i = 0; i < 4; i++) v[i] = i * i;"
     " return v[0] + v[1] + v[2] + v[3]; }", 14},
    {"pointer_arithmetic",
     "int data[5] = {10, 20, 30, 40, 50};"
     " int main() { int* p = data + 1; p += 2; return *p + *(p - 1) +"
     " (int)(p - data); }", 73},
    {"char_type",
     "int main() { char c = 'A'; c += 2; char buf[4]; buf[0] = c;"
     " return buf[0] + (c == 'C'); }", 68},
    {"char_sign_extension",
     "int main() { char c = (char)200; return (int)c; }", -56},
    {"struct_members",
     "struct Point { int x; int y; };"
     " int main() { struct Point p; p.x = 3; p.y = 4; return p.x * p.x + p.y"
     " * p.y; }", 25},
    {"struct_pointer_arrow",
     "struct Pair { int a; int b; };"
     " struct Pair g;"
     " int sum(struct Pair* p) { return p->a + p->b; }"
     " int main() { g.a = 20; g.b = 22; return sum(&g); }", 42},
    {"struct_alignment",
     "struct Mixed { char c; double d; char e; };"
     " int main() { return sizeof(struct Mixed); }", 24},
    {"sizeof_operator",
     "int main() { return sizeof(int) + sizeof(char) + sizeof(double) +"
     " sizeof(int*); }", 17},
    {"float_arithmetic",
     "int main() { float a = 1.5f; float b = 2.5f; return (int)(a * b + 0.25f);"
     " }", 4},
    {"double_precision",
     "int main() { double a = 1.0; int i; for (i = 0; i < 10; i++) a = a / 3.0"
     " * 3.0; return (int)(a * 1000.0); }", 1000},
    {"float_compare",
     "int main() { float a = 0.5f; float b = 0.25f; return (a > b) * 10 +"
     " (a == b) + (a >= 0.5f); }", 11},
    {"int_float_conversion",
     "int main() { int i = 7; float f = (float)i / 2.0f; return (int)(f * 10.0f"
     "); }", 35},
    {"function_pointer",
     "int twice(int x) { return x + x; }"
     " int main() { int (*f)(int) = twice; return f(21); }", 42},
    {"logical_shortcircuit",
     "int g = 0;"
     " int bump() { g = g + 1; return 1; }"
     " int main() { int a = 0 && bump(); int b = 1 || bump(); return g * 100 +"
     " a * 10 + b; }", 1},
    {"comma_operator", "int main() { int a = (1, 2, 3); return a; }", 3},
    {"string_literal",
     "int main() { char* s = \"AB\"; return s[0] + s[1]; }", 131},
    {"negative_modulo", "int main() { return -7 % 3; }", -1},
    {"bitwise_complement", "int main() { return ~0 + 2; }", 1},
    {"extern_unresolved_is_linked_not_emitted",
     "extern int shared[4];"
     " int probe(int i) { return i; }"
     " int main() { return probe(3); }", 3},
};

INSTANTIATE_TEST_SUITE_P(Programs, CompileRun, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<CompileRunCase>& i) {
                           return std::string(i.param.name);
                         });

// ---- the paper's named integration workloads ------------------------------

TEST(PaperWorkloads, QuicksortSortsAndOptimizationPreservesResults) {
  const char* source = R"(
int arr[24] = {9, 3, 7, 1, 12, 0, 5, 14, 8, 2, 11, 4,
               13, 6, 10, 15, 23, 17, 21, 16, 22, 18, 20, 19};
void swap(int* a, int* b) { int t = *a; *a = *b; *b = t; }
int partition(int* v, int lo, int hi) {
  int pivot = v[hi];
  int i = lo - 1;
  for (int j = lo; j < hi; j++) {
    if (v[j] < pivot) { i++; swap(&v[i], &v[j]); }
  }
  swap(&v[i + 1], &v[hi]);
  return i + 1;
}
void quicksort(int* v, int lo, int hi) {
  if (lo < hi) {
    int p = partition(v, lo, hi);
    quicksort(v, lo, p - 1);
    quicksort(v, p + 1, hi);
  }
}
int main() {
  quicksort(arr, 0, 23);
  for (int i = 0; i < 23; i++) {
    if (arr[i] > arr[i + 1]) return -1;
  }
  return arr[0] * 100 + arr[23];
}
)";
  std::uint64_t o0 = 0, o3 = 0;
  EXPECT_EQ(CompileAndRun(source, 0, &o0), 23);
  EXPECT_EQ(CompileAndRun(source, 3, &o3), 23);
  EXPECT_LT(o3, o0) << "optimization should reduce instruction count";
}

TEST(PaperWorkloads, LinkedListTraversal) {
  const char* source = R"(
struct Node { int value; struct Node* next; };
struct Node pool[16];
int main() {
  struct Node* head = 0;
  for (int i = 0; i < 16; i++) {
    pool[i].value = i * 3;
    pool[i].next = head;
    head = &pool[i];
  }
  int sum = 0;
  int count = 0;
  for (struct Node* p = head; p != 0; p = p->next) {
    sum += p->value;
    count++;
  }
  return sum + count;
}
)";
  EXPECT_EQ(CompileAndRun(source, 0), 120 * 3 + 16);
  EXPECT_EQ(CompileAndRun(source, 2), 120 * 3 + 16);
}

TEST(PaperWorkloads, PolymorphismViaFunctionPointerTables) {
  // Dynamic dispatch exactly as a C++ compiler would lower virtual calls:
  // an explicit vtable of function pointers selected per object.
  const char* source = R"(
struct Shape { int kind; int a; int b; };
int rectArea(struct Shape* s) { return s->a * s->b; }
int triArea(struct Shape* s) { return s->a * s->b / 2; }
int (*vtable[2])(struct Shape*);
struct Shape shapes[4];
int main() {
  vtable[0] = rectArea;
  vtable[1] = triArea;
  for (int i = 0; i < 4; i++) {
    shapes[i].kind = i % 2;
    shapes[i].a = i + 2;
    shapes[i].b = 10;
  }
  int total = 0;
  for (int i = 0; i < 4; i++) {
    total += vtable[shapes[i].kind](&shapes[i]);
  }
  return total;
}
)";
  EXPECT_EQ(CompileAndRun(source, 0), 20 + 15 + 40 + 25);
  EXPECT_EQ(CompileAndRun(source, 3), 20 + 15 + 40 + 25);
}

// ---- diagnostics ------------------------------------------------------------

TEST(Diagnostics, SyntaxErrorsCarryPositions) {
  auto result = Compile("int main() {\n  return 1 +;\n}");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().pos.line, 2u);
}

TEST(Diagnostics, SemanticErrors) {
  EXPECT_FALSE(Compile("int main() { return x; }").ok());
  EXPECT_FALSE(Compile("int main() { int a; return a(); }").ok());
  EXPECT_FALSE(Compile("int main() { return missing(1); }").ok());
  EXPECT_FALSE(Compile("struct S { int a; };"
                       " int main() { struct S s; return s.b; }").ok());
  EXPECT_FALSE(Compile("int f(int a) { return a; }"
                       " int main() { return f(1, 2); }").ok());
  EXPECT_FALSE(Compile("void f() { return 1; } int main() { return 0; }").ok());
}

TEST(Diagnostics, LexerErrors) {
  EXPECT_FALSE(Compile("int main() { return '\\q'; }").ok());
  EXPECT_FALSE(Compile("int main() { char* s = \"abc; }").ok());
  EXPECT_FALSE(Compile("int main() { return 1; } /* unterminated").ok());
}

TEST(Lexer, TokenKindsAndLiterals) {
  auto tokens = Tokenize("int x = 0x1F + 'a' - 2.5f; // c\n");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  EXPECT_EQ(ts[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(ts[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(ts[3].intValue, 31);
  EXPECT_EQ(ts[5].intValue, 'a');
  EXPECT_TRUE(ts[7].isFloatLiteral32);
  EXPECT_DOUBLE_EQ(ts[7].floatValue, 2.5);
  EXPECT_EQ(ts.back().kind, TokenKind::kEof);
}

TEST(CLineTags, EmittedAssemblyLinksToSourceLines) {
  auto compiled = Compile("int main() {\n  int a = 1;\n  return a + 2;\n}");
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(compiled.value().assembly.find("#@c 2"), std::string::npos);
  EXPECT_NE(compiled.value().assembly.find("#@c 3"), std::string::npos);
}

TEST(Optimizer, ConstantFoldingShrinksPrograms) {
  const char* source = "int main() { return 2 * 3 + 4 * 5 - 6 / 2; }";
  auto o0 = Compile(source, CompileOptions{0});
  auto o1 = Compile(source, CompileOptions{1});
  ASSERT_TRUE(o0.ok());
  ASSERT_TRUE(o1.ok());
  EXPECT_LT(o1.value().assembly.size(), o0.value().assembly.size());
  EXPECT_EQ(CompileAndRun(source, 1), 23);
}

// ---- nesting budget ---------------------------------------------------------

std::string Repeat(const std::string& text, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) out += text;
  return out;
}

TEST(Diagnostics, DeepNestingIsAParseErrorNotAStackOverflow) {
  const std::string sources[] = {
      "int main(){ return " + Repeat("(", 5000) + "1" + Repeat(")", 5000) +
          "; }",
      // Parsed iteratively, but the left-deep tree it builds is as deep as
      // the chain is long: the optimizer and codegen recurse over it.
      "int main(){ return 1" + Repeat("+1", 19999) + "; }",
      "int main(){ " + Repeat("{", 20000) + Repeat("}", 20000) +
          " return 0; }",
      "int main(){ return " + Repeat("-", 20000) + "1; }",
      "int main(){ int " + Repeat("*", 20000) + "p; return 0; }",
      "struct S { struct S* n; }; int main(){ struct S* p = 0; return p" +
          Repeat("->n", 20000) + " == 0; }",
  };
  for (const std::string& source : sources) {
    auto result = Compile(source);
    ASSERT_FALSE(result.ok()) << source.substr(0, 40);
    EXPECT_EQ(result.error().kind, ErrorKind::kParse);
    EXPECT_NE(result.error().message.find("nesting deeper than 256"),
              std::string::npos)
        << result.error().message;
  }
}

TEST(Diagnostics, NestingWithinTheBudgetCompiles) {
  EXPECT_EQ(CompileAndRun("int main(){ return " + Repeat("(", 60) + "7" +
                              Repeat(")", 60) + "; }",
                          0),
            7);
  EXPECT_EQ(CompileAndRun("int main(){ return 1" + Repeat("+1", 99) + "; }",
                          2),
            100);
  EXPECT_EQ(CompileAndRun("int main(){ int x = 3; " + Repeat("{", 60) +
                              "x = x + 1;" + Repeat("}", 60) + " return x; }",
                          1),
            4);
}

}  // namespace
}  // namespace rvss::cc
