// Random RISC-V program generator for differential fuzzing.
//
// Generates syntactically valid, *always terminating* assembly programs:
// loops are strictly counted on dedicated registers the loop body never
// touches, conditional branches only jump forward, and memory accesses are
// confined to a generated scratch array. Running the same program through
// the golden-model ISS and the out-of-order core and comparing the final
// architectural state is the strongest correctness property the simulator
// has (tests/differential_test.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace rvss::ref {

struct ProgenOptions {
  std::uint32_t instructionTarget = 120;  ///< approximate body size
  std::uint32_t maxLoopDepth = 2;
  std::uint32_t maxLoopIterations = 6;
  bool useFloat = true;      ///< include F-extension operations
  bool useDouble = true;     ///< include D-extension operations
  bool useMulDiv = true;     ///< include M-extension operations
  bool useMemory = true;     ///< loads/stores into the scratch array
  bool useForwardBranches = true;
};

/// Generates a program for `seed`. The program defines a `main` entry
/// label, a scratch data array, and finishes with `ret` (exit sentinel).
std::string GenerateProgram(std::uint64_t seed, const ProgenOptions& options = {});

}  // namespace rvss::ref
