// Golden-model instruction-set simulator.
//
// A deliberately simple in-order, one-instruction-at-a-time interpreter
// over the *same* decoded program (assembler::DecodedProgram: definitions,
// compiled semantics, operand routing) as the out-of-order core. It serves
// three purposes:
//   1. differential oracle — the OoO core must produce the identical
//      architectural state on every program and configuration,
//   2. fast batch execution for the compiler's own tests,
//   3. a reference for the per-instruction semantics test suite.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "assembler/decoded_program.h"
#include "assembler/loader.h"
#include "common/status.h"
#include "expr/reg_value.h"
#include "isa/abi.h"
#include "memory/main_memory.h"

namespace rvss::ref {

enum class ExitReason : std::uint8_t {
  kRunning,       ///< budget exhausted before completion
  kMainReturned,  ///< jump to the exit sentinel (ret from entry routine)
  kHalted,        ///< ecall / ebreak committed
  kRanOffCode,    ///< PC advanced past the last instruction
  kFault,         ///< runtime exception (bad access, misaligned jump, ...)
};

const char* ToString(ExitReason reason);

/// Dynamic execution counters (a subset of the paper's statistics that is
/// meaningful without a microarchitecture).
struct InterpreterStats {
  std::uint64_t executedInstructions = 0;
  std::uint64_t flops = 0;
  std::uint64_t takenBranches = 0;
  std::uint64_t notTakenBranches = 0;
  std::array<std::uint64_t, 7> mixByType{};  ///< indexed by InstructionType
};

class Interpreter {
 public:
  /// `memory` must already contain the program's data (see LoadProgram).
  /// `program` is read, never copied, and must outlive the interpreter.
  Interpreter(const assembler::DecodedProgram& program,
              memory::MainMemory& memory, bool trapOnDivZero = false);

  /// Installs sp / ra and the entry PC. Call before Run/StepOne.
  void InitRegisters(std::uint32_t initialSp);

  /// Runs until completion or until `maxInstructions` executed.
  ExitReason Run(std::uint64_t maxInstructions = 100'000'000);

  /// Executes one instruction; returns kRunning while there is more.
  ExitReason StepOne();

  std::uint32_t pc() const { return pc_; }
  const assembler::DecodedProgram& program() const { return program_; }
  const InterpreterStats& stats() const { return stats_; }
  /// Fault details when the exit reason was kFault.
  const std::optional<Error>& fault() const { return fault_; }

  /// Architectural register access (tests, differential comparison).
  std::uint64_t ReadIntReg(unsigned index) const { return x_[index]; }
  std::uint64_t ReadFpReg(unsigned index) const { return f_[index]; }
  void WriteIntReg(unsigned index, std::uint64_t cell) {
    if (index != 0) x_[index] = cell;
  }
  void WriteFpReg(unsigned index, std::uint64_t cell) { f_[index] = cell; }

  /// Complete architectural state (registers + PC) — the fast-forward
  /// hand-off between the ISS and the detailed model. Memory is shared by
  /// reference and not part of this struct.
  struct ArchState {
    std::array<std::uint64_t, 32> x{};
    std::array<std::uint64_t, 32> f{};
    std::uint32_t pc = 0;
  };
  ArchState SaveArchState() const { return ArchState{x_, f_, pc_}; }
  void RestoreArchState(const ArchState& state) {
    x_ = state.x;
    x_[0] = 0;
    f_ = state.f;
    pc_ = state.pc;
  }

 private:
  ExitReason Fault(std::string message);

  std::uint64_t RegCell(isa::RegisterId reg) const {
    return reg.kind == isa::RegisterKind::kInt ? x_[reg.index] : f_[reg.index];
  }
  /// Current value of a source slot (dest slots read as an empty Value,
  /// exactly like the stack machine's unbound write-back arguments).
  expr::Value SlotValue(const assembler::OperandSlot& slot) const {
    return slot.kind == assembler::OperandSlot::Kind::kRegSource
               ? expr::CellToValue(RegCell(slot.reg), slot.type)
               : slot.fixed;
  }
  expr::Value LeafValue(const expr::Expression::FastForm::Operand& leaf,
                        const assembler::DecodedOp& op) const;
  /// Register write-back through a dest slot; x0 dests are discarded.
  void WriteSlot(const assembler::OperandSlot& slot, std::uint64_t cell);
  /// Bounds-checks `address` and performs the load or store of `op`.
  ExitReason FinishMemory(const assembler::DecodedOp& op,
                          std::uint32_t address);

  const assembler::DecodedProgram& program_;
  memory::MainMemory& memory_;
  bool trapOnDivZero_;
  expr::EvalResult evalScratch_;

  std::array<std::uint64_t, 32> x_{};
  std::array<std::uint64_t, 32> f_{};
  std::uint32_t pc_ = 0;
  InterpreterStats stats_;
  std::optional<Error> fault_;
};

}  // namespace rvss::ref
