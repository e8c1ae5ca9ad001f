// The decoded program: one immutable per-PC table shared by every
// execution model.
//
// A program's instruction at `pc` never changes, so everything derivable
// from the (assembler::Program, ISA) pair is computed once and indexed by
// pc / 4: the compiled `interpretableAs` expression and its recognized
// fast form, operand routing with pre-converted immediates, and the
// control-flow facts fetch and branch resolution need. The reference ISS
// (ref::Interpreter), the detailed core (core::Simulation) and the
// fast-forward hand-off between them all read the same table, so the two
// models cannot disagree about what a static instruction means.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "assembler/program.h"
#include "common/status.h"
#include "expr/expression.h"
#include "expr/reg_value.h"

namespace rvss::assembler {

/// Operand slots per instruction (fmadd's rd, rs1, rs2, rs3).
inline constexpr std::size_t kMaxOperands = 4;

/// Issue-window identity (one per functional-unit class).
enum class WindowKind : std::uint8_t { kFx, kFp, kLs, kBranch };

/// Which specialized execute path the ISS takes for a static instruction:
/// one byte, so its StepOne dispatches without touching the description.
enum class FastPath : std::uint8_t {
  kSlow,        ///< full gather / stack machine / write-effect path
  kAlu,         ///< kBinaryAssign, no memory, no branch
  kCondBranch,  ///< kBinaryValue conditional branch
  kMemAddress,  ///< kBinaryValue effective address of a load/store
  kHalt,        ///< ecall / ebreak
};

/// Static routing of one operand slot: its classification plus any value
/// that does not depend on runtime state (converted immediates, x0 reads).
struct OperandSlot {
  enum class Kind : std::uint8_t {
    kImmediate,   ///< non-register operand; `fixed` holds the converted value
    kZeroSource,  ///< x0 source; `fixed` holds the typed zero
    kRegSource,   ///< register source
    kDestX0,      ///< write-back to x0 (or malformed dest): discarded
    kDest,        ///< write-back register
  };
  Kind kind = Kind::kImmediate;
  isa::RegisterId reg;  ///< the operand's register (x0 when not a register)
  isa::ArgType type{};  ///< declared argument type
  expr::Value fixed;    ///< for kImmediate / kZeroSource
};

/// Everything either model would otherwise re-derive on every dynamic
/// instance of one static instruction. Hot fields first, the compile error
/// (read only when an instruction faults) last.
struct DecodedOp {
  FastPath path = FastPath::kSlow;
  WindowKind window = WindowKind::kFx;
  std::uint8_t operandCount = 0;
  std::uint8_t destsNeeded = 0;  ///< rename registers required at decode
  bool isControl = false;
  std::uint8_t typeIndex = 0;    ///< def->type, for the dynamic mix
  std::uint8_t flops = 0;        ///< def->flops
  std::int32_t branchImm = 0;    ///< pc-relative offset (conditional / jal)
  /// Compile-time shape of the semantics; when recognized, executors apply
  /// the operator directly instead of running the stack machine.
  expr::Expression::FastForm fast{};
  const isa::InstructionDescription* def = nullptr;
  const expr::Expression* expr = nullptr;  ///< null when compilation failed
  std::array<OperandSlot, kMaxOperands> operands{};
  std::optional<Error> exprError;          ///< surfaced at execute time
};

class DecodedProgram {
 public:
  /// Compiles every distinct definition once and decodes every static
  /// instruction. Keeps no reference to `program`.
  explicit DecodedProgram(const Program& program);

  // Entries point into expressions_, whose elements never move: moving the
  // program keeps them valid, copying would not.
  DecodedProgram(DecodedProgram&&) = default;
  DecodedProgram& operator=(DecodedProgram&&) = default;
  DecodedProgram(const DecodedProgram&) = delete;
  DecodedProgram& operator=(const DecodedProgram&) = delete;

  /// Entry of the instruction at pc = 4 * index.
  const DecodedOp& operator[](std::size_t index) const { return ops_[index]; }
  std::size_t size() const { return ops_.size(); }
  std::uint32_t entryPc() const { return entryPc_; }

 private:
  std::deque<expr::Expression> expressions_;  ///< one per distinct definition
  std::vector<DecodedOp> ops_;
  std::uint32_t entryPc_ = 0;
};

}  // namespace rvss::assembler
