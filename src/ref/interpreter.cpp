#include "ref/interpreter.h"

#include "common/strings.h"

namespace rvss::ref {

const char* ToString(ExitReason reason) {
  switch (reason) {
    case ExitReason::kRunning: return "running";
    case ExitReason::kMainReturned: return "main returned";
    case ExitReason::kHalted: return "halted";
    case ExitReason::kRanOffCode: return "ran off code";
    case ExitReason::kFault: return "fault";
  }
  return "unknown";
}

Interpreter::Interpreter(const assembler::DecodedProgram& program,
                         memory::MainMemory& memory, bool trapOnDivZero)
    : program_(program),
      memory_(memory),
      trapOnDivZero_(trapOnDivZero),
      pc_(program.entryPc()) {}

expr::Value Interpreter::LeafValue(
    const expr::Expression::FastForm::Operand& leaf,
    const assembler::DecodedOp& op) const {
  switch (leaf.src) {
    case expr::Expression::FastForm::Operand::Src::kArg:
      return SlotValue(op.operands[leaf.arg]);
    case expr::Expression::FastForm::Operand::Src::kLiteral:
      return expr::Value::Int(leaf.literal);
    case expr::Expression::FastForm::Operand::Src::kPc:
      break;
  }
  return expr::Value::Int(static_cast<std::int32_t>(pc_));
}

void Interpreter::WriteSlot(const assembler::OperandSlot& slot,
                            std::uint64_t cell) {
  if (slot.kind != assembler::OperandSlot::Kind::kDest) return;
  if (slot.reg.kind == isa::RegisterKind::kInt) {
    x_[slot.reg.index] = cell;
  } else {
    f_[slot.reg.index] = cell;
  }
}

void Interpreter::InitRegisters(std::uint32_t initialSp) {
  x_.fill(0);
  f_.fill(0);
  x_[isa::kSpReg] = initialSp;
  x_[isa::kRaReg] = isa::kExitAddress;
  pc_ = program_.entryPc();
}

ExitReason Interpreter::Fault(std::string message) {
  fault_ = Error{ErrorKind::kRuntime, std::move(message)};
  return ExitReason::kFault;
}

ExitReason Interpreter::StepOne() {
  const std::uint32_t index = pc_ / 4;
  if (pc_ % 4 != 0) {
    return Fault(StrFormat("misaligned PC 0x%08x", pc_));
  }
  if (index >= program_.size()) {
    return ExitReason::kRanOffCode;
  }
  // Fast paths: binary forms skip the gather / stack-machine / write-effect
  // plumbing, and the one-byte dispatch tag avoids touching the
  // instruction description at all on the common paths.
  const assembler::DecodedOp& op = program_[index];
  switch (op.path) {
    case assembler::FastPath::kHalt:
      ++stats_.executedInstructions;
      ++stats_.mixByType[op.typeIndex];
      return ExitReason::kHalted;
    case assembler::FastPath::kAlu: {
      expr::EvalFlags flags;
      const expr::Value value =
          expr::Expression::ApplyBinary(op.fast.op, LeafValue(op.fast.a, op),
                                        LeafValue(op.fast.b, op), flags)
              .ConvertTo(op.fast.dstKind);
      if (trapOnDivZero_ && flags.divByZero) {
        return Fault(StrFormat("division by zero at pc 0x%08x", pc_));
      }
      const assembler::OperandSlot& dst = op.operands[op.fast.dstArg];
      WriteSlot(dst, expr::ValueToCell(value, dst.type));
      ++stats_.executedInstructions;
      ++stats_.mixByType[op.typeIndex];
      stats_.flops += op.flops;
      pc_ += 4;
      return ExitReason::kRunning;
    }
    case assembler::FastPath::kCondBranch: {
      expr::EvalFlags flags;
      const bool taken =
          expr::Expression::ApplyBinary(op.fast.op, LeafValue(op.fast.a, op),
                                        LeafValue(op.fast.b, op), flags)
              .AsBool();
      ++stats_.executedInstructions;
      ++stats_.mixByType[op.typeIndex];
      if (taken) {
        ++stats_.takenBranches;
        pc_ += static_cast<std::uint32_t>(op.branchImm);
      } else {
        ++stats_.notTakenBranches;
        pc_ += 4;
      }
      return ExitReason::kRunning;
    }
    case assembler::FastPath::kMemAddress: {
      expr::EvalFlags flags;
      const std::uint32_t address =
          expr::Expression::ApplyBinary(op.fast.op, LeafValue(op.fast.a, op),
                                        LeafValue(op.fast.b, op), flags)
              .ConvertTo(expr::ValueKind::kUInt)
              .AsUInt32();
      ++stats_.executedInstructions;
      ++stats_.mixByType[op.typeIndex];
      stats_.flops += op.flops;
      return FinishMemory(op, address);
    }
    case assembler::FastPath::kSlow:
      break;
  }

  const isa::InstructionDescription& def = *op.def;
  if (op.expr == nullptr) {
    return Fault("bad semantics for '" + def.name +
                 "': " + op.exprError->message);
  }
  expr::Value args[assembler::kMaxOperands];
  for (std::size_t i = 0; i < op.operandCount; ++i) {
    args[i] = SlotValue(op.operands[i]);
  }
  expr::EvalResult& result = evalScratch_;
  op.expr->EvaluateInto(std::span<const expr::Value>(args, op.operandCount),
                        pc_, result);

  if (trapOnDivZero_ && result.flags.divByZero) {
    return Fault(StrFormat("division by zero at pc 0x%08x", pc_));
  }

  // Apply register write-backs.
  for (const expr::WriteEffect& write : result.writes) {
    const assembler::OperandSlot& dst =
        op.operands[static_cast<std::size_t>(write.argIndex)];
    WriteSlot(dst, expr::ValueToCell(write.value, dst.type));
  }

  ++stats_.executedInstructions;
  ++stats_.mixByType[op.typeIndex];
  stats_.flops += op.flops;

  // Memory operations.
  if (def.IsMemory()) {
    return FinishMemory(
        op, result.stackTop->ConvertTo(expr::ValueKind::kUInt).AsUInt32());
  }

  // Control flow.
  switch (def.branch) {
    case isa::BranchKind::kNone:
      pc_ += 4;
      return ExitReason::kRunning;
    case isa::BranchKind::kConditional: {
      const bool taken = result.stackTop->AsBool();
      if (taken) {
        ++stats_.takenBranches;
        pc_ += static_cast<std::uint32_t>(op.branchImm);
      } else {
        ++stats_.notTakenBranches;
        pc_ += 4;
      }
      return ExitReason::kRunning;
    }
    case isa::BranchKind::kUnconditionalDirect:
    case isa::BranchKind::kUnconditionalIndirect: {
      const std::uint32_t target =
          result.stackTop->ConvertTo(expr::ValueKind::kUInt).AsUInt32();
      if (target == isa::kExitAddress) {
        return ExitReason::kMainReturned;
      }
      if (target % 4 != 0 || target / 4 >= program_.size()) {
        return Fault(StrFormat("jump to invalid address 0x%08x", target));
      }
      pc_ = target;
      return ExitReason::kRunning;
    }
  }
  return ExitReason::kRunning;
}

ExitReason Interpreter::FinishMemory(const assembler::DecodedOp& op,
                                     std::uint32_t address) {
  const isa::MemAccess& mem = op.def->mem;
  if (!memory_.InBounds(address, mem.sizeBytes)) {
    return Fault(StrFormat("memory access out of bounds: 0x%08x (size %u)",
                           address, mem.sizeBytes));
  }
  // Operand 0 is the loaded register, or a store's data register (rs2).
  const assembler::OperandSlot& reg = op.operands[0];
  if (mem.isLoad) {
    const std::uint64_t raw = memory_.ReadBytes(address, mem.sizeBytes);
    std::uint64_t cell = raw;
    if (mem.isFloat) {
      if (mem.sizeBytes == 4) {
        cell = NanBoxFloat(static_cast<std::uint32_t>(raw));
      }
    } else if (mem.isSigned) {
      cell = static_cast<std::uint64_t>(SignExtend(raw, mem.sizeBytes * 8));
    }
    WriteSlot(reg, cell);
  } else {
    std::uint64_t raw = RegCell(reg.reg);
    if (mem.isFloat && mem.sizeBytes == 4) raw = UnboxFloat(raw);
    memory_.WriteBytes(address, mem.sizeBytes, raw);
  }
  pc_ += 4;
  return ExitReason::kRunning;
}

ExitReason Interpreter::Run(std::uint64_t maxInstructions) {
  const std::uint64_t limit = stats_.executedInstructions + maxInstructions;
  while (stats_.executedInstructions < limit) {
    ExitReason reason = StepOne();
    if (reason != ExitReason::kRunning) return reason;
  }
  return ExitReason::kRunning;
}

}  // namespace rvss::ref
