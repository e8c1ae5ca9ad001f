#include "assembler/decoded_program.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace rvss::assembler {

namespace {

/// The issue window that feeds the units of an operation class.
WindowKind WindowFor(isa::OpClass opClass) {
  switch (opClass) {
    case isa::OpClass::kIntAlu:
    case isa::OpClass::kIntMul:
    case isa::OpClass::kIntDiv:
      return WindowKind::kFx;
    case isa::OpClass::kFpAdd:
    case isa::OpClass::kFpMul:
    case isa::OpClass::kFpDiv:
    case isa::OpClass::kFpFma:
    case isa::OpClass::kFpOther:
      return WindowKind::kFp;
    case isa::OpClass::kMemAddr:
      return WindowKind::kLs;
    case isa::OpClass::kBranch:
      return WindowKind::kBranch;
  }
  return WindowKind::kFx;
}

FastPath ClassifyFastPath(const DecodedOp& op) {
  using FastKind = expr::Expression::FastForm::Kind;
  const isa::InstructionDescription& def = *op.def;
  if (def.isHalt) return FastPath::kHalt;
  if (op.expr == nullptr) return FastPath::kSlow;
  if (op.fast.kind == FastKind::kBinaryAssign && !def.IsMemory() &&
      def.branch == isa::BranchKind::kNone) {
    return FastPath::kAlu;
  }
  if (op.fast.kind == FastKind::kBinaryValue) {
    if (def.IsMemory()) return FastPath::kMemAddress;
    if (def.branch == isa::BranchKind::kConditional) {
      return FastPath::kCondBranch;
    }
  }
  return FastPath::kSlow;
}

OperandSlot DecodeOperand(const isa::ArgumentDescription& arg,
                          const Operand& operand) {
  OperandSlot slot;
  slot.type = arg.type;
  if (operand.isRegister) slot.reg = operand.reg;
  const bool isX0 = operand.isRegister &&
                    operand.reg.kind == isa::RegisterKind::kInt &&
                    operand.reg.index == isa::kZeroReg;
  if (arg.writeBack) {
    slot.kind = operand.isRegister && !isX0 ? OperandSlot::Kind::kDest
                                            : OperandSlot::Kind::kDestX0;
  } else if (!operand.isRegister) {
    slot.kind = OperandSlot::Kind::kImmediate;
    slot.fixed = expr::ImmediateToValue(operand.imm, arg.type);
  } else if (isX0) {
    slot.kind = OperandSlot::Kind::kZeroSource;
    slot.fixed = expr::CellToValue(0, arg.type);
  } else {
    slot.kind = OperandSlot::Kind::kRegSource;
  }
  return slot;
}

}  // namespace

DecodedProgram::DecodedProgram(const Program& program)
    : entryPc_(program.entryPc) {
  // Each distinct definition compiles once; a failure is kept and
  // surfaced by whichever model executes the instruction first.
  std::unordered_map<const isa::InstructionDescription*,
                     Result<const expr::Expression*>>
      compiled;
  ops_.reserve(program.instructions.size());
  for (const Instruction& inst : program.instructions) {
    const isa::InstructionDescription& def = *inst.def;
    auto it = compiled.find(&def);
    if (it == compiled.end()) {
      Result<const expr::Expression*> outcome =
          Error{ErrorKind::kSemantic,
                "'" + def.name + "' has more than " +
                    std::to_string(kMaxOperands) + " arguments"};
      if (def.args.size() <= kMaxOperands) {
        auto expression = expr::Expression::Compile(def.interpretableAs, def);
        if (expression.ok()) {
          outcome = &expressions_.emplace_back(std::move(expression).value());
        } else {
          outcome = expression.error();
        }
      }
      it = compiled.emplace(&def, std::move(outcome)).first;
    }

    DecodedOp op;
    op.def = &def;
    if (it->second.ok()) {
      op.expr = it->second.value();
      op.fast = op.expr->fastForm();
    } else {
      op.exprError = it->second.error();
    }
    op.path = ClassifyFastPath(op);
    op.window = WindowFor(def.opClass);
    op.operandCount =
        static_cast<std::uint8_t>(std::min(def.args.size(), kMaxOperands));
    op.isControl = def.IsControlFlow();
    op.typeIndex = static_cast<std::uint8_t>(def.type);
    op.flops = def.flops;
    if (def.branch == isa::BranchKind::kConditional ||
        def.branch == isa::BranchKind::kUnconditionalDirect) {
      const int immIndex = def.ArgIndex("imm");
      if (immIndex >= 0) {
        op.branchImm = inst.operands[static_cast<std::size_t>(immIndex)].imm;
      }
    }
    for (std::size_t i = 0; i < op.operandCount; ++i) {
      op.operands[i] = DecodeOperand(def.args[i], inst.operands[i]);
      if (op.operands[i].kind == OperandSlot::Kind::kDest) ++op.destsNeeded;
    }
    ops_.push_back(std::move(op));
  }
}

}  // namespace rvss::assembler
