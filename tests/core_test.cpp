// Out-of-order core tests: termination, speculation, forwarding, stalls,
// exceptions, determinism and backward simulation.
#include <gtest/gtest.h>

#include "server/state_renderer.h"
#include "test_util.h"

namespace rvss::core {
namespace {

using testutil::RunOnCore;

const char* kCountdown = R"(
main:
    li t0, 20
    li a0, 0
loop:
    add a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

TEST(Core, TerminatesOnMainReturn) {
  auto sim = RunOnCore(kCountdown, config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->finishReason(), FinishReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 210);
}

TEST(Core, TerminatesOnPipelineEmpty) {
  auto sim = RunOnCore("li a0, 5\naddi a0, a0, 1\n", config::DefaultConfig());
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->finishReason(), FinishReason::kPipelineEmpty);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 6);
}

TEST(Core, TerminatesOnEbreakAndEcall) {
  for (const char* halt : {"ebreak", "ecall"}) {
    auto sim = RunOnCore(std::string("li a0, 1\n") + halt + "\nli a0, 9\n",
                         config::DefaultConfig());
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->finishReason(), FinishReason::kHalted);
    // The instruction after the halt must not commit.
    EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 1);
  }
}

TEST(Core, OutOfBoundsLoadFaultsAtCommit) {
  auto sim = RunOnCore("li a1, 0x7fffffff\nlw a0, 0(a1)\nret\n",
                       config::DefaultConfig());
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->status(), SimStatus::kFault);
  EXPECT_EQ(sim->finishReason(), FinishReason::kException);
  ASSERT_TRUE(sim->fault().has_value());
  EXPECT_EQ(sim->fault()->kind, ErrorKind::kRuntime);
}

TEST(Core, SpeculativeWildLoadIsHarmlessWhenSquashed) {
  // The branch is always taken, so the wild load never commits; a paper-
  // style commit-time exception check must not fire.
  auto sim = RunOnCore(R"(
main:
    li t0, 1
    li a1, 0x7ffffff0
    bnez t0, safe
    lw a0, 0(a1)
safe:
    li a0, 123
    ret
)", config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->finishReason(), FinishReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 123);
}

TEST(Core, DivisionByZeroTrapsOnlyWhenConfigured) {
  const char* source = "li a1, 1\nli a2, 0\ndiv a0, a1, a2\nret\n";
  auto spec = RunOnCore(source, config::DefaultConfig());
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->finishReason(), FinishReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(spec->ReadIntReg(10)), -1);

  config::CpuConfig trapping = config::DefaultConfig();
  trapping.trapOnDivZero = true;
  auto trap = RunOnCore(source, trapping);
  ASSERT_NE(trap, nullptr);
  EXPECT_EQ(trap->finishReason(), FinishReason::kException);
}

TEST(Core, StoreToLoadForwardingExactMatch) {
  auto sim = RunOnCore(R"(
.data
v: .word 1
.text
main:
    la a1, v
    li a2, 77
    sw a2, 0(a1)
    lw a0, 0(a1)
    ret
)", config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 77);
}

TEST(Core, PartialOverlapStoreBlocksLoadCorrectly) {
  auto sim = RunOnCore(R"(
.data
v: .word 0x11223344
.text
main:
    la a1, v
    li a2, 0x99
    sb a2, 1(a1)
    lw a0, 0(a1)
    ret
)", config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->ReadIntReg(10) & 0xffffffff, 0x11229944u);
}

TEST(Core, MispredictsFlushAndRecover) {
  // Data-dependent alternating branch: guaranteed mispredictions.
  auto sim = RunOnCore(R"(
main:
    li t0, 64
    li a0, 0
    li t1, 0
loop:
    andi t2, t0, 1
    beqz t2, even
    addi a0, a0, 3
    j next
even:
    addi a0, a0, 1
next:
    addi t0, t0, -1
    bnez t0, loop
    ret
)", config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 32 * 3 + 32 * 1);
  EXPECT_GT(sim->statistics().robFlushes, 0u);
  EXPECT_GT(sim->statistics().squashedInstructions, 0u);
  EXPECT_LT(sim->statistics().BranchAccuracy(), 1.0);
}

TEST(Core, IndirectJumpThroughRegister) {
  auto sim = RunOnCore(R"(
main:
    mv s1, ra
    la t0, callee
    jalr ra, t0, 0
    addi a0, a0, 1
    jr s1
callee:
    li a0, 10
    jr ra
)", config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->finishReason(), FinishReason::kMainReturned);
  EXPECT_EQ(static_cast<std::int32_t>(sim->ReadIntReg(10)), 11);
}

TEST(Core, DeterministicCycleCounts) {
  auto a = RunOnCore(kCountdown, config::DefaultConfig(), "main");
  auto b = RunOnCore(kCountdown, config::DefaultConfig(), "main");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->cycle(), b->cycle());
  EXPECT_EQ(a->statistics().committedInstructions,
            b->statistics().committedInstructions);
  EXPECT_EQ(a->statistics().robFlushes, b->statistics().robFlushes);
}

TEST(Core, BackwardSimulationEqualsForwardReplay) {
  // Run to cycle N, step back twice, and compare against a fresh run to
  // N-2 (paper §III-B: backward simulation is forward re-execution).
  auto sim = core::Simulation::Create(config::DefaultConfig(), kCountdown,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  core::Simulation& s = *sim.value();
  for (int i = 0; i < 30; ++i) s.Step();
  ASSERT_TRUE(s.StepBack().ok());
  ASSERT_TRUE(s.StepBack().ok());
  EXPECT_EQ(s.cycle(), 28u);

  auto fresh = core::Simulation::Create(config::DefaultConfig(), kCountdown,
                                        {{}, "main"});
  ASSERT_TRUE(fresh.ok());
  for (int i = 0; i < 28; ++i) fresh.value()->Step();

  EXPECT_EQ(server::RenderJson(s).Dump(),
            server::RenderJson(*fresh.value()).Dump());
}

TEST(Core, StepBackAtCycleZeroFails) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kCountdown,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  EXPECT_FALSE(sim.value()->StepBack().ok());
}

TEST(Core, CommitWidthBoundsIpc) {
  config::CpuConfig narrow = config::DefaultConfig();
  narrow.buffers.commitWidth = 1;
  auto sim = RunOnCore(kCountdown, narrow, "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_LE(sim->statistics().Ipc(), 1.0);
}

const char* kIlpKernel = R"(
main:
    li t0, 64
    li a0, 0
    li a1, 0
    li a2, 0
    li a3, 0
loop:
    addi a0, a0, 1
    addi a1, a1, 2
    addi a2, a2, 3
    addi a3, a3, 4
    xori a4, a0, 5
    xori a5, a1, 6
    addi t0, t0, -1
    bnez t0, loop
    add a0, a0, a1
    add a0, a0, a2
    add a0, a0, a3
    ret
)";

TEST(Core, ScalarConfigIsSlowerThanWide) {
  auto scalar = RunOnCore(kIlpKernel, config::ScalarConfig(), "main");
  auto wide = RunOnCore(kIlpKernel, config::WideConfig(), "main");
  ASSERT_NE(scalar, nullptr);
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(scalar->statistics().committedInstructions,
            wide->statistics().committedInstructions);
  EXPECT_LT(wide->cycle(), scalar->cycle());
  EXPECT_EQ(static_cast<std::int32_t>(wide->ReadIntReg(10)),
            64 * (1 + 2 + 3 + 4));
}

TEST(Core, CacheDisabledCostsCycles) {
  const char* memHeavy = R"(
.data
arr: .zero 256
.text
main:
    la a1, arr
    li t0, 64
loop:
    slli t1, t0, 2
    addi t1, t1, -4
    add t1, t1, a1
    lw t2, 0(t1)
    addi t2, t2, 1
    sw t2, 0(t1)
    addi t0, t0, -1
    bnez t0, loop
    ret
)";
  auto cached = RunOnCore(memHeavy, config::DefaultConfig(), "main");
  auto uncached = RunOnCore(memHeavy, config::NoCacheConfig(), "main");
  ASSERT_NE(cached, nullptr);
  ASSERT_NE(uncached, nullptr);
  EXPECT_LT(cached->cycle(), uncached->cycle());
  EXPECT_GT(cached->memorySystem().stats().HitRate(), 0.5);
}

TEST(Core, FlushPenaltyCostsCycles) {
  config::CpuConfig fast = config::DefaultConfig();
  fast.buffers.flushPenalty = 0;
  config::CpuConfig slow = config::DefaultConfig();
  slow.buffers.flushPenalty = 12;
  // Alternating branch to force mispredicts.
  const char* branchy = R"(
main:
    li t0, 100
    li a0, 0
loop:
    andi t2, t0, 1
    beqz t2, skip
    addi a0, a0, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    ret
)";
  auto fastSim = RunOnCore(branchy, fast, "main");
  auto slowSim = RunOnCore(branchy, slow, "main");
  ASSERT_NE(fastSim, nullptr);
  ASSERT_NE(slowSim, nullptr);
  EXPECT_LT(fastSim->cycle(), slowSim->cycle());
  EXPECT_EQ(fastSim->ReadIntReg(10), slowSim->ReadIntReg(10));
}

TEST(Core, RenameFileExhaustionStallsButCompletes) {
  config::CpuConfig tiny = config::DefaultConfig();
  tiny.buffers.fetchWidth = 4;
  tiny.memory.renameRegisterCount = 4;
  auto sim = RunOnCore(kIlpKernel, tiny, "main");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->finishReason(), FinishReason::kMainReturned);
  EXPECT_GT(sim->statistics().stallCyclesRenameFull, 0u);
}

TEST(Core, InvalidConfigurationRejectedAtCreate) {
  config::CpuConfig bad = config::DefaultConfig();
  bad.buffers.fetchWidth = 0;
  auto sim = core::Simulation::Create(bad, kCountdown, {{}, "main"});
  EXPECT_FALSE(sim.ok());
  EXPECT_EQ(sim.error().kind, ErrorKind::kConfig);
}

TEST(Core, StatisticsAreInternallyConsistent) {
  auto sim = RunOnCore(kCountdown, config::DefaultConfig(), "main");
  ASSERT_NE(sim, nullptr);
  const stats::SimulationStatistics& st = sim->statistics();
  EXPECT_GE(st.fetchedInstructions, st.decodedInstructions);
  EXPECT_GE(st.decodedInstructions, st.committedInstructions);
  std::uint64_t mixTotal = 0;
  for (std::uint64_t n : st.dynamicMix) mixTotal += n;
  EXPECT_EQ(mixTotal, st.committedInstructions);
  EXPECT_GT(st.Ipc(), 0.0);
}

TEST(Core, CommitTraceMatchesProgramOrder) {
  auto sim = core::Simulation::Create(config::DefaultConfig(), kCountdown,
                                      {{}, "main"});
  ASSERT_TRUE(sim.ok());
  std::vector<std::uint32_t> trace;
  sim.value()->SetCommitTraceSink(&trace);
  sim.value()->Run(100000);
  ASSERT_FALSE(trace.empty());
  // First two commits are the li expansion at main.
  EXPECT_EQ(trace[0], 0u);
  EXPECT_EQ(trace[1], 4u);
  EXPECT_EQ(trace.size(), sim.value()->statistics().committedInstructions);
}

TEST(Core, JumpFollowLimitThrottlesFetch) {
  config::CpuConfig oneJump = config::DefaultConfig();
  oneJump.buffers.fetchBranchFollowLimit = 1;
  config::CpuConfig twoJumps = config::DefaultConfig();
  twoJumps.buffers.fetchBranchFollowLimit = 2;
  const char* jumpy = R"(
main:
    li t0, 200
loop:
    j a
a:  j b
b:  addi t0, t0, -1
    bnez t0, loop
    ret
)";
  auto one = RunOnCore(jumpy, oneJump, "main");
  auto two = RunOnCore(jumpy, twoJumps, "main");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_LE(two->cycle(), one->cycle());
}

// ---- the shared decoded program ---------------------------------------------

// One static instruction per FastPath tag and per operand slot kind.
const char* kDecodeSample = R"(
main:
    addi t0, x0, 5
    addi x0, t0, 1
    beq t0, x0, skip
    fadd.s ft0, ft1, ft2
skip:
    sw t0, -4(sp)
    jal t2, done
    addi t0, t0, 1
done:
    ebreak
)";

TEST(DecodedProgram, PinsSlotsBranchOffsetsAndFastPaths) {
  using assembler::FastPath;
  using Kind = assembler::OperandSlot::Kind;
  auto created = Simulation::Create(config::DefaultConfig(), kDecodeSample,
                                    {{}, "main"});
  ASSERT_TRUE(created.ok()) << created.error().ToText();
  const assembler::DecodedProgram& decoded = created.value()->decodedProgram();
  ASSERT_EQ(decoded.size(), 8u);
  const isa::RegisterId x5{isa::RegisterKind::kInt, 5};

  const assembler::DecodedOp& addi = decoded[0];  // addi t0, x0, 5
  EXPECT_EQ(addi.path, FastPath::kAlu);
  EXPECT_EQ(addi.window, WindowKind::kFx);
  EXPECT_EQ(addi.operandCount, 3);
  EXPECT_EQ(addi.destsNeeded, 1);
  EXPECT_EQ(addi.operands[0].kind, Kind::kDest);
  EXPECT_EQ(addi.operands[0].reg, x5);
  EXPECT_EQ(addi.operands[1].kind, Kind::kZeroSource);
  EXPECT_EQ(addi.operands[1].fixed.AsInt32(), 0);
  EXPECT_EQ(addi.operands[2].kind, Kind::kImmediate);
  EXPECT_EQ(addi.operands[2].fixed.AsInt32(), 5);

  const assembler::DecodedOp& toX0 = decoded[1];  // addi x0, t0, 1
  EXPECT_EQ(toX0.operands[0].kind, Kind::kDestX0);
  EXPECT_EQ(toX0.destsNeeded, 0);
  EXPECT_EQ(toX0.operands[1].kind, Kind::kRegSource);
  // One compiled expression per definition, shared by every instance.
  EXPECT_EQ(toX0.expr, addi.expr);
  ASSERT_NE(addi.expr, nullptr);

  const assembler::DecodedOp& beq = decoded[2];  // beq t0, x0, skip
  EXPECT_EQ(beq.path, FastPath::kCondBranch);
  EXPECT_EQ(beq.window, WindowKind::kBranch);
  EXPECT_TRUE(beq.isControl);
  EXPECT_EQ(beq.branchImm, 8);
  EXPECT_EQ(beq.operands[1].kind, Kind::kZeroSource);

  const assembler::DecodedOp& fadd = decoded[3];  // fadd.s ft0, ft1, ft2
  EXPECT_EQ(fadd.path, FastPath::kAlu);
  EXPECT_EQ(fadd.window, WindowKind::kFp);
  EXPECT_EQ(fadd.operands[0].kind, Kind::kDest);
  EXPECT_EQ(fadd.operands[0].reg,
            (isa::RegisterId{isa::RegisterKind::kFp, 0}));
  EXPECT_EQ(fadd.operands[0].type, isa::ArgType::kFloat);
  EXPECT_EQ(fadd.operands[1].kind, Kind::kRegSource);
  EXPECT_EQ(fadd.operands[1].reg,
            (isa::RegisterId{isa::RegisterKind::kFp, 1}));
  EXPECT_EQ(fadd.flops, 1);

  const assembler::DecodedOp& sw = decoded[4];  // sw t0, -4(sp)
  EXPECT_EQ(sw.path, FastPath::kMemAddress);
  EXPECT_EQ(sw.window, WindowKind::kLs);
  EXPECT_EQ(sw.operands[0].kind, Kind::kRegSource);  // the data register
  EXPECT_EQ(sw.operands[0].reg, x5);
  EXPECT_EQ(sw.destsNeeded, 0);

  const assembler::DecodedOp& jal = decoded[5];  // jal t2, done
  EXPECT_EQ(jal.path, FastPath::kSlow);
  EXPECT_TRUE(jal.isControl);
  EXPECT_EQ(jal.branchImm, 8);
  EXPECT_EQ(jal.destsNeeded, 1);

  EXPECT_EQ(decoded[7].path, FastPath::kHalt);  // ebreak
  EXPECT_EQ(decoded.entryPc(), 0u);
}

TEST(DecodedProgram, IssAndCoreReadTheSameEntries) {
  const config::CpuConfig config = config::DefaultConfig();
  auto created = Simulation::Create(config, kDecodeSample, {{}, "main"});
  ASSERT_TRUE(created.ok()) << created.error().ToText();
  Simulation& sim = *created.value();
  const assembler::DecodedProgram& decoded = sim.decodedProgram();

  // An ISS constructed on the simulation's table reads those very entries.
  memory::MainMemory memory(config.memory.sizeBytes);
  auto loaded =
      assembler::LoadProgram(kDecodeSample, {}, config, memory, "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  ref::Interpreter iss(decoded, memory);
  ASSERT_EQ(&iss.program(), &decoded);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(&iss.program()[i], &decoded[i]);
  }

  // The table is a pure function of the program: a rebuild agrees with it.
  const assembler::DecodedProgram rebuilt(sim.program());
  ASSERT_EQ(rebuilt.size(), decoded.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(rebuilt[i].def, decoded[i].def) << i;
    EXPECT_EQ(rebuilt[i].path, decoded[i].path) << i;
    EXPECT_EQ(rebuilt[i].branchImm, decoded[i].branchImm) << i;
    for (std::size_t k = 0; k < decoded[i].operandCount; ++k) {
      EXPECT_EQ(rebuilt[i].operands[k].kind, decoded[i].operands[k].kind);
      EXPECT_EQ(rebuilt[i].operands[k].reg, decoded[i].operands[k].reg);
    }
  }

  // Both models execute it to the same architectural state.
  iss.InitRegisters(loaded.value().initialSp);
  EXPECT_EQ(iss.Run(), ref::ExitReason::kHalted);
  sim.Run(10'000);
  EXPECT_EQ(sim.finishReason(), FinishReason::kHalted);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(sim.ReadIntReg(r), iss.ReadIntReg(r)) << "x" << r;
    EXPECT_EQ(sim.ReadFpReg(r), iss.ReadFpReg(r)) << "f" << r;
  }
  EXPECT_EQ(iss.ReadIntReg(testutil::Reg("t0")), 5u);
  EXPECT_EQ(iss.ReadIntReg(testutil::Reg("t2")), 24u);  // jal's link
}

TEST(DecodedProgram, MoreThanFourArgumentsFaultInsteadOfOverflowing) {
  // Only an embedder's custom instruction set can declare this; the
  // operand slots hold four, so executing it faults cleanly.
  isa::InstructionDescription wide;
  wide.name = "add4";
  wide.args = {{"rd", isa::ArgType::kInt, true, false},
               {"rs1", isa::ArgType::kInt, false, false},
               {"rs2", isa::ArgType::kInt, false, false},
               {"rs3", isa::ArgType::kInt, false, false},
               {"rs4", isa::ArgType::kInt, false, false}};
  wide.interpretableAs = "\\rs1 \\rs2 + \\rd =";
  std::vector<isa::InstructionDescription> defs =
      isa::InstructionSet::Default().all();
  defs.push_back(wide);
  const isa::InstructionSet extended(std::move(defs));

  const config::CpuConfig config = config::DefaultConfig();
  memory::MainMemory memory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram("add4 a0, a1, a2, a3, a4\n", {},
                                       config, memory, "", extended);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  const assembler::DecodedProgram decoded(loaded.value().program);
  EXPECT_EQ(decoded[0].operandCount, assembler::kMaxOperands);
  EXPECT_EQ(decoded[0].expr, nullptr);
  ref::Interpreter iss(decoded, memory);
  iss.InitRegisters(loaded.value().initialSp);
  EXPECT_EQ(iss.Run(), ref::ExitReason::kFault);
  ASSERT_TRUE(iss.fault().has_value());
  EXPECT_NE(iss.fault()->message.find("more than 4 arguments"),
            std::string::npos)
      << iss.fault()->message;
}

}  // namespace
}  // namespace rvss::core
