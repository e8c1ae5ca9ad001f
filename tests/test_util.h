// Shared helpers for the rvss test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assembler/loader.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "json/json.h"
#include "ref/interpreter.h"
#include "server/wire.h"

namespace rvss::testutil {

/// Asserts `response` is a well-formed error envelope (docs/api.md):
/// status "error", a nested `error` object with kind/message/retryable/
/// details, and retryable true exactly for kind "unavailable".
inline void CheckErrorEnvelope(const json::Json& response) {
  ASSERT_EQ(response.GetString("status", ""), "error") << response.Dump();
  const json::Json* error = response.Find("error");
  ASSERT_NE(error, nullptr) << "no error envelope: " << response.Dump();
  ASSERT_TRUE(error->IsObject()) << response.Dump();
  const std::string kind = error->GetString("kind", "");
  EXPECT_FALSE(kind.empty()) << response.Dump();
  EXPECT_FALSE(error->GetString("message", "").empty()) << response.Dump();
  ASSERT_NE(error->Find("retryable"), nullptr) << response.Dump();
  EXPECT_EQ(error->GetBool("retryable", false), kind == "unavailable")
      << "retryable must be true exactly for kind unavailable: "
      << response.Dump();
  const json::Json* details = error->Find("details");
  ASSERT_NE(details, nullptr) << response.Dump();
  EXPECT_TRUE(details->IsObject()) << response.Dump();
}

/// The `error` object of an error envelope (empty when absent), for
/// lookups like ErrorOf(response).GetString("kind", "").
inline json::Json ErrorOf(const json::Json& response) {
  const json::Json* error = response.Find("error");
  return error != nullptr ? *error : json::Json::MakeObject();
}

/// The envelope's `error.details` object (empty when absent).
inline json::Json ErrorDetails(const json::Json& response) {
  const json::Json error = ErrorOf(response);
  const json::Json* details = error.Find("details");
  return details != nullptr ? *details : json::Json::MakeObject();
}

/// The document a transport reply carries, blob reattached; a null node
/// when the call failed or the reply does not parse.
inline json::Json Parsed(const Result<server::Reply>& reply) {
  if (!reply.ok()) return json::Json();
  auto parsed = server::ParseReply(reply.value());
  return parsed.ok() ? std::move(parsed).value() : json::Json();
}

/// Runs a program on the golden-model ISS and returns the interpreter for
/// state inspection. Fails the current test on any error.
struct IssRun {
  memory::MainMemory memory{64 * 1024};
  assembler::LoadedProgram loaded;
  std::unique_ptr<const assembler::DecodedProgram> decoded;
  std::unique_ptr<ref::Interpreter> interp;
  ref::ExitReason reason = ref::ExitReason::kRunning;
};

inline IssRun RunOnIss(const std::string& source,
                       const std::string& entry = "",
                       bool expectClean = true) {
  IssRun run;
  config::CpuConfig config = config::DefaultConfig();
  auto loaded = assembler::LoadProgram(source, {}, config, run.memory, entry);
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().ToText());
  if (!loaded.ok()) return run;
  run.loaded = std::move(loaded).value();
  run.decoded =
      std::make_unique<const assembler::DecodedProgram>(run.loaded.program);
  run.interp = std::make_unique<ref::Interpreter>(*run.decoded, run.memory);
  run.interp->InitRegisters(run.loaded.initialSp);
  run.reason = run.interp->Run(10'000'000);
  if (expectClean) {
    EXPECT_TRUE(run.reason == ref::ExitReason::kMainReturned ||
                run.reason == ref::ExitReason::kRanOffCode ||
                run.reason == ref::ExitReason::kHalted)
        << "exit: " << ref::ToString(run.reason)
        << (run.interp->fault() ? " " + run.interp->fault()->ToText() : "");
  }
  return run;
}

/// Runs a program on the out-of-order core with the given configuration.
inline std::unique_ptr<core::Simulation> RunOnCore(
    const std::string& source, const config::CpuConfig& config,
    const std::string& entry = "", std::uint64_t maxCycles = 5'000'000) {
  auto sim = core::Simulation::Create(config, source, {{}, entry});
  EXPECT_TRUE(sim.ok()) << (sim.ok() ? "" : sim.error().ToText());
  if (!sim.ok()) return nullptr;
  sim.value()->Run(maxCycles);
  return std::move(sim).value();
}

/// x-register index by ABI name for test readability.
inline unsigned Reg(const char* name) {
  auto id = isa::ParseRegisterName(name);
  EXPECT_TRUE(id.has_value()) << name;
  return id ? id->index : 0;
}

/// Branchy loads/stores: mispredicts, flushes and memory traffic keep the
/// pipeline full of in-flight state held by several containers at once —
/// the hard case for the snapshot codec and the in-flight pool.
inline constexpr const char* kBranchyMemory = R"(
main:
    li s0, 0
    li s1, 24
outer:
    li t0, 16
    addi t1, sp, -256
fill:
    mul t2, t0, s1
    sw t2, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, fill
    li t0, 16
    addi t1, sp, -256
scan:
    lw t2, 0(t1)
    andi t3, t2, 1
    beqz t3, even
    add s0, s0, t2
    j next
even:
    sub s0, s0, t2
next:
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, scan
    addi s1, s1, -1
    bnez s1, outer
    mv a0, s0
    ret
)";

/// Asserts the in-flight pool's accounting (core::PipelineState): every
/// live slot is held by some container, no container holds a free slot,
/// the free list holds no slot twice, and the pool stays within its
/// structural cap. A stale slot index is invisible to sanitizers, so this
/// is the check that catches one.
inline void ExpectPoolAccounting(const core::PipelineState& pipeline,
                                 const config::CpuConfig& config,
                                 const std::string& label) {
  enum : char { kUnseen, kFree, kHeld };
  std::vector<char> state(pipeline.pool.size(), kUnseen);
  for (const core::Slot slot : pipeline.freeList) {
    ASSERT_LT(slot, state.size()) << label << ": free slot out of range";
    ASSERT_EQ(state[slot], kUnseen) << label << ": slot " << slot
                                    << " is on the free list twice";
    state[slot] = kFree;
  }
  std::size_t held = 0;
  auto visit = [&](core::Slot slot, const char* container) {
    if (slot == core::kNoSlot) return;
    ASSERT_LT(slot, state.size()) << label << ": " << container
                                  << " holds an out-of-range slot";
    ASSERT_NE(state[slot], kFree)
        << label << ": " << container << " holds free slot " << slot;
    if (state[slot] == kUnseen) {
      state[slot] = kHeld;
      ++held;
    }
  };
  for (const core::Slot slot : pipeline.fetchQueue) visit(slot, "fetch queue");
  for (const core::Slot slot : pipeline.rob) visit(slot, "ROB");
  for (const auto& window : pipeline.windows) {
    for (const core::Slot slot : window) visit(slot, "issue window");
  }
  for (const core::Slot slot : pipeline.loadBuffer) visit(slot, "load buffer");
  for (const core::Slot slot : pipeline.storeBuffer) {
    visit(slot, "store buffer");
  }
  for (const core::Slot slot : pipeline.fuCurrent) {
    visit(slot, "functional unit");
  }
  EXPECT_EQ(pipeline.pool.size() - pipeline.freeList.size(), held)
      << label << ": live slots differ from the slots containers hold";
  EXPECT_LE(pipeline.pool.size(), core::PipelineState::Capacity(config))
      << label << ": pool grew past its structural cap";
}

}  // namespace rvss::testutil
