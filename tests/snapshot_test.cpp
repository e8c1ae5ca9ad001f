// Snapshot subsystem tests: the versioned binary codec (round trips,
// aliasing preservation, hostile-input rejection), portable session blobs
// (export -> import -> continue-execution differential), page
// checkpoints (ring byte reduction with byte-identical StepBack), the
// server's exportSession/importSession commands including the
// SimServer::Limits checkpoint-budget override, and the CLI
// --save-snapshot/--load-snapshot flags.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/slz.h"
#include "common/strings.h"
#include "core/simulation.h"
#include "server/api.h"
#include "server/state_renderer.h"
#include "snapshot/codec.h"
#include "snapshot/session.h"
#include "snapshot/wire.h"
#include "test_util.h"

namespace rvss::snapshot {
namespace {

using testutil::kBranchyMemory;

config::CpuConfig TestConfig(std::uint64_t intervalCycles = 32) {
  config::CpuConfig config = config::DefaultConfig();
  config.checkpoint.intervalCycles = intervalCycles;
  return config;
}

std::unique_ptr<core::Simulation> MustCreate(
    const std::string& source, const config::CpuConfig& config) {
  auto sim = core::Simulation::Create(config, source, {{}, "main"});
  EXPECT_TRUE(sim.ok()) << (sim.ok() ? "" : sim.error().ToText());
  return sim.ok() ? std::move(sim).value() : nullptr;
}

void StepN(core::Simulation& sim, std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) sim.Step();
}

std::string RenderDump(const core::Simulation& sim) {
  server::RenderOptions options;
  options.logTail = 1u << 20;
  options.includeMemoryDump = true;
  return server::RenderJson(sim, options).Dump();
}

/// Registers, memory, statistics and the fully rendered state must match.
void ExpectIdenticalState(const core::Simulation& a,
                          const core::Simulation& b,
                          const std::string& label) {
  ASSERT_EQ(a.cycle(), b.cycle()) << label;
  for (unsigned reg = 0; reg < 32; ++reg) {
    EXPECT_EQ(a.ReadIntReg(reg), b.ReadIntReg(reg)) << label << " x" << reg;
    EXPECT_EQ(a.ReadFpReg(reg), b.ReadFpReg(reg)) << label << " f" << reg;
  }
  const auto aBytes = a.memorySystem().memory().bytes();
  const auto bBytes = b.memorySystem().memory().bytes();
  ASSERT_EQ(aBytes.size(), bBytes.size()) << label;
  EXPECT_EQ(std::memcmp(aBytes.data(), bBytes.data(), aBytes.size()), 0)
      << label << ": memory images differ";
  EXPECT_EQ(RenderDump(a), RenderDump(b)) << label;
}

// ---- base64 ----------------------------------------------------------------

TEST(Base64, RoundTripsAllLengths) {
  std::string bytes;
  for (int i = 0; i < 300; ++i) {
    auto decoded = Base64Decode(Base64Encode(bytes));
    ASSERT_TRUE(decoded.has_value()) << "length " << i;
    EXPECT_EQ(*decoded, bytes) << "length " << i;
    bytes += static_cast<char>((i * 37) & 0xff);
  }
}

TEST(Base64, RejectsMalformedInput) {
  EXPECT_FALSE(Base64Decode("abc").has_value()) << "bad length";
  EXPECT_FALSE(Base64Decode("ab!?").has_value()) << "bad alphabet";
  EXPECT_FALSE(Base64Decode("=abc").has_value()) << "leading padding";
  EXPECT_FALSE(Base64Decode("a=bc").has_value()) << "data after padding";
  EXPECT_TRUE(Base64Decode("").has_value());
  EXPECT_EQ(*Base64Decode("aGk="), "hi");
}

// ---- codec round trips ------------------------------------------------------

TEST(SnapshotCodec, RoundTripsMidFlightState) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 137);  // mid-flight, off the checkpoint grid

  const CodecContext context{&sim->config(), &sim->program()};
  const core::SimSnapshot original = sim->SaveState();
  const std::string blob = EncodeSnapshot(original, context);
  EXPECT_GT(blob.size(), 64u);

  // Decode into a *fresh* simulation built from the same inputs.
  auto restored = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(restored, nullptr);
  const CodecContext restoredContext{&restored->config(),
                                     &restored->program()};
  auto decoded = DecodeSnapshot(blob, restoredContext);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  restored->RestoreState(decoded.value());
  ExpectIdenticalState(*sim, *restored, "after decode");

  // The restored run must continue byte-identically: same commit trace,
  // same final state.
  std::vector<std::uint32_t> simTrace;
  std::vector<std::uint32_t> restoredTrace;
  sim->SetCommitTraceSink(&simTrace);
  restored->SetCommitTraceSink(&restoredTrace);
  sim->Run(5'000'000);
  restored->Run(5'000'000);
  EXPECT_EQ(simTrace, restoredTrace) << "commit traces diverge";
  ExpectIdenticalState(*sim, *restored, "run to completion");
}

TEST(SnapshotCodec, EncodeIsDeterministic) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  const CodecContext context{&sim->config(), &sim->program()};
  const core::SimSnapshot snapshot = sim->SaveState();
  EXPECT_EQ(EncodeSnapshot(snapshot, context),
            EncodeSnapshot(snapshot, context));
}

TEST(SnapshotCodec, PreservesInFlightAliasing) {
  // A load sits in the ROB and the load buffer simultaneously; after a
  // decode round trip both containers must hold the same pool slot, so a
  // mutation through one is visible through the other.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && sim->pipeline().loadBuffer.empty();
       ++step) {
    sim->Step();
  }
  ASSERT_FALSE(sim->pipeline().loadBuffer.empty()) << "no load in flight";

  const CodecContext context{&sim->config(), &sim->program()};
  auto decoded = DecodeSnapshot(EncodeSnapshot(sim->SaveState(), context),
                                context);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  const core::PipelineState& pipeline = decoded.value().pipeline;
  ASSERT_FALSE(pipeline.loadBuffer.empty());
  const core::Slot load = pipeline.loadBuffer.front();
  EXPECT_NE(std::find(pipeline.rob.begin(), pipeline.rob.end(), load),
            pipeline.rob.end())
      << "load-buffer entry is not the same slot as its ROB entry";
  EXPECT_TRUE(pipeline.freeList.empty());
}

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  }
  return hash;
}

TEST(SnapshotCodec, V3BytesUnchangedByPoolRefactor) {
  // FNV-1a of the snapshot encoding, the full session blob and the delta
  // session blob at fixed mid-flight points, recorded when in-flight
  // instructions were still shared_ptr-aliased objects. Every point has
  // loads in the load buffer and committed stores still draining; the
  // last one is a fast-forwarded timeline. A change to how the pipeline
  // holds its instructions must not move a single wire byte. The session
  // pins were re-recorded once, when the embedded configuration JSON lost
  // the checkpoint block's deltaPages, fullSnapshotEvery and
  // adaptiveInterval keys; the snapshot pins are the originals.
  struct Pin {
    const char* name;
    config::CpuConfig config;
    std::uint64_t fastForward;
    std::uint64_t cycle;
    std::uint64_t snapshotHash;
    std::uint64_t sessionHash;
    std::uint64_t deltaSessionHash;
  };
  const Pin pins[] = {
      {"default@137", TestConfig(), 0, 137,
       0x1bef3ffa07a4d7acull, 0xfab035d412348e28ull,
       0x1ee9a3e36ebc4a58ull},
      {"default@402", TestConfig(), 0, 402,
       0x7e30d5f8d62cb33full, 0x191431b5c3dd3becull,
       0x56e71a06254bcc5eull},
      {"wide@552", [] {
         config::CpuConfig c = config::WideConfig();
         c.checkpoint.intervalCycles = 32;
         return c;
       }(), 0, 552,
       0xb8057e66dd65e049ull, 0x61ff056972e946fdull,
       0xb88e00149225b3b8ull},
      {"scalar@250", [] {
         config::CpuConfig c = config::ScalarConfig();
         c.checkpoint.intervalCycles = 32;
         return c;
       }(), 0, 250,
       0xc564e481c429a27bull, 0x7da31c0fa26aa8fdull,
       0x4d93fe4a1929d071ull},
      {"nocache@401", [] {
         config::CpuConfig c = config::NoCacheConfig();
         c.checkpoint.intervalCycles = 32;
         return c;
       }(), 0, 401,
       0x8054e48918c571c0ull, 0xaa96ef9ba208311cull,
       0xc1729e4a6aafa8abull},
      {"default+ff300@434", TestConfig(), 300, 434,
       0xd9d3ddf590d943fbull, 0xb728d6fb2a83b0cbull,
       0x0f957782e90edd2full},
  };
  for (const Pin& pin : pins) {
    auto sim = MustCreate(kBranchyMemory, pin.config);
    ASSERT_NE(sim, nullptr) << pin.name;
    if (pin.fastForward > 0) {
      ASSERT_TRUE(sim->FastForwardTo(pin.fastForward).ok()) << pin.name;
    }
    StepN(*sim, pin.cycle);
    ASSERT_EQ(sim->cycle(), pin.cycle) << pin.name;
    const CodecContext context{&sim->config(), &sim->program()};
    const SessionIdentity identity =
        MakeIdentity(*sim, kBranchyMemory, "main", "");
    SessionBlobOptions deltaOptions;
    deltaOptions.delta = true;
    EXPECT_EQ(Fnv1a64(EncodeSnapshot(sim->SaveState(), context)),
              pin.snapshotHash)
        << pin.name;
    EXPECT_EQ(Fnv1a64(EncodeSessionBlob(*sim, identity)), pin.sessionHash)
        << pin.name;
    EXPECT_EQ(Fnv1a64(EncodeSessionBlob(*sim, identity, deltaOptions)),
              pin.deltaSessionHash)
        << pin.name;
  }
}

// ---- hostile input ----------------------------------------------------------

TEST(SnapshotCodec, RejectsVersionBumpAndForeignConfigs) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 50);
  const CodecContext context{&sim->config(), &sim->program()};
  std::string blob = EncodeSnapshot(sim->SaveState(), context);

  // Version bump: byte 4 holds the low byte of the format version.
  std::string bumped = blob;
  bumped[4] = static_cast<char>(kFormatVersion + 1);
  auto versioned = DecodeSnapshot(bumped, context);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.error().message.find("version"), std::string::npos);

  // Mismatched configuration: a different predictor geometry.
  config::CpuConfig other = TestConfig();
  other.predictor.phtSize = 128;
  auto otherSim = MustCreate(kBranchyMemory, other);
  ASSERT_NE(otherSim, nullptr);
  const CodecContext otherContext{&otherSim->config(), &otherSim->program()};
  auto mismatch = DecodeSnapshot(blob, otherContext);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.error().message.find("configuration"),
            std::string::npos);

  // Mismatched program.
  auto otherProgram = MustCreate("main:\n    li a0, 7\n    ret\n",
                                 TestConfig());
  ASSERT_NE(otherProgram, nullptr);
  const CodecContext programContext{&otherProgram->config(),
                                    &otherProgram->program()};
  auto wrongProgram = DecodeSnapshot(blob, programContext);
  ASSERT_FALSE(wrongProgram.ok());
  EXPECT_NE(wrongProgram.error().message.find("program"), std::string::npos);

  // A checkpoint-budget difference must NOT invalidate the blob: servers
  // clamp budgets on import.
  config::CpuConfig clamped = TestConfig();
  clamped.checkpoint.maxTotalBytes = 1 << 20;
  clamped.name = "renamed";
  auto clampedSim = MustCreate(kBranchyMemory, clamped);
  ASSERT_NE(clampedSim, nullptr);
  const CodecContext clampedContext{&clampedSim->config(),
                                    &clampedSim->program()};
  EXPECT_TRUE(DecodeSnapshot(blob, clampedContext).ok());
}

TEST(SnapshotCodec, TruncatedBlobsAlwaysError) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 80);
  const CodecContext context{&sim->config(), &sim->program()};
  const std::string blob = EncodeSnapshot(sim->SaveState(), context);

  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 7) {
    auto decoded = DecodeSnapshot(std::string_view(blob).substr(0, length),
                                  context);
    EXPECT_FALSE(decoded.ok()) << "truncation at " << length;
  }
}

TEST(SnapshotCodec, CorruptedBlobsAlwaysError) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 80);
  const CodecContext context{&sim->config(), &sim->program()};
  const std::string blob = EncodeSnapshot(sim->SaveState(), context);

  // Flip a byte at a stride of positions across the whole blob (header
  // and payload): every mutant must fail decode, none may crash. The
  // payload checksum catches body corruption; explicit checks catch the
  // header fields.
  for (std::size_t pos = 0; pos < blob.size(); pos += 1 + pos / 11) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    auto decoded = DecodeSnapshot(mutant, context);
    EXPECT_FALSE(decoded.ok()) << "corruption at " << pos;
  }
}

TEST(SnapshotCodec, RejectsDuplicateAndOversizedContainers) {
  // A checksum-correct blob can still describe impossible pipeline state;
  // the structural checks must catch it. Encoding a doctored snapshot
  // produces exactly such a blob.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && sim->pipeline().rob.empty(); ++step) {
    sim->Step();
  }
  ASSERT_FALSE(sim->pipeline().rob.empty());
  const CodecContext context{&sim->config(), &sim->program()};

  // The same instruction twice in one container (would double-commit).
  core::SimSnapshot duplicated = sim->SaveState();
  duplicated.pipeline.rob.push_back(duplicated.pipeline.rob.front());
  auto dupDecoded = DecodeSnapshot(EncodeSnapshot(duplicated, context),
                                   context);
  ASSERT_FALSE(dupDecoded.ok());
  EXPECT_NE(dupDecoded.error().message.find("duplicate"), std::string::npos);

  // A ROB beyond its configured capacity.
  core::SimSnapshot oversized = sim->SaveState();
  core::PipelineState& pipeline = oversized.pipeline;
  while (pipeline.rob.size() <= sim->config().buffers.robSize) {
    const core::Slot slot = pipeline.Allocate();
    pipeline[slot] = pipeline[pipeline.rob.front()];
    pipeline.rob.push_back(slot);
  }
  auto bigDecoded = DecodeSnapshot(EncodeSnapshot(oversized, context),
                                   context);
  ASSERT_FALSE(bigDecoded.ok());
  EXPECT_NE(bigDecoded.error().message.find("capacity"), std::string::npos);
}

TEST(SnapshotCodec, RejectsInFlightTableLargerThanThePipeline) {
  // Every container within its own capacity, but together more in-flight
  // instructions than the pipeline can hold at once: fill the fetch queue
  // and every issue window with instructions of their own (as the ROB is,
  // at its capacity). The table alone is then past the pool cap.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && sim->pipeline().rob.empty(); ++step) {
    sim->Step();
  }
  ASSERT_FALSE(sim->pipeline().rob.empty());
  const config::CpuConfig& config = sim->config();
  const CodecContext context{&config, &sim->program()};

  core::SimSnapshot doctored = sim->SaveState();
  core::PipelineState& pipeline = doctored.pipeline;
  const core::InFlight model = pipeline[pipeline.rob.front()];
  auto fill = [&](auto& container, std::size_t size) {
    while (container.size() < size) {
      const core::Slot slot = pipeline.Allocate();
      pipeline[slot] = model;
      container.push_back(slot);
    }
  };
  fill(pipeline.rob, config.buffers.robSize);
  fill(pipeline.fetchQueue, 2 * std::size_t{config.buffers.fetchWidth});
  for (auto& window : pipeline.windows) {
    fill(window, config.buffers.issueWindowSize);
  }
  fill(pipeline.storeBuffer, config.memory.storeBufferSize);
  ASSERT_GT(pipeline.pool.size() - pipeline.freeList.size(),
            core::PipelineState::Capacity(config));

  auto decoded = DecodeSnapshot(EncodeSnapshot(doctored, context), context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find(
                "in-flight table larger than the pipeline can hold"),
            std::string::npos)
      << decoded.error().message;
}

TEST(SnapshotCodec, RejectsInFlightEntryNoContainerHolds) {
  // Re-point the fetch queue's last entry at a ROB instruction: the table
  // entry it held is then referenced by no container, a slot that would
  // be neither live nor free. The payload checksum is recomputed, so only
  // the structural check stands in the way.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  for (int step = 0; step < 2000 && (sim->pipeline().fetchQueue.size() < 2 ||
                                     sim->pipeline().rob.empty());
       ++step) {
    sim->Step();
  }
  const std::uint32_t queued =
      static_cast<std::uint32_t>(sim->pipeline().fetchQueue.size());
  ASSERT_GE(queued, 2u);
  ASSERT_FALSE(sim->pipeline().rob.empty());
  const CodecContext context{&sim->config(), &sim->program()};
  std::string blob = EncodeSnapshot(sim->SaveState(), context);

  // The fetch queue is visited first, so on the wire it lists entries
  // 0..queued-1, and the ROB's list that follows starts at entry `queued`.
  Writer lists;
  lists.U32(queued);
  for (std::uint32_t i = 0; i < queued; ++i) lists.U32(i);
  lists.U32(static_cast<std::uint32_t>(sim->pipeline().rob.size()));
  lists.U32(queued);
  const std::size_t at = blob.find(lists.out());
  ASSERT_NE(at, std::string::npos);
  Writer robEntry;
  robEntry.U32(queued);
  blob.replace(at + 4 * queued, 4, robEntry.out());
  constexpr std::size_t kPayloadHashOffset = 24;
  constexpr std::size_t kHeaderBytes = 40;
  Writer checksum;
  checksum.U64(Fnv1a64(std::string_view(blob).substr(kHeaderBytes)));
  blob.replace(kPayloadHashOffset, 8, checksum.out());

  auto decoded = DecodeSnapshot(blob, context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("referenced by no container"),
            std::string::npos)
      << decoded.error().message;
}

/// The encoder's wire numbering of pool slots: first-seen order over the
/// fetch queue, ROB, issue windows, load buffer, store buffer and units.
std::vector<std::uint32_t> WireNumbering(const core::PipelineState& pipeline) {
  std::vector<std::uint32_t> wire(pipeline.pool.size(), 0xffffffffu);
  std::uint32_t next = 0;
  const auto visit = [&](const auto& container) {
    for (const core::Slot slot : container) {
      if (slot != core::kNoSlot && wire[slot] == 0xffffffffu) {
        wire[slot] = next++;
      }
    }
  };
  visit(pipeline.fetchQueue);
  visit(pipeline.rob);
  for (const auto& window : pipeline.windows) visit(window);
  visit(pipeline.loadBuffer);
  visit(pipeline.storeBuffer);
  visit(pipeline.fuCurrent);
  return wire;
}

/// One container's index list as the encoder writes it.
template <typename Container>
std::string WireList(const Container& container,
                     const std::vector<std::uint32_t>& wire) {
  Writer w;
  w.U32(static_cast<std::uint32_t>(container.size()));
  for (const core::Slot slot : container) {
    w.U32(slot == core::kNoSlot ? 0xffffffffu : wire[slot]);
  }
  return w.out();
}

/// Recomputes the payload checksum, so only the structural checks stand
/// between a rewritten blob and a decoded snapshot.
void ResealChecksum(std::string& blob) {
  constexpr std::size_t kPayloadHashOffset = 24;
  constexpr std::size_t kHeaderBytes = 40;
  Writer checksum;
  checksum.U64(Fnv1a64(std::string_view(blob).substr(kHeaderBytes)));
  blob.replace(kPayloadHashOffset, 8, checksum.out());
}

TEST(SnapshotCodec, RejectsFetchQueueEntryAnotherContainerHolds) {
  // Hand an idle functional unit the fetch queue's first instruction:
  // every entry stays referenced and units may hold instructions outside
  // the ROB, but a flush would release that slot twice.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  const auto idleUnit = [&sim] {
    const auto& units = sim->pipeline().fuCurrent;
    return std::find(units.begin(), units.end(), core::kNoSlot);
  };
  for (int step = 0;
       step < 2000 && (sim->pipeline().fetchQueue.empty() ||
                       idleUnit() == sim->pipeline().fuCurrent.end());
       ++step) {
    sim->Step();
  }
  const core::PipelineState& pipeline = sim->pipeline();
  ASSERT_FALSE(pipeline.fetchQueue.empty());
  ASSERT_NE(idleUnit(), pipeline.fuCurrent.end());
  const CodecContext context{&sim->config(), &sim->program()};
  std::string blob = EncodeSnapshot(sim->SaveState(), context);

  const std::vector<std::uint32_t> wire = WireNumbering(pipeline);
  const std::string stores = WireList(pipeline.storeBuffer, wire);
  const std::size_t at =
      blob.find(stores + WireList(pipeline.fuCurrent, wire));
  ASSERT_NE(at, std::string::npos);
  const auto unit =
      static_cast<std::size_t>(idleUnit() - pipeline.fuCurrent.begin());
  Writer fetched;
  fetched.U32(wire[pipeline.fetchQueue.front()]);
  blob.replace(at + stores.size() + 4 + 4 * unit, 4, fetched.out());
  ResealChecksum(blob);

  auto decoded = DecodeSnapshot(blob, context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find(
                "fetch-queue entry also held by another container"),
            std::string::npos)
      << decoded.error().message;
}

TEST(SnapshotCodec, RejectsLoadBufferEntryOutsideTheRob) {
  // Point the load buffer's first entry at a committed store still
  // draining from the store buffer: the load stays referenced by the ROB,
  // but the load buffer now holds an instruction the ROB does not.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  const auto drainingStore = [&sim] {
    const core::PipelineState& p = sim->pipeline();
    return std::find_if(p.storeBuffer.begin(), p.storeBuffer.end(),
                        [&p](core::Slot slot) {
                          return std::find(p.rob.begin(), p.rob.end(), slot) ==
                                 p.rob.end();
                        });
  };
  for (int step = 0;
       step < 2000 && (sim->pipeline().loadBuffer.empty() ||
                       drainingStore() == sim->pipeline().storeBuffer.end());
       ++step) {
    sim->Step();
  }
  const core::PipelineState& pipeline = sim->pipeline();
  ASSERT_FALSE(pipeline.loadBuffer.empty());
  ASSERT_NE(drainingStore(), pipeline.storeBuffer.end());
  const CodecContext context{&sim->config(), &sim->program()};
  std::string blob = EncodeSnapshot(sim->SaveState(), context);

  const std::vector<std::uint32_t> wire = WireNumbering(pipeline);
  const std::size_t at =
      blob.find(WireList(pipeline.loadBuffer, wire) +
                WireList(pipeline.storeBuffer, wire));
  ASSERT_NE(at, std::string::npos);
  Writer store;
  store.U32(wire[*drainingStore()]);
  blob.replace(at + 4, 4, store.out());
  ResealChecksum(blob);

  auto decoded = DecodeSnapshot(blob, context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find(
                "issue-window or load-buffer entry missing from the ROB"),
            std::string::npos)
      << decoded.error().message;
}

TEST(SnapshotCodec, RejectsDuplicateFreeListTags) {
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 60);
  const CodecContext context{&sim->config(), &sim->program()};
  core::SimSnapshot doctored = sim->SaveState();
  ASSERT_GE(doctored.rename.freeList.size(), 2u);
  doctored.rename.freeList[1] = doctored.rename.freeList[0];
  auto decoded = DecodeSnapshot(EncodeSnapshot(doctored, context), context);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("free-list"), std::string::npos);
}

// ---- session blobs ----------------------------------------------------------

TEST(SessionBlob, ExportImportContinuesByteIdentically) {
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);

  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  const std::string blob = EncodeSessionBlob(*original, identity);

  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  core::Simulation& resumed = *imported.value().sim;
  ExpectIdenticalState(*original, resumed, "after import");

  std::vector<std::uint32_t> originalTrace;
  std::vector<std::uint32_t> resumedTrace;
  original->SetCommitTraceSink(&originalTrace);
  resumed.SetCommitTraceSink(&resumedTrace);
  original->Run(5'000'000);
  resumed.Run(5'000'000);
  EXPECT_EQ(originalTrace, resumedTrace);
  ExpectIdenticalState(*original, resumed, "run to completion");

  // The imported session anchors a checkpoint at the restored cycle, so
  // backward stepping does not replay the whole prefix.
  auto anchored = ImportSessionBlob(blob);
  ASSERT_TRUE(anchored.ok());
  ASSERT_TRUE(anchored.value().sim->StepBack().ok());
  EXPECT_EQ(anchored.value().sim->cycle(), 432u);
}

TEST(SessionBlob, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(ImportSessionBlob("").ok());
  EXPECT_FALSE(ImportSessionBlob("not a blob").ok());

  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 100);
  const std::string blob = EncodeSessionBlob(
      *sim, MakeIdentity(*sim, kBranchyMemory, "main", ""));
  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 5) {
    EXPECT_FALSE(
        ImportSessionBlob(std::string_view(blob).substr(0, length)).ok())
        << "truncation at " << length;
  }

  // Trailing garbage after the compressed stream fails closed.
  std::string padded = blob;
  padded += "excess";
  EXPECT_FALSE(ImportSessionBlob(padded).ok());

  // ... and so does garbage smuggled *inside* the compression, after the
  // container's last field.
  auto container = SlzDecompress(std::string_view(blob).substr(5));
  ASSERT_TRUE(container.has_value());
  std::string inner = blob.substr(0, 5) + SlzCompress(*container + "excess");
  auto rejected = ImportSessionBlob(inner);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("trailing"), std::string::npos);
}

// ---- log byte budget --------------------------------------------------------

/// One committed instruction per cycle forever: at debug level the ROB logs
/// every commit, so the log grows with cycles unless the byte budget caps it.
const char* kChattyLoop = R"(
main:
    li t0, 500000
spin:
    addi t0, t0, -1
    bnez t0, spin
    ret
)";

TEST(LogBudget, EncodedBlobStaysBoundedOnChattyRuns) {
  auto shortRun = MustCreate(kChattyLoop, TestConfig());
  auto longRun = MustCreate(kChattyLoop, TestConfig());
  ASSERT_NE(shortRun, nullptr);
  ASSERT_NE(longRun, nullptr);
  const std::size_t budget = 16 * 1024;
  for (core::Simulation* sim : {shortRun.get(), longRun.get()}) {
    sim->log().SetByteBudget(budget);
    sim->log().SetMinLevel(LogLevel::kDebug);
  }
  StepN(*shortRun, 2'000);
  StepN(*longRun, 20'000);
  ASSERT_EQ(longRun->status(), core::SimStatus::kRunning);

  EXPECT_FALSE(longRun->log().entries().empty());
  EXPECT_LE(shortRun->log().approxBytes(), budget);
  EXPECT_LE(longRun->log().approxBytes(), budget);

  // 10x the cycles must not grow the encoded session blob: the log is the
  // only cycle-proportional payload and the ring caps it.
  const std::string shortBlob = EncodeSessionBlob(
      *shortRun, MakeIdentity(*shortRun, kChattyLoop, "main", ""));
  const std::string longBlob = EncodeSessionBlob(
      *longRun, MakeIdentity(*longRun, kChattyLoop, "main", ""));
  EXPECT_LE(longBlob.size(), shortBlob.size() + budget);

  // The capped log still round-trips byte-identically.
  auto imported = ImportSessionBlob(longBlob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  EXPECT_EQ(imported.value().sim->log().approxBytes(),
            longRun->log().approxBytes());
}

TEST(LogBudget, EvictsOldestAndKeepsNewest) {
  SimLog log(/*capacity=*/0, /*maxBytes=*/512);
  for (int i = 0; i < 1000; ++i) {
    log.Add(static_cast<std::uint64_t>(i), LogLevel::kInfo, "Block",
            "message " + std::to_string(i));
  }
  EXPECT_LE(log.approxBytes(), 512u);
  ASSERT_FALSE(log.entries().empty());
  EXPECT_EQ(log.entries().back().cycle, 999u);  // newest kept
  EXPECT_GT(log.entries().front().cycle, 0u);   // oldest evicted

  // An entry bigger than the whole budget still lands (newest survives).
  log.Add(1000, LogLevel::kError, "Huge", std::string(4096, 'x'));
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries().back().cycle, 1000u);
}

TEST(LogBudget, ShrinkingBudgetMidRunTrimsOldestFirst) {
  // Shrinking the budget with entries already buffered must trim
  // immediately, oldest-first, not wait for the next Add.
  SimLog log(/*capacity=*/0, /*maxBytes=*/0);  // start unlimited
  for (int i = 0; i < 500; ++i) {
    log.Add(static_cast<std::uint64_t>(i), LogLevel::kInfo, "Block",
            "message " + std::to_string(i));
  }
  const std::size_t unbounded = log.approxBytes();
  ASSERT_GT(unbounded, 2048u);

  log.SetByteBudget(2048);
  EXPECT_LE(log.approxBytes(), 2048u);
  ASSERT_FALSE(log.entries().empty());
  // The survivors are the newest contiguous suffix, in order.
  EXPECT_EQ(log.entries().back().cycle, 499u);
  for (std::size_t i = 1; i < log.entries().size(); ++i) {
    EXPECT_EQ(log.entries()[i].cycle, log.entries()[i - 1].cycle + 1);
  }
  // Accounting matches reality after the trim.
  std::size_t recounted = 0;
  for (const LogEntry& entry : log.entries()) {
    recounted += SimLog::EntryBytes(entry);
  }
  EXPECT_EQ(log.approxBytes(), recounted);
}

TEST(LogBudget, ShrinkMidRunNeverCorruptsEncodedBlob) {
  // The simulation-level version of the shrink: a session logs chattily
  // under a generous budget, the budget is tightened mid-run, and the
  // encoded blob must still round-trip byte-identically.
  auto sim = MustCreate(kChattyLoop, TestConfig());
  ASSERT_NE(sim, nullptr);
  sim->log().SetByteBudget(64 * 1024);
  StepN(*sim, 5'000);
  ASSERT_EQ(sim->status(), core::SimStatus::kRunning);
  // The pipeline itself logs little on a well-predicted loop; buffer a
  // known volume of entries directly so the shrink has something to trim.
  for (int i = 0; i < 300; ++i) {
    sim->log().Add(sim->cycle(), LogLevel::kInfo, "Test",
                   "buffered entry " + std::to_string(i) +
                       std::string(64, '.'));
  }
  ASSERT_GT(sim->log().approxBytes(), 8u * 1024u);

  sim->log().SetByteBudget(8 * 1024);
  EXPECT_LE(sim->log().approxBytes(), 8u * 1024u);
  StepN(*sim, 1'000);  // keep running under the tighter budget
  EXPECT_LE(sim->log().approxBytes(), 8u * 1024u);

  const std::string blob =
      EncodeSessionBlob(*sim, MakeIdentity(*sim, kChattyLoop, "main", ""));
  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  EXPECT_EQ(imported.value().sim->log().approxBytes(),
            sim->log().approxBytes());
  EXPECT_EQ(imported.value().sim->log().ToText(), sim->log().ToText());
  // And the restored session re-encodes to the same bytes.
  const std::string reencoded = EncodeSessionBlob(
      *imported.value().sim, MakeIdentity(*sim, kChattyLoop, "main", ""));
  EXPECT_EQ(reencoded, blob);
}

// ---- page checkpoints -------------------------------------------------------

/// 1 MiB memory with a working set of a few pages: the configuration where
/// storing only the pages dirtied since the load image pays off.
config::CpuConfig DeltaConfig(std::uint64_t intervalCycles = 64) {
  config::CpuConfig config = TestConfig(intervalCycles);
  config.memory.sizeBytes = 1 << 20;
  return config;
}

/// What one checkpoint of `sim` would cost holding the whole memory image:
/// the state without its pages, plus the image.
std::size_t FullSnapshotBytes(const core::Simulation& sim) {
  core::SimSnapshot full = sim.SaveState();
  full.memory.memory = {};
  return full.SizeBytes() + sim.config().memory.sizeBytes;
}

TEST(DeltaCheckpoints, ShrinkRingBytesAtLeast5x) {
  auto sim = MustCreate(kBranchyMemory, DeltaConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 2000);

  const core::CheckpointRing& ring = sim->checkpoints();
  EXPECT_GT(ring.checkpointCount(), 20u);
  const std::size_t fullBytes =
      ring.checkpointCount() * FullSnapshotBytes(*sim);
  EXPECT_GE(fullBytes, ring.totalBytes() * 5)
      << "ring " << ring.totalBytes() << " bytes vs " << fullBytes
      << " bytes of whole-image snapshots";
}

TEST(DeltaCheckpoints, SeekMatchesReplayFromOrigin) {
  // Every seek target must land in a state byte-identical to replaying
  // from cycle 0 — page checkpoints are real restore points, not
  // approximations.
  auto sim = MustCreate(kBranchyMemory, DeltaConfig());
  auto reference = MustCreate(kBranchyMemory, DeltaConfig(0));
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(reference, nullptr);
  StepN(*sim, 1500);
  StepN(*reference, 1500);

  for (std::uint64_t target : {1499ull, 1217ull, 640ull, 641ull, 639ull,
                               64ull, 65ull, 1ull, 1300ull}) {
    ASSERT_TRUE(sim->SeekTo(target).ok()) << "target " << target;
    ASSERT_TRUE(reference->SeekTo(target).ok()) << "target " << target;
    ExpectIdenticalState(*sim, *reference, "seek " + std::to_string(target));
  }
}

TEST(DeltaCheckpoints, RoundTripThroughCodec) {
  // Page checkpoints must not interfere with export/import.
  auto sim = MustCreate(kBranchyMemory, DeltaConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 700);
  const std::string blob = EncodeSessionBlob(
      *sim, MakeIdentity(*sim, kBranchyMemory, "main", ""));
  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  ExpectIdenticalState(*sim, *imported.value().sim, "page-ring import");
}

TEST(DeltaCheckpoints, StepBackLandsExactlyUnderTightBudget) {
  // A budget of four memory images against a 16-cycle grid: evictions
  // thin the ring out, and backward stepping still lands exactly.
  config::CpuConfig config = TestConfig(16);
  config.memory.sizeBytes = 64 * 1024;
  config.checkpoint.maxTotalBytes = 4 * config.memory.sizeBytes;
  auto sim = MustCreate(kBranchyMemory, config);
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 2000);
  ASSERT_TRUE(sim->StepBack().ok());
  auto reference = MustCreate(kBranchyMemory, config);
  ASSERT_NE(reference, nullptr);
  StepN(*reference, 1999);
  ExpectIdenticalState(*sim, *reference, "tight ring");
}

// ---- server commands --------------------------------------------------------

json::Json Cmd(server::SimServer& srv, std::string_view command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", std::string(command));
  for (const auto& [key, value] : fields) request.Set(key, value);
  return srv.Handle(request);
}

TEST(ServerSession, ExportImportIntoFreshServer) {
  server::SimServer source;
  json::Json created =
      Cmd(source, "createSession", {{"code", json::Json(kBranchyMemory)},
                                    {"entry", json::Json("main")}});
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const std::int64_t id = created.GetInt("sessionId", -1);

  json::Json stepped = Cmd(source, "step", {{"sessionId", json::Json(id)},
                                            {"count", json::Json(500)}});
  ASSERT_EQ(stepped.GetString("status", ""), "ok");

  json::Json exported =
      Cmd(source, "exportSession", {{"sessionId", json::Json(id)}});
  ASSERT_EQ(exported.GetString("status", ""), "ok") << exported.Dump();
  EXPECT_EQ(exported.GetInt("cycle", -1), 500);
  const std::string blob = exported.GetString("blob", "");
  ASSERT_FALSE(blob.empty());

  // A completely fresh server process stands in for the migration target.
  server::SimServer target;
  json::Json imported =
      Cmd(target, "importSession", {{"blob", json::Json(blob)}});
  ASSERT_EQ(imported.GetString("status", ""), "ok") << imported.Dump();
  EXPECT_EQ(imported.GetInt("cycle", -1), 500);
  const std::int64_t importedId = imported.GetInt("sessionId", -1);

  // Both sessions run another 400 cycles; states and statistics must stay
  // byte-identical (the JSON renders include registers, pipeline contents,
  // rename tags, cache lines and the log).
  for (int batch = 0; batch < 4; ++batch) {
    json::Json a = Cmd(source, "step", {{"sessionId", json::Json(id)},
                                        {"count", json::Json(100)}});
    json::Json b =
        Cmd(target, "step", {{"sessionId", json::Json(importedId)},
                             {"count", json::Json(100)}});
    ASSERT_EQ(a.GetString("status", ""), "ok");
    ASSERT_EQ(b.GetString("status", ""), "ok");
    EXPECT_EQ(a.Find("state")->Dump(), b.Find("state")->Dump())
        << "batch " << batch;
  }
  json::Json statsA = Cmd(source, "stats", {{"sessionId", json::Json(id)}});
  json::Json statsB =
      Cmd(target, "stats", {{"sessionId", json::Json(importedId)}});
  EXPECT_EQ(statsA.Find("statistics")->Dump(),
            statsB.Find("statistics")->Dump());
}

TEST(ServerSession, ImportRejectsGarbage) {
  server::SimServer srv;
  json::Json bad = Cmd(srv, "importSession", {{"blob", json::Json("@@@")}});
  EXPECT_EQ(bad.GetString("status", ""), "error");
  json::Json empty = Cmd(srv, "importSession", {{"blob", json::Json("")}});
  EXPECT_EQ(empty.GetString("status", ""), "error");
  // Valid base64, invalid contents.
  json::Json garbage = Cmd(srv, "importSession",
                           {{"blob", json::Json(Base64Encode("hello"))}});
  EXPECT_EQ(garbage.GetString("status", ""), "error");
  EXPECT_EQ(srv.sessionCount(), 0u);
}

TEST(ServerSession, LimitsOverrideCheckpointBudget) {
  server::SimServer::Limits limits;
  limits.maxCheckpointBytesPerSession = 1 << 20;
  server::SimServer srv(limits);

  // The session asks for a 64 MiB ring; the server's ceiling must win.
  config::CpuConfig config = TestConfig();
  config.checkpoint.maxTotalBytes = 64ull << 20;
  json::Json created = Cmd(
      srv, "createSession",
      {{"code", json::Json(kBranchyMemory)}, {"entry", json::Json("main")},
       {"config", config::ToJson(config)}});
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const std::int64_t id = created.GetInt("sessionId", -1);
  json::Json stats = Cmd(srv, "stats", {{"sessionId", json::Json(id)}});
  EXPECT_EQ(stats.Find("checkpoints")->GetInt("maxBytes", -1), 1 << 20);

  // The override also applies to imported sessions: export from an
  // unrestricted server, import into the limited one.
  server::SimServer unrestricted;
  json::Json other = Cmd(
      unrestricted, "createSession",
      {{"code", json::Json(kBranchyMemory)}, {"entry", json::Json("main")},
       {"config", config::ToJson(config)}});
  ASSERT_EQ(other.GetString("status", ""), "ok");
  json::Json exported =
      Cmd(unrestricted, "exportSession",
          {{"sessionId", json::Json(other.GetInt("sessionId", -1))}});
  ASSERT_EQ(exported.GetString("status", ""), "ok");
  json::Json imported =
      Cmd(srv, "importSession",
          {{"blob", json::Json(exported.GetString("blob", ""))}});
  ASSERT_EQ(imported.GetString("status", ""), "ok") << imported.Dump();
  json::Json importedStats =
      Cmd(srv, "stats",
          {{"sessionId", json::Json(imported.GetInt("sessionId", -1))}});
  EXPECT_EQ(importedStats.Find("checkpoints")->GetInt("maxBytes", -1),
            1 << 20);
}

// ---- CLI flags --------------------------------------------------------------


// ---- delta session blobs (format v3) ---------------------------------------

TEST(DeltaBlob, DeltaImportMatchesFullImportByteIdentically) {
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);

  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  const std::string full = EncodeSessionBlob(*original, identity);
  SessionBlobOptions deltaOptions;
  deltaOptions.delta = true;
  const std::string delta =
      EncodeSessionBlob(*original, identity, deltaOptions);
  EXPECT_LT(delta.size(), full.size());

  auto fromFull = ImportSessionBlob(full);
  ASSERT_TRUE(fromFull.ok()) << fromFull.error().ToText();
  auto fromDelta = ImportSessionBlob(delta);
  ASSERT_TRUE(fromDelta.ok()) << fromDelta.error().ToText();
  ExpectIdenticalState(*fromFull.value().sim, *fromDelta.value().sim,
                       "delta vs full import");

  // ... and they stay in lockstep through the rest of the program.
  std::vector<std::uint32_t> fullTrace;
  std::vector<std::uint32_t> deltaTrace;
  fromFull.value().sim->SetCommitTraceSink(&fullTrace);
  fromDelta.value().sim->SetCommitTraceSink(&deltaTrace);
  fromFull.value().sim->Run(5'000'000);
  fromDelta.value().sim->Run(5'000'000);
  EXPECT_EQ(fullTrace, deltaTrace);
  ExpectIdenticalState(*fromFull.value().sim, *fromDelta.value().sim,
                       "delta vs full after run");
}

TEST(DeltaBlob, ReExportAfterEitherImportStaysDeltaRestorable) {
  // An imported session's memory is described against its own load image
  // (a delta's pages as shipped, a full image diffed against the base at
  // decode), so a session that migrated once must still delta-export from
  // its new home — that is what keeps every later hop of a
  // multi-migration cheap.
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);
  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  SessionBlobOptions deltaOptions;
  deltaOptions.delta = true;

  for (const bool firstHopDelta : {false, true}) {
    const std::string hop1 = EncodeSessionBlob(
        *original, identity, firstHopDelta ? deltaOptions
                                           : SessionBlobOptions{});
    auto imported = ImportSessionBlob(hop1);
    ASSERT_TRUE(imported.ok()) << imported.error().ToText();
    const std::string hop2 = EncodeSessionBlob(
        *imported.value().sim, imported.value().identity, deltaOptions);
    auto again = ImportSessionBlob(hop2);
    ASSERT_TRUE(again.ok())
        << "firstHopDelta=" << firstHopDelta << ": "
        << again.error().ToText();
    ExpectIdenticalState(*original, *again.value().sim,
                         firstHopDelta ? "delta->delta" : "full->delta");
  }
}

TEST(DeltaBlob, ExportAfterStepBackShipsOnlyTheRestoredPages) {
  // A restore adopts the restored state's pages as the dirty set, so a
  // delta export right after StepBack ships exactly the pages a straight
  // run to that cycle dirtied — not the whole memory.
  auto sim = MustCreate(kBranchyMemory, DeltaConfig());
  auto reference = MustCreate(kBranchyMemory, DeltaConfig());
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(reference, nullptr);
  StepN(*sim, 700);
  ASSERT_TRUE(sim->StepBack().ok());
  StepN(*reference, 699);

  const SessionIdentity identity =
      MakeIdentity(*sim, kBranchyMemory, "main", "");
  SessionBlobOptions deltaOptions;
  deltaOptions.delta = true;
  const std::string delta = EncodeSessionBlob(*sim, identity, deltaOptions);
  EXPECT_EQ(delta, EncodeSessionBlob(*reference, identity, deltaOptions));
  const std::vector<std::uint32_t> pages =
      sim->SaveState().memory.memory.pages;
  EXPECT_EQ(pages, reference->SaveState().memory.memory.pages);
  EXPECT_LT(pages.size(), sim->config().memory.sizeBytes /
                              memory::MainMemory::kPageSizeBytes / 8);

  auto imported = ImportSessionBlob(delta);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  ExpectIdenticalState(*reference, *imported.value().sim,
                       "delta import after StepBack");
  reference->Run(5'000'000);
  imported.value().sim->Run(5'000'000);
  ExpectIdenticalState(*reference, *imported.value().sim, "run to completion");
}

TEST(DeltaBlob, BlobWithLegacyCheckpointKeysImportsAndContinues) {
  // Blobs exported before the checkpoint block lost its deltaPages,
  // fullSnapshotEvery and adaptiveInterval keys embed a configuration
  // that still carries them: the importer ignores them, and the config
  // hash (which never covered checkpoint settings) still matches.
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 433);
  SessionIdentity identity = MakeIdentity(*sim, kBranchyMemory, "main", "");
  json::Json configJson = config::ToJson(sim->config());
  json::Json checkpoint = *configJson.Find("checkpoint");
  checkpoint.Set("deltaPages", true);
  checkpoint.Set("fullSnapshotEvery", std::int64_t{16});
  checkpoint.Set("adaptiveInterval", false);
  configJson.Set("checkpoint", std::move(checkpoint));
  identity.configJson = configJson.Dump();

  for (const bool delta : {false, true}) {
    SessionBlobOptions options;
    options.delta = delta;
    auto imported =
        ImportSessionBlob(EncodeSessionBlob(*sim, identity, options));
    ASSERT_TRUE(imported.ok()) << imported.error().ToText();
    core::Simulation& copy = *imported.value().sim;
    ExpectIdenticalState(*sim, copy, "legacy-keys import");
    auto original = MustCreate(kBranchyMemory, TestConfig());
    ASSERT_NE(original, nullptr);
    StepN(*original, 433);
    original->Run(5'000'000);
    copy.Run(5'000'000);
    ExpectIdenticalState(*original, copy, "legacy-keys run to completion");
  }
}

TEST(DeltaBlob, CodecFailsClosedOnBaseMismatch) {
  auto base = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(base, nullptr);
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 433);

  const CodecContext encodeContext{&sim->config(), &sim->program()};
  EncodeOptions options;
  options.deltaMemory = true;
  options.baseEpoch = sim->memoryBaseEpoch();
  const core::SimSnapshot state = sim->SaveState();
  const std::string blob = EncodeSnapshot(state, encodeContext, options);

  // With the matching base the delta decodes into exactly its pages, laid
  // over that base.
  CodecContext withBase{&base->config(), &base->program()};
  withBase.base = base->memorySystem().memory().base();
  withBase.baseEpoch = base->memoryBaseEpoch();
  auto decoded = DecodeSnapshot(blob, withBase);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToText();
  EXPECT_EQ(decoded.value().memory.memory.base, withBase.base);
  EXPECT_EQ(decoded.value().memory.memory.pages, state.memory.memory.pages);
  EXPECT_EQ(decoded.value().memory.memory.pageBytes,
            state.memory.memory.pageBytes);

  // A different base epoch fails closed with a clear message.
  CodecContext wrongEpoch = withBase;
  wrongEpoch.baseEpoch ^= 1;
  auto rejected = DecodeSnapshot(blob, wrongEpoch);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().message.find("base-epoch"), std::string::npos);

  // No base at all fails closed too — a delta is never guessed against.
  CodecContext noBase{&base->config(), &base->program()};
  EXPECT_FALSE(DecodeSnapshot(blob, noBase).ok());
}

TEST(DeltaBlob, TruncatedAndCorruptedDeltaBlobsAlwaysError) {
  auto base = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(base, nullptr);
  auto sim = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(sim, nullptr);
  StepN(*sim, 250);

  const CodecContext encodeContext{&sim->config(), &sim->program()};
  EncodeOptions options;
  options.deltaMemory = true;
  options.baseEpoch = sim->memoryBaseEpoch();
  const std::string blob =
      EncodeSnapshot(sim->SaveState(), encodeContext, options);

  CodecContext context{&base->config(), &base->program()};
  context.base = base->memorySystem().memory().base();
  context.baseEpoch = base->memoryBaseEpoch();
  ASSERT_TRUE(DecodeSnapshot(blob, context).ok());

  for (std::size_t length = 0; length < blob.size();
       length += 1 + length / 7) {
    EXPECT_FALSE(
        DecodeSnapshot(std::string_view(blob).substr(0, length), context)
            .ok())
        << "truncation at " << length;
  }
  // The payload checksum catches every single-byte flip.
  for (std::size_t pos = 0; pos < blob.size(); pos += 1 + pos / 7) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    EXPECT_FALSE(DecodeSnapshot(mutant, context).ok())
        << "byte flip at " << pos;
  }
}

TEST(DeltaBlob, V2FormatSessionBlobStillImports) {
  // The versioned reader: a blob persisted by the previous release
  // (format v2, no memory-mode byte) must keep importing after the v3
  // bump — long-lived saved sessions survive the upgrade.
  auto original = MustCreate(kBranchyMemory, TestConfig());
  ASSERT_NE(original, nullptr);
  StepN(*original, 433);
  const SessionIdentity identity =
      MakeIdentity(*original, kBranchyMemory, "main", "");
  SessionBlobOptions v2;
  v2.formatVersion = 2;
  const std::string blob = EncodeSessionBlob(*original, identity, v2);

  auto imported = ImportSessionBlob(blob);
  ASSERT_TRUE(imported.ok()) << imported.error().ToText();
  ExpectIdenticalState(*original, *imported.value().sim, "v2 import");
}

TEST(CliSnapshot, SaveLoadRoundTripMatchesUninterruptedRun) {
  const std::string dir = ::testing::TempDir();
  const std::string programPath = dir + "/snap_prog.s";
  const std::string snapshotPath = dir + "/session.rvse";
  {
    std::ofstream file(programPath);
    file << kBranchyMemory;
  }

  auto run = [&](const std::vector<std::string>& args, std::string& out) {
    std::ostringstream outStream;
    std::ostringstream errStream;
    const int code = cli::RunCli(args, outStream, errStream);
    out = outStream.str();
    EXPECT_EQ(code, 0) << errStream.str();
    return code;
  };

  // Interrupted: run 300 cycles, save, resume from the snapshot.
  std::string ignored;
  run({"rvss", "--asm", programPath, "--max-cycles", "300",
       "--save-snapshot", snapshotPath, "--format", "json"},
      ignored);
  std::string resumed;
  run({"rvss", "--load-snapshot", snapshotPath, "--format", "json"}, resumed);

  // Uninterrupted reference.
  std::string reference;
  run({"rvss", "--asm", programPath, "--format", "json"}, reference);
  EXPECT_EQ(resumed, reference);

  // Conflicting flags are rejected.
  std::ostringstream outStream;
  std::ostringstream errStream;
  EXPECT_EQ(cli::RunCli({"rvss", "--load-snapshot", snapshotPath, "--asm",
                         programPath},
                        outStream, errStream),
            1);
  EXPECT_NE(errStream.str().find("cannot be combined"), std::string::npos);
}

}  // namespace
}  // namespace rvss::snapshot
