// Differential property tests: the OoO core must produce exactly the
// architectural state of the golden-model ISS on arbitrary generated
// programs under arbitrary configurations.
//
// The MigrationSeamFuzz suite extends the property across every state
// seam the serving stack introduces: export -> import into a fresh worker
// at an arbitrary mid-point, and StepBack across a (delta) checkpoint
// boundary. Both must be invisible — the run still ends in exactly the
// ISS's architectural state.
//
// RVSS_DIFF_SEEDS widens the seed set (default 12); the nightly CI job
// runs with >= 200 seeds.
//
// RVSS_SHARD_TRANSPORT reroutes the migration seam through a ShardRouter:
// "inproc" uses in-process workers, "socket" forks real worker processes
// and drives the export/import over the length-prefixed frame protocol —
// the nightly socket leg proves the wire transport preserves the same
// bit-exactness the direct path does.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/simulation.h"
#include "ref/interpreter.h"
#include "ref/progen.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "snapshot/session.h"
#include "test_util.h"

namespace rvss {
namespace {

struct DiffCase {
  std::uint64_t seed;
  const char* configName;
};

std::ostream& operator<<(std::ostream& os, const DiffCase& c) {
  return os << "seed" << c.seed << "_" << c.configName;
}

config::CpuConfig ConfigByName(const std::string& name) {
  if (name == "scalar") return config::ScalarConfig();
  if (name == "wide") return config::WideConfig();
  if (name == "nocache") return config::NoCacheConfig();
  if (name == "tiny") {
    config::CpuConfig config = config::DefaultConfig();
    config.buffers.robSize = 4;
    config.buffers.issueWindowSize = 2;
    config.memory.renameRegisterCount = 8;
    config.memory.loadBufferSize = 2;
    config.memory.storeBufferSize = 2;
    return config;
  }
  if (name == "random_cache") {
    config::CpuConfig config = config::DefaultConfig();
    config.cache.replacement = config::ReplacementPolicy::kRandom;
    config.cache.storePolicy = config::StorePolicy::kWriteThrough;
    return config;
  }
  return config::DefaultConfig();
}

class DifferentialFuzz : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialFuzz, CoreMatchesIss) {
  const DiffCase& param = GetParam();
  const std::string source = ref::GenerateProgram(param.seed);
  const config::CpuConfig config = ConfigByName(param.configName);

  memory::MainMemory issMemory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(source, {}, config, issMemory, "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  const assembler::DecodedProgram decoded(loaded.value().program);
  ref::Interpreter iss(decoded, issMemory);
  iss.InitRegisters(loaded.value().initialSp);
  const ref::ExitReason reason = iss.Run(20'000'000);
  ASSERT_EQ(reason, ref::ExitReason::kMainReturned)
      << ref::ToString(reason) << " seed " << param.seed;

  auto sim = core::Simulation::Create(config, source, {{}, "main"});
  ASSERT_TRUE(sim.ok()) << sim.error().ToText();
  core::Simulation& s = *sim.value();
  s.Run(20'000'000);
  ASSERT_EQ(s.status(), core::SimStatus::kFinished)
      << (s.fault() ? s.fault()->ToText() : "still running");

  EXPECT_EQ(s.statistics().committedInstructions,
            iss.stats().executedInstructions);
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(s.ReadIntReg(i), iss.ReadIntReg(i)) << "x" << i;
    EXPECT_EQ(s.ReadFpReg(i), iss.ReadFpReg(i)) << "f" << i;
  }
  EXPECT_EQ(0, std::memcmp(issMemory.bytes().data(),
                           s.memorySystem().memory().bytes().data(),
                           issMemory.size()));
}

/// Seed count, overridable for the nightly wide-fuzz profile.
std::uint64_t SeedCount() {
  const char* env = std::getenv("RVSS_DIFF_SEEDS");
  if (env == nullptr) return 12;
  const long long parsed = std::atoll(env);
  if (parsed < 1) return 1;
  if (parsed > 100'000) return 100'000;
  return static_cast<std::uint64_t>(parsed);
}

std::vector<DiffCase> MakeCases() {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = 1; seed <= SeedCount(); ++seed) {
    for (const char* config :
         {"default", "scalar", "wide", "tiny", "random_cache"}) {
      cases.push_back(DiffCase{seed, config});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<DiffCase>& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_" + info.param.configName;
                         });

// ---- cross-seam differential: migration and rewind --------------------------

/// The ISS's final architectural state for (source, config).
struct GoldenRun {
  memory::MainMemory memory;
  std::unique_ptr<ref::Interpreter> iss;
  std::unique_ptr<assembler::LoadedProgram> loaded;
};

void ExpectMatchesIss(const core::Simulation& sim, const ref::Interpreter& iss,
                      const memory::MainMemory& issMemory,
                      const std::string& label) {
  ASSERT_EQ(sim.status(), core::SimStatus::kFinished)
      << label << ": " << (sim.fault() ? sim.fault()->ToText() : "running");
  EXPECT_EQ(sim.statistics().committedInstructions,
            iss.stats().executedInstructions)
      << label;
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(sim.ReadIntReg(i), iss.ReadIntReg(i)) << label << " x" << i;
    EXPECT_EQ(sim.ReadFpReg(i), iss.ReadFpReg(i)) << label << " f" << i;
  }
  EXPECT_EQ(0, std::memcmp(issMemory.bytes().data(),
                           sim.memorySystem().memory().bytes().data(),
                           issMemory.size()))
      << label << ": memory images differ";
}

/// "" = direct blob calls (the tier-1 default), "inproc"/"socket" = the
/// same seam driven through a 2-worker ShardRouter.
std::string TransportMode() {
  const char* env = std::getenv("RVSS_SHARD_TRANSPORT");
  return env == nullptr ? "" : env;
}

/// Migration blob encoding axis for the router seams: "" or "delta" =
/// the default (delta blobs negotiated via hello), "full" = force full
/// images, the pre-delta wire. The nightly fuzz leg runs both.
bool DeltaBlobsEnabled() {
  const char* env = std::getenv("RVSS_SHARD_BLOBS");
  return env == nullptr || std::string(env) != "full";
}

/// Seam 1 via the router: create the session behind a 2-worker fleet,
/// step to the seed's midpoint, drain the worker that holds it (a real
/// export -> import migration, over sockets when mode == "socket"), run
/// to completion, then pull the final state out through exportSession and
/// compare it against the ISS.
void RunMigrationThroughRouter(const std::string& mode,
                               const std::string& source,
                               const config::CpuConfig& config,
                               std::uint64_t midpoint,
                               const ref::Interpreter& iss,
                               const memory::MainMemory& issMemory) {
  shard::SpawnedFleet fleet;
  {
    shard::ShardRouter::Options options;
    options.workerCount = 2;
    options.deltaBlobs = DeltaBlobsEnabled();
    if (mode == "socket") {
      options.transportFactory =
          shard::MakeSpawningTransportFactory(&fleet, "fuzz");
    }
    shard::ShardRouter router(options);
    auto command = [&router](const char* name) {
      json::Json request = json::Json::MakeObject();
      request.Set("command", name);
      return request;
    };

    json::Json create = command("createSession");
    create.Set("code", source);
    create.Set("entry", "main");
    create.Set("config", config::ToJson(config));
    json::Json created = router.Handle(create);
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    const std::int64_t sessionId = created.GetInt("sessionId", -1);
    const std::int64_t worker = created.GetInt("worker", -1);

    // A decoy session stepped from a second thread for the whole seam:
    // the router now dispatches concurrently, so the drain below runs
    // while another session is live on the fleet — the quiesce barrier
    // must stop only the drained worker's lane, and the decoy's state
    // must be exactly what the same number of steps produces on a bare
    // server (concurrent dispatch leaks into nothing).
    json::Json decoyCreated = router.Handle(create);
    ASSERT_EQ(decoyCreated.GetString("status", ""), "ok");
    const std::int64_t decoyId = decoyCreated.GetInt("sessionId", -1);
    std::atomic<bool> stopDecoy{false};
    std::atomic<std::int64_t> decoySteps{0};
    std::atomic<bool> decoyFailed{false};
    // Joins the decoy on every exit path — a failed ASSERT between here
    // and the explicit join must not destroy a joinable thread.
    struct DecoyJoiner {
      std::atomic<bool>& stop;
      std::thread& thread;
      ~DecoyJoiner() {
        stop.store(true);
        if (thread.joinable()) thread.join();
      }
    };
    std::thread decoy([&] {
      while (!stopDecoy.load()) {
        json::Json step = command("step");
        step.Set("sessionId", decoyId);
        step.Set("count", 16);
        json::Json stepped = router.Handle(step);
        if (stepped.GetString("status", "") != "ok") {
          decoyFailed.store(true);
          return;
        }
        decoySteps.fetch_add(stepped.GetInt("stepped", 0));
        if (stepped.GetInt("stepped", 0) == 0) return;  // finished
      }
    });
    DecoyJoiner decoyJoiner{stopDecoy, decoy};

    std::uint64_t remaining = midpoint;
    while (remaining > 0) {
      json::Json step = command("step");
      step.Set("sessionId", sessionId);
      step.Set("count", static_cast<std::int64_t>(remaining));
      json::Json stepped = router.Handle(step);
      ASSERT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
      const std::uint64_t took =
          static_cast<std::uint64_t>(stepped.GetInt("stepped", 0));
      if (took == 0) break;
      remaining -= took;
    }

    json::Json drain = command("drainWorker");
    drain.Set("worker", worker);
    json::Json drained = router.Handle(drain);
    ASSERT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();

    while (true) {
      json::Json run = command("run");
      run.Set("sessionId", sessionId);
      run.Set("maxCycles", std::int64_t{20'000'000});
      json::Json report = router.Handle(run);
      ASSERT_EQ(report.GetString("status", ""), "ok") << report.Dump();
      if (report.GetString("finishReason", "") != "none" ||
          report.GetInt("ranCycles", 0) == 0) {
        break;
      }
    }

    json::Json exportRequest = command("exportSession");
    exportRequest.Set("sessionId", sessionId);
    json::Json exported = router.Handle(exportRequest);
    ASSERT_EQ(exported.GetString("status", ""), "ok") << exported.Dump();
    auto blob = Base64Decode(exported.GetString("blob", ""));
    ASSERT_TRUE(blob.has_value());
    auto imported = snapshot::ImportSessionBlob(*blob);
    ASSERT_TRUE(imported.ok()) << imported.error().ToText();
    ExpectMatchesIss(*imported.value().sim, iss, issMemory,
                     mode + "-routed migration at cycle " +
                         std::to_string(midpoint));

    // Wind the decoy down and differentiate it: its blob must equal a
    // bare server's after the identical step count.
    stopDecoy.store(true);
    if (decoy.joinable()) decoy.join();
    ASSERT_FALSE(decoyFailed.load()) << "decoy session errored mid-run";
    json::Json decoyExport = command("exportSession");
    decoyExport.Set("sessionId", decoyId);
    json::Json decoyExported = router.Handle(decoyExport);
    ASSERT_EQ(decoyExported.GetString("status", ""), "ok");
    server::SimServer bare;
    json::Json bareCreated = bare.Handle(create);
    ASSERT_EQ(bareCreated.GetString("status", ""), "ok");
    json::Json bareStep = command("step");
    bareStep.Set("sessionId", bareCreated.GetInt("sessionId", -1));
    bareStep.Set("count", decoySteps.load());
    ASSERT_EQ(bare.Handle(bareStep).GetString("status", ""), "ok");
    json::Json bareExport = command("exportSession");
    bareExport.Set("sessionId", bareCreated.GetInt("sessionId", -1));
    json::Json bareExported = bare.Handle(bareExport);
    EXPECT_EQ(decoyExported.GetString("blob", "+"),
              bareExported.GetString("blob", "-"))
        << "decoy stepped " << decoySteps.load()
        << " cycles concurrently; its state must match a bare server's";
  }
}

class MigrationSeamFuzz : public ::testing::TestWithParam<DiffCase> {};

TEST_P(MigrationSeamFuzz, MigrationAndRewindAreInvisible) {
  const DiffCase& param = GetParam();
  const std::string source = ref::GenerateProgram(param.seed);
  config::CpuConfig config = ConfigByName(param.configName);
  // Small interval (delta pages stay on by default): the replayed span
  // crosses checkpoint seams on every seed, not just long-running ones.
  config.checkpoint.intervalCycles = 64;

  // Golden model.
  memory::MainMemory issMemory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(source, {}, config, issMemory, "main");
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToText();
  const assembler::DecodedProgram decoded(loaded.value().program);
  ref::Interpreter iss(decoded, issMemory);
  iss.InitRegisters(loaded.value().initialSp);
  ASSERT_EQ(iss.Run(20'000'000), ref::ExitReason::kMainReturned);

  // Total cycle count, to place the seam at a seed-dependent mid-point.
  auto reference = core::Simulation::Create(config, source, {{}, "main"});
  ASSERT_TRUE(reference.ok()) << reference.error().ToText();
  reference.value()->Run(20'000'000);
  ASSERT_EQ(reference.value()->status(), core::SimStatus::kFinished);
  const std::uint64_t totalCycles = reference.value()->cycle();
  ASSERT_GT(totalCycles, 2u);
  const std::uint64_t midpoint =
      1 + (param.seed * 0x9e3779b97f4a7c15ull >> 33) % (totalCycles - 2);

  // Seam 1: run to the mid-point, export, import into a fresh simulation
  // (what a migration destination worker does), continue to completion.
  // With RVSS_SHARD_TRANSPORT set, the same seam runs through a shard
  // router instead — over real worker processes in "socket" mode.
  auto sim = core::Simulation::Create(config, source, {{}, "main"});
  ASSERT_TRUE(sim.ok()) << sim.error().ToText();
  core::Simulation& s = *sim.value();
  for (std::uint64_t i = 0; i < midpoint; ++i) s.Step();
  const std::string transportMode = TransportMode();
  if (transportMode.empty()) {
    const snapshot::SessionIdentity identity =
        snapshot::MakeIdentity(s, source, "main", "");
    auto imported =
        snapshot::ImportSessionBlob(snapshot::EncodeSessionBlob(s, identity));
    ASSERT_TRUE(imported.ok()) << imported.error().ToText();
    imported.value().sim->Run(20'000'000);
    ExpectMatchesIss(*imported.value().sim, iss, issMemory,
                     "migrated at cycle " + std::to_string(midpoint));
  } else {
    RunMigrationThroughRouter(transportMode, source, config, midpoint, iss,
                              issMemory);
  }

  // Seam 2: rewind across a checkpoint boundary from the same mid-point,
  // then continue to completion.
  ASSERT_TRUE(s.StepBack().ok()) << "StepBack at " << midpoint;
  ASSERT_EQ(s.cycle(), midpoint - 1);
  s.Run(20'000'000);
  ExpectMatchesIss(s, iss, issMemory,
                   "rewound at cycle " + std::to_string(midpoint));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationSeamFuzz,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<DiffCase>& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_" + info.param.configName;
                         });

TEST(Progen, GeneratedProgramsAreDeterministic) {
  EXPECT_EQ(ref::GenerateProgram(5), ref::GenerateProgram(5));
  EXPECT_NE(ref::GenerateProgram(5), ref::GenerateProgram(6));
}

TEST(Progen, OptionsRestrictInstructionMix) {
  ref::ProgenOptions intOnly;
  intOnly.useFloat = false;
  intOnly.useDouble = false;
  intOnly.useMemory = false;
  const std::string source = ref::GenerateProgram(3, intOnly);
  EXPECT_EQ(source.find("fadd"), std::string::npos);
  EXPECT_EQ(source.find("lw a"), std::string::npos);
}

TEST(DifferentialDeterminism, SameSeedSameCycleCount) {
  const std::string source = ref::GenerateProgram(9);
  const config::CpuConfig config = ConfigByName("random_cache");
  auto a = testutil::RunOnCore(source, config, "main");
  auto b = testutil::RunOnCore(source, config, "main");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->cycle(), b->cycle());
}

}  // namespace
}  // namespace rvss
