// Raw simulation throughput: detailed out-of-order stepping vs the
// reference ISS that Simulation::FastForwardTo runs.
//
// Two numbers matter. detailed_cycles_per_s is the hot-loop budget of the
// whole detailed model — predecode, issue, rename, commit — and is what
// the predecoded-pipeline work optimizes. fast_forward_mips is the ISS
// prefix-skip rate; its ratio to detailed_mips (ff_speedup) is the whole
// point of fast-forwarding and is pinned in bench/baselines.json.
//
// Both loops run in one process in alternating ~10 ms slices (the detailed
// core through Run(k), the ISS through ref::Interpreter::Run(k) on the
// same DecodedProgram), and each side's time is the sum of its slices. On
// a shared host, speed shifts slower than a slice pair land on both sides
// equally, so the ratio does not depend on which speed cluster each loop
// happened to run in (see bench_obs for the same strategy).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/simulation.h"
#include "ref/interpreter.h"

namespace rvss {
namespace {

// Dependency-light integer loop, ~1.6M dynamic instructions: long enough
// that session setup and the final drain are noise, small enough that the
// detailed run finishes in a couple of seconds on a laptop.
const char* kLoop = R"(
main:
    li t0, 400000
loop:
    addi t1, t1, 1
    xori t2, t1, 3
    addi t0, t0, -1
    bnez t0, loop
    ret
)";

/// Slice sizes that take roughly 10 ms each on a development host.
constexpr std::uint64_t kDetailedSliceCycles = 15'000;
constexpr std::uint64_t kIssSliceInstructions = 300'000;

struct Totals {
  bool ok = false;
  double detailedSeconds = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
  double issSeconds = 0.0;
  std::uint64_t issInstructions = 0;
};

/// Runs the detailed core to completion, alternating its slices with ISS
/// slices of the same program; the ISS restarts whenever it finishes.
Totals RunInterleaved() {
  Totals totals;
  const config::CpuConfig config = config::DefaultConfig();
  auto sim = core::Simulation::Create(config, kLoop, {{}, "main"});
  if (!sim.ok()) {
    std::fprintf(stderr, "create failed: %s\n", sim.error().ToText().c_str());
    return totals;
  }
  core::Simulation& detailed = *sim.value();
  memory::MainMemory issMemory(config.memory.sizeBytes);
  auto loaded = assembler::LoadProgram(kLoop, {}, config, issMemory, "main");
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.error().ToText().c_str());
    return totals;
  }
  ref::Interpreter iss(detailed.decodedProgram(), issMemory);
  iss.InitRegisters(loaded.value().initialSp);

  while (detailed.status() == core::SimStatus::kRunning) {
    auto start = std::chrono::steady_clock::now();
    detailed.Run(kDetailedSliceCycles);
    totals.detailedSeconds += bench::SecondsSince(start);

    const std::uint64_t before = iss.stats().executedInstructions;
    start = std::chrono::steady_clock::now();
    const ref::ExitReason reason = iss.Run(kIssSliceInstructions);
    totals.issSeconds += bench::SecondsSince(start);
    totals.issInstructions += iss.stats().executedInstructions - before;
    if (reason == ref::ExitReason::kMainReturned) {
      // The loop keeps its state in registers: restarting needs no reload.
      iss.InitRegisters(loaded.value().initialSp);
    } else if (reason != ref::ExitReason::kRunning) {
      std::fprintf(stderr, "ISS stopped: %s\n", ref::ToString(reason));
      return totals;
    }
  }
  totals.cycles = detailed.cycle();
  totals.committed = detailed.statistics().committedInstructions;
  totals.ok = detailed.status() == core::SimStatus::kFinished;
  return totals;
}

}  // namespace
}  // namespace rvss

int main(int argc, char** argv) {
  using namespace rvss;
  bench::JsonReport report("sim", argc, argv);

  // Warm-up run primes the allocator and the expression compiler caches so
  // the measured run sees steady state.
  (void)RunInterleaved();

  const Totals totals = RunInterleaved();
  if (!totals.ok) return 1;
  const double detailedCyclesPerS =
      static_cast<double>(totals.cycles) / totals.detailedSeconds;
  const double detailedMips = static_cast<double>(totals.committed) /
                              totals.detailedSeconds / 1e6;
  const double ffMips = static_cast<double>(totals.issInstructions) /
                        totals.issSeconds / 1e6;
  const double speedup = detailedMips == 0.0 ? 0.0 : ffMips / detailedMips;

  std::printf("# Simulation throughput (loop of %llu dynamic instructions; "
              "interleaved ~10 ms slices)\n",
              static_cast<unsigned long long>(totals.committed));
  std::printf("%-22s %12.3f s  %12.0f cycles/s  %8.3f MIPS\n", "detailed",
              totals.detailedSeconds, detailedCyclesPerS, detailedMips);
  std::printf("%-22s %12.3f s  %25s  %8.3f MIPS\n", "fast-forward (ISS)",
              totals.issSeconds, "-", ffMips);
  std::printf("%-22s %12.1fx\n", "ff speedup", speedup);

  report.Set("detailed_cycles_per_s", detailedCyclesPerS);
  report.Set("detailed_mips", detailedMips);
  report.Set("fast_forward_mips", ffMips);
  report.Set("ff_speedup", speedup);
  report.Set("hardware_cores",
             static_cast<double>(std::thread::hardware_concurrency()));
  return 0;
}
