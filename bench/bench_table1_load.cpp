// E1 — Table I of the paper: closed-loop load test.
//
// Paper setup: Apache JMeter, 30/100 users, each interactively simulating
// 40 steps of one of two programs, 4 s ramp-up, 1 s think time, gzip on,
// measured Direct vs inside Docker on a laptop. Paper numbers:
//
//   Mode    #users   median [ms]   90th [ms]   throughput [trans/s]
//   Direct    30        70.66        118            25.96
//   Direct   100       680          1248.9          53.61
//   Docker    30        77           283            24.49
//   Docker   100      1135          2031.9          42.07
//
// Here the same closed-loop scenario runs as a deterministic virtual-time
// queueing simulation over *measured* per-request service times (real
// parse -> simulate 1 step -> serialize -> compress calls against the
// in-process server). The Docker rows use the calibrated overhead model
// (server/load_model.h). Shapes to reproduce: saturation between
// 30 and 100 users (median inflates by an order of magnitude while
// throughput roughly doubles) and Docker rows strictly slower than Direct.
#include <algorithm>

#include "bench_common.h"
#include "server/load_model.h"
#include "common/slz.h"

using namespace rvss;

namespace {

/// Collects real service-time samples by timing `step` requests.
std::vector<double> MeasureServiceTimes(double* payloadBytes,
                                        double* compressionRatio) {
  server::SimServer server;
  std::vector<std::int64_t> sessions;
  for (const char* program : {bench::kSortC, bench::kFloatC}) {
    sessions.push_back(
        bench::CreateCSession(server, program, config::DefaultConfig()));
  }

  std::vector<double> samples;
  double bytesTotal = 0;
  double compressedTotal = 0;
  for (int round = 0; round < 60; ++round) {
    for (std::int64_t id : sessions) {
      const std::string request =
          R"({"command": "step", "sessionId": )" + std::to_string(id) +
          R"(, "count": 1})";
      server::RequestTiming timing;
      server.HandleRaw(request, /*compress=*/true, &timing);
      if (round < 4) continue;  // warm-up rounds excluded
      samples.push_back(static_cast<double>(timing.TotalNs()) * 1e-9);
      bytesTotal += static_cast<double>(timing.responseBytes);
      compressedTotal += static_cast<double>(timing.compressedBytes);
    }
  }
  *payloadBytes = bytesTotal / static_cast<double>(samples.size());
  *compressionRatio = bytesTotal / std::max(compressedTotal, 1.0);
  return samples;
}

}  // namespace

void PrintScenarioTable(const char* title, const std::vector<double>& samples,
                        double payloadBytes, double compressionRatio) {
  std::printf("%s\n", title);
  std::printf("%-8s %-7s %14s %14s %18s\n", "Mode", "#users", "median [ms]",
              "90th pct [ms]", "throughput [t/s]");
  for (auto mode :
       {server::DeploymentMode::kDirect, server::DeploymentMode::kDocker}) {
    for (int users : {30, 100}) {
      server::LoadScenario scenario;
      scenario.users = users;
      scenario.requestsPerUser = 40;
      scenario.rampUpSeconds = 4.0;
      scenario.thinkTimeSeconds = 1.0;
      scenario.mode = mode;
      scenario.payloadBytes = payloadBytes;
      scenario.compressionRatio = compressionRatio;
      server::LoadResult result = server::SimulateLoad(scenario, samples);
      std::printf("%-8s %-7d %14.2f %14.2f %18.2f\n",
                  mode == server::DeploymentMode::kDirect ? "Direct" : "Docker",
                  users, result.medianLatencyMs, result.p90LatencyMs,
                  result.throughputTps);
    }
  }
  std::printf("\n");
}

int main() {
  double payloadBytes = 0;
  double compressionRatio = 1.0;
  std::vector<double> samples =
      MeasureServiceTimes(&payloadBytes, &compressionRatio);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double medianService = sorted[sorted.size() / 2];
  std::printf("bench_table1_load (E1) — reproduction of Table I\n");
  std::printf(
      "measured service time: median %.3f ms (n=%zu), payload %.1f KiB, "
      "compression %.2fx\n\n",
      medianService * 1e3, sorted.size(), payloadBytes / 1024.0,
      compressionRatio);

  PrintScenarioTable(
      "(a) this machine (C++ server, measured service times):", samples,
      payloadBytes, compressionRatio);

  // (b) Paper-calibrated run: the paper's Java/Undertow server needed
  // ~70 ms per request at 30 users (Table I's unsaturated median). Scale
  // our measured distribution so the Direct/30 median lands there, then
  // let the *same queueing structure* produce the 100-user saturation and
  // the Docker degradation — that is the shape Table I reports.
  const double scale = 0.065 / medianService;
  std::vector<double> paperScale = samples;
  for (double& sample : paperScale) sample *= scale;
  PrintScenarioTable(
      "(b) paper-calibrated service times (x scaled to ~Java-server speed):",
      paperScale, payloadBytes, compressionRatio);

  std::printf(
      "paper:   Direct 30u = 70.66 / 118    / 25.96,  100u = 680  / 1248.9 / 53.61\n"
      "         Docker 30u = 77    / 283    / 24.49,  100u = 1135 / 2031.9 / 42.07\n");
  return 0;
}
