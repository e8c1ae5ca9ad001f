// Virtual-time closed-loop load model — the Table I harness.
//
// The paper load-tested its server with Apache JMeter: 30/100 users, each
// interactively running 40 simulation steps with a 4 s ramp-up and 1 s
// think time, directly vs inside Docker, with gzip on. We reproduce the
// *queueing structure* exactly and feed it *measured* per-request service
// times (samples collected by timing real SimServer::HandleRaw calls), so
// the latency distribution comes from a deterministic discrete-event
// simulation instead of minutes of wall-clock waiting.
//
// Deployment modes model the paper's Direct vs Docker rows: Docker adds a
// calibrated multiplicative service-time overhead plus a fixed per-request
// cost (network namespace + proxy hop), consistent with the ~9% median
// inflation the paper measured at low load.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rvss::server {

enum class DeploymentMode : std::uint8_t { kDirect, kDocker };

struct LoadScenario {
  int users = 30;
  int requestsPerUser = 40;        ///< interactive steps per user
  double rampUpSeconds = 4.0;
  double thinkTimeSeconds = 1.0;
  DeploymentMode mode = DeploymentMode::kDirect;
  int serverWorkers = 4;           ///< concurrent request handlers
  /// Modeled client<->server link (bytes/s); compression reduces transfer
  /// time by the measured ratio. 0 disables the network term.
  double linkBytesPerSecond = 50e6;
  double payloadBytes = 60'000;    ///< mean response size (uncompressed)
  double compressionRatio = 1.0;   ///< >1 when compression is on
  std::uint64_t seed = 42;
  double dockerOverheadFactor = 1.12;
  double dockerFixedSeconds = 0.0004;
};

struct LoadResult {
  double medianLatencyMs = 0;
  double p90LatencyMs = 0;
  double throughputTps = 0;   ///< completed transactions / test duration
  double durationSeconds = 0;
  std::uint64_t completedRequests = 0;
};

/// Runs the closed-loop simulation. `serviceTimeSamples` are seconds per
/// request, measured from the real server; the model draws from them
/// uniformly (seeded, deterministic).
LoadResult SimulateLoad(const LoadScenario& scenario,
                        const std::vector<double>& serviceTimeSamples);

}  // namespace rvss::server
