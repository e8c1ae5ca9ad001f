// The traced run: per-layer attribution by peeling.
//
// The recorded request sequence is replayed one request at a time at each
// public entry point, the entries interleaved request by request:
//
//   1 gateway      the client's socket round trip through `rvss --gateway`
//   2 router+sock  shard::ShardRouter::HandleRaw over forked socket workers
//   3 router       shard::ShardRouter::HandleRaw over in-process workers
//   4 server       server::SimServer::HandleRaw with RequestTiming
//   5 direct       json::Parse, core::Simulation, server::RenderJson,
//                  json::Json::Dump called one by one
//
// Each call is one span (name, start, end, request id, entry point), kept
// in memory and written out when the run ends. A layer's self time on a
// request is its entry's latency minus the next entry's latency on the
// same request (on batch-run net of the server's handle time inside each
// call); the report gives the mean of each over the middle band of
// requests, whose rows add up to the band's mean gateway latency.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "client.h"
#include "workload.h"

namespace rvss::core {
class Simulation;
}

namespace e2ebench {

struct TraceInput {
  WorkloadKind workload = WorkloadKind::kGuiStep;
  std::string rvss;
  std::string runDir;
  std::string spansPath;
  int workers = 1;
  /// gui: the per-session setup Ops (gui-scrub's advance) and the
  /// recorded requests, in send order. batch: the recorded jobs.
  std::vector<Op> setupOps;
  std::vector<Op> ops;
  std::vector<Job> jobs;
  const Pins* pins = nullptr;
};

struct TraceResult {
  std::map<std::string, double> metrics;
  std::string table;    ///< the human-readable attribution report
  std::string failure;  ///< non-empty when a self-check failed
};

/// Runs the replays. `client` is connected to the gateway fleet under
/// test, which holds no sessions of this workload any more.
bool RunTrace(const TraceInput& input, Client& client, TraceResult& result);

/// Applies one gui Op to an in-process simulation, the way SimServer
/// does for the same command.
void ApplyGuiOp(rvss::core::Simulation& sim, const Op& op);

}  // namespace e2ebench
