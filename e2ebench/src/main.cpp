// e2ebench: the end-to-end benchmark of rvss through `rvss --gateway`.
//
//   e2ebench --workload gui-step|gui-scrub|batch-run --seed N --seconds S
//            --trace 0|1 --rvss PATH --rate R --max-lag-ms L ...
//
// Starts the production fleet (fleet.h), drives it from this one thread
// over a few connections, checks every response, and prints one JSON
// line: the end-to-end metrics (--trace 0), or the per-layer metrics of
// the peel attribution (--trace 1, see trace.h). A human-readable report
// goes to stderr. Exit codes: 0 ok, 1 an output check failed, 2 usage or
// set-up error, 3 invalid run (the generator fell behind its schedule).
//
// See e2ebench/README.md for the workloads and what each metric means.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/compiler.h"
#include "client.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "fleet.h"
#include "json/json.h"
#include "skim.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace e2ebench {
namespace {

/// The gui workloads spend this share of --seconds in the open loop and
/// the rest in the closed loop.
constexpr double kOpenShare = 0.6;

/// The gui open loop is split into kWindows consecutive windows by send
/// order; batch-run jobs into blocks that each hold every (kernel,
/// config, prefix) once, so that every block is the same mix of work.
/// Every metric is taken over the whole phase (for batch-run: its
/// complete blocks). The windows only make drift within a run visible:
/// stderr shows each window's quantiles and the p50 of each half.
constexpr std::size_t kWindows = 12;

/// Set-ups per run; setup_s and create_p50_ms are over all of them.
constexpr int kSetupReps = 5;

/// The traced run replays at most this many of the recorded open-loop
/// requests (gui) or jobs (batch-run: one block).
constexpr std::size_t kTraceRequests = 1200;
constexpr std::size_t kTraceJobs = 48;

struct Args {
  WorkloadKind workload = WorkloadKind::kGuiStep;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rvss;
  std::string runDir = ".bench_run";
  std::string pins = "e2ebench/pins.json";
  std::string writePins;
  int workers = 0;      ///< nproc - 1, at least 1
  int connections = 0;  ///< nproc, at most 4
  /// gui open-loop requests per second, and the generator lag p99 above
  /// which a run is invalid. No defaults: BENCHMARK.json's command sets
  /// both, once.
  double rate = 0;
  double maxLagMs = 0;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

bool ParseArgs(int argc, char** argv, Args& args, std::string& error) {
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      auto kind = ParseWorkload(value);
      if (!kind) {
        error = "unknown workload '" + value + "'";
        return false;
      }
      args.workload = *kind;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--rvss") {
      args.rvss = value;
    } else if (flag == "--run-dir") {
      args.runDir = value;
    } else if (flag == "--pins") {
      args.pins = value;
    } else if (flag == "--write-pins") {
      args.writePins = value;
      haveWorkload = true;
    } else if (flag == "--rate") {
      args.rate = std::atof(value.c_str());
    } else if (flag == "--max-lag-ms") {
      args.maxLagMs = std::atof(value.c_str());
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (!haveWorkload) {
    error = "--workload is required";
    return false;
  }
  if (args.writePins.empty() && args.rvss.empty()) {
    error = "--rvss is required";
    return false;
  }
  if (args.writePins.empty() && (args.rate <= 0 || args.maxLagMs <= 0)) {
    error = "--rate and --max-lag-ms are required";
    return false;
  }
  if (args.seconds <= 0) {
    error = "--seconds must be positive";
    return false;
  }
  const long cores = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  args.workers = static_cast<int>(std::max(1L, cores - 1));
  args.connections = static_cast<int>(std::min(4L, cores));
  return true;
}

/// Requests of one phase, by outcome.
struct PhaseCounts {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
};

/// Counters, gauges and histogram sums of the merged fleet view.
struct FleetMetrics {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, double> histogramSum;
  std::map<std::string, double> histogramCount;

  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int Run();

 private:
  bool Fail(const std::string& message) {
    if (failures_.size() < 20) failures_.push_back(message);
    return false;
  }
  bool SetupOnce(bool keep);
  bool Snapshot(FleetMetrics& out);
  bool GuiOpenLoop();
  bool GuiClosedLoop();
  bool BatchClosedLoop();
  bool GuiFinalCheck();
  bool OnGuiResponse(Completion& done, PhaseCounts& phase, bool open);
  bool OnBatchResponse(Completion& done);
  void SendGui(std::size_t session, Clock::time_point due);
  void StartJob(std::size_t conn);
  void PrintResult(bool correct, const std::map<std::string, std::pair<double, const char*>>& metrics,
                   std::uint64_t attempted, std::uint64_t failed);

  const Args& args_;
  Pins pins_;
  std::unique_ptr<GatewayFleet> fleet_;
  Client client_;
  std::vector<std::string> failures_;

  // gui state
  std::unique_ptr<GuiStreams> streams_;
  std::vector<Op> setupOps_;
  std::vector<std::int64_t> ids_;
  std::vector<std::int64_t> lastCycle_;
  std::vector<std::vector<Op>> history_;  ///< executed Ops per session
  std::vector<Op> sentOps_;               ///< by tag
  std::vector<Op> recordedOps_;           ///< open-loop Ops, send order
  std::vector<std::size_t> rr_;           ///< closed-loop round robin
  double simulatedCycles_ = 0;

  // batch state
  struct ConnJob {
    Job job;
    std::size_t index = 0;
    std::vector<Op> ops;
    std::size_t next = 0;
    std::int64_t sessionId = 0;
    Clock::time_point start;
    std::size_t frameBytes = 0;
    std::string runStatistics;
    bool shed = false;
    bool active = false;
  };
  std::unique_ptr<JobStream> jobs_;
  std::vector<ConnJob> connJobs_;
  std::vector<Job> recordedJobs_;
  std::size_t jobsStarted_ = 0;
  Clock::time_point phaseEnd_;
  /// createSession latencies, per set-up.
  std::vector<std::vector<double>> createMs_;

  // measurements
  std::vector<double> setupS_;
  /// Latencies of the p50/p99 phase (+inf = failed or shed), split into
  /// windows (see kWindows).
  std::vector<std::vector<double>> windowsMs_;
  std::size_t openTotal_ = 0;
  std::vector<double> lagMs_;
  std::vector<double> frameBytes_;
  PhaseCounts open_{"open-loop"}, closed_{"closed-loop"}, jobsPhase_{"jobs"};
  double capacityRps_ = 0;
  double simMcyclesPerS_ = 0;
};

bool Bench::Snapshot(FleetMetrics& out) {
  std::string response;
  std::string error;
  if (!client_.Call(0, "{\"command\":\"metrics\"}", response, error)) {
    return Fail("metrics: " + error);
  }
  auto doc = rvss::json::Parse(response);
  const rvss::json::Json* fleet = doc.ok() ? doc.value().Find("fleet") : nullptr;
  if (fleet == nullptr) return Fail("metrics response has no fleet view");
  if (const auto* counters = fleet->Find("counters")) {
    for (const auto& [name, value] : counters->AsObject()) {
      out.counters[name] = value.AsDouble();
    }
  }
  if (const auto* gauges = fleet->Find("gauges")) {
    for (const auto& [name, value] : gauges->AsObject()) {
      out.gauges[name] = value.AsDouble();
    }
  }
  if (const auto* histograms = fleet->Find("histograms")) {
    for (const auto& [name, value] : histograms->AsObject()) {
      out.histogramSum[name] = value.GetDouble("sum", 0);
      out.histogramCount[name] = value.GetDouble("count", 0);
    }
  }
  return true;
}

/// One set-up: start the fleet, connect, create (and for gui-scrub
/// advance) every session. `keep` leaves it running for the phases.
bool Bench::SetupOnce(bool keep) {
  const Clock::time_point start = Clock::now();
  fleet_ = std::make_unique<GatewayFleet>();
  const std::string tag = "gw" + std::to_string(::getpid());
  if (!fleet_->Start(args_.rvss, args_.runDir, tag, args_.workers)) {
    return Fail("cannot start the gateway fleet");
  }
  std::string error;
  if (!client_.Connect(fleet_->address(), args_.connections, error)) {
    return Fail(error);
  }
  std::string response;
  createMs_.emplace_back();
  if (args_.workload == WorkloadKind::kBatchRun) {
    for (std::size_t c = 0; c < client_.size(); ++c) {
      if (!client_.Call(c, "{\"command\":\"hello\"}", response, error)) {
        return Fail("hello: " + error);
      }
    }
    // "Compile & load" of every (kernel, config) once on the idle fleet:
    // the creates that create_p50_ms reports.
    std::size_t conn = 0;
    for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
      for (std::size_t c = 0; c < Configs().size(); ++c, ++conn) {
        const Job job{k, c, 0};
        double ms = 0;
        if (!client_.Call(conn % client_.size(),
                          RenderOp({OpKind::kCreate, 0, 0}, 0, args_.workload, &job),
                          response, error, &ms) ||
            skim::String(skim::Field(response, "status")) != "ok") {
          return Fail("createSession: " + error + response.substr(0, 300));
        }
        createMs_.back().push_back(ms);
        const auto id = skim::Int(skim::Field(response, "sessionId")).value_or(-1);
        if (!client_.Call(conn % client_.size(),
                          RenderOp({OpKind::kDelete, 0, 0}, id, args_.workload, &job),
                          response, error) ||
            skim::String(skim::Field(response, "status")) != "ok") {
          return Fail("deleteSession: " + error + response.substr(0, 300));
        }
      }
    }
  } else {
    ids_.assign(kGuiSessions, 0);
    for (std::size_t s = 0; s < kGuiSessions; ++s) {
      double ms = 0;
      if (!client_.Call(s % client_.size(),
                        RenderOp({OpKind::kCreate, s, 0}, 0, args_.workload, nullptr),
                        response, error, &ms) ||
          skim::String(skim::Field(response, "status")) != "ok") {
        return Fail("createSession: " + error + response.substr(0, 300));
      }
      createMs_.back().push_back(ms);
      ids_[s] = skim::Int(skim::Field(response, "sessionId")).value_or(-1);
    }
    for (const Op& op : setupOps_) {
      if (!client_.Call(op.session % client_.size(),
                        RenderOp(op, ids_[op.session], args_.workload, nullptr),
                        response, error) ||
          skim::String(skim::Field(response, "status")) != "ok") {
        return Fail("setup step: " + error + response.substr(0, 300));
      }
    }
  }
  setupS_.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  if (!keep) fleet_->Stop();
  return true;
}

void Bench::SendGui(std::size_t session, Clock::time_point due) {
  const Op op = streams_->Next(session);
  const std::uint64_t tag = sentOps_.size();
  sentOps_.push_back(op);
  client_.Send(session % client_.size(),
               RenderOp(op, ids_[session], args_.workload, nullptr), tag, due);
}

bool Bench::OnGuiResponse(Completion& done, PhaseCounts& phase, bool open) {
  const Op& op = sentOps_[done.tag];
  const std::size_t s = op.session;
  frameBytes_.push_back(static_cast<double>(done.frameBytes));
  const std::string_view text = done.text;
  if (skim::String(skim::Field(text, "status")) != "ok") {
    if (open) windowsMs_[done.tag * windowsMs_.size() / openTotal_].push_back(kInf);
    if (skim::String(skim::Path(text, {"error", "kind"})) == "unavailable") {
      ++phase.shed;
      return true;
    }
    ++phase.failed;
    return Fail(std::string(OpName(op.kind)) + " failed: " +
                std::string(text.substr(0, 300)));
  }
  const auto state = skim::Field(text, "state");
  const auto cycle = skim::Int(state ? skim::Field(*state, "cycle") : std::nullopt);
  const auto status = skim::String(state ? skim::Field(*state, "status") : std::nullopt);
  if (!cycle || status != "running") {
    ++phase.failed;
    return Fail("step response without a running state: " +
                std::string(text.substr(0, 200)));
  }
  std::int64_t expected = op.arg;
  double simulated = 0;
  if (op.kind == OpKind::kStep) {
    const auto stepped = skim::Int(skim::Field(text, "stepped"));
    if (stepped != op.arg) {
      ++phase.failed;
      return Fail("step count=" + std::to_string(op.arg) + " stepped " +
                  std::to_string(stepped.value_or(-1)));
    }
    expected = lastCycle_[s] + op.arg;
    simulated = static_cast<double>(op.arg);
  } else {
    if (op.kind == OpKind::kStepBack) expected = lastCycle_[s] - 1;
    simulated = static_cast<double>(
        skim::Int(skim::Field(text, "replayedSteps")).value_or(0));
  }
  if (*cycle != expected) {
    ++phase.failed;
    return Fail(std::string(OpName(op.kind)) + " on session " +
                std::to_string(s) + " reached cycle " + std::to_string(*cycle) +
                ", expected " + std::to_string(expected));
  }
  lastCycle_[s] = *cycle;
  history_[s].push_back(op);
  ++phase.succeeded;
  if (open) {
    windowsMs_[done.tag * windowsMs_.size() / openTotal_].push_back(
        Ms(done.done - done.due));
    if (recordedOps_.size() < kTraceRequests) recordedOps_.push_back(op);
  } else {
    simulatedCycles_ += simulated;
  }
  return true;
}

bool Bench::GuiOpenLoop() {
  const double phaseSeconds = args_.seconds * kOpenShare;
  const std::size_t total =
      static_cast<std::size_t>(std::llround(args_.rate * phaseSeconds));
  openTotal_ = total;
  windowsMs_.assign(kWindows, {});
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / args_.rate));
  };
  std::size_t sent = 0;
  std::string error;
  bool ok = true;
  const auto onDone = [&](Completion& done) {
    if (!OnGuiResponse(done, open_, true)) ok = false;
  };
  const Clock::time_point giveUp =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phaseSeconds + 60));
  while (sent < total || client_.outstanding() > 0) {
    const Clock::time_point now = Clock::now();
    while (sent < total && due(sent) <= now) {
      const Clock::time_point when = due(sent);
      SendGui(streams_->PickSession(), when);
      lagMs_.push_back(Ms(Clock::now() - when));
      ++open_.attempted;
      ++sent;
    }
    if (now > giveUp) return Fail("open-loop responses stalled");
    const Clock::time_point wake =
        sent < total ? due(sent) : now + std::chrono::milliseconds(50);
    if (!client_.Poll(wake, onDone, error)) return Fail(error);
  }
  return ok;
}

bool Bench::GuiClosedLoop() {
  const Clock::time_point start = Clock::now();
  phaseEnd_ = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(args_.seconds * (1 - kOpenShare)));
  rr_.assign(client_.size(), 0);
  const auto sendNext = [&](std::size_t conn) {
    // Sessions s with s % connections == conn, in turn.
    const std::size_t perConn =
        (kGuiSessions - conn + client_.size() - 1) / client_.size();
    const std::size_t session = conn + (rr_[conn]++ % perConn) * client_.size();
    SendGui(session, Clock::now());
    ++closed_.attempted;
  };
  for (std::size_t c = 0; c < client_.size(); ++c) sendNext(c);
  std::string error;
  bool ok = true;
  // Successful completions and their simulated cycles before phaseEnd_;
  // the drain of the last outstanding requests is not counted.
  double completed = 0;
  double cycles = 0;
  const auto onDone = [&](Completion& done) {
    const double cyclesBefore = simulatedCycles_;
    const std::uint64_t succeededBefore = closed_.succeeded;
    if (!OnGuiResponse(done, closed_, false)) ok = false;
    if (done.done < phaseEnd_) {
      completed += static_cast<double>(closed_.succeeded - succeededBefore);
      cycles += simulatedCycles_ - cyclesBefore;
    }
    if (Clock::now() < phaseEnd_) {
      sendNext(done.conn);
      lagMs_.push_back(Ms(Clock::now() - done.done));
    }
  };
  while (client_.outstanding() > 0) {
    if (Clock::now() > phaseEnd_ + std::chrono::seconds(60)) {
      return Fail("closed-loop responses stalled");
    }
    if (!client_.Poll(Clock::now() + std::chrono::milliseconds(50), onDone, error)) {
      return Fail(error);
    }
  }
  const double seconds = std::chrono::duration<double>(phaseEnd_ - start).count();
  capacityRps_ = completed / seconds;
  simMcyclesPerS_ = cycles / seconds / 1e6;
  return ok;
}

void Bench::StartJob(std::size_t conn) {
  ConnJob& cj = connJobs_[conn];
  cj.job = jobs_->Next();
  cj.index = jobsStarted_++;
  if (recordedJobs_.size() < kTraceJobs) recordedJobs_.push_back(cj.job);
  cj.ops = cj.job.Ops(cj.index);
  cj.next = 0;
  cj.sessionId = 0;
  cj.frameBytes = 0;
  cj.shed = false;
  cj.active = true;
  cj.start = Clock::now();
  ++jobsPhase_.attempted;
  client_.Send(conn, RenderOp(cj.ops[0], 0, args_.workload, &cj.job), 0, cj.start);
}

bool Bench::OnBatchResponse(Completion& done) {
  ConnJob& cj = connJobs_[done.conn];
  const Op op = cj.ops[cj.next];
  const Job& job = cj.job;
  const Kernel& kernel = BatchKernels()[job.kernel];
  const std::string where = kernel.name + "/" + Configs()[job.config].name +
                            " prefix " + std::to_string(Prefixes(job.kernel)[job.prefix]);
  cj.frameBytes += done.frameBytes;
  const std::string_view text = done.text;
  bool finished = false;
  if (skim::String(skim::Field(text, "status")) != "ok") {
    if (skim::String(skim::Path(text, {"error", "kind"})) != "unavailable") {
      ++jobsPhase_.failed;
      cj.active = false;
      return Fail(where + " " + OpName(op.kind) + " failed: " +
                  std::string(text.substr(0, 300)));
    }
    // Shed: nothing ran. Release the session if one exists, then move on.
    cj.shed = true;
    if (op.kind == OpKind::kCreate || op.kind == OpKind::kDelete) {
      finished = true;
    } else {
      cj.next = cj.ops.size() - 1;
      client_.Send(done.conn, RenderOp(cj.ops[cj.next], cj.sessionId, args_.workload, &job),
                   0, Clock::now());
      return true;
    }
  } else {
    switch (op.kind) {
      case OpKind::kCreate:
        cj.sessionId = skim::Int(skim::Field(text, "sessionId")).value_or(-1);
        break;
      case OpKind::kFastForward:
        if (skim::Int(skim::Field(text, "fastForwardedInstructions")) != op.arg) {
          return Fail(where + ": fastForward did not skip the prefix");
        }
        break;
      case OpKind::kRun: {
        if (skim::String(skim::Field(text, "finishReason")) != "main returned") {
          return Fail(where + ": run did not finish: " + std::string(text.substr(0, 200)));
        }
        simulatedCycles_ += static_cast<double>(
            skim::Int(skim::Field(text, "ranCycles")).value_or(0));
        cj.runStatistics = std::string(skim::Field(text, "statistics").value_or(""));
        break;
      }
      case OpKind::kState: {
        std::optional<std::string_view> a0;
        if (const auto x = skim::Path(text, {"state", "registers", "x"})) {
          if (const auto reg = skim::Element(*x, 10)) {
            a0 = skim::String(skim::Field(*reg, "value"));
          }
        }
        const auto value = a0 ? static_cast<std::int32_t>(std::strtoull(
                                    std::string(*a0).c_str(), nullptr, 16))
                              : 0;
        if (!a0 || value != kernel.expected) {
          return Fail(where + ": main returned " + std::to_string(value) +
                      ", host reference " + std::to_string(kernel.expected));
        }
        break;
      }
      case OpKind::kStats: {
        const auto stats = skim::Field(text, "statistics");
        const Pin& pin = pins_[job.kernel][job.config][job.prefix];
        if (!stats || *stats != cj.runStatistics) {
          return Fail(where + ": stats differ from the run response");
        }
        const bool same =
            skim::Int(skim::Field(*stats, "cycles")) == pin.cycles &&
            skim::Int(skim::Field(*stats, "committedInstructions")) == pin.committed &&
            skim::Double(skim::Field(*stats, "ipc")) == pin.ipc &&
            skim::Double(skim::Path(*stats, {"cache", "hitRate"})) == pin.l1HitRate &&
            skim::Double(skim::Path(*stats, {"branchPrediction", "accuracy"})) ==
                pin.branchAccuracy;
        if (!same) {
          return Fail(where + ": simulated statistics differ from the pins: " +
                      std::string(stats->substr(0, 200)));
        }
        break;
      }
      case OpKind::kDelete: finished = true; break;
      default: break;
    }
  }
  if (!finished) {
    ++cj.next;
    client_.Send(done.conn, RenderOp(cj.ops[cj.next], cj.sessionId, args_.workload, &job),
                 0, Clock::now());
    return true;
  }
  cj.active = false;
  ++(cj.shed ? jobsPhase_.shed : jobsPhase_.succeeded);
  const std::size_t window = cj.index / JobStream::BlockSize();
  if (windowsMs_.size() <= window) windowsMs_.resize(window + 1);
  windowsMs_[window].push_back(cj.shed ? kInf : Ms(done.done - cj.start));
  frameBytes_.push_back(static_cast<double>(cj.frameBytes));
  return true;
}

bool Bench::BatchClosedLoop() {
  jobs_ = std::make_unique<JobStream>(args_.seed);
  connJobs_.assign(client_.size(), ConnJob{});
  const Clock::time_point start = Clock::now();
  phaseEnd_ = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(args_.seconds));
  for (std::size_t c = 0; c < client_.size(); ++c) StartJob(c);
  std::string error;
  bool ok = true;
  // Per window (block of jobs): jobs completed, their simulated cycles and
  // the sum of their completion times (s since start).
  struct Window {
    double jobs = 0;
    double cycles = 0;
    double doneSum = 0;
  };
  std::vector<Window> windows;
  const auto onDone = [&](Completion& done) {
    ConnJob& cj = connJobs_[done.conn];
    const double before = simulatedCycles_;
    if (!OnBatchResponse(done)) {
      ok = false;
      return;
    }
    const std::size_t w = cj.index / JobStream::BlockSize();
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].cycles += simulatedCycles_ - before;
    if (!cj.active) {
      if (!cj.shed) {
        windows[w].jobs += 1;
        windows[w].doneSum += std::chrono::duration<double>(done.done - start).count();
      }
      if (Clock::now() < phaseEnd_) StartJob(done.conn);
    }
    // The generator's lag in a closed loop: from reading a response to
    // sending the request that follows it (the job's next step or the
    // next job).
    if (cj.active) lagMs_.push_back(Ms(Clock::now() - done.done));
  };
  while (client_.outstanding() > 0 && ok) {
    if (Clock::now() > phaseEnd_ + std::chrono::seconds(90)) {
      return Fail("jobs stalled");
    }
    if (!client_.Poll(Clock::now() + std::chrono::milliseconds(50), onDone, error)) {
      return Fail(error);
    }
  }
  // Every complete block is the same mix of jobs. The rates are the jobs
  // (cycles) of the complete blocks after the first over the time between
  // the first and the last complete block's mean completion. The last
  // block, cut off by the end of the phase, is left out. Without two
  // complete blocks (a very short run), the whole phase counts.
  const double block = static_cast<double>(JobStream::BlockSize());
  std::vector<std::size_t> complete;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].jobs == block) complete.push_back(w);
  }
  double jobs = 0, cycles = 0, seconds = 0;
  if (complete.size() >= 2) {
    for (std::size_t w = complete.front() + 1; w <= complete.back(); ++w) {
      jobs += windows[w].jobs;
      cycles += windows[w].cycles;
    }
    seconds = (windows[complete.back()].doneSum - windows[complete.front()].doneSum) / block;
  } else {
    for (const Window& window : windows) {
      jobs += window.jobs;
      cycles += window.cycles;
    }
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  capacityRps_ = jobs / seconds;
  simMcyclesPerS_ = cycles / seconds / 1e6;
  // Latency: the complete blocks, unless there are none.
  std::vector<std::vector<double>> completeMs;
  for (const auto& window : windowsMs_) {
    if (window.size() == JobStream::BlockSize()) completeMs.push_back(window);
  }
  if (!completeMs.empty()) windowsMs_ = std::move(completeMs);
  return ok;
}

/// Every gui session's statistics must equal those of an in-process
/// simulation that ran the same requests.
bool Bench::GuiFinalCheck() {
  std::map<std::string, std::string> assembly;
  auto config = rvss::config::CpuConfigFromJson(
      rvss::json::Parse(Configs()[0].json).value());
  for (std::size_t s = 0; s < kGuiSessions; ++s) {
    const Kernel& kernel = GuiKernel(s);
    if (!assembly.count(kernel.name)) {
      assembly[kernel.name] =
          rvss::cc::Compile(kernel.source, rvss::cc::CompileOptions{2})
              .value()
              .assembly;
    }
    auto sim = rvss::core::Simulation::Create(config.value(), assembly[kernel.name],
                                              {{}, "main"});
    if (!sim.ok()) return Fail("in-process replay: " + sim.error().ToText());
    for (const Op& op : history_[s]) ApplyGuiOp(*sim.value(), op);
    const std::string local =
        sim.value()
            ->statistics()
            .ToJson(sim.value()->memorySystem().stats(),
                    sim.value()->config().coreClockHz)
            .Dump();
    std::string response;
    std::string error;
    if (!client_.Call(s % client_.size(),
                      "{\"command\":\"stats\",\"sessionId\":" +
                          std::to_string(ids_[s]) + "}",
                      response, error)) {
      return Fail("stats: " + error);
    }
    if (skim::Field(response, "statistics").value_or("") != local) {
      return Fail("session " + std::to_string(s) +
                  ": fleet statistics differ from the in-process replay");
    }
  }
  return true;
}

void Bench::PrintResult(
    bool correct,
    const std::map<std::string, std::pair<double, const char*>>& metrics,
    std::uint64_t attempted, std::uint64_t failed) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(entry.first) ? entry.first : 1e300);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + entry.second + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  std::string error;
  if (!LoadPins(args_.pins, pins_, error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 2;
  }
  ::mkdir(args_.runDir.c_str(), 0755);
  const bool gui = args_.workload != WorkloadKind::kBatchRun;
  if (gui) {
    streams_ = std::make_unique<GuiStreams>(args_.workload, args_.seed);
    for (std::size_t s = 0; s < kGuiSessions; ++s) {
      setupOps_.push_back(streams_->SetupOp(s));
    }
  }

  // Half the set-ups run before the phases (the last one is kept for
  // them), the rest after, so that a burst of host noise at the start of
  // a run cannot move setup_s or create_p50_ms.
  const int setupsBefore = (kSetupReps + 1) / 2;
  for (int rep = 0; rep < setupsBefore; ++rep) {
    if (!SetupOnce(rep + 1 == setupsBefore)) {
      for (const std::string& f : failures_) std::fprintf(stderr, "e2ebench: %s\n", f.c_str());
      return 2;
    }
  }
  if (gui) {
    lastCycle_.assign(kGuiSessions, 0);
    history_.assign(kGuiSessions, {});
    for (const Op& op : setupOps_) {
      lastCycle_[op.session] += op.arg;
      history_[op.session].push_back(op);
    }
  }

  FleetMetrics before, middle, after;
  bool ok = Snapshot(before);
  if (gui) {
    ok = ok && GuiOpenLoop() && Snapshot(middle) && GuiClosedLoop();
  } else {
    ok = ok && BatchClosedLoop();
    middle = before;
  }
  ok = ok && Snapshot(after);
  const double rssMib = fleet_->PeakRssMib();
  if (ok && gui) ok = GuiFinalCheck();

  // Failure accounting: every shed the client saw must show up in the
  // fleet's own shed counters, and nothing else may.
  const std::uint64_t clientShed = open_.shed + closed_.shed + jobsPhase_.shed;
  const double fleetShed =
      (after.Counter("gateway.shed") - before.Counter("gateway.shed")) +
      (after.Counter("shard.lane.shed") - before.Counter("shard.lane.shed")) +
      (after.Counter("gateway.quotaRejections") -
       before.Counter("gateway.quotaRejections"));
  if (ok && static_cast<double>(clientShed) != fleetShed) {
    ok = Fail("client saw " + std::to_string(clientShed) +
              " sheds, the fleet counted " + std::to_string(fleetShed));
  }

  std::fprintf(stderr, "%-12s %10s %10s %8s %8s\n", "phase", "attempted",
               "succeeded", "failed", "shed");
  for (const PhaseCounts* phase : {&open_, &closed_, &jobsPhase_}) {
    if (phase->attempted == 0) continue;
    std::fprintf(stderr, "%-12s %10llu %10llu %8llu %8llu\n", phase->name.c_str(),
                 static_cast<unsigned long long>(phase->attempted),
                 static_cast<unsigned long long>(phase->succeeded),
                 static_cast<unsigned long long>(phase->failed),
                 static_cast<unsigned long long>(phase->shed));
  }
  const std::uint64_t attempted = open_.attempted + closed_.attempted + jobsPhase_.attempted;
  const std::uint64_t failedOrShed = open_.failed + closed_.failed + jobsPhase_.failed + clientShed;

  const double lagP99 = Quantile(lagMs_, 0.99);
  const std::vector<double> latencies = Pooled(windowsMs_);
  const double reqP50Ms = Quantile(latencies, 0.5);
  // p99 is a report, not a bounded end-to-end metric: on a shared host
  // its run-to-run spread (0.2 to 1.0 of its median in 5-run samples)
  // exceeds any bound a regression check could use. The traced run
  // records it as client.req_p99_ms.
  const double reqP99Ms = Quantile(latencies, 0.99);
  std::fprintf(stderr, "req_p50_ms %.3f ms, req_p99_ms %.3f ms (%zu windows)\n",
               reqP50Ms, reqP99Ms, windowsMs_.size());
  for (std::size_t w = 0; w < windowsMs_.size(); ++w) {
    std::fprintf(stderr, "  window %zu: %zu requests, p50 %.3f p90 %.3f p99 %.3f ms\n", w,
                 windowsMs_[w].size(), Quantile(windowsMs_[w], 0.5),
                 Quantile(windowsMs_[w], 0.9), Quantile(windowsMs_[w], 0.99));
  }
  // Drift within the run: p50 over the first and over the second half of
  // the windows.
  const std::size_t half = windowsMs_.size() / 2;
  const double firstP50 = Quantile(
      Pooled({windowsMs_.begin(), windowsMs_.begin() + static_cast<std::ptrdiff_t>(half)}), 0.5);
  const double secondP50 = Quantile(
      Pooled({windowsMs_.begin() + static_cast<std::ptrdiff_t>(half), windowsMs_.end()}), 0.5);
  std::fprintf(stderr, "p50 drift: first half %.3f ms, second half %.3f ms (%+.1f%%)\n",
               firstP50, secondP50, firstP50 > 0 ? (secondP50 / firstP50 - 1) * 100 : 0.0);
  std::map<std::string, std::pair<double, const char*>> metrics;
  if (!args_.trace) {
    fleet_->Stop();
    for (int rep = setupsBefore; ok && rep < kSetupReps; ++rep) {
      ok = SetupOnce(false);
    }
    double sumFrames = 0;
    for (double b : frameBytes_) sumFrames += b;
    metrics["setup_s"] = {Median(setupS_), "s"};
    metrics["req_p50_ms"] = {reqP50Ms, "ms"};
    metrics["capacity_rps"] = {capacityRps_, "1/s"};
    metrics["resp_kib"] = {frameBytes_.empty() ? 0 : sumFrames / frameBytes_.size() / 1024, "KiB"};
    metrics["create_p50_ms"] = {Quantile(Pooled(createMs_), 0.5), "ms"};
    metrics["sim_mcycles_per_s"] = {simMcyclesPerS_, "Mcycles/s"};
    metrics["rss_mib"] = {rssMib, "MiB"};
    metrics["ok_ratio"] = {attempted == 0 ? 0 : 1.0 - static_cast<double>(failedOrShed) / attempted, "ratio"};
  } else if (ok) {
    // The traced run: replay the recorded requests at every entry point.
    std::string response;
    for (std::size_t s = 0; gui && s < kGuiSessions; ++s) {
      client_.Call(s % client_.size(),
                   "{\"command\":\"deleteSession\",\"sessionId\":" + std::to_string(ids_[s]) + "}",
                   response, error);
    }
    TraceInput input;
    input.workload = args_.workload;
    input.rvss = args_.rvss;
    input.runDir = args_.runDir;
    input.spansPath = args_.runDir + "/spans-" + WorkloadName(args_.workload) +
                      "-" + std::to_string(args_.seed) + ".jsonl";
    input.workers = args_.workers;
    input.setupOps = setupOps_;
    input.ops = recordedOps_;
    input.jobs = recordedJobs_;
    input.pins = &pins_;
    TraceResult trace;
    if (!RunTrace(input, client_, trace)) ok = Fail("traced run: " + trace.failure);
    const double overheadUs = trace.metrics["trace.gateway_p50_us"] - reqP50Ms * 1000;
    std::fprintf(stderr, "%s", trace.table.c_str());
    std::fprintf(stderr,
                 "tracing overhead: traced gateway p50 %.1f us - untraced req_p50 %.1f us "
                 "= %.1f us (the untraced figure is under load, the traced one is "
                 "one request at a time)\n",
                 trace.metrics["trace.gateway_p50_us"], reqP50Ms * 1000,
                 overheadUs);
    for (const auto& [name, value] : trace.metrics) {
      const bool count = name.rfind("sim.", 0) == 0 || name == "trace.requests";
      const bool ratio = name.rfind("memory.", 0) == 0 ||
                         name.rfind("predictor.", 0) == 0 || name.rfind("sim.ipc", 0) == 0 ||
                         name == "trace.server_coverage";
      metrics[name] = {value, ratio ? "ratio" : count ? "count" : "us"};
    }
    metrics["shard.socket_bytes_per_call"].second = "B";
    metrics["core.cycles_per_s"].second = "cycles/s";
    metrics["ref.ff_mips"].second = "MIPS";
    metrics["trace.overhead_us"] = {overheadUs, "us"};
    auto delta = [](const std::string& name, const FleetMetrics& from,
                    const FleetMetrics& to) {
      return to.Counter(name) - from.Counter(name);
    };
    // The lane fast path is read over the open loop, queueing over the
    // closed loop; batch-run has one phase, from `before` (= `middle`).
    const FleetMetrics& openEnd = gui ? middle : after;
    const double laneRequests = delta("shard.lane.requests", before, openEnd) +
                                delta("shard.lane.directCalls", before, openEnd);
    const std::string wait = "shard.lane.queueWaitUs";
    const double waits = after.histogramCount[wait] - middle.histogramCount[wait];
    metrics["gateway.shed"] = {delta("gateway.shed", before, after), "count"};
    metrics["client.shed"] = {static_cast<double>(clientShed), "count"};
    metrics["client.gen_lag_p99_ms"] = {lagP99, "ms"};
    metrics["client.req_p99_ms"] = {reqP99Ms, "ms"};
    metrics["shard.lane_direct_ratio"] = {
        laneRequests <= 0 ? 0
                          : delta("shard.lane.directCalls", before, openEnd) / laneRequests,
        "ratio"};
    metrics["shard.lane_queue_wait_us"] = {
        waits <= 0 ? 0 : (after.histogramSum[wait] - middle.histogramSum[wait]) / waits,
        "us"};
    metrics["core.checkpoint_kib"] = {after.gauges["sim.checkpointRingBytes"] / 1024, "KiB"};
  }
  fleet_->Stop();

  std::fprintf(stderr, "generator lag p99 %.3f ms (limit %.3f ms)\n", lagP99, args_.maxLagMs);
  for (const std::string& f : failures_) std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", f.c_str());
  if (ok && lagP99 > args_.maxLagMs) {
    std::fprintf(stderr, "e2ebench: invalid run: the generator fell %.3f ms behind its schedule at p99\n", lagP99);
    return 3;
  }
  PrintResult(ok, metrics, attempted, failedOrShed);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  std::string error;
  if (!e2ebench::ParseArgs(argc, argv, args, error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 2;
  }
  if (!args.writePins.empty()) {
    if (!e2ebench::WritePins(args.writePins, error)) {
      std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  return e2ebench::Bench(args).Run();
}
