#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <random>

#include "cc/compiler.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "fleet.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/state_renderer.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "skim.h"
#include "stats.h"

namespace e2ebench {
namespace {

using rvss::json::Json;

/// The share by which the direct calls may miss SimServer::HandleRaw.
constexpr double kServerTolerance = 0.25;

enum Entry { kGateway = 0, kRouterSocket, kRouterInProcess, kServer, kDirect };
const char* const kEntryNames[] = {"gateway", "router+socket", "router",
                                   "server", "direct"};

struct Span {
  const char* name;
  int entry;
  std::size_t request;  ///< request (gui) or job (batch) index
  double startUs;
  double endUs;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  void Record(const char* name, int entry, std::size_t request,
              double startUs, double endUs) {
    spans_.push_back(Span{name, entry, request, startUs, endUs});
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& span : spans_) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"entry\":\"%s\",\"request\":%zu,"
                    "\"startUs\":%.3f,\"endUs\":%.3f}\n",
                    span.name, kEntryNames[span.entry], span.request,
                    span.startUs, span.endUs);
      out << line;
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One entry point: executes a request text for gui session / batch
/// connection `lane` and returns the response text.
using CallFn = std::function<bool(std::size_t lane, const std::string& text,
                                  std::string& response)>;

bool IsOk(const std::string& response) {
  return skim::String(skim::Field(response, "status")) == "ok";
}

/// The server's cumulative handle time (us) for one command at an entry
/// point, from the `server.handleUs.<command>` histograms; NaN when it
/// cannot be read.
using HandleFn = std::function<double(const char* command)>;

/// HandleFn over a `metrics` response of a gateway or router. A command
/// no worker has served yet has no histogram: 0.
double HandleFromMetrics(const std::string& response, const char* command) {
  const auto histograms = skim::Path(response, {"fleet", "histograms"});
  if (!histograms) return std::nan("");
  const std::string key = std::string("server.handleUs.") + command;
  return skim::Double(skim::Path(*histograms, {key, "sum"})).value_or(0);
}

double HandleInProcess(const char* command) {
  return static_cast<double>(rvss::obs::Registry::Instance()
                                 .GetHistogram(std::string("server.handleUs.") + command)
                                 .sum());
}

/// The replay at one of the entry points 1-4, driven request by request
/// (gui) or job by job (batch), so that RunTrace can interleave the
/// entries and every entry sees the same host conditions for a request.
class EntryReplay {
 public:
  /// `handle`, when set, is read around every call of a request, so that
  /// the call's own server handle time is known (see handles()).
  EntryReplay(int entry, CallFn call, HandleFn handle, const TraceInput& input,
              Tracer& tracer)
      : entry_(entry), call_(std::move(call)), handle_(std::move(handle)),
        input_(input), tracer_(tracer) {}

  /// gui: creates the sessions and applies the setup Ops.
  bool Setup(std::string& failure) {
    if (input_.workload == WorkloadKind::kBatchRun) return true;
    ids_.assign(kGuiSessions, 0);
    for (std::size_t s = 0; s < kGuiSessions; ++s) {
      if (!Timed(s, RenderOp({OpKind::kCreate, s, 0}, 0, input_.workload, nullptr),
                 -1, "createSession", failure)) {
        return false;
      }
      ids_[s] = skim::Int(skim::Field(response_, "sessionId")).value_or(-1);
    }
    for (const Op& op : input_.setupOps) {
      if (!Timed(op.session, RenderOp(op, ids_[op.session], input_.workload, nullptr),
                 -1, "setup", failure)) {
        return false;
      }
    }
    return true;
  }

  /// Replays request j (gui) or job j (batch) and records its latency.
  bool Replay(std::size_t j, std::string& failure) {
    calls_.emplace_back();
    handles_.emplace_back();
    const long request = static_cast<long>(j);
    if (input_.workload == WorkloadKind::kBatchRun) {
      const Job& job = input_.jobs[j];
      std::int64_t id = 0;
      for (const Op& op : job.Ops(j)) {
        if (!Timed(0, RenderOp(op, id, input_.workload, &job), request,
                   OpName(op.kind), failure)) {
          return false;
        }
        if (op.kind == OpKind::kCreate) {
          id = skim::Int(skim::Field(response_, "sessionId")).value_or(-1);
        }
      }
    } else {
      const Op& op = input_.ops[j];
      if (!Timed(op.session, RenderOp(op, ids_[op.session], input_.workload, nullptr),
                 request, OpName(op.kind), failure)) {
        return false;
      }
    }
    return true;
  }

  bool Teardown(std::string& failure) {
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      if (!Timed(s, RenderOp({OpKind::kDelete, s, 0}, ids_[s], input_.workload, nullptr),
                 -1, "deleteSession", failure)) {
        return false;
      }
    }
    return true;
  }

  /// Per request (a batch job is one request), the latency of each call.
  const std::vector<std::vector<double>>& calls() const { return calls_; }
  /// Per request and call, the server's handle time inside that very
  /// call (empty without a HandleFn).
  const std::vector<std::vector<double>>& handles() const { return handles_; }

 private:
  /// One call, recorded as a span when it belongs to a request (request
  /// >= 0; session setup and teardown pass -1).
  bool Timed(std::size_t lane, const std::string& text, long request,
             const char* name, std::string& failure) {
    const bool measure = request >= 0 && handle_ != nullptr;
    const double handleBefore = measure ? handle_(name) : 0;
    const double start = tracer_.NowUs();
    const bool ok = call_(lane, text, response_);
    const double end = tracer_.NowUs();
    if (request >= 0) {
      tracer_.Record(name, entry_, static_cast<std::size_t>(request), start, end);
      calls_.back().push_back(end - start);
    }
    if (measure) {
      const double handle = handle_(name) - handleBefore;
      if (std::isnan(handle)) {
        failure = std::string(kEntryNames[entry_]) + " " + name +
                  ": cannot read the server's handle time";
        return false;
      }
      handles_.back().push_back(handle);
    }
    if (!ok || !IsOk(response_)) {
      failure = std::string(kEntryNames[entry_]) + " " + name + ": " +
                response_.substr(0, 300);
      return false;
    }
    return true;
  }

  int entry_;
  CallFn call_;
  HandleFn handle_;
  const TraceInput& input_;
  Tracer& tracer_;
  std::vector<std::int64_t> ids_;
  std::vector<std::vector<double>> calls_;
  std::vector<std::vector<double>> handles_;
  std::string response_;
};

/// Per-call timings of the direct (entry 5) replay.
struct DirectTimes {
  std::vector<double> chainUs;  ///< per request: everything the server does
  std::vector<double> requestParseUs, renderUs, dumpUs, parseUs;
  std::vector<double> stepUs, stepBackUs, seekUs, compileUs, createUs;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Renders the state and dumps a response envelope around it, the way a
/// state-returning command does. Then parses the text once more, as each
/// hop above the worker does (timed, but not part of the server's chain).
bool RenderResponse(const rvss::core::Simulation& sim, DirectTimes& t,
                    double* chain) {
  Clock::time_point start = Clock::now();
  Json state = rvss::server::RenderJson(sim);
  const double render = Since(start);
  start = Clock::now();
  Json response = Json::MakeObject();
  response.Set("status", "ok");
  response.Set("state", std::move(state));
  const std::string text = response.Dump();
  const double dump = Since(start);
  t.renderUs.push_back(render);
  t.dumpUs.push_back(dump);
  *chain += render + dump;
  start = Clock::now();
  const bool parsed = rvss::json::Parse(text).ok();
  t.parseUs.push_back(Since(start));
  return parsed;
}

std::unique_ptr<rvss::core::Simulation> DirectCreate(
    const Kernel& kernel, const std::string& configJson, DirectTimes& t,
    double* chain, std::string& failure) {
  Clock::time_point start = Clock::now();
  auto compiled = rvss::cc::Compile(kernel.source, rvss::cc::CompileOptions{2});
  const double compile = Since(start);
  if (!compiled.ok()) {
    failure = "direct compile: " + compiled.error().ToText();
    return nullptr;
  }
  auto config =
      rvss::config::CpuConfigFromJson(rvss::json::Parse(configJson).value());
  start = Clock::now();
  auto sim = rvss::core::Simulation::Create(config.value(),
                                            compiled.value().assembly,
                                            {{}, "main"});
  const double create = Since(start);
  if (!sim.ok()) {
    failure = "direct create: " + sim.error().ToText();
    return nullptr;
  }
  t.compileUs.push_back(compile);
  t.createUs.push_back(create);
  if (chain != nullptr) *chain += compile + create;
  return std::move(sim).value();
}

bool SameAsPin(const Json& stats, const Pin& pin) {
  return stats.GetInt("cycles", -1) == pin.cycles &&
         stats.GetInt("committedInstructions", -1) == pin.committed &&
         stats.GetDouble("ipc", -1) == pin.ipc &&
         stats.Find("cache")->GetDouble("hitRate", -1) == pin.l1HitRate &&
         stats.Find("branchPrediction")->GetDouble("accuracy", -1) ==
             pin.branchAccuracy;
}

/// Entry 5: the server's work for each request as direct calls into
/// json, core and server::RenderJson, request by request like EntryReplay.
class DirectReplay {
 public:
  DirectReplay(const TraceInput& input, Tracer& tracer)
      : input_(input), tracer_(tracer) {}

  bool Setup(std::string& failure) {
    if (input_.workload == WorkloadKind::kBatchRun) return true;
    for (std::size_t s = 0; s < kGuiSessions; ++s) {
      sims_.push_back(DirectCreate(GuiKernel(s), Configs()[0].json, times,
                                   nullptr, failure));
      if (!sims_.back()) return false;
    }
    for (const Op& op : input_.setupOps) ApplyGuiOp(*sims_[op.session], op);
    return true;
  }

  bool Replay(std::size_t j, std::string& failure) {
    const double begin = tracer_.NowUs();
    const bool ok = input_.workload == WorkloadKind::kBatchRun
                        ? BatchJob(j, failure)
                        : Request(j, failure);
    tracer_.Record(input_.workload == WorkloadKind::kBatchRun
                       ? "job"
                       : OpName(input_.ops[j].kind),
                   kDirect, j, begin, tracer_.NowUs());
    return ok;
  }

  DirectTimes times;

 private:
  bool Request(std::size_t j, std::string& failure) {
    const Op& op = input_.ops[j];
    rvss::core::Simulation& sim = *sims_[op.session];
    const std::string request =
        RenderOp(op, static_cast<std::int64_t>(op.session) + 1,
                 input_.workload, nullptr);
    Clock::time_point start = Clock::now();
    const bool parsed = rvss::json::Parse(request).ok();
    double chain = Since(start);
    times.requestParseUs.push_back(chain);
    start = Clock::now();
    ApplyGuiOp(sim, op);
    const double opUs = Since(start);
    chain += opUs;
    (op.kind == OpKind::kStep       ? times.stepUs
     : op.kind == OpKind::kStepBack ? times.stepBackUs
                                    : times.seekUs)
        .push_back(opUs);
    const bool rendered = RenderResponse(sim, times, &chain);
    times.chainUs.push_back(chain);
    if (!parsed || !rendered) {
      failure = "direct: JSON did not round-trip";
      return false;
    }
    return true;
  }

  /// Every server step of a batch job.
  bool BatchJob(std::size_t j, std::string& failure) {
    const Job& job = input_.jobs[j];
    double chain = 0;
    for (const Op& op : job.Ops(j)) {
      const Clock::time_point start = Clock::now();
      const bool parsed =
          rvss::json::Parse(RenderOp(op, 1, input_.workload, &job)).ok();
      const double parse = Since(start);
      times.requestParseUs.push_back(parse);
      chain += parse;
      if (!parsed) {
        failure = "direct: request did not parse";
        return false;
      }
    }
    auto sim = DirectCreate(BatchKernels()[job.kernel],
                            Configs()[job.config].json, times, &chain, failure);
    if (!sim) return false;
    Clock::time_point start = Clock::now();
    if (!sim->FastForwardTo(Prefixes(job.kernel)[job.prefix]).ok()) {
      failure = "direct fastForward failed";
      return false;
    }
    chain += Since(start);
    bool rendered = RenderResponse(*sim, times, &chain);  // fastForward's state
    start = Clock::now();
    sim->Run(kRunMaxCycles);
    Json stats = sim->statistics().ToJson(sim->memorySystem().stats(),
                                          sim->config().coreClockHz);
    std::string text = stats.Dump();  // the run response
    chain += Since(start);
    rendered = RenderResponse(*sim, times, &chain) && rendered;  // state
    start = Clock::now();
    stats = sim->statistics().ToJson(sim->memorySystem().stats(),
                                     sim->config().coreClockHz);
    text = stats.Dump();  // stats
    sim.reset();          // deleteSession
    chain += Since(start);
    times.chainUs.push_back(chain);
    if (!rendered) {
      failure = "direct: a rendered state did not parse";
      return false;
    }
    if (!SameAsPin(stats, (*input_.pins)[job.kernel][job.config][job.prefix])) {
      failure = "direct: statistics differ from the pins for " +
                BatchKernels()[job.kernel].name + "/" +
                Configs()[job.config].name;
      return false;
    }
    return true;
  }

  const TraceInput& input_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<rvss::core::Simulation>> sims_;
};

/// Step, StepBack and SeekTo on the gui sort program, for workloads whose
/// requests make no such call: a fixed probe, so that core.step_us,
/// core.stepback_us and core.seek_us are measured on every workload.
bool ProbeCore(DirectTimes& t, std::string& failure) {
  constexpr int kCalls = 200;
  DirectTimes ignored;
  auto sim = DirectCreate(GuiSortKernel(), Configs()[0].json, ignored,
                          nullptr, failure);
  if (!sim) return false;
  ApplyGuiOp(*sim, Op{OpKind::kStep, 0, 3'000});
  std::vector<double> step, back, seek;
  for (int i = 0; i < kCalls; ++i) {
    const Clock::time_point start = Clock::now();
    sim->Step();
    step.push_back(Since(start));
  }
  for (int i = 0; i < kCalls; ++i) {
    const Clock::time_point start = Clock::now();
    const bool ok = sim->StepBack().ok();
    back.push_back(Since(start));
    if (!ok) {
      failure = "probe: StepBack failed";
      return false;
    }
  }
  std::mt19937_64 rng(1);
  for (int i = 0; i < kCalls; ++i) {
    const std::uint64_t now = sim->cycle();
    const std::uint64_t distance = 1 + rng() % 1'000;
    const std::uint64_t target =
        rng() % 2 == 0 && now > distance ? now - distance : now + distance;
    const Clock::time_point start = Clock::now();
    const bool ok = sim->SeekTo(target).ok();
    seek.push_back(Since(start));
    if (!ok) {
      failure = "probe: SeekTo failed";
      return false;
    }
  }
  if (t.stepUs.empty()) t.stepUs = std::move(step);
  if (t.stepBackUs.empty()) t.stepBackUs = std::move(back);
  if (t.seekUs.empty()) t.seekUs = std::move(seek);
  return true;
}

/// Host-speed and simulated-statistics metrics: each batch kernel on each
/// configuration run in process from cycle 0, and each kernel's longest
/// fast-forward prefix on the reference ISS.
bool ModelRuns(const TraceInput& input, TraceResult& result,
               std::string& failure) {
  double cycles = 0;
  double runSeconds = 0;
  double ffInstructions = 0;
  double ffSeconds = 0;
  DirectTimes ignored;
  for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
    const Kernel& kernel = BatchKernels()[k];
    for (std::size_t c = 0; c < Configs().size(); ++c) {
      auto sim = DirectCreate(kernel, Configs()[c].json, ignored, nullptr,
                              failure);
      if (!sim) return false;
      const Clock::time_point start = Clock::now();
      sim->Run(kRunMaxCycles);
      runSeconds += Since(start) / 1e6;
      cycles += static_cast<double>(sim->cycle());
      const Json stats = sim->statistics().ToJson(
          sim->memorySystem().stats(), sim->config().coreClockHz);
      if (static_cast<std::int32_t>(sim->ReadIntReg(10)) != kernel.expected ||
          !SameAsPin(stats, (*input.pins)[k][c][0])) {
        failure = "model run " + kernel.name + "/" + Configs()[c].name +
                  " differs from its pin or host reference";
        return false;
      }
      const std::string key = kernel.name + "." + Configs()[c].name;
      result.metrics["sim.cycles." + key] =
          static_cast<double>(stats.GetInt("cycles", 0));
      result.metrics["sim.instructions." + key] =
          static_cast<double>(stats.GetInt("committedInstructions", 0));
      result.metrics["sim.ipc." + key] = stats.GetDouble("ipc", 0);
      result.metrics["memory.l1_hit_ratio." + key] =
          stats.Find("cache")->GetDouble("hitRate", 0);
      result.metrics["predictor.accuracy." + key] =
          stats.Find("branchPrediction")->GetDouble("accuracy", 0);
    }
    auto sim = DirectCreate(kernel, Configs()[0].json, ignored, nullptr,
                            failure);
    if (!sim) return false;
    const Clock::time_point start = Clock::now();
    if (!sim->FastForwardTo(Prefixes(k).back()).ok()) {
      failure = "model fast-forward failed";
      return false;
    }
    ffSeconds += Since(start) / 1e6;
    ffInstructions += static_cast<double>(Prefixes(k).back());
  }
  result.metrics["core.cycles_per_s"] = cycles / runSeconds;
  result.metrics["ref.ff_mips"] = ffInstructions / ffSeconds / 1e6;
  return true;
}

/// Per request, the sum of its calls.
std::vector<double> Totals(const std::vector<std::vector<double>>& calls) {
  std::vector<double> out;
  for (const auto& request : calls) {
    double total = 0;
    for (double call : request) total += call;
    out.push_back(total);
  }
  return out;
}

}  // namespace

void ApplyGuiOp(rvss::core::Simulation& sim, const Op& op) {
  switch (op.kind) {
    case OpKind::kStep:
      for (std::int64_t i = 0;
           i < op.arg && sim.status() == rvss::core::SimStatus::kRunning; ++i) {
        sim.Step();
      }
      break;
    case OpKind::kStepBack: (void)sim.StepBack(); break;
    case OpKind::kRestore:
      (void)sim.SeekTo(static_cast<std::uint64_t>(op.arg));
      break;
    default: break;
  }
}

bool RunTrace(const TraceInput& input, Client& client, TraceResult& result) {
  Tracer tracer;

  // 1: the gateway fleet under test, from the client.
  std::string error;
  // 2: a router in this process over freshly started socket workers.
  std::vector<Process> workers;
  std::vector<std::string> addresses;
  if (!StartWorkers(input.rvss, input.runDir, "trace", input.workers, workers,
                    addresses)) {
    result.failure = "cannot start trace workers";
    return false;
  }
  rvss::shard::ShardRouter::Options socketOptions;
  socketOptions.workerCount = addresses.size();
  socketOptions.transportFactory =
      [addresses](std::size_t worker, const rvss::server::SimServer::Limits&)
      -> rvss::Result<std::shared_ptr<rvss::shard::WorkerTransport>> {
    return std::shared_ptr<rvss::shard::WorkerTransport>(
        std::make_shared<rvss::shard::SocketTransport>(addresses[worker]));
  };
  auto socketRouter = std::make_unique<rvss::shard::ShardRouter>(socketOptions);
  // 3: a router over in-process workers.
  rvss::shard::ShardRouter::Options inProcessOptions;
  inProcessOptions.workerCount = static_cast<std::size_t>(input.workers);
  rvss::shard::ShardRouter inProcessRouter(inProcessOptions);
  // 4: the bare server, with its own parse/handle/serialize split.
  rvss::server::SimServer server;
  std::vector<rvss::server::RequestTiming> serverCalls;

  // batch-run: a `run` simulates for tens of milliseconds, and two runs
  // of the same job differ by more than a layer's whole self time on a
  // shared host. So each call's own server handle time is read around it
  // and the layers are peeled on latency minus handle time. gui requests
  // spend ~1% in the core; there the plain difference is exact enough,
  // and no metrics traffic runs between the timed calls.
  const bool peelHandle = input.workload == WorkloadKind::kBatchRun;
  const std::string metricsRequest = "{\"command\":\"metrics\"}";
  std::string metrics;
  double serverHandleUs = 0;  // SimServer::HandleRaw bypasses the histograms
  HandleFn gatewayHandle, socketHandle, localHandle, serverHandle;
  if (peelHandle) {
    gatewayHandle = [&](const char* command) {
      return client.Call(0, metricsRequest, metrics, error)
                 ? HandleFromMetrics(metrics, command)
                 : std::nan("");
    };
    socketHandle = [&](const char* command) {
      return HandleFromMetrics(socketRouter->HandleRaw(metricsRequest), command);
    };
    localHandle = HandleInProcess;
    serverHandle = [&](const char*) { return serverHandleUs; };
  }
  std::vector<EntryReplay> entries;
  entries.emplace_back(
      kGateway,
      [&](std::size_t lane, const std::string& text, std::string& response) {
        return client.Call(lane % client.size(), text, response, error);
      },
      gatewayHandle, input, tracer);
  // Bytes per socket call at entry 2, both directions: requests as the
  // transport counts them, responses as the router passes them on.
  rvss::obs::Registry& registry = rvss::obs::Registry::Instance();
  rvss::obs::Counter& socketCalls = registry.GetCounter("shard.transport.socket.calls");
  rvss::obs::Counter& requestBytes =
      registry.GetCounter("shard.transport.socket.requestBytes");
  rvss::obs::Counter& blobBytes = registry.GetCounter("shard.transport.socket.blobBytes");
  double socketCallCount = 0, socketBytes = 0;
  entries.emplace_back(
      kRouterSocket,
      [&](std::size_t, const std::string& text, std::string& response) {
        const double calls = static_cast<double>(socketCalls.value());
        const double bytes = static_cast<double>(requestBytes.value() + blobBytes.value());
        response = socketRouter->HandleRaw(text);
        socketCallCount += static_cast<double>(socketCalls.value()) - calls;
        socketBytes += static_cast<double>(requestBytes.value() + blobBytes.value()) -
                       bytes + static_cast<double>(response.size());
        return true;
      },
      socketHandle, input, tracer);
  entries.emplace_back(
      kRouterInProcess,
      [&](std::size_t, const std::string& text, std::string& response) {
        response = inProcessRouter.HandleRaw(text);
        return true;
      },
      localHandle, input, tracer);
  entries.emplace_back(
      kServer,
      [&](std::size_t, const std::string& text, std::string& response) {
        rvss::server::RequestTiming timing;
        response = server.HandleRaw(text, false, &timing);
        serverCalls.push_back(timing);
        serverHandleUs += static_cast<double>(timing.handleNs) / 1000.0;
        return true;
      },
      serverHandle, input, tracer);
  // 5: the server's work as direct calls.
  DirectReplay direct(input, tracer);

  std::string failure;
  const auto fail = [&](const std::string& what) {
    result.failure = what + error;
    return false;
  };
  for (EntryReplay& entry : entries) {
    if (!entry.Setup(failure)) return fail(failure);
  }
  if (!direct.Setup(failure)) return fail(failure);

  // Request by request, every entry in turn, starting at a different
  // entry each time: a burst of host noise then hits one request on all
  // entries alike, and no entry always runs first on a cold cache.
  const std::size_t requests = input.workload == WorkloadKind::kBatchRun
                                   ? input.jobs.size()
                                   : input.ops.size();
  constexpr std::size_t kEntries = kDirect + 1;
  // RequestTiming of the server entry, per request, in us.
  std::vector<double> parseUs, handleUs, serializeUs;
  for (std::size_t j = 0; j < requests; ++j) {
    for (std::size_t k = 0; k < kEntries; ++k) {
      const std::size_t e = (j + k) % kEntries;
      if (e == kDirect) {
        if (!direct.Replay(j, failure)) return fail(failure);
        continue;
      }
      serverCalls.clear();
      if (!entries[e].Replay(j, failure)) return fail(failure);
      if (e == kServer) {
        parseUs.push_back(0);
        handleUs.push_back(0);
        serializeUs.push_back(0);
        for (const rvss::server::RequestTiming& timing : serverCalls) {
          parseUs.back() += static_cast<double>(timing.parseNs) / 1000.0;
          handleUs.back() += static_cast<double>(timing.handleNs) / 1000.0;
          serializeUs.back() += static_cast<double>(timing.serializeNs) / 1000.0;
        }
      }
    }
  }
  for (EntryReplay& entry : entries) {
    if (!entry.Teardown(failure)) return fail(failure);
  }
  socketRouter.reset();
  workers.clear();
  for (const std::string& address : addresses) {
    ::unlink(address.substr(5).c_str());
  }
  if (!ProbeCore(direct.times, failure) || !ModelRuns(input, result, failure)) {
    return fail(failure);
  }
  tracer.Write(input.spansPath);

  // Per request: each entry's latency, and the server handle time inside
  // it (batch-run only; see peelHandle).
  std::vector<double> latency[kDirect], handle[kDirect];
  for (int e = 0; e < kDirect; ++e) {
    latency[e] = Totals(entries[e].calls());
    handle[e] = peelHandle ? Totals(entries[e].handles())
                           : std::vector<double>(requests, 0);
  }
  // The attribution is taken on the middle band: the requests whose
  // latency at the server entry lies between its 25th and 75th percentile,
  // i.e. the middle half by the work they ask for. Selecting on the server
  // entry, not on the gateway, keeps a host hiccup during a request's
  // gateway call from deciding whether the request is in the band, which
  // would bias the gateway's self time upwards. Per request the rows below
  // add up exactly to the gateway latency, so their means over the band
  // add up exactly to the band's mean gateway latency.
  const double p25 = Quantile(latency[kServer], 0.25);
  const double p75 = Quantile(latency[kServer], 0.75);
  std::vector<std::size_t> band;
  for (std::size_t j = 0; j < requests; ++j) {
    if (latency[kServer][j] >= p25 && latency[kServer][j] <= p75) band.push_back(j);
  }
  const auto bandMean = [&](const std::function<double(std::size_t)>& value) {
    double total = 0;
    for (std::size_t j : band) total += value(j);
    return band.empty() ? 0 : total / static_cast<double>(band.size());
  };
  // A layer's self time: its entry's latency minus the next entry's,
  // each net of the handle time inside it.
  const auto self = [&](int e) {
    return bandMean([&](std::size_t j) {
      return (latency[e][j] - handle[e][j]) - (latency[e + 1][j] - handle[e + 1][j]);
    });
  };
  // On batch-run the handle row is the handle time inside the gateway
  // replay's own calls, and the server entry's latency is taken net of
  // its own handle time, so that the simulation's jitter cancels.
  const std::vector<double>& handleRow = peelHandle ? handle[kGateway] : handleUs;
  const DirectTimes& t = direct.times;
  auto& m = result.metrics;
  m["trace.requests"] = static_cast<double>(requests);
  m["trace.gateway_p50_us"] = Median(latency[kGateway]);
  m["trace.band_mean_us"] = bandMean([&](std::size_t j) { return latency[kGateway][j]; });
  m["gateway.self_us"] = self(kGateway);
  m["shard.transport_self_us"] = self(kRouterSocket);
  m["shard.router_self_us"] = self(kRouterInProcess);
  m["server.parse_us"] = bandMean([&](std::size_t j) { return parseUs[j]; });
  m["server.handle_us"] = bandMean([&](std::size_t j) { return handleUs[j]; });
  m["server.serialize_us"] = bandMean([&](std::size_t j) { return serializeUs[j]; });
  const double handleRowUs = bandMean([&](std::size_t j) { return handleRow[j]; });
  m["shard.socket_bytes_per_call"] =
      socketCallCount <= 0 ? 0 : socketBytes / socketCallCount;
  m["trace.server_other_us"] = bandMean([&](std::size_t j) {
    return latency[kServer][j] - handle[kServer][j] - parseUs[j] - serializeUs[j] -
           (peelHandle ? 0 : handleUs[j]);
  });
  m["server.render_us"] = Median(t.renderUs);
  m["json.dump_us"] = Median(t.dumpUs);
  m["json.parse_us"] = Median(t.parseUs);
  m["core.step_us"] = Median(t.stepUs);
  m["core.stepback_us"] = Median(t.stepBackUs);
  m["core.seek_us"] = Median(t.seekUs);
  m["cc.compile_us"] = Median(t.compileUs);
  m["core.create_us"] = Median(t.createUs);
  m["trace.direct_chain_us"] = Median(t.chainUs);
  // Server self-check: per request, the direct chain over the server's
  // HandleRaw latency; the median ratio must be within the tolerance of 1.
  std::vector<double> coverage;
  for (std::size_t j = 0; j < requests && j < t.chainUs.size(); ++j) {
    coverage.push_back(t.chainUs[j] / latency[kServer][j]);
  }
  m["trace.server_coverage"] = Median(coverage);

  const char* unit = input.workload == WorkloadKind::kBatchRun ? "job" : "request";
  char buffer[4096];
  std::snprintf(
      buffer, sizeof buffer,
      "per-layer self time over the middle band (%zu of %zu %ss, server-entry "
      "latency p25..p75), replayed one at a time\n"
      "  %-42s %12.1f us\n  %-42s %12.1f us\n  %-42s %12.1f us\n"
      "  %-42s %12.1f us\n  %-42s %12.1f us\n  %-42s %12.1f us\n"
      "  %-42s %12.1f us\n  %-42s %12.1f us   (gateway p50 %.1f us)\n"
      "entry latencies (p50): gateway %.1f, router+socket %.1f, router %.1f, "
      "server %.1f us\n"
      "server self-check: direct calls (parse, core, render, dump) %.1f us vs "
      "SimServer::HandleRaw %.1f us, per-request ratio p50 %.3f "
      "(tolerance %.0f%%)\n",
      band.size(), requests, unit, "gateway (1 - 2)", m["gateway.self_us"],
      "shard transport (2 - 3)", m["shard.transport_self_us"],
      "shard router (3 - 4)", m["shard.router_self_us"],
      "server parse (RequestTiming)", m["server.parse_us"],
      peelHandle ? "server handle (inside the gateway's calls)"
                 : "server handle (RequestTiming)",
      handleRowUs, "server serialize (RequestTiming)", m["server.serialize_us"],
      "server, outside parse/handle/serialize", m["trace.server_other_us"],
      "= gateway path, band mean", m["trace.band_mean_us"],
      m["trace.gateway_p50_us"], Median(latency[kGateway]),
      Median(latency[kRouterSocket]), Median(latency[kRouterInProcess]),
      Median(latency[kServer]), m["trace.direct_chain_us"],
      Median(latency[kServer]), m["trace.server_coverage"], kServerTolerance * 100);
  result.table = buffer;

  if (std::fabs(m["trace.server_coverage"] - 1) > kServerTolerance) {
    result.failure = "direct calls do not account for SimServer::HandleRaw";
    return false;
  }
  return true;
}

}  // namespace e2ebench
