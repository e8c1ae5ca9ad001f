#include "shard/router.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace rvss::shard {
namespace {

json::Json Ok() {
  json::Json response = json::Json::MakeObject();
  response.Set("status", "ok");
  return response;
}

bool IsOk(const json::Json& response) {
  return response.GetString("status", "") == "ok";
}

json::Json RouterError(ErrorKind kind, std::string message) {
  return server::MakeErrorResponse(Error{kind, std::move(message)});
}

/// A fleet operation's wait for its own turn on the worker it drains,
/// timed as the `quiesce` span: once the turn comes up, every earlier
/// caller on the worker has finished.
Result<WorkerLane::HeldTurn> AwaitQuiesced(WorkerLane& lane,
                                           WorkerLane::Turn turn,
                                           std::size_t worker) {
  obs::ScopedSpan span("fleet", "quiesce");
  span.SetDetail(StrFormat("worker=%zu", worker));
  return lane.Await(turn);
}

/// A request carrying nothing but its command name.
json::Json Command(const char* name) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", name);
  return request;
}

/// The error envelope for `error`, as reply bytes.
server::Reply ErrorReply(const Error& error) {
  return server::ToReply(server::MakeErrorResponse(error));
}

/// A worker's reply as bytes to forward, or the envelope for a call that
/// got none.
server::Reply ToReply(Result<server::Reply> result) {
  return result.ok() ? std::move(result).value() : ErrorReply(result.error());
}

/// A worker's reply parsed for the fields a router operation needs, or
/// the envelope for a call that got none (or a reply that did not parse).
json::Json ToResponse(Result<server::Reply> result) {
  if (!result.ok()) return server::MakeErrorResponse(result.error());
  auto parsed = server::ParseReply(std::move(result).value());
  if (!parsed.ok()) {
    return RouterError(ErrorKind::kInternal,
                       "worker reply does not parse: " +
                           parsed.error().message);
  }
  return std::move(parsed).value();
}

}  // namespace

Result<std::shared_ptr<WorkerTransport>> ShardRouter::MakeTransport(
    std::size_t worker, const server::SimServer::Limits& limits) {
  if (options_.transportFactory) {
    return options_.transportFactory(worker, limits);
  }
  return std::shared_ptr<WorkerTransport>(
      std::make_shared<InProcessTransport>(limits));
}

ShardRouter::ShardRouter(const Options& options)
    : options_(options),
      ring_(std::max<std::size_t>(options.workerCount, 1),
            std::max<std::size_t>(options.virtualNodesPerWorker, 1)) {
  const std::size_t count = std::max<std::size_t>(options.workerCount, 1);
  lanes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const server::SimServer::Limits& limits =
        options_.perWorkerLimits.size() == count ? options_.perWorkerLimits[i]
                                                 : options_.workerLimits;
    auto transport = MakeTransport(i, limits);
    if (transport.ok()) {
      lanes_.push_back(std::make_shared<WorkerLane>(
          std::move(transport).value(), options_.maxLaneQueueDepth));
    } else {
      // A slot whose transport could not be built is born removed: the
      // fleet still comes up, the hole is visible in workerStats, and
      // nothing ever routes there.
      lanes_.push_back(nullptr);
      slotErrors_[i] = transport.error().message;
    }
  }
  drained_.assign(count, false);
}

std::size_t ShardRouter::workerCount() const {
  MutexLock lock(fleetMutex_);
  return lanes_.size();
}

std::size_t ShardRouter::sessionCount() const {
  MutexLock lock(fleetMutex_);
  return placements_.size();
}

server::SimServer* ShardRouter::workerServer(std::size_t index) {
  MutexLock lock(fleetMutex_);
  if (!IsLive(index)) return nullptr;
  return lanes_[index]->transport()->LocalServer();
}

json::Json ShardRouter::Handle(const json::Json& request) {
  return ToResponse(Serve(request));
}

std::string ShardRouter::HandleRaw(std::string_view requestBytes) {
  auto request = json::Parse(requestBytes);
  if (!request.ok()) {
    return server::JoinReply(ErrorReply(request.error()));
  }
  return server::JoinReply(Serve(request.value()));
}

Result<WorkerLane::HeldTurn> ShardRouter::LaneTurn::Await() const {
  if (!turn.ok()) return turn.error();
  return lane->Await(turn.value());
}

Result<server::Reply> ShardRouter::LaneTurn::Run(
    const json::Json& request) const {
  Result<WorkerLane::HeldTurn> held = Await();
  if (!held.ok()) return held.error();
  return held.value().Call(request);
}

ShardRouter::LaneTurn ShardRouter::TakeTurn(std::size_t worker) {
  return LaneTurn{lanes_[worker], lanes_[worker]->TakeTurn()};
}

std::vector<json::Json> ShardRouter::FanOut(const std::vector<LaneTurn>& turns,
                                            const json::Json& request) {
  std::vector<json::Json> results(
      turns.size(), RouterError(ErrorKind::kUnavailable, "not called"));
  // One thread per turn: every call is in flight before any is awaited,
  // so dead workers' transport timeouts overlap instead of adding up.
  // Each thread writes only its own slot. A turn whose thread cannot
  // start runs here instead: every taken turn must run, or its lane
  // stalls.
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < turns.size(); ++i) {
    if (turns[i].lane == nullptr) continue;
    try {
      threads.emplace_back([&turns, &results, &request, i] {
        results[i] = ToResponse(turns[i].Run(request));
      });
    } catch (const std::system_error&) {
      results[i] = ToResponse(turns[i].Run(request));
    }
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

json::Json ShardRouter::CallViaLane(std::size_t worker,
                                    const json::Json& request) {
  LaneTurn turn;
  {
    MutexLock lock(fleetMutex_);
    if (!IsLive(worker)) {
      return RouterError(ErrorKind::kUnavailable,
                         "worker " + std::to_string(worker) + " was removed");
    }
    turn = TakeTurn(worker);
  }
  return ToResponse(turn.Run(request));
}

ShardRouter::LaneTurn ShardRouter::TakeOwnerTurn(std::int64_t worker,
                                                 bool drain) {
  MutexLock lock(fleetMutex_);
  if (worker < 0 || worker >= static_cast<std::int64_t>(lanes_.size()) ||
      !IsLive(static_cast<std::size_t>(worker))) {
    return LaneTurn{nullptr, Error{ErrorKind::kInvalidArgument,
                                   "unknown worker " + std::to_string(worker)}};
  }
  const auto index = static_cast<std::size_t>(worker);
  LaneTurn turn = TakeTurn(index);
  // Marked in the same section as the turn: every admission placed on
  // the worker took its turn before ours, so the placement map is
  // complete when our turn comes up. A refused turn changes nothing.
  if (drain && turn.turn.ok()) drained_[index] = true;
  return turn;
}

server::Reply ShardRouter::Serve(const json::Json& request) {
  const std::string command = request.GetString("command", "");
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Counter& requests =
      registry.GetCounter("shard.router.requests");
  static obs::Histogram& handleUs =
      registry.GetHistogram("shard.router.handleUs");
  requests.Increment();
  if (obs::Enabled()) {
    registry
        .GetCounter("shard.router.cmd." +
                    std::string(obs::SanitizedCommandName(command)))
        .Increment();
  }
  obs::ScopedLatency timer(handleUs);

  // Checked before a sessionId is read for routing, so an id no int64
  // holds is refused by name instead of routed saturated.
  if (Status fits = server::CheckIntegerFields(request); !fits.ok()) {
    return ErrorReply(fits.error());
  }
  // The router's own answers are small documents it composes; every
  // other reply — a session command's rendered state among them — is
  // forwarded as the bytes the worker serialized.
  if (std::optional<json::Json> own = RouterCommand(command, request)) {
    return server::ToReply(std::move(*own));
  }
  if (request.Find("sessionId") != nullptr) {
    return RouteSessionCommand(request);
  }
  return StatelessCommand(request);
}

std::optional<json::Json> ShardRouter::RouterCommand(
    const std::string& command, const json::Json& request) {
  if (command == "hello") {
    // The router's own fingerprint: lets a client (or an operator's curl)
    // verify build compatibility without reaching into the fleet.
    return server::MakeHelloResponse();
  }
  if (command == "createSession" || command == "importSession") {
    return AdmitSession(request);
  }
  if (command == "listSessions") return ListSessions();
  if (command == "workerStats") return WorkerStats();
  if (command == "drainWorker") return DrainWorker(request);
  if (command == "openWorker") return OpenWorker(request);
  if (command == "addWorker") return AddWorker(request);
  if (command == "removeWorker") return RemoveWorker(request);
  if (command == "rebalance") return Rebalance();
  if (command == "metrics") return Metrics(request);
  if (command == "traceDump") return TraceDump();
  if (command == "shutdownWorker") {
    // Out-of-band worker-level command: forwarding it would let any API
    // client kill a fleet process. Only the router's own removeWorker
    // path may send it, directly over the transport.
    return RouterError(ErrorKind::kInvalidArgument,
                       "shutdownWorker is not a router command; use "
                       "removeWorker {worker}");
  }
  return std::nullopt;
}

server::Reply ShardRouter::StatelessCommand(const json::Json& request) {
  // Stateless commands (compile, parseAsm, checkConfig) and unknown
  // commands need no placement; any live worker gives the right answer —
  // and they are side-effect-free, so a worker whose process is dead is
  // simply skipped for the next one instead of failing the request.
  // Workers that are not drained are tried first: a drained worker may be
  // held by a drain or a removeWorker, and its turn would wait for it.
  std::vector<std::size_t> order;
  {
    MutexLock lock(fleetMutex_);
    for (const bool drained : {false, true}) {
      for (std::size_t i = 0; i < lanes_.size(); ++i) {
        if (IsLive(i) && drained_[i] == drained) order.push_back(i);
      }
    }
  }
  server::Reply lastError = ErrorReply(
      Error{ErrorKind::kUnavailable, "every worker has been removed"});
  for (const std::size_t worker : order) {
    LaneTurn turn;
    {
      MutexLock lock(fleetMutex_);
      if (!IsLive(worker)) continue;
      turn = TakeTurn(worker);
    }
    auto response = turn.Run(request);
    if (response.ok()) return std::move(response).value();
    lastError = ErrorReply(response.error());
  }
  return lastError;
}

std::vector<bool> ShardRouter::Eligible() const {
  std::vector<bool> eligible(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    eligible[i] = IsLive(i) && !drained_[i];
  }
  return eligible;
}

Result<std::size_t> ShardRouter::PlaceNew(std::int64_t globalId) {
  auto worker = ring_.Pick(static_cast<std::uint64_t>(globalId), Eligible());
  if (!worker.has_value()) {
    return Error{ErrorKind::kUnavailable,
                 "all workers are drained; no worker accepts new sessions"};
  }
  return *worker;
}

json::Json ShardRouter::AdmitSession(const json::Json& request) {
  // createSession and importSession admit identically: allocate a global
  // id, place it on the ring, forward, and record where it landed. The
  // worker round trip runs *unlocked*; the placement is recorded before
  // the turn is passed on, so a drain of the target worker — whose turn
  // comes after ours — reads a placement map that already holds it.
  // Admissions therefore overlap with traffic, with each other, and with
  // drains: a drained worker is never picked, so a createSession burst
  // does not serialize behind an in-progress drain.
  std::int64_t globalId = 0;
  std::size_t worker = 0;
  LaneTurn turn;
  {
    MutexLock lock(fleetMutex_);
    globalId = nextGlobalId_++;
    auto placed = PlaceNew(globalId);
    if (!placed.ok()) return server::MakeErrorResponse(placed.error());
    worker = placed.value();
    turn = TakeTurn(worker);
  }
  Result<WorkerLane::HeldTurn> held = turn.Await();
  if (!held.ok()) return server::MakeErrorResponse(held.error());
  json::Json response = ToResponse(held.value().Call(request));
  if (!IsOk(response)) return response;
  {
    MutexLock lock(fleetMutex_);
    placements_[globalId] = Placement{worker, response.GetInt("sessionId", -1)};
  }
  static obs::Counter& admissions =
      obs::Registry::Instance().GetCounter("shard.router.admissions");
  admissions.Increment();
  response.Set("sessionId", globalId);
  response.Set("worker", static_cast<std::int64_t>(worker));
  return response;
}

server::Reply ShardRouter::RouteSessionCommand(const json::Json& request) {
  const std::int64_t globalId = request.GetInt("sessionId", -1);
  const bool isDelete = request.GetString("command", "") == "deleteSession";
  while (true) {
    // Session commands (step, run, stepBack, exportSession, ...) take a
    // turn on their worker's lane, release the mutex and wait for it:
    // this is where the fleet's parallelism comes from. Per-session
    // ordering holds because a session's requests all take turns on the
    // same FIFO lane, in the order their dispatching threads held the
    // mutex.
    Placement placement;
    LaneTurn turn;
    {
      MutexLock lock(fleetMutex_);
      auto it = placements_.find(globalId);
      if (it == placements_.end()) {
        return ErrorReply(Error{ErrorKind::kInvalidArgument,
                                "unknown sessionId " +
                                    std::to_string(globalId)});
      }
      placement = it->second;
      if (!IsLive(placement.worker)) {
        return ErrorReply(Error{ErrorKind::kUnavailable,
                                "worker " + std::to_string(placement.worker) +
                                    " was removed"});
      }
      turn = TakeTurn(placement.worker);
    }
    if (!turn.turn.ok()) return ErrorReply(turn.turn.error());
    // A lane stopped while we waited belongs to a removed worker: the
    // session moved off it (or was lost); re-resolve.
    Result<WorkerLane::HeldTurn> held = turn.Await();
    if (!held.ok()) continue;
    {
      // A fleet operation that held the worker ahead of us (drain,
      // rebalance, removal) may have moved the session; if so, pass the
      // turn on and re-resolve.
      MutexLock lock(fleetMutex_);
      auto it = placements_.find(globalId);
      if (it == placements_.end() ||
          it->second.worker != placement.worker ||
          it->second.localId != placement.localId) {
        continue;
      }
    }
    json::Json forwarded = request;
    forwarded.Set("sessionId", placement.localId);
    // The reply goes up as the worker serialized it: a delete needs only
    // its status, which leads every response.
    server::Reply response = ToReply(held.value().Call(forwarded));
    if (isDelete && server::ReplyIsOk(response.text)) {
      // Erased before the turn is passed on, so whoever holds the worker
      // next reads a placement map without the deleted session.
      MutexLock lock(fleetMutex_);
      placements_.erase(globalId);
    }
    return response;
  }
}

/// localId -> session node, for O(log n) joins against the placement map.
std::map<std::int64_t, const json::Json*> ShardRouter::IndexSessions(
    const json::Json& listResponse) {
  std::map<std::int64_t, const json::Json*> index;
  const json::Json* sessions = listResponse.Find("sessions");
  if (sessions == nullptr || !sessions->IsArray()) return index;
  for (const json::Json& session : sessions->AsArray()) {
    index[session.GetInt("sessionId", -1)] = &session;
  }
  return index;
}

json::Json ShardRouter::ListSessions() {
  // Join each worker's listSessions with the global id map, reporting in
  // global-id order so the output is stable across placements. Holds the
  // fleet-op mutex throughout: no drain or rebalance can interleave, so
  // the listing is a consistent fleet-topology snapshot — while routing
  // continues, so a concurrent admission or delete may or may not appear
  // (it would not have been part of any serial order either). Worker
  // queries fan out to every lane at once, so the fleet enumerates in
  // parallel.
  MutexLock opLock(fleetOpMutex_);
  std::map<std::int64_t, Placement> placements;
  std::vector<LaneTurn> turns;
  {
    MutexLock lock(fleetMutex_);
    placements = placements_;
    turns = TakeFleetTurns();
  }
  std::vector<json::Json> listed = FanOut(turns, Command("listSessions"));
  json::Json response = Ok();
  json::Json list = json::Json::MakeArray();
  json::Json unreachable = json::Json::MakeArray();
  std::int64_t totalBytes = 0;
  std::vector<json::Json> perWorker;
  perWorker.reserve(turns.size());
  for (std::size_t i = 0; i < turns.size(); ++i) {
    if (turns[i].lane == nullptr) {
      perWorker.push_back(json::Json::MakeObject());
      continue;
    }
    perWorker.push_back(std::move(listed[i]));
    // A live slot whose process is dead cannot enumerate its sessions;
    // flag it so the omissions below read as "unreachable", not
    // "deleted" — the sessions still exist and still route (to errors).
    if (!IsOk(perWorker.back())) {
      unreachable.Append(json::Json(static_cast<std::int64_t>(i)));
    }
  }
  std::vector<std::map<std::int64_t, const json::Json*>> perWorkerIndex;
  perWorkerIndex.reserve(perWorker.size());
  for (const json::Json& listed : perWorker) {
    perWorkerIndex.push_back(IndexSessions(listed));
  }
  for (const auto& [globalId, placement] : placements) {
    const auto& index = perWorkerIndex[placement.worker];
    auto found = index.find(placement.localId);
    if (found == index.end()) continue;
    json::Json entry = *found->second;
    entry.Set("sessionId", globalId);
    entry.Set("worker", static_cast<std::int64_t>(placement.worker));
    totalBytes += entry.GetInt("approxBytes", 0);
    list.Append(std::move(entry));
  }
  response.Set("sessions", std::move(list));
  response.Set("totalApproxBytes", totalBytes);
  response.Set("unreachableWorkers", std::move(unreachable));
  return response;
}

Result<ShardRouter::WorkerLoad> ShardRouter::ParseLoad(
    const json::Json& response) {
  if (!IsOk(response)) {
    return Error{ErrorKind::kInternal,
                 server::ErrorMessage(response, "listSessions failed")};
  }
  WorkerLoad load;
  const json::Json* sessions = response.Find("sessions");
  if (sessions != nullptr && sessions->IsArray()) {
    load.sessions = sessions->AsArray().size();
  }
  load.approxBytes =
      static_cast<std::uint64_t>(response.GetInt("totalApproxBytes", 0));
  return load;
}

std::vector<ShardRouter::LaneTurn> ShardRouter::TakeFleetTurns(
    std::size_t skip) {
  std::vector<LaneTurn> turns(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (i != skip && IsLive(i)) turns[i] = TakeTurn(i);
  }
  return turns;
}

ShardRouter::FleetLoads ShardRouter::ProbeLoads(std::size_t skip) {
  std::vector<LaneTurn> turns;
  {
    MutexLock lock(fleetMutex_);
    turns = TakeFleetTurns(skip);
  }
  const std::vector<json::Json> listed =
      FanOut(turns, Command("listSessions"));
  FleetLoads loads;
  loads.bytes.assign(turns.size(), 0);
  loads.reachable.assign(turns.size(), false);
  for (std::size_t i = 0; i < turns.size(); ++i) {
    if (turns[i].lane == nullptr) continue;
    auto load = ParseLoad(listed[i]);
    if (!load.ok()) continue;
    loads.bytes[i] = load.value().approxBytes;
    loads.reachable[i] = true;
  }
  return loads;
}

json::Json ShardRouter::WorkerStats() {
  MutexLock opLock(fleetOpMutex_);
  // Everything a worker entry needs, snapshotted under the fleet mutex
  // so the probe responses can be awaited without it: stats must not
  // block routing behind a minute-long `run` occupying some lane.
  struct Slot {
    bool live = false;
    bool drained = false;
    std::string transport;
    std::string slotError;
    WorkerLane::Stats lane;
  };
  std::vector<Slot> slots;
  std::vector<LaneTurn> turns;
  {
    MutexLock lock(fleetMutex_);
    slots.resize(lanes_.size());
    // Snapshot lane load *before* taking the listSessions probes' turns:
    // the probes ride the very lanes being measured, so sampling
    // afterwards would report every queue one deep and the probe itself
    // in flight.
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      slots[i].live = IsLive(i);
      if (!slots[i].live) {
        auto slotError = slotErrors_.find(i);
        if (slotError != slotErrors_.end()) {
          slots[i].slotError = slotError->second;
        }
        continue;
      }
      slots[i].drained = drained_[i];
      slots[i].transport = lanes_[i]->transport()->Describe();
      slots[i].lane = lanes_[i]->stats();
    }
    turns = TakeFleetTurns();
  }
  const std::vector<json::Json> listed =
      FanOut(turns, Command("listSessions"));
  json::Json response = Ok();
  json::Json list = json::Json::MakeArray();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    json::Json entry = json::Json::MakeObject();
    entry.Set("worker", static_cast<std::int64_t>(i));
    if (!slots[i].live) {
      entry.Set("removed", true);
      if (!slots[i].slotError.empty()) entry.Set("error", slots[i].slotError);
      list.Append(std::move(entry));
      continue;
    }
    entry.Set("transport", slots[i].transport);
    entry.Set("drained", slots[i].drained);
    entry.Set("removed", false);
    // Live lane load (the hot-shard tell): how many requests are queued
    // behind this worker, whether one is executing, and how long the last
    // one took — without the cost of a full metrics pull.
    entry.Set("queueDepth",
              static_cast<std::int64_t>(slots[i].lane.queueDepth));
    entry.Set("inFlight", slots[i].lane.inFlight);
    entry.Set("lastDispatchMs", slots[i].lane.lastDispatchMs);
    auto load = ParseLoad(listed[i]);
    if (load.ok()) {
      entry.Set("sessions", static_cast<std::int64_t>(load.value().sessions));
      entry.Set("approxBytes",
                static_cast<std::int64_t>(load.value().approxBytes));
    } else {
      // A dead worker process: the slot exists, the sessions placed there
      // are unreachable until it restarts — report, don't hide.
      entry.Set("unreachable", true);
      entry.Set("error", load.error().message);
    }
    list.Append(std::move(entry));
  }
  response.Set("workers", std::move(list));
  return response;
}

json::Json ShardRouter::Metrics(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  // Start from this process's registry: router counters, lane and
  // transport histograms — and every in-process worker's server metrics,
  // which land in the same registry (the whole point of a process-wide
  // singleton). That is also why in-process workers are *not* fanned out
  // below: merging their `metrics` response would count this registry
  // twice.
  json::Json fleet = obs::MetricsToJson();

  struct Slot {
    bool live = false;
    std::string transport;
  };
  std::vector<Slot> slots;
  std::vector<LaneTurn> turns;
  {
    MutexLock lock(fleetMutex_);
    slots.resize(lanes_.size());
    turns.resize(lanes_.size());
    // Fan out to every socket worker at once — the same shape as the
    // listSessions probes, so dead workers' timeouts overlap instead of
    // stacking.
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      slots[i].live = IsLive(i);
      if (!slots[i].live) continue;
      slots[i].transport = lanes_[i]->transport()->Describe();
      if (lanes_[i]->transport()->LocalServer() == nullptr) {
        turns[i] = TakeTurn(i);
      }
    }
  }
  std::vector<json::Json> answers = FanOut(turns, Command("metrics"));

  json::Json workerList = json::Json::MakeArray();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    json::Json entry = json::Json::MakeObject();
    entry.Set("worker", static_cast<std::int64_t>(i));
    if (!slots[i].live) {
      entry.Set("removed", true);
      workerList.Append(std::move(entry));
      continue;
    }
    entry.Set("transport", slots[i].transport);
    if (turns[i].lane == nullptr) {
      // In-process worker: its numbers are already part of `fleet`.
      entry.Set("sharedProcess", true);
      workerList.Append(std::move(entry));
      continue;
    }
    json::Json& answer = answers[i];
    json::Json* metrics = answer.Find("metrics");
    if (!IsOk(answer) || metrics == nullptr) {
      entry.Set("unreachable", true);
      entry.Set("error",
                server::ErrorMessage(answer, "response carried no metrics"));
    } else {
      obs::MergeMetricsJson(fleet, *metrics);
      entry.Set("metrics", std::move(*metrics));
    }
    workerList.Append(std::move(entry));
  }

  json::Json response = Ok();
  if (request.GetString("format", "json") == "text") {
    response.Set("text", obs::MetricsToPrometheusText(fleet));
  } else {
    response.Set("fleet", std::move(fleet));
  }
  response.Set("workers", std::move(workerList));
  return response;
}

json::Json ShardRouter::TraceDump() {
  MutexLock opLock(fleetOpMutex_);
  std::vector<std::string> transports;
  std::vector<LaneTurn> turns;
  {
    MutexLock lock(fleetMutex_);
    transports.resize(lanes_.size());
    turns.resize(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (!IsLive(i) || lanes_[i]->transport()->LocalServer() != nullptr) {
        continue;
      }
      transports[i] = lanes_[i]->transport()->Describe();
      turns[i] = TakeTurn(i);
    }
  }
  std::vector<json::Json> answers = FanOut(turns, Command("traceDump"));

  json::Json workerList = json::Json::MakeArray();
  for (std::size_t i = 0; i < turns.size(); ++i) {
    if (turns[i].lane == nullptr) continue;  // removed or shares this ring
    json::Json entry = json::Json::MakeObject();
    entry.Set("worker", static_cast<std::int64_t>(i));
    entry.Set("transport", transports[i]);
    json::Json& answer = answers[i];
    json::Json* trace = answer.Find("trace");
    if (!IsOk(answer) || trace == nullptr) {
      entry.Set("unreachable", true);
      entry.Set("error",
                server::ErrorMessage(answer, "response carried no trace"));
    } else {
      entry.Set("trace", std::move(*trace));
    }
    workerList.Append(std::move(entry));
  }

  json::Json response = Ok();
  // The router's own ring holds the fleet-operation spans (drain,
  // rebalance, quiesce) plus anything in-process workers recorded.
  response.Set("trace", obs::TraceRing::Instance().ToJson());
  response.Set("workers", std::move(workerList));
  return response;
}

Status ShardRouter::MoveSession(std::int64_t globalId,
                                const Placement& source,
                                WorkerLane::HeldTurn& sourceTurn,
                                std::size_t destination,
                                std::uint64_t* movedBytes) {
  // Ship a delta blob only when the destination's hello advertised v3
  // decode support; a peer whose capability is unknown (disconnected
  // socket, old build) gets a full image — always decodable, never
  // lossy. The snapshot under the fleet mutex is advisory: a stale
  // answer costs at most one fallback round trip below.
  bool deltaExport = false;
  {
    MutexLock lock(fleetMutex_);
    deltaExport = options_.deltaBlobs && IsLive(destination) &&
                  lanes_[destination]->transport()->SupportsDeltaBlobs();
  }

  // Source-side calls run on the caller's held turn: no one else's call
  // can reach the source worker until the caller passes it on.
  auto exportFrom = [&](bool delta) {
    json::Json exportRequest = json::Json::MakeObject();
    exportRequest.Set("command", "exportSession");
    exportRequest.Set("sessionId", source.localId);
    if (delta) exportRequest.Set("encoding", "delta");
    return ToReply(sourceTurn.Call(exportRequest));
  };
  auto exportFailed = [&](const server::Reply& exported) {
    // The session vanished from its worker (deleted behind the router's
    // back, export failed, or the worker process is dead). Nothing
    // moved; surface the worker's error.
    return Status::Fail(
        ErrorKind::kInternal,
        "export of session " + std::to_string(globalId) + " from worker " +
            std::to_string(source.worker) + " failed: " +
            server::ErrorMessage(ToResponse(exported), "unknown error"));
  };
  // Session blobs can be tens of MiB of base64. The export reply carries
  // its blob detached, in the frame's binary section; it moves into the
  // import request unparsed and uncopied. The import rides the
  // destination's lane so it cannot interleave with a response already
  // executing there — ordering on the destination is preserved exactly
  // as for client traffic.
  auto importFrom = [&](std::string blob) {
    json::Json importRequest = json::Json::MakeObject();
    importRequest.Set("command", "importSession");
    importRequest.Set("blob", std::move(blob));
    return CallViaLane(destination, importRequest);
  };

  server::Reply exported = exportFrom(deltaExport);
  if (!server::ReplyIsOk(exported.text)) return exportFailed(exported);
  std::uint64_t wireBytes = exported.blob.size();
  json::Json imported = importFrom(std::move(exported.blob));
  if (!IsOk(imported) && deltaExport) {
    // Fail closed, not lossy: ANY delta import failure — base-epoch
    // mismatch, decode error, a peer that lied about its capability —
    // retries exactly once with a full image before the move is declared
    // failed. The source copy is still untouched either way.
    static obs::Counter& fallbacks = obs::Registry::Instance().GetCounter(
        "shard.router.deltaFallbacks");
    fallbacks.Increment();
    exported = exportFrom(false);
    if (!server::ReplyIsOk(exported.text)) return exportFailed(exported);
    wireBytes += exported.blob.size();
    imported = importFrom(std::move(exported.blob));
  }
  if (!IsOk(imported)) {
    // Destination refused (blob budget, decode failure) or is
    // unreachable. The source copy was never deleted, so the session is
    // still live where it was — the move aborts, nothing is lost.
    return Status::Fail(
        ErrorKind::kInternal,
        "worker " + std::to_string(destination) + " rejected session " +
            std::to_string(globalId) + ": " +
            server::ErrorMessage(imported, "unknown error"));
  }

  // Only now is it safe to drop the source copy.
  json::Json deleteRequest = json::Json::MakeObject();
  deleteRequest.Set("command", "deleteSession");
  deleteRequest.Set("sessionId", source.localId);
  json::Json deleted = ToResponse(sourceTurn.Call(deleteRequest));
  if (!IsOk(deleted)) {
    // Failing to delete would leave two live copies; roll the import back
    // so the mapping stays unambiguous.
    json::Json rollback = json::Json::MakeObject();
    rollback.Set("command", "deleteSession");
    rollback.Set("sessionId", imported.GetInt("sessionId", -1));
    CallViaLane(destination, rollback);
    return Status::Fail(
        ErrorKind::kInternal,
        "could not delete session " + std::to_string(globalId) +
            " from worker " + std::to_string(source.worker) +
            " after migration: " + server::ErrorMessage(deleted, ""));
  }

  {
    MutexLock lock(fleetMutex_);
    placements_[globalId] =
        Placement{destination, imported.GetInt("sessionId", -1)};
  }
  // wireBytes is what actually crossed the wire for this move — the
  // delta blob, plus the full image too when the fallback fired.
  if (movedBytes != nullptr) *movedBytes += wireBytes;
  static obs::Counter& migrations =
      obs::Registry::Instance().GetCounter("shard.router.migrations");
  static obs::Counter& migrationBytes =
      obs::Registry::Instance().GetCounter("shard.router.migrationBytes");
  migrations.Increment();
  migrationBytes.Add(wireBytes);
  return Status::Ok();
}

std::vector<std::int64_t> ShardRouter::DrainSessions(
    std::size_t index, WorkerLane::HeldTurn& source, json::Json& response,
    bool* sourceReachable) {
  // The caller holds the source's turn, so the placement map lists
  // exactly the sessions on the worker, and nothing adds or removes one
  // until the caller passes the turn on.
  std::map<std::int64_t, Placement> toMove;
  std::vector<bool> eligible;
  {
    MutexLock lock(fleetMutex_);
    for (const auto& [globalId, placement] : placements_) {
      if (placement.worker == index) toMove.emplace(globalId, placement);
    }
    eligible = Eligible();
  }

  // Per-session byte estimates for the drained worker, and one fleet-wide
  // load snapshot, both taken once: the loop below keeps the destination
  // loads current incrementally instead of re-walking every worker's
  // session table per move. The source is listed on the held turn; the
  // probe below skips it.
  std::map<std::int64_t, std::uint64_t> sessionBytes;
  {
    const json::Json listed =
        ToResponse(source.Call(Command("listSessions")));
    if (sourceReachable != nullptr) *sourceReachable = IsOk(listed);
    const auto localIndex = IndexSessions(listed);
    for (const auto& [globalId, placement] : toMove) {
      auto found = localIndex.find(placement.localId);
      if (found != localIndex.end()) {
        sessionBytes[globalId] = static_cast<std::uint64_t>(
            found->second->GetInt("approxBytes", 0));
      }
    }
  }
  FleetLoads fleet = ProbeLoads(/*skip=*/index);
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    // Never pick an unreachable destination: the import would fail and
    // burn an export round-trip per session.
    eligible[i] = eligible[i] && fleet.reachable[i];
  }
  eligible[index] = false;

  std::int64_t moved = 0;
  std::uint64_t movedBytes = 0;
  std::vector<std::int64_t> failedIds;
  json::Json failed = json::Json::MakeArray();
  for (const auto& [globalId, placement] : toMove) {
    auto destination = LeastLoaded(fleet.bytes, eligible);
    Status status =
        destination.has_value()
            ? MoveSession(globalId, placement, source, *destination,
                          &movedBytes)
            : Status::Fail(ErrorKind::kUnavailable,
                           "no eligible destination worker for session " +
                               std::to_string(globalId));
    if (status.ok()) {
      ++moved;
      fleet.bytes[*destination] += sessionBytes[globalId];
    } else {
      failedIds.push_back(globalId);
      json::Json failure = json::Json::MakeObject();
      failure.Set("sessionId", globalId);
      failure.Set("message", status.error().message);
      failed.Append(std::move(failure));
    }
  }

  response.Set("moved", moved);
  response.Set("movedBytes", static_cast<std::int64_t>(movedBytes));
  response.Set("failed", std::move(failed));
  return failedIds;
}

json::Json ShardRouter::DrainWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  // Closed to new placements before touching its sessions, so the drain
  // cannot race its own imports back onto the source. Draining an
  // already-drained (empty) worker is a no-op success.
  const LaneTurn owner = TakeOwnerTurn(worker, /*drain=*/true);
  if (!owner.turn.ok()) return server::MakeErrorResponse(owner.turn.error());
  const auto index = static_cast<std::size_t>(worker);
  obs::ScopedSpan span("fleet", "drainWorker");
  // Every turn taken on the worker before ours runs first (an in-flight
  // `run` completes; its client gets a normal response). Requests for
  // the worker's sessions that arrive meanwhile wait behind our turn and
  // then re-resolve to the sessions' new homes — traffic for every other
  // worker flows the whole time.
  Result<WorkerLane::HeldTurn> held =
      AwaitQuiesced(*owner.lane, owner.turn.value(), index);
  if (!held.ok()) return server::MakeErrorResponse(held.error());

  json::Json response = Ok();
  const std::vector<std::int64_t> failedIds =
      DrainSessions(index, held.value(), response);
  span.SetDetail(StrFormat("worker=%zu moved=%lld failed=%zu", index,
                           static_cast<long long>(response.GetInt("moved", 0)),
                           failedIds.size()));
  if (failedIds.empty()) return response;
  // Error envelope with the drain tallies carried in its details.
  json::Json error = server::MakeErrorResponse(Error{
      ErrorKind::kInternal,
      "drain of worker " + std::to_string(worker) + " left " +
          std::to_string(failedIds.size()) +
          " session(s) on the worker (each is still live and retryable)"});
  server::AddErrorDetail(error, "moved", response.GetInt("moved", 0));
  server::AddErrorDetail(error, "movedBytes", response.GetInt("movedBytes", 0));
  if (json::Json* failed = response.Find("failed"); failed != nullptr) {
    server::AddErrorDetail(error, "failed", std::move(*failed));
  }
  return error;
}

json::Json ShardRouter::OpenWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  MutexLock lock(fleetMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  if (worker < 0 || worker >= static_cast<std::int64_t>(lanes_.size()) ||
      !IsLive(static_cast<std::size_t>(worker))) {
    return RouterError(ErrorKind::kInvalidArgument,
                       "unknown worker " + std::to_string(worker));
  }
  drained_[static_cast<std::size_t>(worker)] = false;
  return Ok();
}

json::Json ShardRouter::AddWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  obs::ScopedSpan span("fleet", "addWorker");
  // The slot index cannot shift under us — only fleet operations grow the
  // vectors and they serialize on fleetOpMutex_ — but the read itself
  // still takes the fleet mutex (concurrent routing reads the vectors).
  std::size_t index = 0;
  {
    MutexLock lock(fleetMutex_);
    index = lanes_.size();
  }
  Result<std::shared_ptr<WorkerTransport>> transport = [&]()
      -> Result<std::shared_ptr<WorkerTransport>> {
    const std::string address = request.GetString("address", "");
    if (!address.empty()) {
      return std::shared_ptr<WorkerTransport>(
          std::make_shared<SocketTransport>(address,
                                            options_.socketOptions));
    }
    return MakeTransport(index, options_.workerLimits);
  }();
  if (!transport.ok()) {
    return server::MakeErrorResponse(transport.error());
  }

  // Probe before committing the slot: a bogus address or a worker that
  // died during spawn must not claim an arc of the ring. No one else
  // holds the new lane yet, so the probe's turn comes up at once.
  auto lane = std::make_shared<WorkerLane>(std::move(transport).value(),
                                           options_.maxLaneQueueDepth);
  const std::string describe = lane->transport()->Describe();
  auto probed = lane->Call(Command("listSessions"));
  if (!probed.ok()) {
    return RouterError(ErrorKind::kUnavailable,
                       "new worker " + describe +
                           " failed its probe: " + probed.error().message);
  }

  {
    MutexLock lock(fleetMutex_);
    lanes_.push_back(std::move(lane));
    drained_.push_back(false);
    ring_.AddWorker();
  }
  span.SetDetail(StrFormat("worker=%zu transport=%s", index,
                           describe.c_str()));

  json::Json response = Ok();
  response.Set("worker", static_cast<std::int64_t>(index));
  response.Set("transport", describe);
  return response;
}

json::Json ShardRouter::RemoveWorker(const json::Json& request) {
  MutexLock opLock(fleetOpMutex_);
  const std::int64_t worker = request.GetInt("worker", -1);
  const bool force = request.GetBool("force", false);
  // The turn's lane copy keeps the lane (and its transport) alive for the
  // unlocked shutdown round trip below even after the slot is nulled out.
  const LaneTurn owner = TakeOwnerTurn(worker, /*drain=*/true);
  if (!owner.turn.ok()) return server::MakeErrorResponse(owner.turn.error());
  const auto index = static_cast<std::size_t>(worker);
  WorkerLane& lane = *owner.lane;
  obs::ScopedSpan span("fleet", "removeWorker");
  Result<WorkerLane::HeldTurn> held =
      AwaitQuiesced(lane, owner.turn.value(), index);
  if (!held.ok()) return server::MakeErrorResponse(held.error());

  json::Json response = Ok();
  bool sourceReachable = true;
  const std::vector<std::int64_t> failedIds =
      DrainSessions(index, held.value(), response, &sourceReachable);
  span.SetDetail(StrFormat("worker=%zu moved=%lld lost=%zu", index,
                           static_cast<long long>(response.GetInt("moved", 0)),
                           failedIds.size()));

  json::Json lost = json::Json::MakeArray();
  if (!failedIds.empty() && !force) {
    // Fail closed: the worker stays (drained), every stranded session is
    // still addressed, and the caller can retry or force.
    json::Json error = server::MakeErrorResponse(Error{
        ErrorKind::kInternal,
        "removeWorker " + std::to_string(worker) + " would strand " +
            std::to_string(failedIds.size()) +
            " session(s); they remain on the (drained) worker — "
            "retry, or pass force to discard them"});
    server::AddErrorDetail(error, "moved", response.GetInt("moved", 0));
    server::AddErrorDetail(error, "movedBytes",
                           response.GetInt("movedBytes", 0));
    if (json::Json* failed = response.Find("failed"); failed != nullptr) {
      server::AddErrorDetail(error, "failed", std::move(*failed));
    }
    server::AddErrorDetail(error, "removed", false);
    server::AddErrorDetail(error, "lost", std::move(lost));
    return error;
  }

  // Graceful stop for process workers; in-process workers just go away
  // with their transport. A worker the drain already proved dead gets no
  // shutdown round trip — it could only burn the connect timeout.
  const bool processWorker = lane.transport()->LocalServer() == nullptr;
  const std::string address = lane.transport()->Describe();
  if (processWorker && sourceReachable) {
    (void)held.value().Call(Command("shutdownWorker"));
  }
  {
    MutexLock lock(fleetMutex_);
    for (const std::int64_t globalId : failedIds) {
      // force: the operator accepted the loss (dead process, corrupt
      // session). Drop the placement so the id stops routing to a ghost,
      // and say so explicitly — lost-with-error, never silently.
      placements_.erase(globalId);
      lost.Append(json::Json(globalId));
    }
    ring_.RemoveWorker(index);
    // Callers waiting behind our turn are answered, and re-resolve once
    // they get the fleet mutex — with the slot already gone: moved
    // sessions route to their new homes, lost ones are unknown.
    lane.Stop();
    lanes_[index] = nullptr;
    if (processWorker && options_.onWorkerShutdown) {
      // Let the process owner reap the worker now — whether it exited
      // gracefully just above or was already dead — instead of leaving a
      // zombie until fleet teardown.
      options_.onWorkerShutdown(address);
    }
  }
  response.Set("removed", true);
  response.Set("lost", std::move(lost));
  return response;
}

json::Json ShardRouter::Rebalance() {
  MutexLock opLock(fleetOpMutex_);
  obs::ScopedSpan span("fleet", "rebalance");
  FleetLoads fleet = ProbeLoads();
  std::vector<bool> eligible;
  std::size_t maxMoves = 0;
  {
    MutexLock lock(fleetMutex_);
    eligible = Eligible();
    maxMoves = placements_.size();
  }
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    eligible[i] = eligible[i] && fleet.reachable[i];
  }
  const std::size_t eligibleCount =
      static_cast<std::size_t>(
          std::count(eligible.begin(), eligible.end(), true));
  if (eligibleCount == 0) {
    return RouterError(ErrorKind::kUnavailable,
                       "all workers are drained; nothing to rebalance");
  }

  auto skewOf = [&](const std::vector<std::uint64_t>& loads) {
    std::uint64_t total = 0;
    std::uint64_t maxLoad = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (!eligible[i]) continue;
      total += loads[i];
      maxLoad = std::max(maxLoad, loads[i]);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(eligibleCount);
    return mean > 0 ? static_cast<double>(maxLoad) / mean : 1.0;
  };

  const double skewBefore = skewOf(fleet.bytes);
  std::int64_t moved = 0;
  std::uint64_t movedBytes = 0;
  json::Json failed = json::Json::MakeArray();

  // Move the smallest session off the most loaded worker onto the least
  // loaded one until the skew is within threshold. Bounded by the session
  // count so a pathological load shape cannot loop forever. Loads are
  // snapshotted once and maintained incrementally — a fleet-wide
  // re-estimate per move would walk every worker's session table each
  // iteration.
  std::vector<std::uint64_t> loads = fleet.bytes;
  for (std::size_t iteration = 0; iteration < maxMoves; ++iteration) {
    if (skewOf(loads) <= options_.rebalanceSkewThreshold) break;
    std::size_t most = 0;
    std::uint64_t mostLoad = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (eligible[i] && loads[i] > mostLoad) {
        most = i;
        mostLoad = loads[i];
      }
    }
    std::vector<bool> destinationEligible = eligible;
    destinationEligible[most] = false;
    auto least = LeastLoaded(loads, destinationEligible);
    if (!least.has_value()) break;  // single eligible worker: nothing to do

    // The source of this move must be quiet before its sessions are
    // exported: hold its turn, as drain does, per iteration because
    // `most` changes as loads even out. Only traffic for `most` waits.
    const LaneTurn owner =
        TakeOwnerTurn(static_cast<std::int64_t>(most), /*drain=*/false);
    Result<WorkerLane::HeldTurn> held = owner.Await();
    if (!held.ok()) {
      json::Json failure = json::Json::MakeObject();
      failure.Set("worker", static_cast<std::int64_t>(most));
      failure.Set("message", held.error().message);
      failed.Append(std::move(failure));
      break;
    }

    // Smallest session on the most loaded worker (ties -> lowest global
    // id): smallest first avoids overshooting the mean.
    const json::Json sessions =
        ToResponse(held.value().Call(Command("listSessions")));
    const auto localIndex = IndexSessions(sessions);
    std::int64_t candidate = -1;
    Placement candidatePlacement;
    std::int64_t candidateBytes = std::numeric_limits<std::int64_t>::max();
    {
      MutexLock lock(fleetMutex_);
      for (const auto& [globalId, placement] : placements_) {
        if (placement.worker != most) continue;
        auto found = localIndex.find(placement.localId);
        if (found == localIndex.end()) continue;
        const std::int64_t bytes = found->second->GetInt("approxBytes", 0);
        if (bytes < candidateBytes) {
          candidate = globalId;
          candidatePlacement = placement;
          candidateBytes = bytes;
        }
      }
    }
    if (candidate < 0) break;

    // Converge, don't churn: the move must strictly lower the peak. When
    // the skew is carried by one session bigger than the gap between the
    // heaviest and lightest worker, relocating it only moves the peak —
    // stop and report the honest skewAfter instead of shuffling blobs.
    if (loads[*least] + static_cast<std::uint64_t>(candidateBytes) >=
        mostLoad) {
      break;
    }

    Status status = MoveSession(candidate, candidatePlacement, held.value(),
                                *least, &movedBytes);
    if (!status.ok()) {
      json::Json failure = json::Json::MakeObject();
      failure.Set("sessionId", candidate);
      failure.Set("message", status.error().message);
      failed.Append(std::move(failure));
      break;  // a stuck session would repeat forever; report and stop
    }
    ++moved;
    const std::uint64_t bytes = static_cast<std::uint64_t>(candidateBytes);
    loads[most] -= std::min(loads[most], bytes);
    loads[*least] += bytes;
  }

  json::Json response;
  if (failed.AsArray().empty()) {
    response = Ok();
  } else {
    response = RouterError(ErrorKind::kInternal,
                           "rebalance stopped on a failed migration");
  }
  // On the error path AddErrorDetail lands each field in the envelope's
  // details; on success plain Set.
  auto setField = [&](const std::string& key, json::Json value) {
    if (IsOk(response)) {
      response.Set(key, std::move(value));
    } else {
      server::AddErrorDetail(response, key, std::move(value));
    }
  };
  setField("moved", moved);
  setField("movedBytes", static_cast<std::int64_t>(movedBytes));
  setField("skewBefore", skewBefore);
  const double skewAfter = skewOf(ProbeLoads().bytes);
  setField("skewAfter", skewAfter);
  setField("failed", std::move(failed));
  span.SetDetail(StrFormat("moved=%lld skewBefore=%.3f skewAfter=%.3f",
                           static_cast<long long>(moved), skewBefore,
                           skewAfter));
  return response;
}

}  // namespace rvss::shard
