// The shard router: one session namespace over many workers — in this
// process or behind sockets — the policy loop over PR 2's migration
// primitive and PR 4's worker transports.
//
// The router speaks the exact same JSON command API as a single SimServer
// (clients cannot tell the difference): it assigns globally unique session
// ids, places each new session on a worker via a consistent-hash ring,
// rewrites sessionId fields on the way in and out, and forwards everything
// else verbatim. A session command's reply is forwarded as the bytes the
// worker serialized (server::Reply), never parsed here — a delete reads
// only its status, which leads every response. The router parses a reply
// only where it needs its fields: admissions (it rewrites sessionId and
// adds worker), fleet operations and the fan-out merges. On top of the
// route-through it adds fleet operations:
//
//   workerStats  {}          -> {workers: [{worker, sessions, approxBytes,
//                                           drained, removed, transport}]}
//   drainWorker  {worker}    -> {moved, movedBytes, failed[]}
//   openWorker   {worker}    -> {ok}        (re-admit a drained worker)
//   rebalance    {}          -> {moved, movedBytes, skewBefore, skewAfter}
//   addWorker    {address?}  -> {worker}    (grow the fleet; an address
//                                attaches a running socket worker, no
//                                address asks Options::transportFactory)
//   removeWorker {worker, force?} -> {moved, movedBytes, failed[], lost[]}
//                                (drain, then shrink the ring; see below)
//   hello        {}          -> the router's build fingerprint (frame +
//                                snapshot versions, config hash), answered
//                                locally — the same document a worker
//                                returns on its connect handshake.
//   metrics      {format?}   -> {fleet, workers[]}: the merged fleet
//                                observability view (sum counters, merge
//                                histogram buckets, max gauges — see
//                                src/obs/registry.h) with a per-worker
//                                breakdown; format "text" returns the
//                                Prometheus exposition instead.
//   traceDump    {}          -> {trace, workers[]}: the router's span
//                                ring (drain/rebalance/quiesce timings)
//                                plus each socket worker's.
//
// Workers are reached through WorkerTransport (shard/transport.h): the
// in-process default behaves exactly like PR 3; SocketTransport talks to
// real worker processes. Transport failures are fail-closed: a request
// that got no response is reported as an error on that request — the
// router never guesses, never retries a maybe-executed command, and
// never silently drops a session.
//
// Concurrency model (see shard/lane.h and docs/sharding.md):
//
//   * Every worker has a dispatch lane — FIFO turns over its one
//     transport connection, with no thread of its own. Serve(), Handle()
//     and HandleRaw() are thread-safe: a session-bound command takes a turn
//     on the owning worker's lane under the fleet mutex, then waits for
//     the turn and runs the worker call on the calling thread with the
//     mutex released. Calls run concurrently *across* lanes, strictly in
//     turn order *within* one. Per-session ordering follows from
//     session→worker affinity; N workers simulate in parallel.
//   * Router state (placements_, ring_, lanes_, drained_) is protected
//     by one fleet mutex, held only for routing decisions and bookkeeping
//     — never while a worker round trip is in flight.
//   * Holding a worker's lane turn is the only way to own the worker.
//     Every router caller updates the placement map for what its call
//     did (createSession / importSession record the placement,
//     deleteSession erases it) *before* it passes its turn on, so when a
//     turn comes up the map matches the worker exactly.
//   * Fleet operations (drain/rebalance/add/remove/stats/list/metrics)
//     serialize on a separate fleet-op mutex — never held by any routing
//     path, so a slow drain stalls only other fleet operations. An
//     operation that moves a worker's sessions takes a turn on that
//     worker's lane — drainWorker and removeWorker in the same fleet
//     mutex section that marks the worker drained, so no admission is
//     placed there behind it — and keeps the turn across every
//     source-side call (list, export, delete, shutdown). When its turn
//     comes up, every earlier caller has finished, an in-flight `run`
//     included. Commands for the worker's sessions that arrive meanwhile
//     wait in the lane behind it; when their turn comes up they check,
//     under the fleet mutex, that the session still lives where they
//     resolved it, and re-resolve if it moved. An export therefore
//     always observes a session between requests, never inside one,
//     with the stall confined to the worker being reorganized.
//     Stateless commands try workers that are not drained first, so they
//     never wait behind a drain or a removal.
//   * Fleet snapshots (listSessions, the load probes, workerStats,
//     metrics, traceDump) take a turn on every lane they query under the
//     fleet mutex, then run the calls concurrently, one thread per call
//     (FanOut), so dead workers' timeouts overlap instead of adding up.
//   * Lanes are held by shared_ptr; a caller copies its lane under the
//     fleet mutex with its turn, so a removeWorker that drops the slot
//     meanwhile cannot destroy the lane under it.
//   * Lock order: fleet-op mutex, fleet mutex, lane mutex. The fleet
//     mutex is never held while acquiring the fleet-op mutex, waiting
//     for a lane turn, or calling a transport.
//
// drainWorker exports every session on the (owned) worker and imports
// each onto the least-loaded *reachable* non-drained peer, then deletes
// the source copy — the delete happens only after the destination import
// succeeded, so a failure at any point leaves the session live on its
// source worker; an unreachable destination aborts the move with the
// source intact, and a dead source worker makes every one of its
// sessions a reported failure (lost-with-error), never a silent drop.
//
// removeWorker completes elastic scale-in: mark drained, own the worker,
// run the drain loop, and only if every session moved off (or `force`
// accepts the loss, each lost session listed in `lost[]`) remove the
// worker's arc from the ring, shut the transport down and stop the lane
// (pending requests are answered with errors, never dropped). The
// Options::onWorkerShutdown hook then lets the process owner reap the
// worker promptly (see shard/worker.h) instead of leaving a zombie.
// addWorker is the matching scale-out: the ring grows by one arc —
// consistent hashing moves only the keys that hash into it — and new
// placements start landing there.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "json/json.h"
#include "server/api.h"
#include "shard/lane.h"
#include "shard/placement.h"
#include "shard/transport.h"

namespace rvss::shard {

class ShardRouter {
 public:
  /// Builds the transport for one worker slot. Used for every initial
  /// slot and for `addWorker` requests without an address.
  using TransportFactory =
      std::function<Result<std::shared_ptr<WorkerTransport>>(
          std::size_t worker, const server::SimServer::Limits& limits)>;

  struct Options {
    std::size_t workerCount = 4;
    /// Limits applied to every worker.
    server::SimServer::Limits workerLimits;
    /// Per-worker override for heterogeneous fleets (and the failure-path
    /// tests); when non-empty its size must equal workerCount.
    std::vector<server::SimServer::Limits> perWorkerLimits;
    /// rebalance moves sessions while max-load / mean-load > threshold.
    double rebalanceSkewThreshold = 1.5;
    /// Per-worker lane queue depth cap: callers beyond it are answered
    /// immediately with a retryable kUnavailable load-shed error instead
    /// of waiting without bound (see shard/lane.h). 0 = unbounded, the
    /// pre-gateway behavior. The cap applies to everything riding the
    /// lane — including fleet-operation probes, so a saturated fleet
    /// sheds drains too rather than deadlocking them.
    std::size_t maxLaneQueueDepth = 0;
    std::size_t virtualNodesPerWorker = 64;
    /// Transport constructor; default builds InProcessTransport. A
    /// factory that spawns worker processes turns the router into a real
    /// multi-process fleet (see cli --spawn-workers). A slot whose
    /// factory fails is born removed and reported in workerStats.
    TransportFactory transportFactory;
    /// Ship base-referenced delta session blobs (snapshot format v3) on
    /// drain/rebalance when the destination advertised support in its
    /// hello handshake. Any delta import failure retries once with a
    /// full image — this flag is a wire-size optimization, never a
    /// correctness risk; disabling it restores the PR 8 full-image wire.
    bool deltaBlobs = true;
    /// Socket options for transports the router creates itself
    /// (`addWorker {address}`).
    SocketTransportOptions socketOptions;
    /// Called (with the transport's address) after removeWorker shut a
    /// socket worker down, so the process owner can reap it promptly —
    /// see shard::MakeFleetReaper. Invoked under the fleet mutex.
    std::function<void(const std::string& address)> onWorkerShutdown;
  };

  explicit ShardRouter(const Options& options);

  /// The entry point: one request, its reply as frame bytes — a worker's
  /// reply exactly as the worker serialized it, or a document the router
  /// composed. What the gateway serves. Thread-safe; see the concurrency
  /// model above.
  server::Reply Serve(const json::Json& request);

  /// Serve with the reply parsed, same contract as SimServer::Handle —
  /// for the CLI and tests. Thread-safe.
  json::Json Handle(const json::Json& request);

  /// Byte-level entry point, same contract as SimServer::HandleRaw: the
  /// reply text, with a blob put back into the JSON. Thread-safe.
  std::string HandleRaw(std::string_view requestBytes);

  /// Fleet slots ever created (including removed ones; their entries stay
  /// so worker indices are stable).
  std::size_t workerCount() const EXCLUDES(fleetMutex_);
  std::size_t sessionCount() const EXCLUDES(fleetMutex_);

  /// The in-process SimServer behind worker `index`, or nullptr when the
  /// slot is removed or lives behind a socket. For tests and embedders;
  /// the router does not defend against sessions created or deleted
  /// behind its back — drain treats a vanished session as a failed
  /// export and reports it. Calling into the returned server while other
  /// threads route requests to it is a data race; single-threaded tests
  /// only.
  server::SimServer* workerServer(std::size_t index) EXCLUDES(fleetMutex_);

 private:
  /// Where one global session lives.
  struct Placement {
    std::size_t worker = 0;
    std::int64_t localId = 0;
  };

  /// Per-worker load snapshot used by placement and stats.
  struct WorkerLoad {
    std::uint64_t sessions = 0;
    std::uint64_t approxBytes = 0;
  };

  /// One probe pass over the fleet: byte loads plus reachability, so
  /// drain/rebalance never pick a dead destination.
  struct FleetLoads {
    std::vector<std::uint64_t> bytes;  ///< 0 for removed/unreachable
    std::vector<bool> reachable;      ///< false for removed/unreachable
  };

  /// A turn taken on one worker's lane under the fleet mutex, to be
  /// awaited with the mutex released. The lane copy keeps the lane alive
  /// past a concurrent removeWorker; a refused turn (shed, stopped lane,
  /// unknown worker) carries its error. A default LaneTurn (no lane) took
  /// no turn.
  struct LaneTurn {
    std::shared_ptr<WorkerLane> lane;
    Result<WorkerLane::Turn> turn = Error{ErrorKind::kInternal, "no turn"};
    /// Waits for the turn; the held turn must not outlive this LaneTurn.
    Result<WorkerLane::HeldTurn> Await() const;
    /// Waits for the turn, runs the call on this thread, passes it on.
    Result<server::Reply> Run(const json::Json& request) const;
  };

  /// The commands the router answers itself (hello, admissions, fleet
  /// operations); nullopt for those it forwards to a worker.
  std::optional<json::Json> RouterCommand(const std::string& command,
                                          const json::Json& request);

  // Unless a comment says otherwise the private methods below take their
  // own (brief) fleet mutex sections and must be called *without*
  // fleetMutex_ held.

  /// Takes a turn on live worker `worker`'s lane. Every caller must await
  /// the turn it took; a turn never awaited stalls the lane.
  LaneTurn TakeTurn(std::size_t worker) REQUIRES(fleetMutex_);
  /// Takes a turn on every live lane except `skip`; slot-aligned.
  std::vector<LaneTurn> TakeFleetTurns(
      std::size_t skip = static_cast<std::size_t>(-1)) REQUIRES(fleetMutex_);
  /// Runs `request` on every taken turn concurrently and parses each
  /// reply. Results are slot-aligned; slots that took no turn, and calls
  /// that failed, hold an error envelope.
  static std::vector<json::Json> FanOut(const std::vector<LaneTurn>& turns,
                                        const json::Json& request);
  /// One request through worker's lane: take a turn under a brief fleet
  /// mutex section, run it unlocked, parse the (small) reply. Transport
  /// failures become error JSON.
  json::Json CallViaLane(std::size_t worker, const json::Json& request)
      EXCLUDES(fleetMutex_);
  /// A fleet operation's claim on worker `worker`: a turn on its lane,
  /// taken in one fleet mutex section with — when `drain` is set —
  /// marking the worker drained. A refused turn (unknown worker, shed)
  /// carries its error and leaves the drained flag as it was. Awaiting
  /// the turn owns the worker until the held turn is destroyed.
  LaneTurn TakeOwnerTurn(std::int64_t worker, bool drain)
      REQUIRES(fleetOpMutex_) EXCLUDES(fleetMutex_);

  /// Forwards a session command to its worker; the reply goes back as
  /// the worker's bytes.
  server::Reply RouteSessionCommand(const json::Json& request)
      EXCLUDES(fleetMutex_);
  server::Reply StatelessCommand(const json::Json& request)
      EXCLUDES(fleetMutex_);
  /// The fleet metrics view: this process's obs registry (router, lanes,
  /// transports and any in-process workers) merged with every socket
  /// worker's `metrics` response — sum counters, merge histogram buckets,
  /// max gauges — plus a per-worker breakdown.
  json::Json Metrics(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  /// The router's span ring plus each socket worker's, for post-hoc "why
  /// was that drain slow" forensics.
  json::Json TraceDump() EXCLUDES(fleetOpMutex_, fleetMutex_);
  /// createSession / importSession: place on the ring and forward.
  json::Json AdmitSession(const json::Json& request) EXCLUDES(fleetMutex_);
  json::Json ListSessions() EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json WorkerStats() EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json DrainWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json OpenWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json AddWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json RemoveWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json Rebalance() EXCLUDES(fleetOpMutex_, fleetMutex_);

  /// The drain loop shared by drainWorker and removeWorker: moves every
  /// session off `index`, whose turn (`source`) the caller holds, filling
  /// the response fields. Returns the ids of sessions that could not be
  /// moved. `sourceReachable` (optional) reports whether the drained
  /// worker itself answered — false means a dead process, so callers skip
  /// graceful-shutdown round trips that could only time out.
  std::vector<std::int64_t> DrainSessions(std::size_t index,
                                          WorkerLane::HeldTurn& source,
                                          json::Json& response,
                                          bool* sourceReachable = nullptr)
      EXCLUDES(fleetMutex_);

  /// Moves one session from `source` to `destination` (export -> import
  /// -> delete source). The export and delete run on `sourceTurn`, the
  /// source worker's turn the caller holds; the import rides the
  /// destination's lane. On failure the session remains on its source
  /// worker.
  Status MoveSession(std::int64_t globalId, const Placement& source,
                     WorkerLane::HeldTurn& sourceTurn, std::size_t destination,
                     std::uint64_t* movedBytes) EXCLUDES(fleetMutex_);

  /// localId -> session node of a worker's listSessions response; the
  /// pointers borrow from the response, which must outlive the index.
  static std::map<std::int64_t, const json::Json*> IndexSessions(
      const json::Json& listResponse);

  /// Reads one worker's listSessions response as a load summary — the
  /// single place that knows the response shape (ProbeLoads and
  /// WorkerStats both feed through it).
  static Result<WorkerLoad> ParseLoad(const json::Json& response);
  /// Probes every live worker's load concurrently. `skip` (if valid) is
  /// reported unreachable without being probed — drain uses it for the
  /// source worker it holds and lists itself. Locks itself.
  FleetLoads ProbeLoads(std::size_t skip = static_cast<std::size_t>(-1))
      EXCLUDES(fleetMutex_);
  /// Workers admitting new sessions (live and not drained).
  std::vector<bool> Eligible() const REQUIRES(fleetMutex_);
  bool IsLive(std::size_t worker) const REQUIRES(fleetMutex_) {
    return worker < lanes_.size() && lanes_[worker] != nullptr;
  }
  /// Placement for a new session id; error when every worker is drained.
  Result<std::size_t> PlaceNew(std::int64_t globalId) REQUIRES(fleetMutex_);
  /// Builds the transport for slot `worker` from the factory/default.
  /// (No lock needed; touches only options_.)
  Result<std::shared_ptr<WorkerTransport>> MakeTransport(
      std::size_t worker, const server::SimServer::Limits& limits);

  Options options_;
  /// Guards every mutable member below. No lane turn is waited for and
  /// no worker round trip is made while it is held. (Declared before
  /// fleetOpMutex_ only so ACQUIRED_BEFORE can name it; the lock *order*
  /// is fleetOpMutex_ first.)
  mutable Mutex fleetMutex_;
  /// Serializes fleet operations (drain/rebalance/add/remove/open and
  /// the stats/list/metrics/trace snapshots) against each other without
  /// blocking routing. Lock order: always before fleetMutex_ (the
  /// ACQUIRED_BEFORE below), and every mutation of the fleet topology
  /// (lanes_/ring_ growth or removal) happens with *both* held.
  Mutex fleetOpMutex_ ACQUIRED_BEFORE(fleetMutex_);
  HashRing ring_ GUARDED_BY(fleetMutex_);
  /// Dispatch lane per slot, owning the slot's transport (nullptr when
  /// removed). Callers copy the shared_ptr with their turn, so a lane
  /// outlives its slot for as long as someone still waits on it.
  std::vector<std::shared_ptr<WorkerLane>> lanes_ GUARDED_BY(fleetMutex_);
  std::vector<bool> drained_ GUARDED_BY(fleetMutex_);
  /// Construction errors of slots whose factory failed, by worker index.
  std::map<std::size_t, std::string> slotErrors_ GUARDED_BY(fleetMutex_);
  std::map<std::int64_t, Placement> placements_ GUARDED_BY(fleetMutex_);
  std::int64_t nextGlobalId_ GUARDED_BY(fleetMutex_) = 1;
};

}  // namespace rvss::shard
