// Dispatch lanes: FIFO turns over one worker's transport, with no thread
// of their own.
//
// A worker has one WorkerTransport connection, and a connection carries
// one request at a time. A WorkerLane orders the callers that share it:
// a caller takes a turn (TakeTurn, which never blocks), waits until its
// turn comes up, runs WorkerTransport::Call on its own thread, and
// passes the turn on. Concurrency therefore lives *between* lanes (N
// workers simulate in parallel, each driven by whichever caller holds
// its turn) while ordering is preserved *within* a lane — exactly the
// per-session ordering the session→worker affinity requires, since a
// session's requests all land on its worker's lane, in the order their
// turns were taken.
//
// The router takes a turn under its fleet mutex, in the same critical
// section as its placement-gate check, and waits for the turn with the
// fleet mutex released. Fleet operations that hold a closed gate call
// through the same lane; with the gate closed and the lane quiesced,
// their turns come up at once.
//
// The quiesce barrier: fleet operations that move sessions (drain,
// rebalance, removeWorker) must never observe a request in flight on the
// worker they are reorganizing. Quiesce() blocks until every turn taken
// so far has run — the running caller and the waiting ones. The caller
// is expected to have closed the router's per-worker placement gate for
// this worker *before* quiescing and to keep it closed across the
// session moves that follow: every turn-taking path checks the gate
// (under the router's fleet mutex), so no new caller can slip into the
// lane while the barrier holds. Quiesce is thus a wait, not a mode
// switch; there is nothing to resume.
//
// Stop() ends the lane for good (removeWorker): every caller still
// waiting for its turn — plus any later one — is answered with a
// retryable kUnavailable error, never dropped silently. Callers that need
// pending work to complete quiesce first.
#pragma once

#include <cstdint>
#include <memory>

#include "common/sync.h"
#include "json/json.h"
#include "shard/transport.h"

namespace rvss::shard {

class WorkerLane {
 public:
  /// A caller's place in the lane's FIFO.
  using Turn = std::uint64_t;

  /// The lane shares ownership of the transport; nothing else may call
  /// it. maxQueueDepth bounds the number of callers *waiting* for their
  /// turn (the one holding it excluded): beyond it, TakeTurn load-sheds.
  /// 0 = unbounded.
  explicit WorkerLane(std::shared_ptr<WorkerTransport> transport,
                      std::size_t maxQueueDepth = 0);

  WorkerLane(const WorkerLane&) = delete;
  WorkerLane& operator=(const WorkerLane&) = delete;

  /// Takes the next turn without waiting. On a stopped lane — or when
  /// maxQueueDepth callers already wait — answers at once with a
  /// retryable kUnavailable Error (the latter is a load shed: no turn
  /// was taken, try again later). A taken turn must be passed to Call
  /// exactly once; the lane stalls behind a turn that never runs.
  Result<Turn> TakeTurn() EXCLUDES(mutex_);

  /// Waits for `turn`, runs the transport call on this thread, and
  /// passes the turn on. The result is exactly what the transport's Call
  /// returned: a response document, or an Error for a transport-level
  /// failure (a worker's own {status: "error"} answer is a successful
  /// call). A lane stopped before the turn came up answers with a
  /// retryable kUnavailable Error instead of calling.
  Result<json::Json> Call(Turn turn, const json::Json& request)
      EXCLUDES(mutex_);
  /// TakeTurn, then Call.
  Result<json::Json> Call(const json::Json& request) EXCLUDES(mutex_);

  /// Blocks until every turn taken so far has run. Only meaningful while
  /// the caller prevents new turns (by closing the router's placement
  /// gate for this worker); see the file comment. Returns at once on a
  /// stopped lane.
  void Quiesce() EXCLUDES(mutex_);

  /// Answers every waiting and later caller with an error. A call already
  /// running finishes. Idempotent.
  void Stop() EXCLUDES(mutex_);

  /// The lane's transport, for Describe()/LocalServer()/
  /// SupportsDeltaBlobs() introspection, which is safe concurrently.
  WorkerTransport* transport() const { return transport_.get(); }

  /// Live lane load, surfaced per worker by the router's workerStats.
  /// Always-on (independent of obs::SetEnabled): these are functional
  /// fleet stats. The lane mutex is never held across a transport call,
  /// so reading them never waits behind a long `run`.
  struct Stats {
    std::uint64_t queueDepth = 0;   ///< callers waiting for their turn
    bool inFlight = false;          ///< a caller holds the turn right now
    double lastDispatchMs = 0.0;    ///< wall time of the last completed call
    std::uint64_t dispatched = 0;   ///< calls completed since construction
  };
  Stats stats() const EXCLUDES(mutex_);

 private:
  const std::shared_ptr<WorkerTransport> transport_;
  const std::size_t maxQueueDepth_;
  mutable Mutex mutex_;
  CondVar turnPassed_;  ///< signals waiting callers and Quiesce()
  Turn nextTurn_ GUARDED_BY(mutex_) = 0;  ///< handed out by TakeTurn
  Turn current_ GUARDED_BY(mutex_) = 0;   ///< the turn allowed to run
  bool stopped_ GUARDED_BY(mutex_) = false;
  std::uint64_t lastDispatchNs_ GUARDED_BY(mutex_) = 0;
  std::uint64_t dispatched_ GUARDED_BY(mutex_) = 0;
};

}  // namespace rvss::shard
