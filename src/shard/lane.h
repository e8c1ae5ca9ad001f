// Dispatch lanes: FIFO turns over one worker's transport, with no thread
// of their own.
//
// A worker has one WorkerTransport connection, and a connection carries
// one request at a time. A WorkerLane orders the callers that share it:
// a caller takes a turn (TakeTurn, which never blocks), waits until its
// turn comes up (Await), runs WorkerTransport::Call on its own thread
// through the HeldTurn that Await returned, and passes the turn on when
// the HeldTurn is destroyed. Concurrency therefore lives *between* lanes
// (N workers simulate in parallel, each driven by whichever caller holds
// its turn) while ordering is preserved *within* a lane — exactly the
// per-session ordering the session→worker affinity requires, since a
// session's requests all land on its worker's lane, in the order their
// turns were taken.
//
// Holding a turn is owning the worker. When a turn comes up, every turn
// taken before it has been passed on, and no turn taken after it comes
// up until it is passed on. The router takes turns under its fleet
// mutex and waits for them with the mutex released; its fleet
// operations (drain, rebalance, removeWorker) take one turn on the
// worker they reorganize and keep it across every source-side call —
// list, export, delete, shutdown — so they never observe a request in
// flight there.
//
// Stop() ends the lane for good (removeWorker): every caller still
// waiting for its turn — plus any later one — is answered with a
// retryable kUnavailable error, never dropped silently.
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
  class HeldTurn;

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
  /// was taken, try again later). A taken turn must be passed to Await
  /// exactly once; the lane stalls behind a turn that is never awaited.
  Result<Turn> TakeTurn() EXCLUDES(mutex_);

  /// Waits until `turn` comes up and returns it held. A lane stopped
  /// before the turn came up answers with a retryable kUnavailable Error
  /// instead.
  Result<HeldTurn> Await(Turn turn) EXCLUDES(mutex_);

  /// TakeTurn, Await, one call, pass the turn on.
  Result<server::Reply> Call(const json::Json& request) EXCLUDES(mutex_);

  /// Answers every waiting and later caller with an error. A turn
  /// already held keeps running its calls. Idempotent.
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
  void PassTurn() EXCLUDES(mutex_);

  const std::shared_ptr<WorkerTransport> transport_;
  const std::size_t maxQueueDepth_;
  mutable Mutex mutex_;
  CondVar turnPassed_;  ///< signals callers waiting in Await
  Turn nextTurn_ GUARDED_BY(mutex_) = 0;  ///< handed out by TakeTurn
  Turn current_ GUARDED_BY(mutex_) = 0;   ///< the turn allowed to run
  bool stopped_ GUARDED_BY(mutex_) = false;
  std::uint64_t lastDispatchNs_ GUARDED_BY(mutex_) = 0;
  std::uint64_t dispatched_ GUARDED_BY(mutex_) = 0;
};

/// A turn that has come up. Calls through it run on the caller's thread,
/// one after another; destroying it passes the turn on. Move-only; the
/// lane must outlive it.
class WorkerLane::HeldTurn {
 public:
  HeldTurn(HeldTurn&& other) noexcept : lane_(other.lane_) {
    other.lane_ = nullptr;
  }
  HeldTurn(const HeldTurn&) = delete;
  HeldTurn& operator=(const HeldTurn&) = delete;
  HeldTurn& operator=(HeldTurn&&) = delete;
  ~HeldTurn() {
    if (lane_ != nullptr) lane_->PassTurn();
  }

  /// Runs the transport call. The result is exactly what the transport's
  /// Call returned: the reply's bytes, or an Error for a transport-level
  /// failure (a worker's own {status: "error"} answer is a successful
  /// call).
  Result<server::Reply> Call(const json::Json& request);

 private:
  friend class WorkerLane;
  explicit HeldTurn(WorkerLane* lane) : lane_(lane) {}

  WorkerLane* lane_;
};

}  // namespace rvss::shard
