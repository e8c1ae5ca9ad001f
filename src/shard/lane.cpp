#include "shard/lane.h"

#include <string>
#include <utility>

#include "obs/registry.h"

namespace rvss::shard {
namespace {

// Both lane-refusal errors are kUnavailable, not kInvalidArgument: the
// request itself was fine — the fleet's capacity or topology failed it,
// and a retry (later, or after re-routing) may well succeed.
Error StoppedError() {
  return Error{ErrorKind::kUnavailable,
               "worker was removed while the request was pending"};
}

Error ShedError(std::uint64_t depth) {
  return Error{ErrorKind::kUnavailable,
               "worker lane queue is full (" + std::to_string(depth) +
                   " requests queued); load shed, retry later"};
}

}  // namespace

WorkerLane::WorkerLane(std::shared_ptr<WorkerTransport> transport,
                       std::size_t maxQueueDepth)
    : transport_(std::move(transport)), maxQueueDepth_(maxQueueDepth) {}

Result<WorkerLane::Turn> WorkerLane::TakeTurn() {
  MutexLock lock(mutex_);
  if (stopped_) return StoppedError();
  // The holder of current_ is in flight; everyone behind it waits.
  const std::uint64_t outstanding = nextTurn_ - current_;
  const std::uint64_t waiting = outstanding == 0 ? 0 : outstanding - 1;
  if (maxQueueDepth_ != 0 && waiting >= maxQueueDepth_) {
    obs::Registry::Instance().GetCounter("shard.lane.shed").Increment();
    return ShedError(waiting);
  }
  return nextTurn_++;
}

Result<WorkerLane::HeldTurn> WorkerLane::Await(Turn turn) {
  // One registration per metric name for the whole process; every lane
  // shares the objects, so these aggregate across the fleet's lanes (the
  // per-worker split lives in workerStats' lane Stats).
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Histogram& queueWaitUs =
      registry.GetHistogram("shard.lane.queueWaitUs");
  static obs::Counter& directCalls =
      registry.GetCounter("shard.lane.directCalls");

  const std::uint64_t arrivedNs = obs::MonotonicNowNs();
  bool waited = false;
  {
    MutexLock lock(mutex_);
    waited = current_ != turn;
    while (!stopped_ && current_ != turn) turnPassed_.Wait(mutex_);
    if (stopped_) return StoppedError();
  }
  if (waited) {
    queueWaitUs.Record((obs::MonotonicNowNs() - arrivedNs) / 1000);
  } else {
    directCalls.Increment();
  }
  return HeldTurn(this);
}

Result<server::Reply> WorkerLane::HeldTurn::Call(const json::Json& request) {
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Histogram& dispatchUs =
      registry.GetHistogram("shard.lane.dispatchUs");
  static obs::Counter& requests = registry.GetCounter("shard.lane.requests");

  const std::uint64_t startNs = obs::MonotonicNowNs();
  Result<server::Reply> response = lane_->transport_->Call(request);
  const std::uint64_t elapsedNs = obs::MonotonicNowNs() - startNs;
  dispatchUs.Record(elapsedNs / 1000);
  requests.Increment();
  MutexLock lock(lane_->mutex_);
  lane_->lastDispatchNs_ = elapsedNs;
  ++lane_->dispatched_;
  return response;
}

void WorkerLane::PassTurn() {
  {
    MutexLock lock(mutex_);
    ++current_;
  }
  turnPassed_.NotifyAll();
}

Result<server::Reply> WorkerLane::Call(const json::Json& request) {
  Result<Turn> turn = TakeTurn();
  if (!turn.ok()) return turn.error();
  Result<HeldTurn> held = Await(turn.value());
  if (!held.ok()) return held.error();
  return held.value().Call(request);
}

void WorkerLane::Stop() {
  {
    MutexLock lock(mutex_);
    stopped_ = true;
  }
  turnPassed_.NotifyAll();
}

WorkerLane::Stats WorkerLane::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  const std::uint64_t outstanding = nextTurn_ - current_;
  stats.queueDepth = outstanding == 0 ? 0 : outstanding - 1;
  stats.inFlight = outstanding != 0;
  stats.lastDispatchMs = static_cast<double>(lastDispatchNs_) / 1e6;
  stats.dispatched = dispatched_;
  return stats;
}

}  // namespace rvss::shard
