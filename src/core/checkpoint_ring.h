// Checkpoint ring: bounded store of simulation snapshots.
//
// The paper implements backward simulation (§III-B) as deterministic
// re-execution from reset — O(n) per backward step. The ring turns that
// into O(interval): the simulation deposits a snapshot every
// `intervalCycles` cycles (plus any manually requested ones), and StepBack
// restores the nearest snapshot at or before the target cycle and replays
// the remainder. Because the simulation is fully deterministic for a fixed
// (program, config, seed) triple, snapshots taken on a previous pass stay
// valid after seeking backward, so forward scrubbing can reuse them too.
//
// Every entry is a plain SimSnapshot. Its memory is the pages dirtied
// since the load image (see memory::MainMemory::State), so an entry costs
// the working set, not the whole memory; the image itself is shared.
//
// The simulation keeps an *origin* entry in the ring at all times: cycle
// 0, the post-fast-forward state, or a fast-forwarded import's anchor.
// Memory is bounded: entries carry their approximate byte size and the
// oldest entries are evicted once `maxTotalBytes` is exceeded, except the
// two that are pinned — the oldest entry (the origin: Reset's restore
// point and the start of every long replay) and the newest.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace rvss::core {

struct SimSnapshot;  // core/simulation.h

class CheckpointRing {
 public:
  struct Entry {
    std::uint64_t cycle = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const SimSnapshot> snapshot;
  };

  /// `intervalCycles == 0` turns off automatic checkpoints; the origin
  /// and manual checkpoints are still stored.
  CheckpointRing(std::uint64_t intervalCycles, std::size_t maxTotalBytes)
      : intervalCycles_(intervalCycles), maxTotalBytes_(maxTotalBytes) {}

  /// True when automatic checkpoints are on.
  bool enabled() const { return intervalCycles_ > 0; }
  std::uint64_t intervalCycles() const { return intervalCycles_; }

  /// True when the simulation should deposit a snapshot at `cycle`: the
  /// ring is enabled, `cycle` lies on the interval grid and no entry for
  /// it exists yet (replayed cycles do not re-snapshot).
  bool WantsCheckpoint(std::uint64_t cycle) const;

  /// Inserts a snapshot, keeping entries sorted by cycle; a duplicate
  /// cycle is a no-op. Evicts oldest evictable entries beyond the budget.
  void Add(std::uint64_t cycle, std::size_t bytes,
           std::shared_ptr<const SimSnapshot> snapshot);

  /// Newest entry with entry.cycle <= cycle, or nullptr when none exists.
  const Entry* FindAtOrBefore(std::uint64_t cycle) const;

  /// The oldest entry (the origin), or nullptr before the first Add.
  const Entry* oldest() const;

  std::size_t checkpointCount() const { return entries_.size(); }
  std::size_t totalBytes() const { return totalBytes_; }
  std::size_t maxTotalBytes() const { return maxTotalBytes_; }

  void Clear();

 private:
  std::uint64_t intervalCycles_;
  std::size_t maxTotalBytes_;
  std::vector<Entry> entries_;  ///< sorted by cycle, ascending
  std::size_t totalBytes_ = 0;
};

}  // namespace rvss::core
