#include "core/checkpoint_ring.h"

#include <algorithm>

namespace rvss::core {

bool CheckpointRing::WantsCheckpoint(std::uint64_t cycle) const {
  if (!enabled() || cycle % intervalCycles_ != 0) return false;
  const Entry* existing = FindAtOrBefore(cycle);
  return existing == nullptr || existing->cycle != cycle;
}

void CheckpointRing::Add(std::uint64_t cycle, std::size_t bytes,
                         std::shared_ptr<const SimSnapshot> snapshot) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), cycle,
      [](const Entry& e, std::uint64_t c) { return e.cycle < c; });
  if (it != entries_.end() && it->cycle == cycle) return;
  totalBytes_ += bytes;
  entries_.insert(it, Entry{cycle, bytes, std::move(snapshot)});
  // Evict oldest first, but pin the oldest entry (the origin) and the
  // newest, so a too-small budget degrades to longer replays rather than
  // losing the ability to seek.
  while (totalBytes_ > maxTotalBytes_ && entries_.size() > 2) {
    totalBytes_ -= entries_[1].bytes;
    entries_.erase(entries_.begin() + 1);
  }
}

const CheckpointRing::Entry* CheckpointRing::FindAtOrBefore(
    std::uint64_t cycle) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), cycle,
      [](std::uint64_t c, const Entry& entry) { return c < entry.cycle; });
  if (it == entries_.begin()) return nullptr;
  return &*(it - 1);
}

const CheckpointRing::Entry* CheckpointRing::oldest() const {
  return entries_.empty() ? nullptr : &entries_.front();
}

void CheckpointRing::Clear() {
  entries_.clear();
  totalBytes_ = 0;
}

}  // namespace rvss::core
