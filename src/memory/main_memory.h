// Main memory: a 1-D byte array with little-endian typed accessors.
//
// Matching the paper (§III-A), the simulator's memory is a flat byte array
// of predefined capacity. Functional correctness and timing are split:
// data reads/writes happen immediately on this array, while access *timing*
// is produced by MemorySystem (cache + latency model) through transaction
// objects. Stores are only performed at commit, in program order, so the
// immediate-write model is architecturally exact.
//
// The array also remembers its *base image* — the post-load contents a
// fresh Simulation::Create reproduces, shared and immutable once Rebase()
// installs it — and which 4 KiB pages have been written since. That one
// dirty set is the whole memory part of a snapshot: State is the base
// pointer plus a copy of each dirty page, so saving costs O(dirty pages)
// and restoring reverts the dirty pages to the base before overlaying the
// state's. Checkpoints and delta session blobs both use it. Tracking is
// conservative: the mutable bytes() span marks every page dirty.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"

namespace rvss::memory {

class MainMemory {
 public:
  /// Dirty-tracking granularity. 4 KiB balances bitmap cost against delta
  /// precision for the 64 KiB..64 MiB memories the simulator configures.
  static constexpr std::uint32_t kPageSizeBytes = 4096;

  /// Contents start zeroed, and the base until Rebase() is all zeros.
  explicit MainMemory(std::uint32_t sizeBytes)
      : bytes_(sizeBytes, 0), dirtyPages_(PageCountFor(sizeBytes), 0) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }

  /// True when [address, address+size) lies inside memory.
  bool InBounds(std::uint32_t address, std::uint32_t accessSize) const {
    return accessSize <= bytes_.size() &&
           address <= bytes_.size() - accessSize;
  }

  /// Unchecked little-endian loads; callers bounds-check first (the LSU
  /// turns violations into runtime exceptions at commit).
  std::uint8_t Read8(std::uint32_t address) const { return bytes_[address]; }
  std::uint16_t Read16(std::uint32_t address) const;
  std::uint32_t Read32(std::uint32_t address) const;
  std::uint64_t Read64(std::uint32_t address) const;

  void Write8(std::uint32_t address, std::uint8_t value) {
    bytes_[address] = value;
    dirtyPages_[address / kPageSizeBytes] = 1;
  }
  void Write16(std::uint32_t address, std::uint16_t value);
  void Write32(std::uint32_t address, std::uint32_t value);
  void Write64(std::uint32_t address, std::uint64_t value);

  /// Generic accessors used by the load/store unit (size in {1,2,4,8}).
  std::uint64_t ReadBytes(std::uint32_t address, std::uint32_t accessSize) const;
  void WriteBytes(std::uint32_t address, std::uint32_t accessSize,
                  std::uint64_t value);

  /// Whole-memory views for dump import/export and the GUI memory pop-up.
  /// The mutable view can bypass dirty tracking, so handing it out marks
  /// everything dirty (conservative, correct).
  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::span<std::uint8_t> bytes() {
    MarkAllDirty();
    return bytes_;
  }

  // --- the base image and the pages dirtied since it ----------------------

  /// An immutable memory image shared by a memory and its snapshots.
  using Image = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Declares the current contents to *be* the base image and clears the
  /// dirty set. Call only where the contents provably equal what a fresh
  /// Create would produce (end of Simulation::Create).
  void Rebase();
  /// The base image; null (all zeros) before the first Rebase().
  const Image& base() const { return base_; }

  /// The memory part of a snapshot: the base image plus a copy of every
  /// page dirtied since it. Restorable into any memory of the same
  /// capacity; cheapest into one that shares the base.
  struct State {
    Image base;                           ///< null: all zeros
    std::vector<std::uint32_t> pages;     ///< dirty page indices, ascending
    /// The pages' contents back to back, kPageSizeBytes each (only the
    /// memory's last page may be shorter).
    std::vector<std::uint8_t> pageBytes;

    /// Writes the full image this state describes into `out` (sized like
    /// the memory): the base with the pages overlaid.
    void CopyImageTo(std::span<std::uint8_t> out) const;
  };

  /// The state whose full image is `image`, described against `base`:
  /// only pages that differ from the base are copied.
  static State Diff(Image base, std::span<const std::uint8_t> image);

  State SaveState() const;
  /// Reverts the dirty pages to the base, overlays the state's pages and
  /// adopts their set as the dirty set — O(dirty pages). A state built on
  /// another memory's base is materialized and diffed against this one's.
  void RestoreState(const State& state);

 private:
  static std::uint32_t PageCountFor(std::uint32_t sizeBytes) {
    return (sizeBytes + kPageSizeBytes - 1) / kPageSizeBytes;
  }
  void MarkDirtyRange(std::uint32_t address, std::uint32_t accessSize) {
    dirtyPages_[address / kPageSizeBytes] = 1;
    dirtyPages_[(address + accessSize - 1) / kPageSizeBytes] = 1;
  }
  void MarkAllDirty();

  std::vector<std::uint8_t> bytes_;
  Image base_;
  std::vector<std::uint8_t> dirtyPages_;  ///< one flag per page, since base_
};

}  // namespace rvss::memory
