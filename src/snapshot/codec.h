// Versioned, endian-stable binary codec for core::SimSnapshot.
//
// PR 1 made the full simulation snapshottable, but snapshots were
// in-memory deep copies restorable only into the simulation that produced
// them. This codec turns a SimSnapshot into a self-describing byte blob
// that can be persisted, shipped to another process and decoded into any
// simulation built from the same (program, config) pair — the primitive
// behind session export/import and migration.
//
// Safety model (decode never trusts the blob):
//   - a fixed header carries magic, format version, a config hash, a
//     program hash and an FNV-1a payload checksum; stale versions,
//     mismatched configurations/programs, truncation and corruption all
//     fail with a Status before any state is built;
//   - every variable-length field validates its length prefix against the
//     bytes actually remaining, and every index (instruction, rename tag,
//     in-flight table slot) is range-checked against the live
//     configuration, so even a blob crafted to pass the checksum cannot
//     produce out-of-bounds state.
//
// In-flight instructions are encoded as a table of the pool slots the
// containers hold, in first-seen order, plus index lists per pipeline
// container. Decode puts table entry i in pool slot i, so an instruction
// sitting in the ROB and a load buffer decodes back into one slot held by
// both, and the decoded pool has no free slots.
//
// The config hash covers the state-shaping configuration only: checkpoint
// settings and the display name are normalized away, so a server may
// clamp a session's checkpoint budget on import without invalidating the
// blob.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "assembler/program.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "core/simulation.h"

namespace rvss::snapshot {

/// Bumped on any incompatible layout change. Decode is *versioned*: this
/// build reads every version in [kMinFormatVersion, kFormatVersion], so
/// persisted blobs from older releases keep importing.
/// v2: fast-forward seed (core::FastForwardSeed) and the
/// fastForwardedInstructions statistic.
/// v3: memory-mode byte ahead of the memory image — mode 0 is the full
/// image (v2 layout after the byte), mode 1 is a base-referenced delta
/// (base-epoch id + sparse 4 KiB pages dirtied since the base).
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 2;

/// What a blob must match to be restorable. `base`/`baseEpoch` describe
/// the base image available on the decoding side (the load image of the
/// same (config, program) pair: Simulation::memorySystem().memory().base()
/// and memoryBaseEpoch()). A delta-mode blob fails closed without a
/// matching base; a full image is decoded into the pages that differ from
/// it (or, without a base, kept whole as its own base).
struct CodecContext {
  const config::CpuConfig* config = nullptr;
  const assembler::Program* program = nullptr;
  memory::MainMemory::Image base{};
  std::uint64_t baseEpoch = 0;
};

/// Encode-side knobs. Defaults produce a v3 full-image blob identical in
/// meaning to what EncodeSnapshot always produced.
struct EncodeOptions {
  /// Must lie in [kMinFormatVersion, kFormatVersion]. v2 output is
  /// byte-identical to what older builds wrote (no memory-mode byte, so
  /// no delta form).
  std::uint32_t formatVersion = kFormatVersion;
  /// Delta memory mode (v3 only): ship only the snapshot's own pages —
  /// those dirtied since the base image — and take every other page from
  /// the decoder's base.
  bool deltaMemory = false;
  /// Identifies the base image the snapshot's pages are described against
  /// (Simulation::memoryBaseEpoch()); decode refuses a delta whose epoch
  /// differs from the context's.
  std::uint64_t baseEpoch = 0;
};

/// FNV-1a over the canonical JSON dump of `config` with checkpoint
/// settings and the display name normalized to defaults (they do not shape
/// simulation state).
[[nodiscard]] std::uint64_t ConfigHash(const config::CpuConfig& config);

/// FNV-1a over the program's instructions, entry point and data image.
[[nodiscard]] std::uint64_t ProgramHash(const assembler::Program& program);

/// Serializes a snapshot. The context must describe the simulation the
/// snapshot came from.
[[nodiscard]] std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context);
[[nodiscard]] std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context,
                           const EncodeOptions& options);

/// Parses and validates a blob against `context`. Returns a snapshot ready
/// for Simulation::RestoreState, or an error for any version, hash, size
/// or structural mismatch — including a delta blob whose base the context
/// cannot supply (fail closed, never lossy). Never crashes on malformed
/// input.
Result<core::SimSnapshot> DecodeSnapshot(std::string_view blob,
                                         const CodecContext& context);

}  // namespace rvss::snapshot
