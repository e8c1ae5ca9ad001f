// Configuration validation: collects *all* problems, mirroring the paper's
// settings window which refuses to start a simulation with an invalid
// architecture but shows every offending field at once.
#include "common/bitops.h"
#include "config/cpu_config.h"

namespace rvss::config {
namespace {

// Upper bounds on every field a config sizes an allocation by. A client's
// config reaches a shared server, so an oversized one must be answered
// with kind "config" instead of aborting on bad_alloc or being
// OOM-killed. Like robSize's, each bound sits far above every preset.
constexpr std::uint32_t kMaxStructureEntries = 4096;
constexpr std::uint64_t kMaxCacheBytes = 1ull << 20;
constexpr std::uint32_t kMaxPredictorEntries = 1u << 16;

void Check(std::vector<Error>& errors, bool ok, std::string message) {
  if (!ok) {
    errors.push_back(Error{ErrorKind::kConfig, std::move(message)});
  }
}

}  // namespace

std::vector<Error> Validate(const CpuConfig& config) {
  std::vector<Error> errors;
  const BufferConfig& b = config.buffers;
  Check(errors, b.robSize >= 1, "robSize must be at least 1");
  Check(errors, b.fetchWidth >= 1, "fetchWidth must be at least 1");
  Check(errors, b.commitWidth >= 1, "commitWidth must be at least 1");
  Check(errors, b.issueWindowSize >= 1, "issueWindowSize must be at least 1");
  Check(errors, b.fetchWidth <= 16, "fetchWidth above 16 is not supported");
  Check(errors, b.commitWidth <= 16, "commitWidth above 16 is not supported");
  Check(errors, b.robSize <= kMaxStructureEntries,
        "robSize above 4096 is not supported");
  Check(errors, b.issueWindowSize <= kMaxStructureEntries,
        "issueWindowSize above 4096 is not supported");

  Check(errors, config.coreClockHz > 0, "coreClockHz must be positive");
  Check(errors, config.memClockHz > 0, "memClockHz must be positive");

  // Functional units: the pipeline needs at least one of each role to make
  // progress on arbitrary RV32IMFD programs.
  bool hasFx = false, hasFp = false, hasLs = false, hasBranch = false,
       hasMemory = false;
  for (const FunctionalUnitConfig& fu : config.functionalUnits) {
    switch (fu.kind) {
      case FunctionalUnitConfig::Kind::kFx: {
        hasFx = hasFx || fu.LatencyFor(isa::OpClass::kIntAlu) > 0;
        for (const auto& op : fu.operations) {
          Check(errors, op.latency >= 1 && op.latency <= 512,
                "FX operation latency must be in [1, 512]");
          Check(errors,
                op.opClass == isa::OpClass::kIntAlu ||
                    op.opClass == isa::OpClass::kIntMul ||
                    op.opClass == isa::OpClass::kIntDiv,
                "FX units may only support integer operation classes");
        }
        break;
      }
      case FunctionalUnitConfig::Kind::kFp: {
        if (!fu.operations.empty()) hasFp = true;
        for (const auto& op : fu.operations) {
          Check(errors, op.latency >= 1 && op.latency <= 512,
                "FP operation latency must be in [1, 512]");
          Check(errors,
                op.opClass == isa::OpClass::kFpAdd ||
                    op.opClass == isa::OpClass::kFpMul ||
                    op.opClass == isa::OpClass::kFpDiv ||
                    op.opClass == isa::OpClass::kFpFma ||
                    op.opClass == isa::OpClass::kFpOther,
                "FP units may only support floating-point operation classes");
        }
        break;
      }
      case FunctionalUnitConfig::Kind::kLs:
        hasLs = true;
        Check(errors, fu.latency >= 1, "LS unit latency must be at least 1");
        break;
      case FunctionalUnitConfig::Kind::kBranch:
        hasBranch = true;
        Check(errors, fu.latency >= 1, "branch unit latency must be at least 1");
        break;
      case FunctionalUnitConfig::Kind::kMemory:
        hasMemory = true;
        Check(errors, fu.latency >= 1, "memory unit latency must be at least 1");
        break;
    }
  }
  Check(errors, hasFx, "at least one FX unit supporting kIntAlu is required");
  Check(errors, hasLs, "at least one LS (address) unit is required");
  Check(errors, hasBranch, "at least one branch unit is required");
  Check(errors, hasMemory, "at least one memory-access unit is required");
  (void)hasFp;  // FP units are optional; FP programs stall forever without
                // them, which validation cannot know statically.

  const CacheConfig& c = config.cache;
  if (c.enabled) {
    Check(errors, IsPowerOfTwo(c.lineSizeBytes),
          "cache lineSizeBytes must be a power of two");
    Check(errors, c.lineSizeBytes >= 4 && c.lineSizeBytes <= 4096,
          "cache lineSizeBytes must be in [4, 4096]");
    Check(errors, c.lineCount >= 1, "cache lineCount must be at least 1");
    Check(errors, c.associativity >= 1,
          "cache associativity must be at least 1");
    Check(errors, c.associativity <= c.lineCount,
          "cache associativity cannot exceed lineCount");
    Check(errors,
          static_cast<std::uint64_t>(c.lineCount) * c.lineSizeBytes <=
              kMaxCacheBytes,
          "cache capacity (lineCount x lineSizeBytes) above 1 MiB is not "
          "supported");
    if (c.associativity >= 1 && c.lineCount >= 1) {
      Check(errors, c.lineCount % c.associativity == 0,
            "cache lineCount must be a multiple of associativity");
      if (c.lineCount % c.associativity == 0) {
        Check(errors, IsPowerOfTwo(c.lineCount / c.associativity),
              "cache set count (lineCount / associativity) must be a power "
              "of two");
      }
    }
  }

  const MemoryConfig& m = config.memory;
  Check(errors, m.sizeBytes >= 1024, "memory sizeBytes must be at least 1 KiB");
  Check(errors, m.sizeBytes <= kMaxMemoryBytes,
        "memory sizeBytes above 64 MiB is not supported");
  Check(errors, m.loadBufferSize >= 1, "loadBufferSize must be at least 1");
  Check(errors, m.storeBufferSize >= 1, "storeBufferSize must be at least 1");
  Check(errors, m.loadBufferSize <= kMaxStructureEntries,
        "loadBufferSize above 4096 is not supported");
  Check(errors, m.storeBufferSize <= kMaxStructureEntries,
        "storeBufferSize above 4096 is not supported");
  Check(errors, m.callStackBytes >= 64,
        "callStackBytes must be at least 64 bytes");
  Check(errors, m.callStackBytes < m.sizeBytes,
        "call stack must fit inside memory");
  Check(errors, m.renameRegisterCount >= config.buffers.fetchWidth,
        "renameRegisterCount must be at least fetchWidth");
  Check(errors, m.renameRegisterCount <= kMaxStructureEntries,
        "renameRegisterCount above 4096 is not supported");

  // Checkpoint settings are client-supplied on shared servers, so both ends
  // are bounded: a dense interval turns every step into a snapshot copy,
  // and an unbounded budget defeats the per-session memory cap. A budget
  // too small for two snapshots is fine — the ring pins the cycle-0 base
  // and the newest entry and degrades to longer replays. The upper bounds
  // also catch negative JSON values wrapping to huge unsigned ones.
  const CheckpointConfig& k = config.checkpoint;
  if (k.intervalCycles > 0) {
    Check(errors, k.intervalCycles >= 16,
          "checkpoint intervalCycles below 16 is not supported (0 disables)");
    Check(errors, k.intervalCycles <= (1ull << 32),
          "checkpoint intervalCycles above 2^32 is not supported");
    Check(errors, k.maxTotalBytes >= 1,
          "checkpoint maxTotalBytes must be positive");
  }
  // The budget bound applies even with automatic checkpointing disabled:
  // manual saveCheckpoint requests still deposit into the ring.
  Check(errors, k.maxTotalBytes <= (1ull << 30),
        "checkpoint maxTotalBytes above 1 GiB is not supported");
  Check(errors, k.fullSnapshotEvery >= 1 && k.fullSnapshotEvery <= 1024,
        "checkpoint fullSnapshotEvery must be in [1, 1024]");

  const PredictorConfig& p = config.predictor;
  Check(errors, IsPowerOfTwo(p.btbSize), "btbSize must be a power of two");
  Check(errors, IsPowerOfTwo(p.phtSize), "phtSize must be a power of two");
  Check(errors, p.btbSize <= kMaxPredictorEntries,
        "btbSize above 65536 is not supported");
  Check(errors, p.phtSize <= kMaxPredictorEntries,
        "phtSize above 65536 is not supported");
  const std::uint32_t stateLimit =
      p.type == PredictorType::kTwoBit ? 4u : 2u;
  Check(errors, p.defaultState < stateLimit,
        "predictor defaultState out of range for predictor type");
  Check(errors, p.historyBits <= 16, "historyBits above 16 is not supported");

  return errors;
}

}  // namespace rvss::config
