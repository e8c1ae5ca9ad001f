// The out-of-order superscalar pipeline simulator — the paper's primary
// contribution.
//
// Pipeline structure (paper §II-A / §III-A): a fetch unit with branch
// prediction that can follow a configurable number of jumps per cycle, a
// decode/rename stage, per-class issue windows (FX, FP, LS-address,
// branch), configurable functional units without internal pipelining, load
// and store buffers with store-to-load forwarding, a memory-access unit in
// front of the L1 cache, and a reorder buffer committing in order with
// exception checks at commit.
//
// One clock cycle executes the blocks in reverse pipeline order
// (commit -> complete -> memory -> issue -> decode -> fetch); completing
// a functional unit early in the cycle and re-filling it later implements
// the paper's "two sub-steps ... to allow the completion of the current
// instruction and the loading of the next one within a single clock
// cycle".
//
// Backward simulation (paper §III-B) builds on determinism: the whole
// simulation is fully determined by the (program, config) pair, so any
// earlier cycle is reachable by replaying forward from a known state. The
// paper replays from reset (O(n) per backward step); this implementation
// snapshots the complete simulation state into a CheckpointRing every K
// cycles, so StepBack restores the nearest checkpoint at or before the
// target and replays at most K cycles — O(K) per backward step, with
// re-execution from reset kept only as the checkpoints-disabled fallback.
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "assembler/decoded_program.h"
#include "assembler/loader.h"
#include "common/log.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "core/checkpoint_ring.h"
#include "core/inflight.h"
#include "core/rename.h"
#include "memory/memory_system.h"
#include "predictor/predictors.h"
#include "stats/simulation_statistics.h"

namespace rvss::core {

enum class SimStatus : std::uint8_t { kRunning, kFinished, kFault };
enum class FinishReason : std::uint8_t {
  kNone,
  kMainReturned,   ///< jump to the exit sentinel committed
  kHalted,         ///< ecall / ebreak committed
  kPipelineEmpty,  ///< fetch ran past the program and the pipeline drained
  kException,      ///< runtime exception committed
};

const char* ToString(SimStatus status);
const char* ToString(FinishReason reason);

using assembler::WindowKind;

/// Runtime state of one functional unit.
struct FunctionalUnit {
  /// Dense cache of config.LatencyFor over every isa::OpClass value, so
  /// the issue stage's unit scan is an array read, not a list search.
  static constexpr std::size_t kOpClassCount =
      static_cast<std::size_t>(isa::OpClass::kMemAddr) + 1;

  config::FunctionalUnitConfig config;
  std::array<std::uint32_t, kOpClassCount> latencyByClass{};
  std::size_t statsIndex = 0;     ///< index into statistics().unitUsage
  InFlightPtr current;            ///< instruction in execution, if any
  std::uint64_t busyUntil = 0;    ///< cycle the current instruction finishes
};

/// Architectural state a fast-forward deposited at the start of the
/// detailed window: the ISS-computed registers and PC the detailed model
/// was (re-)seeded with, plus the number of instructions skipped. Carried
/// by snapshots so an exported fast-forwarded session stays coherent when
/// imported into a fresh process (whose cycle-0 state is pre-fast-forward).
struct FastForwardSeed {
  std::array<std::uint64_t, 32> x{};
  std::array<std::uint64_t, 32> f{};
  std::uint32_t pc = 0;
  std::uint64_t instructions = 0;  ///< instructions executed on the ISS

  friend bool operator==(const FastForwardSeed&,
                         const FastForwardSeed&) = default;
};

/// Complete copyable snapshot of a Simulation's mutable state.
///
/// Every pipeline container holds deep copies of its InFlight entries —
/// cloned with aliasing preserved, so an instruction sitting in both the
/// ROB and a load buffer is one shared object inside the snapshot, but the
/// snapshot shares nothing with the live run. Restoring clones again, so
/// one snapshot can seed many restores (checkpoint ring, session forks).
struct SimSnapshot {
  std::uint64_t cycle = 0;
  std::uint64_t nextSeq = 1;
  std::uint32_t pc = 0;
  std::uint64_t fetchResumeCycle = 0;
  bool fetchStalledIndirect = false;
  SimStatus status = SimStatus::kRunning;
  FinishReason finishReason = FinishReason::kNone;
  std::optional<Error> fault;

  std::deque<InFlightPtr> fetchQueue;
  std::deque<InFlightPtr> rob;
  std::array<std::vector<InFlightPtr>, 4> windows;
  std::deque<InFlightPtr> loadBuffer;
  std::deque<InFlightPtr> storeBuffer;
  std::vector<InFlightPtr> fuCurrent;      ///< per functional unit
  std::vector<std::uint64_t> fuBusyUntil;  ///< per functional unit

  ArchRegisterFile::State arch;
  RenameState::State rename;
  predictor::PredictorUnit::State predictor;
  memory::MemorySystem::State memory;
  stats::SimulationStatistics::State stats;
  SimLog::State log;

  /// Set when the timeline this snapshot belongs to began with a
  /// fast-forward (see Simulation::FastForwardTo).
  std::optional<FastForwardSeed> ffSeed;

  /// Approximate heap footprint (checkpoint-ring memory accounting).
  std::size_t SizeBytes() const;
};

class Simulation {
 public:
  struct CreateOptions {
    std::vector<memory::ArrayDefinition> arrays;
    std::string entryLabel;
  };

  /// Validates the configuration, assembles `source`, lays out memory and
  /// constructs a ready-to-step simulation.
  static Result<std::unique_ptr<Simulation>> Create(
      const config::CpuConfig& config, std::string_view source,
      const CreateOptions& options = {});

  /// Advances one clock cycle. No-op once finished.
  void Step();

  /// Runs until completion or `maxCycles` more cycles.
  SimStatus Run(std::uint64_t maxCycles = UINT64_MAX);

  /// Backward simulation (paper §III-B): equivalent to SeekTo(cycle()-1).
  /// With checkpointing enabled this restores the nearest checkpoint and
  /// replays at most one interval. Fails at cycle 0, or when the replay
  /// would exceed `maxReplayCycles` (checkpoints disabled or evicted;
  /// servers pass their per-request bound).
  Status StepBack(std::uint64_t maxReplayCycles = UINT64_MAX);

  /// Seeks to an arbitrary cycle, backward or forward. Restores the best
  /// checkpoint at or before `targetCycle` (or hard-resets when none
  /// exists) and replays the remainder; replay stops early if the program
  /// finishes. `maxReplayCycles` bounds the replay distance: a seek that
  /// would need more returns an error without touching the state (servers
  /// use this to keep requests bounded).
  Status SeekTo(std::uint64_t targetCycle,
                std::uint64_t maxReplayCycles = UINT64_MAX);

  /// How many cycles SeekTo(targetCycle) would replay right now, from
  /// the same start SeekTo would pick (best checkpoint at or before the
  /// target, or the current position for a plain forward seek). Lets a
  /// server split one deep seek into several bounded SeekTo hops instead
  /// of rejecting it: seek to an intermediate cycle, let the checkpoint
  /// ring capture along the way, re-ask, repeat. Pure query — no state
  /// is touched, and a target SeekTo would reject (below the reachable
  /// window) still reports its nominal distance.
  std::uint64_t SeekReplayCost(std::uint64_t targetCycle) const;

  /// Resets to the initial state (cycle 0): restores the base checkpoint,
  /// or rebuilds from the initial memory image when checkpointing is off.
  /// The checkpoint ring itself survives — determinism keeps it valid.
  /// In an imported fast-forwarded session whose pre-import cycles are
  /// unreachable, this seeks to the earliest reachable cycle instead.
  void Reset();

  /// Skips the program's warm-up phase on the reference ISS: executes up
  /// to `instructionCount` instructions one at a time on the golden model
  /// (sharing this simulation's memory), then re-seeds the detailed model
  /// from the resulting architectural state. Cycle stays 0 — the detailed
  /// window starts *after* the skipped prefix, and all backward/forward
  /// seeking operates within it. Valid only on a freshly created or Reset
  /// simulation (cycle 0, running, not already fast-forwarded).
  ///
  /// If the program completes on the ISS (exit / halt / run-off / fault),
  /// the simulation finishes with the matching reason instead of resuming.
  /// Statistics record the skipped instructions separately
  /// (fastForwardedInstructions); they do not count as fetched/committed.
  Status FastForwardTo(std::uint64_t instructionCount);

  /// The fast-forward seed this timeline began with, if any.
  const std::optional<FastForwardSeed>& fastForwardSeed() const {
    return ffSeed_;
  }

  /// Cycles below this are not reachable by SeekTo/StepBack: non-zero only
  /// in sessions imported from a fast-forwarded export, where the blob's
  /// snapshot is the oldest state this process can reconstruct.
  std::uint64_t earliestReachableCycle() const {
    return earliestReachableCycle_;
  }

  // --- explicit state -------------------------------------------------------

  /// Captures the complete mutable state. The snapshot shares nothing with
  /// the live run (InFlight entries are deep-copied, aliasing preserved).
  SimSnapshot SaveState() const { return SaveStateImpl(true); }

  /// Restores a snapshot previously captured from an identical
  /// (program, config) pair. The snapshot itself is not consumed.
  void RestoreState(const SimSnapshot& snapshot);

  /// Deposits a checkpoint of the current state into the ring (the server's
  /// `saveCheckpoint` command); automatic checkpoints are taken by Step()
  /// every config().checkpoint.intervalCycles cycles. With
  /// config().checkpoint.deltaPages, checkpoints between full snapshots
  /// store only the memory pages dirtied since the last full one.
  void CaptureCheckpointNow();

  const CheckpointRing& checkpoints() const { return checkpoints_; }

  /// Cycles replayed by the most recent SeekTo/StepBack/Reset — the
  /// O(interval) claim, observable (tests and the stepback bench).
  std::uint64_t lastSeekReplayedCycles() const {
    return lastSeekReplayedCycles_;
  }

  // --- state inspection ----------------------------------------------------
  std::uint64_t cycle() const { return cycle_; }
  SimStatus status() const { return status_; }
  FinishReason finishReason() const { return finishReason_; }
  const std::optional<Error>& fault() const { return fault_; }
  std::uint32_t fetchPc() const { return pc_; }

  const config::CpuConfig& config() const { return config_; }
  const assembler::Program& program() const { return loaded_.program; }
  /// The per-PC decode both this core and its fast-forward ISS read.
  const assembler::DecodedProgram& decodedProgram() const { return decoded_; }
  const stats::SimulationStatistics& statistics() const { return stats_; }
  const memory::MemorySystem& memorySystem() const { return *memory_; }
  memory::MemorySystem& memorySystem() { return *memory_; }

  /// FNV-1a hash of the memory image a fresh Create of this (config,
  /// program) pair produces. Together with the config and program hashes
  /// it identifies the base that delta session blobs are encoded against.
  std::uint64_t memoryBaseEpoch() const { return memoryBaseEpoch_; }

  const ArchRegisterFile& archRegs() const { return arch_; }
  const RenameState& rename() const { return rename_; }
  const predictor::PredictorUnit& predictor() const { return predictor_; }
  SimLog& log() { return log_; }
  const SimLog& log() const { return log_; }

  const std::deque<InFlightPtr>& fetchQueue() const { return fetchQueue_; }
  const std::deque<InFlightPtr>& rob() const { return rob_; }
  const std::vector<InFlightPtr>& window(WindowKind kind) const {
    return windows_[static_cast<std::size_t>(kind)];
  }
  const std::deque<InFlightPtr>& loadBuffer() const { return loadBuffer_; }
  const std::deque<InFlightPtr>& storeBuffer() const { return storeBuffer_; }
  const std::vector<FunctionalUnit>& functionalUnits() const { return fus_; }

  /// Optional commit-order trace: every committed PC is appended to
  /// `sink` (tests and the backward-simulation determinism checks).
  void SetCommitTraceSink(std::vector<std::uint32_t>* sink) {
    commitTraceSink_ = sink;
  }

  /// Architectural value of an integer/FP register as seen at commit.
  std::uint64_t ReadIntReg(unsigned index) const {
    return arch_.Read(isa::RegisterId{isa::RegisterKind::kInt,
                                      static_cast<std::uint8_t>(index)});
  }
  std::uint64_t ReadFpReg(unsigned index) const {
    return arch_.Read(isa::RegisterId{isa::RegisterKind::kFp,
                                      static_cast<std::uint8_t>(index)});
  }

 private:
  Simulation(config::CpuConfig config, assembler::LoadedProgram loaded);

  /// Rebuilds the cycle-0 state from scratch (memory re-imaged). The
  /// checkpoints-disabled Reset path and the Create-time initializer.
  void ResetHard();

  /// SaveState body; `includeMemoryImage = false` leaves the memory byte
  /// image empty (delta checkpoints carry dirty pages instead — copying a
  /// multi-MiB image just to discard it would defeat their cost model).
  SimSnapshot SaveStateImpl(bool includeMemoryImage) const;

  /// Deposits an automatic checkpoint when the ring wants one.
  void MaybeCheckpoint();

  // Pipeline stages, in the order Step() runs them.
  void StageCommit();
  void StageComplete();
  void StageMemory();
  void StageIssue();
  void StageDecode();
  void StageFetch();

  // Helpers.
  void FinalizeAlu(const InFlightPtr& inst);
  void FinalizeAddressGen(const InFlightPtr& inst);
  void ResolveBranch(const InFlightPtr& inst,
                     std::vector<InFlightPtr>& mispredicts);
  void CompleteLoad(const InFlightPtr& inst);
  void WriteDestinations(const InFlightPtr& inst,
                         const expr::EvalResult& result);
  /// Single-destination write-back used by the FastForm ALU path.
  void WriteDest(const InFlightPtr& inst, int argIndex,
                 const expr::Value& value);
  void WakeUp(int tag, std::uint64_t cell);
  void FlushYoungerThan(std::uint64_t seq, std::uint32_t newPc);
  void Finish(FinishReason reason);
  bool StoreDataReady(const InFlight& inst) const;
  std::uint64_t StoreRawData(const InFlight& inst) const;
  /// Copies the captured operand values into `scratch` and returns the
  /// populated prefix — the hot-path replacement for the old
  /// vector-returning GatherArgs (no allocation).
  std::span<const expr::Value> GatherArgs(
      const InFlight& inst, std::array<expr::Value, 4>& scratch) const;
  config::FunctionalUnitConfig::Kind FuKindFor(WindowKind kind) const;

  /// Installs a fast-forward seed's registers, PC and stats annotation
  /// into the current (freshly reset) state.
  void ApplyFastForwardSeed(const FastForwardSeed& seed);

  const assembler::DecodedOp& Decoded(const InFlight& inst) const {
    return decoded_[static_cast<std::size_t>(
        inst.inst - loaded_.program.instructions.data())];
  }

  config::CpuConfig config_;                       // snapshot: derived
  assembler::LoadedProgram loaded_;                // snapshot: derived
  std::vector<std::uint8_t> initialMemoryImage_;   // snapshot: derived
  std::uint64_t memoryBaseEpoch_ = 0;              // snapshot: derived
  /// Parallel to loaded_.program.instructions (pc = 4*i); shared with the
  /// fast-forward ISS. Derived entirely from the immutable (program, ISA)
  /// pair: never snapshotted, never invalidated, zero ring/snapshot bytes.
  assembler::DecodedProgram decoded_;  // snapshot: derived
  /// Reusable evaluation scratch for the execution finalizers; its writes
  /// vector keeps its capacity across cycles (see expr::EvaluateInto).
  expr::EvalResult evalScratch_;  // snapshot: derived

  std::unique_ptr<memory::MemorySystem> memory_;
  predictor::PredictorUnit predictor_;
  ArchRegisterFile arch_;
  RenameState rename_;
  stats::SimulationStatistics stats_;
  SimLog log_;

  std::uint64_t cycle_ = 0;
  std::uint64_t nextSeq_ = 1;
  std::uint32_t pc_ = 0;
  std::uint64_t fetchResumeCycle_ = 0;  ///< flush-penalty stall
  bool fetchStalledIndirect_ = false;   ///< waiting for a BTB-miss jalr
  SimStatus status_ = SimStatus::kRunning;
  FinishReason finishReason_ = FinishReason::kNone;
  std::optional<Error> fault_;

  std::deque<InFlightPtr> fetchQueue_;
  std::deque<InFlightPtr> rob_;
  std::array<std::vector<InFlightPtr>, 4> windows_;
  std::deque<InFlightPtr> loadBuffer_;
  std::deque<InFlightPtr> storeBuffer_;
  std::vector<FunctionalUnit> fus_;
  /// Indices into fus_ of the units each issue window can dispatch to,
  /// grouped once at construction (issue never scans foreign-kind units).
  std::array<std::vector<std::uint32_t>, 4> fusByWindow_;  // snapshot: derived
  std::vector<std::uint32_t>* commitTraceSink_ = nullptr;  // snapshot: derived

  CheckpointRing checkpoints_;                 // snapshot: derived
  std::uint64_t lastSeekReplayedCycles_ = 0;   // snapshot: derived

  // --- fast-forward bookkeeping --------------------------------------------
  /// Seed the detailed window started from (see FastForwardTo); applied by
  /// ResetHard so cycle 0 rebuilds the post-fast-forward state.
  std::optional<FastForwardSeed> ffSeed_;
  /// See earliestReachableCycle().
  std::uint64_t earliestReachableCycle_ = 0;  // snapshot: derived

  // --- delta-checkpoint bookkeeping ----------------------------------------
  /// The full snapshot deltas patch against.
  std::shared_ptr<const SimSnapshot> lastFullCheckpoint_;  // snapshot: derived
  /// Pages dirtied since lastFullCheckpoint_ (per-interval dirt folded in
  /// at each capture).
  std::vector<std::uint8_t> dirtySinceFull_;  // snapshot: derived
  std::uint64_t deltasSinceFull_ = 0;         // snapshot: derived
  /// Restores invalidate the dirty accounting, so the next capture must be
  /// a full snapshot.
  bool forceFullCheckpoint_ = true;  // snapshot: derived
};

}  // namespace rvss::core
