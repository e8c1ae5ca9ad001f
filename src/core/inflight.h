// In-flight instruction state — everything the GUI's instruction pop-up
// shows (paper Fig. 3): parameter values and validity, renaming details,
// flags, and the timestamps of each completed pipeline phase.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "assembler/program.h"
#include "common/status.h"
#include "config/cpu_config.h"
#include "expr/value.h"

namespace rvss::core {

enum class Phase : std::uint8_t {
  kFetched,    ///< sitting in the fetch queue
  kDecoded,    ///< renamed, waiting in an issue window / LS buffer
  kExecuting,  ///< occupying a functional unit
  kDone,       ///< results ready, waiting for in-order commit
  kCommitted,
  kSquashed,   ///< killed by a flush (its slot is released at once)
};

const char* ToString(Phase phase);

/// Runtime state of one operand slot (parallel to the definition's args).
/// Widest fields first: four of these sit in every pool slot, and every
/// checkpoint copies the pool.
struct OperandRuntime {
  expr::Value value;       ///< captured source value / computed result
  int waitTag = -1;        ///< speculative register this source waits on
  int destTag = -1;        ///< allocated speculative register (-1: discard x0)
  int prevTag = -1;        ///< previous mapping of the dest architectural
                           ///< register (-2 = was architectural)
  bool isSource = false;   ///< source register operand
  bool isDest = false;     ///< write-back register operand
  bool ready = true;       ///< source value captured (immediates start ready)
};

/// Sentinel for OperandRuntime::prevTag: the architectural register was not
/// renamed before this instruction.
inline constexpr int kPrevWasArchitectural = -2;

/// One dynamic instruction flowing through the pipeline.
struct InFlight {
  std::uint64_t seq = 0;  ///< program-order sequence number
  const assembler::Instruction* inst = nullptr;
  std::uint32_t pc = 0;
  Phase phase = Phase::kFetched;

  std::array<OperandRuntime, 4> operands{};
  std::uint8_t operandCount = 0;

  // --- speculation state ---------------------------------------------------
  bool isControl = false;
  bool predictedTaken = false;
  std::uint32_t predictedNextPc = 0;  ///< PC fetch continued from
  std::uint32_t historyCheckpoint = 0;
  bool btbHit = false;

  // --- resolution ------------------------------------------------------------
  bool branchTaken = false;
  std::uint32_t branchTarget = 0;
  bool mispredicted = false;
  bool isExit = false;  ///< jump landed on the exit sentinel

  // --- memory ---------------------------------------------------------------
  bool addressReady = false;
  std::uint32_t effectiveAddress = 0;
  bool memoryStarted = false;   ///< access handed to a memory unit
  bool memoryDone = false;      ///< load data fetched / store drained
  bool cacheHit = false;
  bool forwarded = false;       ///< load satisfied by store-to-load forwarding
  std::uint64_t forwardedRaw = 0;
  bool drainPending = false;    ///< store committed, awaiting its write timing
  bool drainStarted = false;
  bool stalledFetch = false;    ///< jalr that stopped fetch on a BTB miss

  // --- completion -------------------------------------------------------------
  bool resultsReady = false;
  std::optional<Error> exception;

  // --- timestamps (cycle numbers; 0 = not reached) ---------------------------
  std::uint64_t fetchCycle = 0;
  std::uint64_t decodeCycle = 0;
  std::uint64_t issueCycle = 0;
  std::uint64_t executeDoneCycle = 0;
  std::uint64_t commitCycle = 0;

  bool IsLoad() const { return inst->def->mem.isLoad; }
  bool IsStore() const { return inst->def->mem.isStore; }
};

/// Index of an instruction in its PipelineState's pool. 16 bits suffice:
/// config::Validate keeps the pool cap (below) at most 4096 + 32 + 4096.
using Slot = std::uint16_t;
/// No instruction: an idle functional unit.
inline constexpr Slot kNoSlot = 0xffff;

/// Every in-flight instruction plus every pipeline container that holds
/// one. Containers hold pool slots, so an instruction sitting in the ROB
/// and the load buffer is one pool entry, and a copy of this value is a
/// complete, independent copy of the pipeline.
///
/// A slot is taken at fetch and released at exactly three points: a
/// non-store commits; a committed store's drain completes; a flush
/// squashes it (from the fetch queue, or in the youngest-first ROB walk).
struct PipelineState {
  std::vector<InFlight> pool;
  /// Released slots, reused last-in first-out. Decode rebuilds it empty:
  /// an imported pool holds exactly the live instructions.
  std::vector<Slot> freeList;  // snapshot: derived
  std::deque<Slot> fetchQueue;
  std::deque<Slot> rob;
  std::array<std::vector<Slot>, 4> windows;
  std::deque<Slot> loadBuffer;
  std::deque<Slot> storeBuffer;
  std::vector<Slot> fuCurrent;             ///< per functional unit
  std::vector<std::uint64_t> fuBusyUntil;  ///< per functional unit

  /// The structural bound on live instructions, which the pool never
  /// outgrows: the fetch queue holds at most 2*fetchWidth - 1, plus the
  /// ROB, plus committed stores still draining from the store buffer.
  static std::size_t Capacity(const config::CpuConfig& config) {
    return std::size_t{config.buffers.robSize} +
           2 * std::size_t{config.buffers.fetchWidth} +
           config.memory.storeBufferSize;
  }

  InFlight& operator[](Slot slot) { return pool[slot]; }
  const InFlight& operator[](Slot slot) const { return pool[slot]; }

  /// A slot holding a default InFlight: a released one when any, else a
  /// new one at the end of the pool.
  Slot Allocate() {
    if (freeList.empty()) {
      pool.emplace_back();
      return static_cast<Slot>(pool.size() - 1);
    }
    const Slot slot = freeList.back();
    freeList.pop_back();
    pool[slot] = InFlight{};
    return slot;
  }
  void Release(Slot slot) { freeList.push_back(slot); }
};

}  // namespace rvss::core
