#include "snapshot/codec.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "json/json.h"
#include "memory/main_memory.h"
#include "snapshot/wire.h"

namespace rvss::snapshot {
namespace {

constexpr char kMagic[4] = {'R', 'V', 'S', 'P'};
/// magic + version + configHash + programHash + payloadHash + payloadSize.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;
constexpr std::uint32_t kNullIndex = 0xffffffffu;

std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t Fnv1aU64(std::uint64_t value, std::uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

Error CodecError(std::string message) {
  return Error{ErrorKind::kInvalidArgument,
               "snapshot decode: " + std::move(message)};
}

// --- shared field helpers ---------------------------------------------------

void EncodeError(Writer& w, const Error& error) {
  w.U8(static_cast<std::uint8_t>(error.kind));
  w.Str(error.message);
  w.U32(error.pos.line);
  w.U32(error.pos.column);
}

bool DecodeError(Reader& r, Error& error) {
  const std::uint8_t kind = r.U8();
  if (kind > static_cast<std::uint8_t>(ErrorKind::kInternal)) return false;
  error.kind = static_cast<ErrorKind>(kind);
  error.message = r.Str();
  error.pos.line = r.U32();
  error.pos.column = r.U32();
  return r.ok();
}

void EncodeOptionalError(Writer& w, const std::optional<Error>& error) {
  w.Bool(error.has_value());
  if (error.has_value()) EncodeError(w, *error);
}

bool DecodeOptionalError(Reader& r, std::optional<Error>& error) {
  if (!r.Bool()) {
    error.reset();
    return r.ok();
  }
  Error decoded;
  if (!DecodeError(r, decoded)) return false;
  error = std::move(decoded);
  return true;
}

// --- in-flight instruction table --------------------------------------------

/// The wire's in-flight table: every pool slot the containers reference,
/// numbered in first-seen order (fetch queue, ROB, windows, load buffer,
/// store buffer, functional units). Containers then serialize as index
/// lists, so an instruction held by two containers is one table entry.
struct InFlightTable {
  explicit InFlightTable(const core::PipelineState& pipeline)
      : wireIndex(pipeline.pool.size(), kNullIndex) {
    auto visit = [this](core::Slot slot) {
      if (slot == core::kNoSlot || wireIndex[slot] != kNullIndex) return;
      wireIndex[slot] = static_cast<std::uint32_t>(entries.size());
      entries.push_back(slot);
    };
    for (const core::Slot slot : pipeline.fetchQueue) visit(slot);
    for (const core::Slot slot : pipeline.rob) visit(slot);
    for (const auto& window : pipeline.windows) {
      for (const core::Slot slot : window) visit(slot);
    }
    for (const core::Slot slot : pipeline.loadBuffer) visit(slot);
    for (const core::Slot slot : pipeline.storeBuffer) visit(slot);
    for (const core::Slot slot : pipeline.fuCurrent) visit(slot);
  }

  std::uint32_t IndexOf(core::Slot slot) const {
    return slot == core::kNoSlot ? kNullIndex : wireIndex[slot];
  }

  std::vector<core::Slot> entries;       ///< wire index -> slot
  std::vector<std::uint32_t> wireIndex;  ///< slot -> wire index
};

void EncodeInFlight(Writer& w, const core::InFlight& inst,
                    const assembler::Program& program) {
  w.U64(inst.seq);
  w.U32(static_cast<std::uint32_t>(inst.inst - program.instructions.data()));
  w.U32(inst.pc);
  w.U8(static_cast<std::uint8_t>(inst.phase));

  std::uint16_t flags = 0;
  const bool bits[] = {inst.isControl,     inst.predictedTaken,
                       inst.btbHit,        inst.branchTaken,
                       inst.mispredicted,  inst.isExit,
                       inst.addressReady,  inst.memoryStarted,
                       inst.memoryDone,    inst.cacheHit,
                       inst.forwarded,     inst.drainPending,
                       inst.drainStarted,  inst.stalledFetch,
                       inst.resultsReady};
  for (std::size_t i = 0; i < std::size(bits); ++i) {
    if (bits[i]) flags |= static_cast<std::uint16_t>(1u << i);
  }
  w.U16(flags);

  w.U32(inst.predictedNextPc);
  w.U32(inst.historyCheckpoint);
  w.U32(inst.branchTarget);
  w.U32(inst.effectiveAddress);
  w.U64(inst.forwardedRaw);
  EncodeOptionalError(w, inst.exception);
  w.U64(inst.fetchCycle);
  w.U64(inst.decodeCycle);
  w.U64(inst.issueCycle);
  w.U64(inst.executeDoneCycle);
  w.U64(inst.commitCycle);

  w.U8(inst.operandCount);
  for (std::size_t i = 0; i < inst.operandCount; ++i) {
    const core::OperandRuntime& operand = inst.operands[i];
    std::uint8_t opFlags = 0;
    if (operand.isSource) opFlags |= 1;
    if (operand.isDest) opFlags |= 2;
    if (operand.ready) opFlags |= 4;
    w.U8(opFlags);
    w.U8(static_cast<std::uint8_t>(operand.value.kind()));
    w.U64(operand.value.bits());
    w.I32(operand.waitTag);
    w.I32(operand.destTag);
    w.I32(operand.prevTag);
  }
}

/// Decodes one InFlight into `inst`; `renameCount` bounds the rename tags
/// so a hostile blob cannot plant tags that index out of the speculative
/// register file.
Status DecodeInFlight(Reader& r, const assembler::Program& program,
                      std::uint32_t renameCount, core::InFlight& inst) {
  inst.seq = r.U64();
  const std::uint32_t instIndex = r.U32();
  if (r.ok() && instIndex >= program.instructions.size()) {
    return CodecError("in-flight instruction index out of range");
  }
  inst.inst = r.ok() ? &program.instructions[instIndex] : nullptr;
  inst.pc = r.U32();
  const std::uint8_t phase = r.U8();
  if (phase > static_cast<std::uint8_t>(core::Phase::kSquashed)) {
    return CodecError("in-flight phase out of range");
  }
  inst.phase = static_cast<core::Phase>(phase);

  const std::uint16_t flags = r.U16();
  bool* bits[] = {&inst.isControl,     &inst.predictedTaken,
                  &inst.btbHit,        &inst.branchTaken,
                  &inst.mispredicted,  &inst.isExit,
                  &inst.addressReady,  &inst.memoryStarted,
                  &inst.memoryDone,    &inst.cacheHit,
                  &inst.forwarded,     &inst.drainPending,
                  &inst.drainStarted,  &inst.stalledFetch,
                  &inst.resultsReady};
  for (std::size_t i = 0; i < std::size(bits); ++i) {
    *bits[i] = (flags & (1u << i)) != 0;
  }

  inst.predictedNextPc = r.U32();
  inst.historyCheckpoint = r.U32();
  inst.branchTarget = r.U32();
  inst.effectiveAddress = r.U32();
  inst.forwardedRaw = r.U64();
  if (!DecodeOptionalError(r, inst.exception)) {
    return CodecError("malformed in-flight exception");
  }
  inst.fetchCycle = r.U64();
  inst.decodeCycle = r.U64();
  inst.issueCycle = r.U64();
  inst.executeDoneCycle = r.U64();
  inst.commitCycle = r.U64();

  inst.operandCount = r.U8();
  if (inst.operandCount > inst.operands.size()) {
    return CodecError("in-flight operand count out of range");
  }
  const auto validTag = [renameCount](std::int32_t tag, std::int32_t minimum) {
    return tag >= minimum && tag < static_cast<std::int32_t>(renameCount);
  };
  for (std::size_t i = 0; i < inst.operandCount; ++i) {
    core::OperandRuntime& operand = inst.operands[i];
    const std::uint8_t opFlags = r.U8();
    operand.isSource = (opFlags & 1) != 0;
    operand.isDest = (opFlags & 2) != 0;
    operand.ready = (opFlags & 4) != 0;
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(expr::ValueKind::kBool)) {
      return CodecError("operand value kind out of range");
    }
    operand.value =
        expr::Value::FromRaw(static_cast<expr::ValueKind>(kind), r.U64());
    operand.waitTag = r.I32();
    operand.destTag = r.I32();
    operand.prevTag = r.I32();
    if (r.ok() && (!validTag(operand.waitTag, -1) ||
                   !validTag(operand.destTag, -1) ||
                   !validTag(operand.prevTag, core::kPrevWasArchitectural))) {
      return CodecError("operand rename tag out of range");
    }
  }
  if (!r.ok()) return CodecError(r.failReason());
  return Status::Ok();
}

// --- container index lists --------------------------------------------------

template <typename Container>
void EncodeIndexList(Writer& w, const Container& container,
                     const InFlightTable& table) {
  w.U32(static_cast<std::uint32_t>(container.size()));
  for (const core::Slot slot : container) w.U32(table.IndexOf(slot));
}

/// Decodes an index list into `out` (deque or vector of slots; table entry
/// i is pool slot i) and counts, per entry, the containers holding it in
/// `holders`.
/// `allowNull` admits the null sentinel (functional units only).
/// `maxSize` caps the list at the live container's configured capacity,
/// and duplicates within one list are rejected (a pipeline container
/// never holds the same instruction twice — aliasing is only legitimate
/// *across* containers), so a checksum-correct but hostile blob cannot
/// oversize a buffer or double-commit an instruction.
template <typename Container>
Status DecodeIndexList(Reader& r, std::vector<std::uint8_t>& holders,
                       bool allowNull, std::size_t maxSize, Container& out) {
  const std::uint32_t count = r.Count(4);
  if (r.ok() && count > maxSize) {
    return CodecError("container larger than its configured capacity");
  }
  std::vector<bool> seen(holders.size(), false);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t index = r.U32();
    if (!r.ok()) break;
    if (index == kNullIndex) {
      if (!allowNull) return CodecError("unexpected null in-flight reference");
      out.push_back(core::kNoSlot);
      continue;
    }
    if (index >= holders.size()) {
      return CodecError("in-flight table index out of range");
    }
    if (seen[index]) {
      return CodecError("duplicate in-flight reference within one container");
    }
    seen[index] = true;
    ++holders[index];
    out.push_back(static_cast<core::Slot>(index));
  }
  if (!r.ok()) return CodecError(r.failReason());
  return Status::Ok();
}

}  // namespace

// --- hashes -----------------------------------------------------------------

std::uint64_t ConfigHash(const config::CpuConfig& config) {
  // Checkpoint settings and the display name tune ring behaviour and UI
  // labels, not simulation state, so they are normalized out: a server may
  // clamp a session's checkpoint budget on import without breaking blobs.
  // The checkpoint block is replaced by the constant every hash was
  // recorded with — the defaults of the five keys it once had — so blobs
  // exported before three of them were retired still import.
  static const json::Json kLegacyCheckpointDefaults =
      json::Parse(R"({"intervalCycles":1024,"maxTotalBytes":67108864,)"
                  R"("deltaPages":true,"fullSnapshotEvery":16,)"
                  R"("adaptiveInterval":false})")
          .value();
  config::CpuConfig normalized = config;
  normalized.name.clear();
  json::Json document = config::ToJson(normalized);
  document.Set("checkpoint", kLegacyCheckpointDefaults);
  return Fnv1a(document.Dump());
}

std::uint64_t ProgramHash(const assembler::Program& program) {
  std::uint64_t hash = Fnv1aU64(program.instructions.size(),
                                14695981039346656037ull);
  for (const assembler::Instruction& inst : program.instructions) {
    hash = Fnv1a(inst.text, hash);
    hash = Fnv1aU64(inst.pc, hash);
  }
  hash = Fnv1aU64(program.entryPc, hash);
  hash = Fnv1aU64(program.dataBase, hash);
  if (!program.dataImage.empty()) {
    hash = Fnv1a(std::string_view(
                     reinterpret_cast<const char*>(program.dataImage.data()),
                     program.dataImage.size()),
                 hash);
  }
  return hash;
}

// --- encode -----------------------------------------------------------------

std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context) {
  return EncodeSnapshot(snapshot, context, EncodeOptions{});
}

std::string EncodeSnapshot(const core::SimSnapshot& snapshot,
                           const CodecContext& context,
                           const EncodeOptions& options) {
  const assembler::Program& program = *context.program;
  const std::uint32_t formatVersion =
      std::clamp(options.formatVersion, kMinFormatVersion, kFormatVersion);
  Writer w;

  // Scalars.
  w.U64(snapshot.cycle);
  w.U64(snapshot.nextSeq);
  w.U32(snapshot.pc);
  w.U64(snapshot.fetchResumeCycle);
  w.Bool(snapshot.fetchStalledIndirect);
  w.U8(static_cast<std::uint8_t>(snapshot.status));
  w.U8(static_cast<std::uint8_t>(snapshot.finishReason));
  EncodeOptionalError(w, snapshot.fault);

  // Fast-forward seed (v2): the ISS architectural state the detailed
  // window was seeded from, when this session used FastForwardTo.
  w.Bool(snapshot.ffSeed.has_value());
  if (snapshot.ffSeed.has_value()) {
    for (const std::uint64_t cell : snapshot.ffSeed->x) w.U64(cell);
    for (const std::uint64_t cell : snapshot.ffSeed->f) w.U64(cell);
    w.U32(snapshot.ffSeed->pc);
    w.U64(snapshot.ffSeed->instructions);
  }

  // In-flight table + containers as index lists.
  const core::PipelineState& pipeline = snapshot.pipeline;
  const InFlightTable table(pipeline);
  w.U32(static_cast<std::uint32_t>(table.entries.size()));
  for (const core::Slot slot : table.entries) {
    EncodeInFlight(w, pipeline.pool[slot], program);
  }
  EncodeIndexList(w, pipeline.fetchQueue, table);
  EncodeIndexList(w, pipeline.rob, table);
  for (const auto& window : pipeline.windows) {
    EncodeIndexList(w, window, table);
  }
  EncodeIndexList(w, pipeline.loadBuffer, table);
  EncodeIndexList(w, pipeline.storeBuffer, table);
  EncodeIndexList(w, pipeline.fuCurrent, table);
  w.U32(static_cast<std::uint32_t>(pipeline.fuBusyUntil.size()));
  for (const std::uint64_t busy : pipeline.fuBusyUntil) w.U64(busy);

  // Architectural registers.
  for (const std::uint64_t cell : snapshot.arch.x) w.U64(cell);
  for (const std::uint64_t cell : snapshot.arch.f) w.U64(cell);

  // Rename state.
  w.U32(static_cast<std::uint32_t>(snapshot.rename.regs.size()));
  for (const core::SpecRegister& reg : snapshot.rename.regs) {
    w.Bool(reg.inUse);
    w.Bool(reg.valid);
    w.U64(reg.cell);
    w.U8(static_cast<std::uint8_t>(reg.arch.kind));
    w.U8(reg.arch.index);
    w.U32(reg.references);
  }
  w.U32(static_cast<std::uint32_t>(snapshot.rename.freeList.size()));
  for (const int tag : snapshot.rename.freeList) w.I32(tag);
  w.U32(snapshot.rename.freeCount);
  for (const int tag : snapshot.rename.map) w.I32(tag);

  // Predictor.
  w.U32(static_cast<std::uint32_t>(snapshot.predictor.pht.entries.size()));
  for (const auto& entry : snapshot.predictor.pht.entries) {
    w.U32(entry.state());
  }
  w.U32(static_cast<std::uint32_t>(snapshot.predictor.btb.entries.size()));
  for (const auto& entry : snapshot.predictor.btb.entries) {
    w.Bool(entry.valid);
    w.U32(entry.pc);
    w.U32(entry.target);
  }
  w.U32(snapshot.predictor.globalHistory);
  w.U32(static_cast<std::uint32_t>(snapshot.predictor.localHistories.size()));
  for (const std::uint32_t history : snapshot.predictor.localHistories) {
    w.U32(history);
  }

  // Memory system: the full image (the base with the snapshot's pages
  // overlaid) or, in v3 delta mode, only the pages dirtied since the base;
  // then cache residency and statistics.
  constexpr std::uint32_t kPage = memory::MainMemory::kPageSizeBytes;
  const memory::MainMemory::State& memoryState = snapshot.memory.memory;
  const std::uint32_t totalSize = context.config->memory.sizeBytes;
  const bool deltaMemory = formatVersion >= 3 && options.deltaMemory;
  if (formatVersion >= 3) {
    w.U8(deltaMemory ? 1 : 0);
  }
  if (deltaMemory) {
    w.U64(options.baseEpoch);
    w.U32(totalSize);
    w.U32(static_cast<std::uint32_t>(memoryState.pages.size()));
    for (std::size_t i = 0; i < memoryState.pages.size(); ++i) {
      const std::uint32_t page = memoryState.pages[i];
      w.U32(page);
      w.Bytes(memoryState.pageBytes.data() + i * kPage,
              std::min(kPage, totalSize - page * kPage));
    }
  } else {
    std::vector<std::uint8_t> image(totalSize);
    memoryState.CopyImageTo(image);
    w.U32(totalSize);
    w.Bytes(image.data(), image.size());
  }
  w.Bool(snapshot.memory.cache.has_value());
  if (snapshot.memory.cache.has_value()) {
    const auto& cache = *snapshot.memory.cache;
    w.U32(static_cast<std::uint32_t>(cache.lines.size()));
    for (const auto& line : cache.lines) {
      w.Bool(line.valid);
      w.Bool(line.dirty);
      w.U32(line.tag);
      w.U64(line.lastUse);
      w.U64(line.insertTime);
    }
    for (const std::uint64_t word : cache.rng.SaveState()) w.U64(word);
    w.U64(cache.insertCounter);
  }
  const memory::MemoryStats& memStats = snapshot.memory.stats;
  w.U64(memStats.accesses);
  w.U64(memStats.loads);
  w.U64(memStats.stores);
  w.U64(memStats.cacheHits);
  w.U64(memStats.cacheMisses);
  w.U64(memStats.evictions);
  w.U64(memStats.dirtyEvictions);
  w.U64(memStats.bytesReadFromMemory);
  w.U64(memStats.bytesWrittenToMemory);
  w.U64(snapshot.memory.nextTransactionId);

  // Simulation statistics.
  const stats::SimulationStatistics& s = snapshot.stats;
  w.U64(s.cycles);
  w.U64(s.fetchedInstructions);
  w.U64(s.decodedInstructions);
  w.U64(s.issuedInstructions);
  w.U64(s.executedInstructions);
  w.U64(s.committedInstructions);
  w.U64(s.squashedInstructions);
  w.U64(s.fastForwardedInstructions);
  w.U64(s.robFlushes);
  w.U64(s.branchesResolved);
  w.U64(s.branchesMispredicted);
  w.U64(s.branchesTaken);
  w.U64(s.btbHits);
  w.U64(s.btbLookups);
  w.U64(s.flops);
  for (const std::uint64_t count : s.staticMix) w.U64(count);
  for (const std::uint64_t count : s.dynamicMix) w.U64(count);
  w.U32(static_cast<std::uint32_t>(s.unitUsage.size()));
  for (const stats::UnitUsage& usage : s.unitUsage) {
    w.Str(usage.name);
    w.U64(usage.busyCycles);
    w.U64(usage.instructions);
  }
  w.U64(s.stallCyclesRobFull);
  w.U64(s.stallCyclesRenameFull);
  w.U64(s.stallCyclesWindowFull);
  w.U64(s.stallCyclesLsBufferFull);

  // Log.
  w.U32(static_cast<std::uint32_t>(snapshot.log.entries.size()));
  for (const LogEntry& entry : snapshot.log.entries) {
    w.U64(entry.cycle);
    w.U8(static_cast<std::uint8_t>(entry.level));
    w.Str(entry.block);
    w.Str(entry.text);
  }

  // Header + payload.
  const std::string payload = w.Take();
  Writer header;
  header.Bytes(kMagic, sizeof(kMagic));
  header.U32(formatVersion);
  header.U64(ConfigHash(*context.config));
  header.U64(ProgramHash(program));
  header.U64(Fnv1a(payload));
  header.U64(payload.size());
  std::string out = header.Take();
  out += payload;
  return out;
}

// --- decode -----------------------------------------------------------------

Result<core::SimSnapshot> DecodeSnapshot(std::string_view blob,
                                         const CodecContext& context) {
  const config::CpuConfig& config = *context.config;
  const assembler::Program& program = *context.program;

  if (blob.size() < kHeaderBytes) {
    return CodecError("blob shorter than the snapshot header");
  }
  Reader r(blob);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return CodecError("bad magic (not a snapshot blob)");
  }
  const std::uint32_t version = r.U32();
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return CodecError(
        StrFormat("unsupported format version %u (this build reads %u..%u)",
                  version, kMinFormatVersion, kFormatVersion));
  }
  if (r.U64() != ConfigHash(config)) {
    return CodecError(
        "configuration hash mismatch (snapshot taken with a different "
        "architecture configuration)");
  }
  if (r.U64() != ProgramHash(program)) {
    return CodecError(
        "program hash mismatch (snapshot taken with a different program)");
  }
  const std::uint64_t payloadHash = r.U64();
  const std::uint64_t payloadSize = r.U64();
  if (payloadSize != blob.size() - kHeaderBytes) {
    return CodecError("payload size mismatch (truncated or padded blob)");
  }
  if (Fnv1a(blob.substr(kHeaderBytes)) != payloadHash) {
    return CodecError("payload checksum mismatch (corrupted blob)");
  }

  core::SimSnapshot snapshot;
  snapshot.cycle = r.U64();
  snapshot.nextSeq = r.U64();
  snapshot.pc = r.U32();
  snapshot.fetchResumeCycle = r.U64();
  snapshot.fetchStalledIndirect = r.Bool();
  const std::uint8_t status = r.U8();
  if (status > static_cast<std::uint8_t>(core::SimStatus::kFault)) {
    return CodecError("simulation status out of range");
  }
  snapshot.status = static_cast<core::SimStatus>(status);
  const std::uint8_t finishReason = r.U8();
  if (finishReason > static_cast<std::uint8_t>(core::FinishReason::kException)) {
    return CodecError("finish reason out of range");
  }
  snapshot.finishReason = static_cast<core::FinishReason>(finishReason);
  if (!DecodeOptionalError(r, snapshot.fault)) {
    return CodecError("malformed fault record");
  }

  // Fast-forward seed (v2).
  if (r.Bool()) {
    core::FastForwardSeed seed;
    for (std::uint64_t& cell : seed.x) cell = r.U64();
    for (std::uint64_t& cell : seed.f) cell = r.U64();
    seed.pc = r.U32();
    seed.instructions = r.U64();
    snapshot.ffSeed = seed;
  }

  // In-flight table: entry i becomes pool slot i, and the free list stays
  // empty — the imported pool holds exactly the live instructions.
  const std::uint32_t renameCount = config.memory.renameRegisterCount;
  const std::uint32_t tableCount = r.Count(40);
  if (r.ok() && tableCount > core::PipelineState::Capacity(config)) {
    return CodecError("in-flight table larger than the pipeline can hold");
  }
  core::PipelineState& pipeline = snapshot.pipeline;
  pipeline.pool.resize(tableCount);
  for (core::InFlight& inst : pipeline.pool) {
    RVSS_RETURN_IF_ERROR(DecodeInFlight(r, program, renameCount, inst));
  }
  std::vector<std::uint8_t> holders(tableCount, 0);
  // StageFetch tops the queue up by one fetch group past the width check,
  // so the live fetch queue can briefly hold up to 2*fetchWidth - 1.
  RVSS_RETURN_IF_ERROR(DecodeIndexList(
      r, holders, false, std::size_t{2} * config.buffers.fetchWidth,
      pipeline.fetchQueue));
  RVSS_RETURN_IF_ERROR(DecodeIndexList(r, holders, false,
                                       config.buffers.robSize, pipeline.rob));
  for (auto& window : pipeline.windows) {
    RVSS_RETURN_IF_ERROR(DecodeIndexList(
        r, holders, false, config.buffers.issueWindowSize, window));
  }
  RVSS_RETURN_IF_ERROR(DecodeIndexList(r, holders, false,
                                       config.memory.loadBufferSize,
                                       pipeline.loadBuffer));
  RVSS_RETURN_IF_ERROR(DecodeIndexList(r, holders, false,
                                       config.memory.storeBufferSize,
                                       pipeline.storeBuffer));
  RVSS_RETURN_IF_ERROR(DecodeIndexList(r, holders, true,
                                       config.functionalUnits.size(),
                                       pipeline.fuCurrent));
  // An entry no container holds would be a slot neither live nor free.
  // The cross-container rules a live pipeline never breaks: an instruction
  // in the fetch queue is held by nothing else, and one in an issue window
  // or the load buffer is also in the ROB (only committed stores sit
  // outside it, in the store buffer or a unit). A blob breaking them would
  // have a flush release one slot twice.
  if (r.ok()) {
    if (std::find(holders.begin(), holders.end(), 0) != holders.end()) {
      return CodecError("in-flight table entry referenced by no container");
    }
    std::vector<bool> inRob(tableCount, false);
    for (const core::Slot slot : pipeline.rob) inRob[slot] = true;
    const auto outsideRob = [&inRob](const auto& container) {
      return std::any_of(container.begin(), container.end(),
                         [&inRob](core::Slot slot) { return !inRob[slot]; });
    };
    const auto sharedFetch = [&holders](core::Slot slot) {
      return holders[slot] > 1;
    };
    if (std::any_of(pipeline.fetchQueue.begin(), pipeline.fetchQueue.end(),
                    sharedFetch)) {
      return CodecError("fetch-queue entry also held by another container");
    }
    if (outsideRob(pipeline.loadBuffer) ||
        std::any_of(pipeline.windows.begin(), pipeline.windows.end(),
                    outsideRob)) {
      return CodecError(
          "issue-window or load-buffer entry missing from the ROB");
    }
  }
  const std::uint32_t fuCount = r.Count(8);
  if (r.ok() && (pipeline.fuCurrent.size() != config.functionalUnits.size() ||
                 fuCount != config.functionalUnits.size())) {
    return CodecError("functional-unit count does not match configuration");
  }
  pipeline.fuBusyUntil.reserve(fuCount);
  for (std::uint32_t i = 0; i < fuCount; ++i) {
    pipeline.fuBusyUntil.push_back(r.U64());
  }

  // Architectural registers.
  for (std::uint64_t& cell : snapshot.arch.x) cell = r.U64();
  for (std::uint64_t& cell : snapshot.arch.f) cell = r.U64();

  // Rename state. Sizes must match the configuration: RestoreState swaps
  // these vectors in wholesale, and the pipeline indexes them by tag.
  const std::uint32_t regCount = r.Count(16);
  if (r.ok() && regCount != renameCount) {
    return CodecError("rename register count does not match configuration");
  }
  snapshot.rename.regs.resize(regCount);
  for (core::SpecRegister& reg : snapshot.rename.regs) {
    reg.inUse = r.Bool();
    reg.valid = r.Bool();
    reg.cell = r.U64();
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(isa::RegisterKind::kFp)) {
      return CodecError("speculative register kind out of range");
    }
    reg.arch.kind = static_cast<isa::RegisterKind>(kind);
    reg.arch.index = r.U8();
    if (r.ok() && reg.arch.index >= 32) {
      return CodecError("speculative register target out of range");
    }
    reg.references = r.U32();
  }
  const std::uint32_t freeCount = r.Count(4);
  if (r.ok() && freeCount > renameCount) {
    return CodecError("rename free list longer than the register file");
  }
  snapshot.rename.freeList.reserve(freeCount);
  std::vector<bool> freeSeen(renameCount, false);
  for (std::uint32_t i = 0; i < freeCount; ++i) {
    const std::int32_t tag = r.I32();
    if (r.ok() && (tag < 0 || tag >= static_cast<std::int32_t>(renameCount))) {
      return CodecError("rename free-list tag out of range");
    }
    if (r.ok()) {
      // A tag listed twice (or free while marked in use) would hand one
      // speculative register to two instructions after a few allocations.
      const auto index = static_cast<std::size_t>(tag);
      if (freeSeen[index]) {
        return CodecError("duplicate rename free-list tag");
      }
      if (snapshot.rename.regs[index].inUse) {
        return CodecError("rename free-list tag marked in use");
      }
      freeSeen[index] = true;
    }
    snapshot.rename.freeList.push_back(tag);
  }
  snapshot.rename.freeCount = r.U32();
  if (r.ok() && snapshot.rename.freeCount > renameCount) {
    return CodecError("rename free count out of range");
  }
  for (int& tag : snapshot.rename.map) {
    tag = r.I32();
    if (r.ok() && (tag < -1 || tag >= static_cast<std::int32_t>(renameCount))) {
      return CodecError("rename map tag out of range");
    }
  }

  // Predictor. Sizes are fixed by the configuration; the index masks in
  // the predictor assume them.
  const std::uint32_t phtCount = r.Count(4);
  if (r.ok() && phtCount != config.predictor.phtSize) {
    return CodecError("PHT size does not match configuration");
  }
  snapshot.predictor.pht.entries.reserve(phtCount);
  for (std::uint32_t i = 0; i < phtCount; ++i) {
    // The BitPredictor constructor clamps out-of-range counters.
    snapshot.predictor.pht.entries.emplace_back(config.predictor.type,
                                                r.U32());
  }
  const std::uint32_t btbCount = r.Count(9);
  if (r.ok() && btbCount != config.predictor.btbSize) {
    return CodecError("BTB size does not match configuration");
  }
  snapshot.predictor.btb.entries.resize(btbCount);
  for (auto& entry : snapshot.predictor.btb.entries) {
    entry.valid = r.Bool();
    entry.pc = r.U32();
    entry.target = r.U32();
  }
  snapshot.predictor.globalHistory = r.U32();
  const std::uint32_t localCount = r.Count(4);
  const std::uint32_t expectedLocal =
      (config.predictor.history == config::HistoryKind::kLocal &&
       config.predictor.historyBits > 0)
          ? config.predictor.phtSize
          : 0;
  if (r.ok() && localCount != expectedLocal) {
    return CodecError("local history size does not match configuration");
  }
  snapshot.predictor.localHistories.reserve(localCount);
  for (std::uint32_t i = 0; i < localCount; ++i) {
    snapshot.predictor.localHistories.push_back(r.U32());
  }

  // Memory system. v3 leads with a mode byte; v2 is always a full image.
  std::uint8_t memoryMode = 0;
  if (version >= 3) {
    memoryMode = r.U8();
    if (r.ok() && memoryMode > 1) {
      return CodecError("memory mode out of range");
    }
  }
  constexpr std::uint32_t kPage = memory::MainMemory::kPageSizeBytes;
  memory::MainMemory::State& memoryState = snapshot.memory.memory;
  if (memoryMode == 1) {
    const std::uint64_t baseEpoch = r.U64();
    const std::uint32_t totalSize = r.U32();
    if (r.ok() && totalSize != config.memory.sizeBytes) {
      return CodecError("memory size does not match configuration");
    }
    // Fail closed: a delta is only restorable over the exact base it was
    // computed against. No base (or a different one) means this side must
    // ask for a full image instead — never patch over the wrong bytes.
    if (r.ok() && (context.base == nullptr ||
                   context.base->size() != totalSize ||
                   context.baseEpoch != baseEpoch)) {
      return CodecError(
          "delta blob references a base image this side does not have "
          "(base-epoch mismatch)");
    }
    const std::uint32_t pageTotal = (totalSize + kPage - 1) / kPage;
    const std::uint32_t pageCount = r.Count(4);
    if (r.ok() && pageCount > pageTotal) {
      return CodecError("delta page count exceeds the memory's page count");
    }
    memoryState.base = context.base;
    memoryState.pages.reserve(pageCount);
    std::int64_t lastPage = -1;
    for (std::uint32_t i = 0; i < pageCount; ++i) {
      const std::uint32_t page = r.U32();
      if (!r.ok()) break;
      if (page >= pageTotal || static_cast<std::int64_t>(page) <= lastPage) {
        return CodecError("delta page index out of order or out of range");
      }
      lastPage = page;
      const std::size_t length = std::min(kPage, totalSize - page * kPage);
      const std::size_t offset = memoryState.pageBytes.size();
      memoryState.pageBytes.resize(offset + length);
      r.BytesInto(memoryState.pageBytes.data() + offset, length);
      memoryState.pages.push_back(page);
    }
  } else {
    const std::uint32_t memorySize = r.Count(1);
    if (r.ok() && memorySize != config.memory.sizeBytes) {
      return CodecError("memory size does not match configuration");
    }
    std::vector<std::uint8_t> image(memorySize);
    r.BytesInto(image.data(), memorySize);
    // Described against the decoding side's base when it has one, so the
    // snapshot holds (and a restore copies) only the pages that differ;
    // without one the image is its own base.
    if (context.base != nullptr && context.base->size() == memorySize) {
      memoryState = memory::MainMemory::Diff(context.base, image);
    } else {
      memoryState.base =
          std::make_shared<const std::vector<std::uint8_t>>(std::move(image));
    }
  }
  const bool hasCache = r.Bool();
  if (r.ok() && hasCache != config.cache.enabled) {
    return CodecError("cache presence does not match configuration");
  }
  if (hasCache) {
    memory::Cache::State cache;
    const std::uint32_t lineCount = r.Count(22);
    const std::uint32_t expectedLines =
        config.cache.associativity == 0
            ? 0
            : (config.cache.lineCount / config.cache.associativity) *
                  config.cache.associativity;
    if (r.ok() && lineCount != expectedLines) {
      return CodecError("cache line count does not match configuration");
    }
    cache.lines.resize(lineCount);
    for (auto& line : cache.lines) {
      line.valid = r.Bool();
      line.dirty = r.Bool();
      line.tag = r.U32();
      line.lastUse = r.U64();
      line.insertTime = r.U64();
    }
    std::array<std::uint64_t, 4> rngState;
    for (std::uint64_t& word : rngState) word = r.U64();
    cache.rng.RestoreState(rngState);
    cache.insertCounter = r.U64();
    snapshot.memory.cache = std::move(cache);
  }
  memory::MemoryStats& memStats = snapshot.memory.stats;
  memStats.accesses = r.U64();
  memStats.loads = r.U64();
  memStats.stores = r.U64();
  memStats.cacheHits = r.U64();
  memStats.cacheMisses = r.U64();
  memStats.evictions = r.U64();
  memStats.dirtyEvictions = r.U64();
  memStats.bytesReadFromMemory = r.U64();
  memStats.bytesWrittenToMemory = r.U64();
  snapshot.memory.nextTransactionId = r.U64();

  // Simulation statistics.
  stats::SimulationStatistics& s = snapshot.stats;
  s.cycles = r.U64();
  s.fetchedInstructions = r.U64();
  s.decodedInstructions = r.U64();
  s.issuedInstructions = r.U64();
  s.executedInstructions = r.U64();
  s.committedInstructions = r.U64();
  s.squashedInstructions = r.U64();
  s.fastForwardedInstructions = r.U64();
  s.robFlushes = r.U64();
  s.branchesResolved = r.U64();
  s.branchesMispredicted = r.U64();
  s.branchesTaken = r.U64();
  s.btbHits = r.U64();
  s.btbLookups = r.U64();
  s.flops = r.U64();
  for (std::uint64_t& count : s.staticMix) count = r.U64();
  for (std::uint64_t& count : s.dynamicMix) count = r.U64();
  const std::uint32_t usageCount = r.Count(20);
  if (r.ok() && usageCount != config.functionalUnits.size()) {
    return CodecError("unit usage count does not match configuration");
  }
  s.unitUsage.resize(usageCount);
  for (stats::UnitUsage& usage : s.unitUsage) {
    usage.name = r.Str();
    usage.busyCycles = r.U64();
    usage.instructions = r.U64();
  }
  s.stallCyclesRobFull = r.U64();
  s.stallCyclesRenameFull = r.U64();
  s.stallCyclesWindowFull = r.U64();
  s.stallCyclesLsBufferFull = r.U64();

  // Log.
  const std::uint32_t logCount = r.Count(17);
  snapshot.log.entries.resize(logCount);
  for (LogEntry& entry : snapshot.log.entries) {
    entry.cycle = r.U64();
    const std::uint8_t level = r.U8();
    if (level > static_cast<std::uint8_t>(LogLevel::kError)) {
      return CodecError("log level out of range");
    }
    entry.level = static_cast<LogLevel>(level);
    entry.block = r.Str();
    entry.text = r.Str();
  }

  if (!r.ok()) return CodecError(r.failReason());
  if (r.remaining() != 0) {
    return CodecError("trailing bytes after the snapshot payload");
  }
  return snapshot;
}

}  // namespace rvss::snapshot
