#include "server/state_renderer.h"

#include "common/strings.h"

namespace rvss::server {
namespace {

json::Json InstructionToJson(const core::InFlight& inst) {
  json::Json node = json::Json::MakeObject();
  node.Set("seq", static_cast<std::int64_t>(inst.seq));
  node.Set("pc", static_cast<std::int64_t>(inst.pc));
  node.Set("text", inst.inst->text);
  node.Set("phase", core::ToString(inst.phase));
  if (inst.isControl) {
    node.Set("predictedTaken", inst.predictedTaken);
    node.Set("btbHit", inst.btbHit);
  }
  if (inst.inst->def->IsMemory()) {
    node.Set("addressReady", inst.addressReady);
    if (inst.addressReady) {
      node.Set("address", static_cast<std::int64_t>(inst.effectiveAddress));
      node.Set("cacheHit", inst.cacheHit);
    }
  }
  json::Json operands = json::Json::MakeArray();
  for (std::size_t i = 0; i < inst.operandCount; ++i) {
    const core::OperandRuntime& operand = inst.operands[i];
    json::Json opNode = json::Json::MakeObject();
    opNode.Set("name", inst.inst->def->args[i].name);
    if (operand.isSource) {
      opNode.Set("valid", operand.ready);
      if (operand.ready) opNode.Set("value", operand.value.ToText());
      if (operand.waitTag >= 0) opNode.Set("waitTag", operand.waitTag);
    }
    if (operand.isDest && operand.destTag >= 0) {
      opNode.Set("renamedTo", operand.destTag);
    }
    operands.Append(std::move(opNode));
  }
  node.Set("operands", std::move(operands));
  json::Json times = json::Json::MakeObject();
  times.Set("fetch", static_cast<std::int64_t>(inst.fetchCycle));
  times.Set("decode", static_cast<std::int64_t>(inst.decodeCycle));
  times.Set("issue", static_cast<std::int64_t>(inst.issueCycle));
  times.Set("execute", static_cast<std::int64_t>(inst.executeDoneCycle));
  times.Set("commit", static_cast<std::int64_t>(inst.commitCycle));
  node.Set("timestamps", std::move(times));
  return node;
}

template <typename Container>
json::Json QueueToJson(const core::Simulation& sim, const Container& queue) {
  json::Json out = json::Json::MakeArray();
  for (const core::Slot slot : queue) {
    out.Append(InstructionToJson(sim.inflight(slot)));
  }
  return out;
}

const char* WindowName(core::WindowKind kind) {
  switch (kind) {
    case core::WindowKind::kFx: return "FX";
    case core::WindowKind::kFp: return "FP";
    case core::WindowKind::kLs: return "LS";
    case core::WindowKind::kBranch: return "Branch";
  }
  return "?";
}

}  // namespace

json::Json RenderJson(const core::Simulation& sim,
                      const RenderOptions& options) {
  json::Json root = json::Json::MakeObject();
  root.Set("cycle", static_cast<std::int64_t>(sim.cycle()));
  root.Set("status", core::ToString(sim.status()));
  root.Set("finishReason", core::ToString(sim.finishReason()));
  root.Set("fetchPc", static_cast<std::int64_t>(sim.fetchPc()));

  const core::PipelineState& pipeline = sim.pipeline();
  root.Set("fetchQueue", QueueToJson(sim, pipeline.fetchQueue));
  root.Set("reorderBuffer", QueueToJson(sim, pipeline.rob));
  root.Set("loadBuffer", QueueToJson(sim, pipeline.loadBuffer));
  root.Set("storeBuffer", QueueToJson(sim, pipeline.storeBuffer));

  json::Json windows = json::Json::MakeObject();
  for (int w = 0; w < 4; ++w) {
    windows.Set(WindowName(static_cast<core::WindowKind>(w)),
                QueueToJson(sim, pipeline.windows[w]));
  }
  root.Set("issueWindows", std::move(windows));

  json::Json units = json::Json::MakeArray();
  for (std::size_t u = 0; u < sim.functionalUnits().size(); ++u) {
    const core::FunctionalUnit& fu = sim.functionalUnits()[u];
    const core::Slot current = pipeline.fuCurrent[u];
    json::Json unit = json::Json::MakeObject();
    unit.Set("name", fu.config.name);
    unit.Set("kind", config::ToString(fu.config.kind));
    unit.Set("busy", current != core::kNoSlot);
    if (current != core::kNoSlot) {
      unit.Set("instruction", InstructionToJson(sim.inflight(current)));
      unit.Set("busyUntil",
               static_cast<std::int64_t>(pipeline.fuBusyUntil[u]));
    }
    units.Append(std::move(unit));
  }
  root.Set("functionalUnits", std::move(units));

  // Registers with rename tags and valid bits (paper main-window panel).
  json::Json registers = json::Json::MakeObject();
  auto renderRegFile = [&](isa::RegisterKind kind, const char* key) {
    json::Json file = json::Json::MakeArray();
    for (std::uint8_t i = 0; i < 32; ++i) {
      const isa::RegisterId id{kind, i};
      json::Json reg = json::Json::MakeObject();
      reg.Set("name", isa::RegisterAbiName(id));
      reg.Set("value", StrFormat("0x%llx", static_cast<unsigned long long>(
                                               sim.archRegs().Read(id))));
      std::vector<int> renames = sim.rename().RenamesOf(id);
      if (!renames.empty()) {
        json::Json tags = json::Json::MakeArray();
        for (int tag : renames) {
          json::Json tagNode = json::Json::MakeObject();
          tagNode.Set("tag", tag);
          tagNode.Set("valid", sim.rename().reg(tag).valid);
          if (sim.rename().reg(tag).valid) {
            tagNode.Set("value",
                        StrFormat("0x%llx", static_cast<unsigned long long>(
                                                sim.rename().reg(tag).cell)));
          }
          tags.Append(std::move(tagNode));
        }
        reg.Set("renames", std::move(tags));
      }
      file.Append(std::move(reg));
    }
    registers.Set(key, std::move(file));
  };
  renderRegFile(isa::RegisterKind::kInt, "x");
  renderRegFile(isa::RegisterKind::kFp, "f");
  root.Set("registers", std::move(registers));

  // Cache lines (paper main-window cache panel).
  if (const memory::Cache* cache = sim.memorySystem().cache()) {
    json::Json cacheNode = json::Json::MakeObject();
    cacheNode.Set("sets", static_cast<std::int64_t>(cache->setCount()));
    cacheNode.Set("ways", static_cast<std::int64_t>(cache->ways()));
    cacheNode.Set("lineSize", static_cast<std::int64_t>(cache->lineSize()));
    json::Json lines = json::Json::MakeArray();
    for (std::uint32_t set = 0; set < cache->setCount(); ++set) {
      for (std::uint32_t way = 0; way < cache->ways(); ++way) {
        const memory::CacheLineView view = cache->Inspect(set, way);
        json::Json line = json::Json::MakeObject();
        line.Set("set", static_cast<std::int64_t>(set));
        line.Set("way", static_cast<std::int64_t>(way));
        line.Set("valid", view.valid);
        line.Set("dirty", view.dirty);
        if (view.valid) {
          line.Set("base", static_cast<std::int64_t>(view.baseAddress));
          line.Set("lastUse", static_cast<std::int64_t>(view.lastUseCycle));
        }
        lines.Append(std::move(line));
      }
    }
    cacheNode.Set("lines", std::move(lines));
    root.Set("cache", std::move(cacheNode));
  }

  // Statistics sidebar (default + expanded views).
  const stats::SimulationStatistics& st = sim.statistics();
  json::Json sidebar = json::Json::MakeObject();
  sidebar.Set("cycles", static_cast<std::int64_t>(st.cycles));
  sidebar.Set("committed", static_cast<std::int64_t>(st.committedInstructions));
  // Present whenever the session's timeline began with an ISS skip — the
  // `stats` statistics document reports the same field, and a GUI must be
  // able to tell a fresh session from a fast-forwarded one in either view.
  sidebar.Set("fastForwardedInstructions",
              static_cast<std::int64_t>(st.fastForwardedInstructions));
  sidebar.Set("ipc", st.Ipc());
  sidebar.Set("branchAccuracy", st.BranchAccuracy());
  sidebar.Set("flops", static_cast<std::int64_t>(st.flops));
  sidebar.Set("cacheHitRate", sim.memorySystem().stats().HitRate());
  root.Set("statistics", std::move(sidebar));

  // Debug log tail, cycle-stamped (paper right-hand panel).
  json::Json logNode = json::Json::MakeArray();
  const auto& entries = sim.log().entries();
  const std::size_t start =
      entries.size() > options.logTail ? entries.size() - options.logTail : 0;
  for (std::size_t i = start; i < entries.size(); ++i) {
    json::Json entry = json::Json::MakeObject();
    entry.Set("cycle", static_cast<std::int64_t>(entries[i].cycle));
    entry.Set("level", ToString(entries[i].level));
    entry.Set("block", entries[i].block);
    entry.Set("text", entries[i].text);
    logNode.Append(std::move(entry));
  }
  root.Set("log", std::move(logNode));

  if (options.includeMemoryDump) {
    // The paper's memory pop-up: pointers plus an expanded dump.
    json::Json memoryNode = json::Json::MakeObject();
    json::Json symbols = json::Json::MakeObject();
    for (const auto& [name, address] : sim.program().labels) {
      symbols.Set(name, static_cast<std::int64_t>(address));
    }
    memoryNode.Set("symbols", std::move(symbols));
    const auto bytes = sim.memorySystem().memory().bytes();
    std::string hex;
    hex.reserve(bytes.size() * 2);
    static const char* kDigits = "0123456789abcdef";
    for (std::uint8_t b : bytes) {
      hex += kDigits[b >> 4];
      hex += kDigits[b & 0xf];
    }
    memoryNode.Set("dumpHex", std::move(hex));
    root.Set("memory", std::move(memoryNode));
  }
  return root;
}

std::string RenderText(const core::Simulation& sim) {
  std::string out;
  const stats::SimulationStatistics& st = sim.statistics();
  out += StrFormat(
      "=== cycle %llu === status: %s   PC: 0x%08x   IPC %.2f   bp %.1f%%\n",
      static_cast<unsigned long long>(sim.cycle()),
      core::ToString(sim.status()), sim.fetchPc(), st.Ipc(),
      100.0 * st.BranchAccuracy());

  const core::PipelineState& pipeline = sim.pipeline();
  auto renderQueue = [&](const char* name, const auto& queue) {
    out += StrFormat("[%s]", name);
    for (const core::Slot slot : queue) {
      const core::InFlight& inst = sim.inflight(slot);
      out += StrFormat(" {%llu:0x%x %s}",
                       static_cast<unsigned long long>(inst.seq), inst.pc,
                       inst.inst->text.c_str());
    }
    out += '\n';
  };
  renderQueue("Fetch ", pipeline.fetchQueue);
  for (int w = 0; w < 4; ++w) {
    renderQueue(WindowName(static_cast<core::WindowKind>(w)),
                pipeline.windows[w]);
  }
  out += "[Units ]";
  for (std::size_t u = 0; u < sim.functionalUnits().size(); ++u) {
    const core::FunctionalUnit& fu = sim.functionalUnits()[u];
    const core::Slot current = pipeline.fuCurrent[u];
    if (current != core::kNoSlot) {
      out += StrFormat(" %s<%s until %llu>", fu.config.name.c_str(),
                       sim.inflight(current).inst->text.c_str(),
                       static_cast<unsigned long long>(pipeline.fuBusyUntil[u]));
    } else {
      out += StrFormat(" %s<idle>", fu.config.name.c_str());
    }
  }
  out += '\n';
  renderQueue("ROB   ", pipeline.rob);
  renderQueue("LoadB ", pipeline.loadBuffer);
  renderQueue("StoreB", pipeline.storeBuffer);

  // Architectural registers, ABI names, with rename markers.
  out += "[Regs  ]";
  for (std::uint8_t i = 0; i < 32; ++i) {
    const isa::RegisterId id{isa::RegisterKind::kInt, i};
    const std::uint64_t value = sim.archRegs().Read(id);
    std::vector<int> renames = sim.rename().RenamesOf(id);
    if (value != 0 || !renames.empty()) {
      out += StrFormat(" %s=0x%llx", isa::RegisterAbiName(id).c_str(),
                       static_cast<unsigned long long>(value));
      for (int tag : renames) {
        out += StrFormat("(t%d%s)", tag,
                         sim.rename().reg(tag).valid ? "*" : "");
      }
    }
  }
  out += '\n';
  return out;
}

}  // namespace rvss::server
