#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cc/compiler.h"
#include "config/cpu_config.h"
#include "core/simulation.h"
#include "json/json.h"

namespace e2ebench {
namespace {

std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 16);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string CreateRequest(const Kernel& kernel, const std::string& config) {
  return "{\"command\":\"createSession\",\"code\":\"" + Escape(kernel.source) +
         "\",\"isC\":true,\"optLevel\":2,\"config\":" + config + "}";
}

std::int64_t Uniform(std::mt19937_64& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(
                                                    hi - lo + 1));
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(const std::string& name) {
  if (name == "gui-step") return WorkloadKind::kGuiStep;
  if (name == "gui-scrub") return WorkloadKind::kGuiScrub;
  if (name == "batch-run") return WorkloadKind::kBatchRun;
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kGuiStep: return "gui-step";
    case WorkloadKind::kGuiScrub: return "gui-scrub";
    case WorkloadKind::kBatchRun: return "batch-run";
  }
  return "?";
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "createSession";
    case OpKind::kStep: return "step";
    case OpKind::kStepBack: return "stepBack";
    case OpKind::kRestore: return "restoreCheckpoint";
    case OpKind::kFastForward: return "fastForward";
    case OpKind::kRun: return "run";
    case OpKind::kState: return "state";
    case OpKind::kStats: return "stats";
    case OpKind::kDelete: return "deleteSession";
  }
  return "?";
}

const std::vector<ConfigChoice>& Configs() {
  static const std::vector<ConfigChoice> configs = {
      {"default", rvss::config::ToJson(rvss::config::DefaultConfig()).Dump()},
      {"scalar", rvss::config::ToJson(rvss::config::ScalarConfig()).Dump()},
      {"wide", rvss::config::ToJson(rvss::config::WideConfig()).Dump()},
      {"nocache", rvss::config::ToJson(rvss::config::NoCacheConfig()).Dump()},
  };
  return configs;
}

const std::vector<std::uint64_t>& Prefixes(std::size_t kernel) {
  // Dynamic instruction counts: sort 81462, matmul 262765, branchy
  // 130120, float 86289.
  static const std::vector<std::vector<std::uint64_t>> prefixes = {
      {0, 27'000, 54'000},
      {0, 87'000, 175'000},
      {0, 43'000, 86'000},
      {0, 28'000, 57'000},
  };
  return prefixes[kernel];
}

std::vector<Op> Job::Ops(std::size_t jobIndex) const {
  return {
      {OpKind::kCreate, jobIndex, 0},
      {OpKind::kFastForward, jobIndex,
       static_cast<std::int64_t>(Prefixes(kernel)[prefix])},
      {OpKind::kRun, jobIndex, kRunMaxCycles},
      {OpKind::kState, jobIndex, 0},
      {OpKind::kStats, jobIndex, 0},
      {OpKind::kDelete, jobIndex, 0},
  };
}

const Kernel& GuiKernel(std::size_t index) {
  return index % 2 == 0 ? GuiSortKernel() : GuiFloatKernel();
}

std::string RenderOp(const Op& op, std::int64_t sessionId,
                     WorkloadKind workload, const Job* job) {
  if (op.kind == OpKind::kCreate) {
    if (workload == WorkloadKind::kBatchRun) {
      return CreateRequest(BatchKernels()[job->kernel],
                           Configs()[job->config].json);
    }
    return CreateRequest(GuiKernel(op.session), Configs()[0].json);
  }
  std::string text = "{\"command\":\"";
  text += OpName(op.kind);
  text += "\",\"sessionId\":" + std::to_string(sessionId);
  switch (op.kind) {
    case OpKind::kStep: text += ",\"count\":" + std::to_string(op.arg); break;
    case OpKind::kRestore: text += ",\"cycle\":" + std::to_string(op.arg); break;
    case OpKind::kFastForward:
      text += ",\"instructions\":" + std::to_string(op.arg);
      break;
    case OpKind::kRun: text += ",\"maxCycles\":" + std::to_string(op.arg); break;
    default: break;
  }
  return text + "}";
}

GuiStreams::GuiStreams(WorkloadKind kind, std::uint64_t seed)
    : kind_(kind), cycle_(kGuiSessions, 0), pick_(seed * 7919 + 17) {
  for (std::size_t s = 0; s < kGuiSessions; ++s) {
    rngs_.emplace_back(seed * 1'000'003 + s * 7'777 + 1);
  }
}

Op GuiStreams::SetupOp(std::size_t s) {
  // gui-step: fill the pipeline, so every measured state is full size.
  const std::int64_t advance = kind_ == WorkloadKind::kGuiScrub
                                   ? Uniform(rngs_[s], 2'000, 4'000)
                                   : 256;
  cycle_[s] += advance;
  return Op{OpKind::kStep, s, advance};
}

Op GuiStreams::Next(std::size_t s) {
  std::mt19937_64& rng = rngs_[s];
  std::int64_t& cycle = cycle_[s];
  if (kind_ == WorkloadKind::kGuiStep) {
    cycle += 1;
    return {OpKind::kStep, s, 1};
  }
  const std::int64_t roll = Uniform(rng, 0, 99);
  if (roll < 30 && cycle > 1) {
    cycle -= 1;
    return {OpKind::kStepBack, s, 0};
  }
  if (roll < 60) {
    const std::int64_t distance = Uniform(rng, 1, 1'000);
    const bool earlier = Uniform(rng, 0, 1) == 0;
    cycle = earlier ? std::max<std::int64_t>(1, cycle - distance)
                    : cycle + distance;
    return {OpKind::kRestore, s, cycle};
  }
  const std::int64_t count = Uniform(rng, 1, 50);
  cycle += count;
  return {OpKind::kStep, s, count};
}

std::size_t GuiStreams::PickSession() {
  return static_cast<std::size_t>(pick_() % kGuiSessions);
}

std::size_t JobStream::BlockSize() {
  std::size_t size = 0;
  for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
    size += Configs().size() * Prefixes(k).size();
  }
  return size;
}

Job JobStream::Next() {
  if (block_.empty()) {
    for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
      for (std::size_t c = 0; c < Configs().size(); ++c) {
        for (std::size_t p = 0; p < Prefixes(k).size(); ++p) {
          block_.push_back(Job{k, c, p});
        }
      }
    }
    std::shuffle(block_.begin(), block_.end(), rng_);
  }
  Job job = block_.back();
  block_.pop_back();
  return job;
}

bool LoadPins(const std::string& path, Pins& pins, std::string& error) {
  std::ifstream file(path);
  if (!file) {
    error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  auto doc = rvss::json::Parse(buffer.str());
  if (!doc.ok()) {
    error = path + ": " + doc.error().ToText();
    return false;
  }
  pins.assign(BatchKernels().size(),
              std::vector<std::vector<Pin>>(Configs().size()));
  for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
    const rvss::json::Json* kernel =
        doc.value().Find(BatchKernels()[k].name);
    for (std::size_t c = 0; c < Configs().size(); ++c) {
      const rvss::json::Json* list =
          kernel == nullptr ? nullptr : kernel->Find(Configs()[c].name);
      if (list == nullptr || !list->IsArray() ||
          list->AsArray().size() != Prefixes(k).size()) {
        error = path + ": no pins for " + BatchKernels()[k].name + "/" +
                Configs()[c].name;
        return false;
      }
      for (const rvss::json::Json& entry : list->AsArray()) {
        Pin pin;
        pin.cycles = entry.GetInt("cycles", -1);
        pin.committed = entry.GetInt("committedInstructions", -1);
        pin.ipc = entry.GetDouble("ipc", -1);
        pin.l1HitRate = entry.GetDouble("l1HitRate", -1);
        pin.branchAccuracy = entry.GetDouble("branchAccuracy", -1);
        pins[k][c].push_back(pin);
      }
    }
  }
  return true;
}

bool WritePins(const std::string& path, std::string& error) {
  std::string out = "{\n";
  for (std::size_t k = 0; k < BatchKernels().size(); ++k) {
    const Kernel& kernel = BatchKernels()[k];
    auto compiled = rvss::cc::Compile(kernel.source, rvss::cc::CompileOptions{2});
    if (!compiled.ok()) {
      error = kernel.name + ": " + compiled.error().ToText();
      return false;
    }
    out += "  \"" + kernel.name + "\": {\n";
    for (std::size_t c = 0; c < Configs().size(); ++c) {
      auto config = rvss::config::CpuConfigFromJson(
          rvss::json::Parse(Configs()[c].json).value());
      out += "    \"" + Configs()[c].name + "\": [";
      for (std::size_t p = 0; p < Prefixes(k).size(); ++p) {
        auto sim = rvss::core::Simulation::Create(
            config.value(), compiled.value().assembly, {{}, "main"});
        if (!sim.ok()) {
          error = kernel.name + ": " + sim.error().ToText();
          return false;
        }
        rvss::core::Simulation& s = *sim.value();
        if (!s.FastForwardTo(Prefixes(k)[p]).ok()) {
          error = kernel.name + ": fast-forward failed";
          return false;
        }
        s.Run(kRunMaxCycles);
        const auto result = static_cast<std::int32_t>(s.ReadIntReg(10));
        if (s.status() != rvss::core::SimStatus::kFinished ||
            result != kernel.expected) {
          error = kernel.name + "/" + Configs()[c].name + ": returned " +
                  std::to_string(result) + ", host reference " +
                  std::to_string(kernel.expected);
          return false;
        }
        const rvss::json::Json stats = s.statistics().ToJson(
            s.memorySystem().stats(), s.config().coreClockHz);
        char line[320];
        std::snprintf(
            line, sizeof line,
            "%s\n      {\"cycles\": %lld, \"committedInstructions\": %lld, "
            "\"ipc\": %.17g, \"l1HitRate\": %.17g, \"branchAccuracy\": %.17g}",
            p == 0 ? "" : ",",
            static_cast<long long>(stats.GetInt("cycles", -1)),
            static_cast<long long>(stats.GetInt("committedInstructions", -1)),
            stats.GetDouble("ipc", -1),
            stats.Find("cache")->GetDouble("hitRate", -1),
            stats.Find("branchPrediction")->GetDouble("accuracy", -1));
        out += line;
      }
      out += "]";
      out += c + 1 < Configs().size() ? ",\n" : "\n";
    }
    out += k + 1 < BatchKernels().size() ? "  },\n" : "  }\n";
  }
  out += "}\n";
  std::ofstream file(path);
  file << out;
  if (!file) {
    error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace e2ebench
