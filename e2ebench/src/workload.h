// The three workloads as request streams.
//
// Every request is an Op: a command on one of the workload's sessions.
// An Op is rendered to JSON text only when it is sent, with the session
// id the entry point being driven assigned (the gateway, each router and
// the bare server number their sessions independently). Streams are a
// pure function of --seed: the same seed yields the same Ops in the same
// per-session order, which is what the traced run replays.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "kernels.h"

namespace e2ebench {

enum class WorkloadKind { kGuiStep, kGuiScrub, kBatchRun };

std::optional<WorkloadKind> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadKind kind);

enum class OpKind {
  kCreate,
  kStep,
  kStepBack,
  kRestore,
  kFastForward,
  kRun,
  kState,
  kStats,
  kDelete,
};

const char* OpName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kStep;
  std::size_t session = 0;  ///< gui: session index; batch: job index
  std::int64_t arg = 0;     ///< count, target cycle or instruction prefix
};

/// The four batch configurations, by name, with the JSON text sent in
/// createSession.
struct ConfigChoice {
  std::string name;
  std::string json;
};
const std::vector<ConfigChoice>& Configs();

/// One batch-run job: createSession -> fastForward -> run -> state ->
/// stats -> deleteSession on one (kernel, config, prefix).
struct Job {
  std::size_t kernel = 0;
  std::size_t config = 0;
  std::size_t prefix = 0;  ///< index into Kernel::prefixes
  std::vector<Op> Ops(std::size_t jobIndex) const;
};

/// Fast-forward prefixes (instructions) per batch kernel: none, about a
/// third and about two thirds of the program.
const std::vector<std::uint64_t>& Prefixes(std::size_t kernel);

constexpr std::size_t kGuiSessions = 32;
constexpr std::int64_t kRunMaxCycles = 50'000'000;

/// The gui session `index` runs the sort kernel when even, the float
/// kernel when odd, on the default configuration.
const Kernel& GuiKernel(std::size_t index);

/// JSON text of `op` for the session or job id `sessionId`.
std::string RenderOp(const Op& op, std::int64_t sessionId,
                     WorkloadKind workload, const Job* job);

/// The per-session request stream of the gui workloads. Each session has
/// its own generator, so the Ops of one session do not depend on how the
/// sessions interleave.
class GuiStreams {
 public:
  GuiStreams(WorkloadKind kind, std::uint64_t seed);

  /// The setup request that advances session `s` before measuring: a
  /// few hundred cycles on gui-step, a few thousand on gui-scrub.
  Op SetupOp(std::size_t s);
  /// The next request for session `s`, given the cycle it is expected to
  /// be at once every earlier request has run.
  Op Next(std::size_t s);

  /// Session picked for the open-loop request `i` (seeded).
  std::size_t PickSession();

 private:
  WorkloadKind kind_;
  std::vector<std::mt19937_64> rngs_;
  std::vector<std::int64_t> cycle_;
  std::mt19937_64 pick_;
};

/// The batch-run job stream: every block of BlockSize() consecutive jobs
/// holds each (kernel, config, prefix) once, in a seeded order — so every
/// block is the same mix of work, and a seed only changes the order.
class JobStream {
 public:
  explicit JobStream(std::uint64_t seed) : rng_(seed) {}
  Job Next();
  static std::size_t BlockSize();

 private:
  std::mt19937_64 rng_;
  std::vector<Job> block_;
};

/// Pinned simulated statistics of one (kernel, config, prefix) job.
struct Pin {
  std::int64_t cycles = 0;
  std::int64_t committed = 0;
  double ipc = 0;
  double l1HitRate = 0;
  double branchAccuracy = 0;
};

/// pins[kernel][config][prefix], read from the pins file.
using Pins = std::vector<std::vector<std::vector<Pin>>>;
bool LoadPins(const std::string& path, Pins& pins, std::string& error);
/// Runs every (kernel, config, prefix) in process, checks each return
/// value against the host reference, and writes the pins file.
bool WritePins(const std::string& path, std::string& error);

}  // namespace e2ebench
