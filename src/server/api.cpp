#include "server/api.h"

#include <algorithm>
#include <chrono>

#include "assembler/assembler.h"
#include "cc/compiler.h"
#include "common/slz.h"
#include "common/strings.h"
#include "memory/memory_initializer.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "server/wire.h"

namespace rvss::server {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

json::Json Ok() {
  json::Json response = json::Json::MakeObject();
  response.Set("status", "ok");
  return response;
}

/// Checkpoint-ring accounting for a session ({count, bytes, maxBytes,
/// intervalCycles}) — the per-session memory cap made visible to clients.
json::Json CheckpointInfo(const core::Simulation& sim) {
  const core::CheckpointRing& ring = sim.checkpoints();
  json::Json info = json::Json::MakeObject();
  info.Set("count", static_cast<std::int64_t>(ring.checkpointCount()));
  info.Set("bytes", static_cast<std::int64_t>(ring.totalBytes()));
  info.Set("maxBytes", static_cast<std::int64_t>(ring.maxTotalBytes()));
  info.Set("intervalCycles",
           static_cast<std::int64_t>(ring.intervalCycles()));
  return info;
}

/// The full statistics document a session reports — the one serialization
/// of SimulationStatistics, shared by the `run` and `stats` responses so
/// the two can never drift apart field-by-field again.
json::Json StatisticsJson(const core::Simulation& sim) {
  return sim.statistics().ToJson(sim.memorySystem().stats(),
                                 sim.config().coreClockHz);
}

/// Per-command request counters and handle-latency histograms. The name
/// set is bounded by SanitizedCommandName, so a hostile client cannot
/// grow the registry; the per-command lookup is a map find, amortized to
/// noise by the simulation work behind any command worth counting.
void RecordCommandMetrics(std::string_view command, std::uint64_t startNs) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Instance();
  static obs::Counter& requests = registry.GetCounter("server.requests");
  static obs::Histogram& handleUs =
      registry.GetHistogram("server.handleUs");
  requests.Increment();
  const std::uint64_t elapsedUs = (obs::MonotonicNowNs() - startNs) / 1000;
  handleUs.Record(elapsedUs);
  const std::string suffix(obs::SanitizedCommandName(command));
  registry.GetCounter("server.cmd." + suffix).Increment();
  registry.GetHistogram("server.handleUs." + suffix).Record(elapsedUs);
}

/// One deep seek as a server-side loop of bounded SeekTo hops, instead of
/// rejecting (or silently clamping) anything deeper than `chunk`: each
/// hop replays at most `chunk` cycles, the checkpoint ring captures as
/// the replay advances, and the next hop starts from what it captured.
/// Honors the request's semantics — the loop ends at the target, when the
/// program finishes short of it (exactly what a single unbounded SeekTo
/// would do), or on the first real error. `chunk == 0` degenerates to the
/// single-shot SeekTo error, preserving a zero maxStepsPerRequest limit.
/// `*replayed` accumulates the cycles actually re-simulated.
Status ChunkedSeek(core::Simulation& sim, std::uint64_t target,
                   std::uint64_t chunk, std::uint64_t* replayed) {
  *replayed = 0;
  while (true) {
    const std::uint64_t cost = sim.SeekReplayCost(target);
    const std::uint64_t hop =
        chunk > 0 && cost > chunk ? target - (cost - chunk) : target;
    RVSS_RETURN_IF_ERROR(sim.SeekTo(hop, chunk));
    *replayed += sim.lastSeekReplayedCycles();
    // Short of the hop: the program finished mid-replay. Done — a
    // single-shot seek stops at the same cycle.
    if (sim.cycle() != hop || hop == target) return Status::Ok();
  }
}

}  // namespace

json::Json MakeErrorResponse(const Error& error) {
  json::Json response = json::Json::MakeObject();
  response.Set("status", "error");
  json::Json envelope = json::Json::MakeObject();
  envelope.Set("kind", ToString(error.kind));
  envelope.Set("message", error.message);
  envelope.Set("retryable", ErrorIsRetryable(error.kind));
  json::Json details = json::Json::MakeObject();
  if (error.pos.line != 0) {
    details.Set("line", static_cast<std::int64_t>(error.pos.line));
    details.Set("column", static_cast<std::int64_t>(error.pos.column));
  }
  envelope.Set("details", std::move(details));
  response.Set("error", std::move(envelope));
  return response;
}

void AddErrorDetail(json::Json& response, const std::string& key,
                    json::Json value) {
  if (json::Json* envelope = response.Find("error"); envelope != nullptr) {
    if (json::Json* details = envelope->Find("details"); details != nullptr) {
      details->Set(key, std::move(value));
    }
  }
}

std::string ErrorMessage(const json::Json& response,
                         std::string_view fallback) {
  const json::Json* envelope = response.Find("error");
  return envelope != nullptr && envelope->IsObject()
             ? envelope->GetString("message", fallback)
             : std::string(fallback);
}

Status CheckIntegerFields(const json::Json& request) {
  if (!request.IsObject()) return Status::Ok();
  for (const auto& [key, value] : request.AsObject()) {
    if (value.IsNumber() && !value.FitsInt()) {
      return Status::Fail(ErrorKind::kInvalidArgument,
                          "'" + key +
                              "' is outside the 64-bit integer range");
    }
  }
  return Status::Ok();
}

json::Json SimServer::ErrorResponse(const Error& error) const {
  return MakeErrorResponse(error);
}

Result<SimServer::Session*> SimServer::FindSession(const json::Json& request) {
  const std::int64_t id = request.GetInt("sessionId", -1);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Error{ErrorKind::kInvalidArgument,
                 "unknown sessionId " + std::to_string(id)};
  }
  return &it->second;
}

json::Json SimServer::Dispatch(const json::Json& request) {
  const std::string command = request.GetString("command", "");
  if (Status fits = CheckIntegerFields(request); !fits.ok()) {
    return ErrorResponse(fits.error());
  }

  // Every process that speaks the API answers hello itself — the gateway
  // and router before routing, a worker here (its frame loop serves
  // through HandleFrame), and a bare in-process server the same way, so
  // an embedder sees the same version/capability fields without a wire
  // in between.
  if (command == "hello") {
    return MakeHelloResponse();
  }
  if (command == "shutdownWorker") {
    // Out-of-band teardown of a worker process: acknowledged here, and
    // the frame loop serving this server stops once the ack is written.
    // The router never forwards it from a client (see shard/router.h).
    shutdownRequested_ = true;
    json::Json response = Ok();
    response.Set("shutdown", true);
    return response;
  }

  if (command == "compile") {
    cc::CompileOptions options;
    options.optLevel = static_cast<int>(request.GetInt("optLevel", 0));
    auto compiled = cc::Compile(request.GetString("code", ""), options);
    if (!compiled.ok()) return ErrorResponse(compiled.error());
    json::Json response = Ok();
    response.Set("assembly", compiled.value().assembly);
    return response;
  }

  if (command == "parseAsm") {
    assembler::Assembler asmArg;
    auto program = asmArg.Assemble(request.GetString("code", ""));
    if (!program.ok()) return ErrorResponse(program.error());
    json::Json response = Ok();
    response.Set("instructionCount",
                 static_cast<std::int64_t>(
                     program.value().instructions.size()));
    return response;
  }

  if (command == "checkConfig") {
    const json::Json* configNode = request.Find("config");
    if (configNode == nullptr) {
      return ErrorResponse(
          Error{ErrorKind::kInvalidArgument, "missing 'config'"});
    }
    auto config = config::CpuConfigFromJson(*configNode);
    if (!config.ok()) return ErrorResponse(config.error());
    json::Json response = Ok();
    json::Json problems = json::Json::MakeArray();
    for (const Error& problem : config::Validate(config.value())) {
      problems.Append(problem.message);
    }
    response.Set("problems", std::move(problems));
    return response;
  }

  if (command == "createSession") {
    config::CpuConfig config = config::DefaultConfig();
    if (const json::Json* configNode = request.Find("config");
        configNode != nullptr) {
      auto parsed = config::CpuConfigFromJson(*configNode);
      if (!parsed.ok()) return ErrorResponse(parsed.error());
      config = std::move(parsed).value();
    }
    // Session configs are client-supplied; the server's own checkpoint
    // byte ceiling wins over whatever budget the session asked for.
    if (limits_.maxCheckpointBytesPerSession > 0) {
      config.checkpoint.maxTotalBytes = std::min(
          config.checkpoint.maxTotalBytes,
          static_cast<std::uint64_t>(limits_.maxCheckpointBytesPerSession));
    }
    core::Simulation::CreateOptions options;
    options.entryLabel = request.GetString("entry", "");
    json::Json arraysJson = json::Json::MakeArray();
    if (const json::Json* arrays = request.Find("arrays");
        arrays != nullptr && arrays->IsArray()) {
      for (const json::Json& arrayNode : arrays->AsArray()) {
        auto def = memory::ArrayDefinitionFromJson(arrayNode);
        if (!def.ok()) return ErrorResponse(def.error());
        arraysJson.Append(memory::ToJson(def.value()));
        options.arrays.push_back(std::move(def).value());
      }
    }
    std::string code = request.GetString("code", "");
    if (request.GetBool("isC", false)) {
      cc::CompileOptions ccOptions;
      ccOptions.optLevel = static_cast<int>(request.GetInt("optLevel", 0));
      auto compiled = cc::Compile(code, ccOptions);
      if (!compiled.ok()) return ErrorResponse(compiled.error());
      code = compiled.value().assembly;
      if (options.entryLabel.empty()) options.entryLabel = "main";
    }
    auto sim = core::Simulation::Create(config, code, options);
    if (!sim.ok()) return ErrorResponse(sim.error());
    const std::int64_t id = nextSessionId_++;
    Session session;
    session.identity = snapshot::MakeIdentity(
        *sim.value(), std::move(code), options.entryLabel,
        options.arrays.empty() ? std::string() : arraysJson.Dump());
    session.sim = std::move(sim).value();
    sessions_[id] = std::move(session);
    json::Json response = Ok();
    response.Set("sessionId", id);
    response.Set("apiVersion", kApiVersion);
    return response;
  }

  if (command == "importSession") {
    obs::ScopedSpan span("session", "importSession");
    const json::Json* blobNode = request.Find("blob");
    static const std::string kNoBlob;
    const std::string& encoded = blobNode != nullptr && blobNode->IsString()
                                     ? blobNode->AsString()
                                     : kNoBlob;
    span.SetDetail(StrFormat("blobBytes=%zu", encoded.size()));
    auto blob = Base64Decode(encoded);
    if (!blob.has_value()) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "'blob' is not valid base64"});
    }
    if (limits_.maxSessionBlobBytes > 0 &&
        blob->size() >
            static_cast<std::size_t>(limits_.maxSessionBlobBytes)) {
      return ErrorResponse(Error{
          ErrorKind::kInvalidArgument,
          "session blob of " + std::to_string(blob->size()) +
              " bytes exceeds this server's budget of " +
              std::to_string(limits_.maxSessionBlobBytes) + " bytes"});
    }
    auto imported = snapshot::ImportSessionBlob(
        *blob, limits_.maxCheckpointBytesPerSession > 0
                   ? static_cast<std::uint64_t>(
                         limits_.maxCheckpointBytesPerSession)
                   : 0);
    if (!imported.ok()) return ErrorResponse(imported.error());
    const std::int64_t id = nextSessionId_++;
    Session session;
    session.sim = std::move(imported.value().sim);
    session.identity = std::move(imported.value().identity);
    json::Json response = Ok();
    response.Set("sessionId", id);
    response.Set("cycle", static_cast<std::int64_t>(session.sim->cycle()));
    sessions_[id] = std::move(session);
    return response;
  }

  if (command == "metrics") {
    // This process's observability registry. Behind the shard router the
    // same command returns the *fleet* view (the router fans it out to
    // every worker and merges); a bare server answers for itself.
    json::Json response = Ok();
    response.Set("apiVersion", kApiVersion);
    if (request.GetString("format", "json") == "text") {
      response.Set("text", obs::MetricsToPrometheusText(obs::MetricsToJson()));
    } else {
      response.Set("metrics", obs::MetricsToJson());
    }
    return response;
  }

  if (command == "traceDump") {
    json::Json response = Ok();
    response.Set("trace", obs::TraceRing::Instance().ToJson());
    return response;
  }

  if (command == "listSessions") {
    json::Json response = Ok();
    json::Json list = json::Json::MakeArray();
    std::int64_t totalBytes = 0;
    for (const auto& [id, session] : sessions_) {
      const std::size_t bytes = snapshot::EstimateSessionBlobBytes(
          *session.sim, session.identity);
      totalBytes += static_cast<std::int64_t>(bytes);
      json::Json entry = json::Json::MakeObject();
      entry.Set("sessionId", id);
      entry.Set("cycle", static_cast<std::int64_t>(session.sim->cycle()));
      entry.Set("status", core::ToString(session.sim->status()));
      entry.Set("approxBytes", static_cast<std::int64_t>(bytes));
      list.Append(std::move(entry));
    }
    response.Set("sessions", std::move(list));
    response.Set("totalApproxBytes", totalBytes);
    return response;
  }

  if (command == "deleteSession") {
    const std::int64_t id = request.GetInt("sessionId", -1);
    if (sessions_.erase(id) == 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "unknown sessionId " + std::to_string(id)});
    }
    return Ok();
  }

  // Session-bound commands.
  auto session = FindSession(request);
  if (!session.ok()) return ErrorResponse(session.error());
  core::Simulation& sim = *session.value()->sim;

  if (command == "step") {
    const std::int64_t count = request.GetInt("count", 1);
    if (count < 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "'count' must be non-negative"});
    }
    // Clamp, and bail out as soon as the simulation stops running: a huge
    // count on a finished session must not spin the dispatch loop.
    const std::int64_t bounded = std::min(count, limits_.maxStepsPerRequest);
    std::int64_t stepped = 0;
    for (; stepped < bounded && sim.status() == core::SimStatus::kRunning;
         ++stepped) {
      sim.Step();
    }
    json::Json response = Ok();
    response.Set("stepped", stepped);
    RenderOptions options;
    options.includeMemoryDump = request.GetBool("memory", false);
    response.Set("state", RenderJson(sim, options));
    return response;
  }
  if (command == "fastForward") {
    const std::int64_t instructions = request.GetInt("instructions", -1);
    if (instructions < 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "'instructions' must be non-negative"});
    }
    Status status =
        sim.FastForwardTo(static_cast<std::uint64_t>(instructions));
    if (!status.ok()) return ErrorResponse(status.error());
    json::Json response = Ok();
    response.Set("fastForwardedInstructions",
                 static_cast<std::int64_t>(
                     sim.statistics().fastForwardedInstructions));
    response.Set("state", RenderJson(sim));
    return response;
  }
  if (command == "stepBack") {
    if (sim.cycle() == 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "already at cycle 0; cannot step back"});
    }
    // With checkpoints disabled (or evicted) a deep StepBack replays the
    // whole prefix; maxStepsPerRequest used to clamp that by *failing*
    // the request. Loop the replay server-side in bounded chunks instead
    // — the request means "one cycle back", however much replay that
    // costs, and each chunk keeps the dispatch loop's unit of work
    // bounded.
    std::uint64_t replayed = 0;
    Status status = ChunkedSeek(
        sim, sim.cycle() - 1,
        static_cast<std::uint64_t>(limits_.maxStepsPerRequest), &replayed);
    if (!status.ok()) return ErrorResponse(status.error());
    json::Json response = Ok();
    response.Set("replayedSteps", static_cast<std::int64_t>(replayed));
    response.Set("state", RenderJson(sim));
    return response;
  }
  if (command == "exportSession") {
    obs::ScopedSpan span("session", "exportSession");
    // encoding:"delta" ships only the pages dirtied since the session's
    // base image — the router asks for it after the destination's hello
    // advertised delta support. Default stays full (self-contained for
    // unknown readers, e.g. a file saved for a future process).
    const std::string encoding = request.GetString("encoding", "full");
    if (encoding != "full" && encoding != "delta") {
      return ErrorResponse(Error{
          ErrorKind::kInvalidArgument,
          "'encoding' must be \"full\" or \"delta\", got '" + encoding + "'"});
    }
    snapshot::SessionBlobOptions blobOptions;
    blobOptions.delta = encoding == "delta";
    json::Json response = Ok();
    std::string blob = Base64Encode(snapshot::EncodeSessionBlob(
        sim, session.value()->identity, blobOptions));
    span.SetDetail(StrFormat("cycle=%llu blobBytes=%zu",
                             static_cast<unsigned long long>(sim.cycle()),
                             blob.size()));
    response.Set("cycle", static_cast<std::int64_t>(sim.cycle()));
    response.Set("encoding", encoding);
    // Last, so the blob a frame detaches is reattached where it was: a
    // reply's joined bytes (server::JoinReply) equal this document's Dump.
    response.Set("blob", std::move(blob));
    return response;
  }
  if (command == "saveCheckpoint") {
    obs::ScopedSpan span("session", "saveCheckpoint");
    sim.CaptureCheckpointNow();
    span.SetDetail(StrFormat(
        "cycle=%llu ringBytes=%zu",
        static_cast<unsigned long long>(sim.cycle()),
        static_cast<std::size_t>(sim.checkpoints().totalBytes())));
    json::Json response = Ok();
    response.Set("cycle", static_cast<std::int64_t>(sim.cycle()));
    response.Set("checkpoints", CheckpointInfo(sim));
    return response;
  }
  if (command == "restoreCheckpoint") {
    const std::int64_t cycle = request.GetInt("cycle", -1);
    if (cycle < 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "'cycle' must be a non-negative integer"});
    }
    obs::ScopedSpan span("session", "restoreCheckpoint");
    // Deep restores loop server-side in maxStepsPerRequest-sized hops
    // (see ChunkedSeek) rather than failing past the per-request bound.
    std::uint64_t replayed = 0;
    Status status = ChunkedSeek(
        sim, static_cast<std::uint64_t>(cycle),
        static_cast<std::uint64_t>(limits_.maxStepsPerRequest), &replayed);
    if (!status.ok()) return ErrorResponse(status.error());
    span.SetDetail(StrFormat("cycle=%lld replayed=%llu",
                             static_cast<long long>(cycle),
                             static_cast<unsigned long long>(replayed)));
    json::Json response = Ok();
    response.Set("replayedCycles", static_cast<std::int64_t>(replayed));
    response.Set("replayedSteps", static_cast<std::int64_t>(replayed));
    response.Set("state", RenderJson(sim));
    return response;
  }
  if (command == "run") {
    const std::int64_t maxCycles = request.GetInt("maxCycles", 10'000'000);
    if (maxCycles < 0) {
      return ErrorResponse(Error{ErrorKind::kInvalidArgument,
                                 "'maxCycles' must be non-negative"});
    }
    const std::uint64_t before = sim.cycle();
    sim.Run(static_cast<std::uint64_t>(
        std::min(maxCycles, limits_.maxRunCyclesPerRequest)));
    json::Json response = Ok();
    // Like step's "stepped": makes a clamped / truncated run visible.
    response.Set("ranCycles", static_cast<std::int64_t>(sim.cycle() - before));
    response.Set("statistics", StatisticsJson(sim));
    response.Set("finishReason", core::ToString(sim.finishReason()));
    if (sim.fault().has_value()) {
      response.Set("fault", sim.fault()->ToText());
    }
    return response;
  }
  if (command == "state") {
    json::Json response = Ok();
    RenderOptions options;
    options.includeMemoryDump = request.GetBool("memory", false);
    response.Set("state", RenderJson(sim, options));
    return response;
  }
  if (command == "stats") {
    json::Json response = Ok();
    response.Set("statistics", StatisticsJson(sim));
    response.Set("checkpoints", CheckpointInfo(sim));
    return response;
  }

  return ErrorResponse(
      Error{ErrorKind::kInvalidArgument, "unknown command '" + command + "'"});
}

std::vector<std::int64_t> SimServer::sessionIds() const {
  std::vector<std::int64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

json::Json SimServer::Handle(const json::Json& request) {
  const std::uint64_t startNs = obs::MonotonicNowNs();
  json::Json response = Dispatch(request);
  RecordCommandMetrics(request.GetString("command", ""), startNs);
  return response;
}

std::string SimServer::HandleRaw(std::string_view requestBytes, bool compress,
                                 RequestTiming* timing) {
  RequestTiming local;
  std::uint64_t t0 = NowNs();
  auto request = json::Parse(requestBytes);
  std::uint64_t t1 = NowNs();
  local.parseNs = t1 - t0;

  json::Json response = request.ok() ? Dispatch(request.value())
                                     : MakeErrorResponse(request.error());
  std::uint64_t t2 = NowNs();
  local.handleNs = t2 - t1;

  std::string serialized = response.Dump();
  std::uint64_t t3 = NowNs();
  local.serializeNs = t3 - t2;
  local.responseBytes = serialized.size();

  if (compress) {
    serialized = SlzCompress(serialized);
    std::uint64_t t4 = NowNs();
    local.compressNs = t4 - t3;
  }
  local.compressedBytes = serialized.size();

  if (timing != nullptr) *timing = local;
  return serialized;
}

Reply SimServer::HandleFrame(std::string_view text, std::string blob) {
  auto request = json::Parse(text);
  if (!request.ok()) {
    // An intact frame with malformed JSON: answered, and counted with
    // the frame loop's unreadable frames.
    obs::Registry::Instance().GetCounter("server.frameErrors").Increment();
    return ToReply(MakeErrorResponse(request.error()));
  }
  if (!blob.empty()) request.value().Set("blob", std::move(blob));
  return ToReply(Handle(request.value()));
}

}  // namespace rvss::server
