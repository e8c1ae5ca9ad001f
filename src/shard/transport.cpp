#include "shard/transport.h"

#include <utility>

namespace rvss::shard {
namespace {

/// Socket-transport metrics, shared by every SocketTransport in the
/// process (the per-worker split is visible in the router's workerStats;
/// these answer "what does the wire cost the fleet overall").
struct SocketMetrics {
  obs::Counter& calls =
      obs::Registry::Instance().GetCounter("shard.transport.socket.calls");
  obs::Counter& connects = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.connects");
  obs::Counter& requestBytes = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.requestBytes");
  obs::Counter& blobBytes = obs::Registry::Instance().GetCounter(
      "shard.transport.socket.blobBytes");
  obs::Histogram& rttUs =
      obs::Registry::Instance().GetHistogram("shard.transport.socket.rttUs");

  static SocketMetrics& Get() {
    static SocketMetrics* metrics = new SocketMetrics();
    return *metrics;
  }
};

}  // namespace

SocketTransport::SocketTransport(std::string address,
                                 SocketTransportOptions options)
    : address_(std::move(address)), options_(options) {}

Status SocketTransport::EnsureConnected() {
  if (connection_.valid()) return Status::Ok();
  SocketMetrics::Get().connects.Increment();
  auto connected = net::ConnectTo(address_, options_.connectTimeoutMs);
  if (!connected.ok()) {
    // kUnavailable: nothing was executed, the worker may come back (or a
    // restarted one may take the address) — callers may safely retry.
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ +
                            " unreachable: " + connected.error().message);
  }
  connection_ = std::move(connected).value();

  // The hello handshake: before any command travels on this connection,
  // exchange build fingerprints and refuse a worker whose frame version,
  // snapshot format version or config hash differs from ours. Catching
  // skew here — once per connection — beats discovering it per message
  // mid-migration, when a half-moved session would be on the line. A
  // handshake failure is final for the call (like a failed connect); the
  // next Call reconnects and retries the handshake, so a worker that is
  // upgraded in place heals the slot.
  server::WireOptions wire;
  wire.ioTimeoutMs = options_.ioTimeoutMs;
  wire.maxFrameBytes = options_.maxFrameBytes;
  Status sent =
      server::WriteMessage(connection_, server::MakeHelloRequest(), wire);
  if (!sent.ok()) {
    connection_.Close();
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ + " failed the hello handshake: " +
                            sent.error().message);
  }
  auto answer = server::ReadMessage(connection_, wire);
  if (!answer.ok()) {
    connection_.Close();
    return Status::Fail(ErrorKind::kUnavailable,
                        "worker " + address_ + " failed the hello handshake: " +
                            answer.error().message);
  }
  server::HelloInfo peer;
  Status compatible =
      server::CheckHelloResponse(answer.value(), address_, &peer);
  if (!compatible.ok()) {
    connection_.Close();
    return compatible;
  }
  peerDeltaBlobs_.store(peer.deltaBlobs, std::memory_order_relaxed);
  return Status::Ok();
}

Result<server::Reply> SocketTransport::Call(const json::Json& request) {
  server::WireOptions wire;
  wire.ioTimeoutMs = options_.ioTimeoutMs;
  wire.maxFrameBytes = options_.maxFrameBytes;

  // Split the request for the wire exactly once, before the retry loop:
  // the non-blob fields (small) are serialized into the text, and the
  // blob — multi-MiB of base64 on every drain import — stays a borrowed
  // view on the caller's document, never copied or re-dumped.
  std::string_view blob;
  const std::string text = server::DumpWithoutBlob(request, &blob);

  // One reconnect-and-resend attempt when the *write* fails: the worker
  // drops incomplete frames, so a request whose write failed was never
  // executed and is safe to resend. Once the write succeeded, a failed
  // read is final — the worker may have executed the request, so
  // resending could run it twice; fail closed instead. A failed connect
  // is also final: ConnectTo already retried until its deadline.
  SocketMetrics& metrics = SocketMetrics::Get();
  metrics.calls.Increment();
  metrics.requestBytes.Add(text.size());
  metrics.blobBytes.Add(blob.size());
  const std::uint64_t startNs = obs::MonotonicNowNs();
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status connected = EnsureConnected();
    if (!connected.ok()) return connected.error();
    Status written = server::WriteFrame(connection_, text, blob, wire);
    if (!written.ok()) {
      connection_.Close();
      if (attempt == 0) continue;
      // The frame never left: retryable by the same argument as a failed
      // connect, hence kUnavailable.
      return Error{ErrorKind::kUnavailable,
                   "send to worker " + address_ +
                       " failed: " + written.error().message};
    }
    // The reply's sections go up as read: nothing on this side of the
    // router parses a session command's rendered state.
    auto response = server::ReadFrame(connection_, wire);
    if (!response.ok()) {
      connection_.Close();
      // Deliberately *not* kUnavailable: the request reached the worker
      // and may have executed — a blind retry could run it twice. Fail
      // closed and let the caller decide with full knowledge.
      return Error{ErrorKind::kInternal,
                   "no response from worker " + address_ + ": " +
                       response.error().message +
                       " (request may or may not have executed)"};
    }
    // Only completed round trips reach the histogram: a timed-out read
    // would record the timeout budget, not a latency.
    metrics.rttUs.Record((obs::MonotonicNowNs() - startNs) / 1000);
    return std::move(response).value();
  }
  return Error{ErrorKind::kInternal, "unreachable"};
}

}  // namespace rvss::shard
