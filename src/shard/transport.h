// Worker transports: how the shard router reaches a worker.
//
// PR 3's router owned its workers as in-process SimServer objects; this
// interface splits "where the worker lives" from "what the router does
// with it". The router sees only Call(): one JSON request in, the
// worker's reply out as frame bytes (server::Reply — JSON text plus the
// detached blob), exactly as the worker serialized it. No transport
// parses a reply; the router forwards session-command replies to its
// caller untouched and parses only the small ones whose fields it needs.
// Transport-level failures (dead process, timeout, bad frame) come back
// as errors — distinct from a worker's own JSON error responses, which
// are successful Calls whose payload says "error".
//
// A transport is not thread-safe and need not be: its WorkerLane
// (shard/lane.h) owns it, and only the caller holding the lane's turn
// calls it, one request at a time, on that caller's own thread.
//
// Two implementations:
//
//   InProcessTransport  wraps a SimServer in this process; Call runs
//                       SimServer::HandleFrame, the function the worker
//                       frame loop serves through, so both transports
//                       share one path. The default, and the baseline
//                       bench_shard measures.
//   SocketTransport     speaks server/wire.h frames over a unix-domain or
//                       TCP socket to an rvss worker process. Connects
//                       lazily, performs the hello handshake on every
//                       fresh connection (refusing workers whose frame
//                       version, snapshot format version or config hash
//                       differ — see server/wire.h), reconnects after a
//                       failure on the next Call (so a restarted worker
//                       heals the slot), and fails closed: a request
//                       whose response never arrived is reported as an
//                       error, never retried blindly (it may have
//                       executed).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "common/socket.h"
#include "common/status.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/wire.h"

namespace rvss::shard {

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Dispatches one request and returns the worker's reply as the bytes
  /// it serialized. An error means the transport failed — the worker may
  /// or may not have seen the request; the caller must fail closed
  /// (report, don't assume).
  virtual Result<server::Reply> Call(const json::Json& request) = 0;

  /// True when the peer can decode base-referenced delta session blobs
  /// (snapshot format v3). Learned from the hello handshake for sockets;
  /// false until known — callers then ship full images, which is always
  /// safe, never lossy.
  virtual bool SupportsDeltaBlobs() const { return false; }

  /// Human-readable endpoint for logs and workerStats ("in-process",
  /// "unix:/tmp/rvss-w0.sock").
  virtual std::string Describe() const = 0;

  /// The wrapped SimServer for in-process transports; nullptr over a
  /// socket. Tests and embedders use this for white-box checks.
  virtual server::SimServer* LocalServer() { return nullptr; }
};

/// A worker in this process, behind the transport interface.
class InProcessTransport : public WorkerTransport {
 public:
  explicit InProcessTransport(const server::SimServer::Limits& limits)
      : server_(std::make_unique<server::SimServer>(limits)) {}

  Result<server::Reply> Call(const json::Json& request) override {
    static obs::Counter& calls =
        obs::Registry::Instance().GetCounter("shard.transport.inproc.calls");
    static obs::Histogram& callUs =
        obs::Registry::Instance().GetHistogram(
            "shard.transport.inproc.callUs");
    calls.Increment();
    obs::ScopedLatency timer(callUs);
    std::string_view blob;
    const std::string text = server::DumpWithoutBlob(request, &blob);
    return server_->HandleFrame(text, std::string(blob));
  }
  bool SupportsDeltaBlobs() const override { return true; }
  std::string Describe() const override { return "in-process"; }
  server::SimServer* LocalServer() override { return server_.get(); }

 private:
  std::unique_ptr<server::SimServer> server_;
};

struct SocketTransportOptions {
  /// Budget for establishing a connection (includes the bind race of a
  /// freshly spawned worker, retried inside ConnectTo).
  int connectTimeoutMs = 5'000;
  /// Per-call I/O deadline (request write + response read). Generous:
  /// a drain moves multi-MiB blobs and the worker simulates in between.
  int ioTimeoutMs = 60'000;
  std::size_t maxFrameBytes = net::kDefaultMaxFrameBytes;
};

class SocketTransport : public WorkerTransport {
 public:
  explicit SocketTransport(std::string address,
                           SocketTransportOptions options = {});

  Result<server::Reply> Call(const json::Json& request) override;
  bool SupportsDeltaBlobs() const override {
    // Set after each hello handshake; false while disconnected, which is
    // the conservative answer (a full image is always decodable).
    return peerDeltaBlobs_.load(std::memory_order_relaxed);
  }
  std::string Describe() const override { return address_; }

  const std::string& address() const { return address_; }

 private:
  Status EnsureConnected();

  std::string address_;
  SocketTransportOptions options_;
  net::Socket connection_;
  /// Atomic: read by the router's migration planner while the caller
  /// holding the lane's turn owns the connection.
  std::atomic<bool> peerDeltaBlobs_{false};
};

}  // namespace rvss::shard
