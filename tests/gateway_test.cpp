// Gateway tests: the epoll front door end-to-end over real sockets.
//
// The gateway's contract is that many concurrent clients are invisible
// to results (byte-identical statistics vs a single-process server),
// that misbehaving clients cost only themselves (partial frames, frame
// garbage, quota overruns), and that overload is answered with retryable
// kUnavailable load-shed errors instead of unbounded queueing. The
// admission-overlap test at the bottom pins the PR's router change: a
// createSession must not serialize behind an in-progress drain of an
// unrelated worker. Alongside ride the front-door bugfix regressions:
// ServeFrames surviving transient accept failures, WorkerLane's refusal
// errors being kUnavailable, the lane's turn protocol (FIFO order, held
// turns, stop), a drain owning only its worker, and client inputs that
// once crashed the process.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <dirent.h>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "gateway/gateway.h"
#include "json/json.h"
#include "obs/registry.h"
#include "server/api.h"
#include "server/frame_loop.h"
#include "server/wire.h"
#include "shard/lane.h"
#include "shard/router.h"
#include "test_util.h"
#include "shard/transport.h"
#include "shard/worker.h"

namespace rvss {
namespace {

const char* kSpinLoop = R"(
main:
    li t0, 1000000
spin:
    addi t0, t0, -1
    bnez t0, spin
    ret
)";

json::Json Cmd(const char* command,
               std::initializer_list<std::pair<const char*, json::Json>>
                   fields = {}) {
  json::Json request = json::Json::MakeObject();
  request.Set("command", command);
  for (const auto& [key, value] : fields) request.Set(key, value);
  return request;
}

server::WireOptions ClientWire() {
  server::WireOptions wire;
  wire.ioTimeoutMs = 10'000;
  return wire;
}

/// One blocking client connection to a gateway (or worker) address.
struct Client {
  explicit Client(const std::string& address) {
    auto connected = net::ConnectTo(address, 5'000);
    if (!connected.ok()) {
      ADD_FAILURE() << "connect failed: " << connected.error().ToText();
      return;
    }
    socket = std::move(connected).value();
  }

  json::Json Call(json::Json request) {
    const server::WireOptions wire = ClientWire();
    Status wrote = server::WriteMessage(socket, std::move(request), wire);
    if (!wrote.ok()) {
      ADD_FAILURE() << "write failed: " << wrote.error().ToText();
      return json::Json();
    }
    auto response = server::ReadMessage(socket, wire);
    if (!response.ok()) {
      ADD_FAILURE() << "read failed: " << response.error().ToText();
      return json::Json();
    }
    return std::move(response).value();
  }

  net::Socket socket;
};

/// RAII gateway over a fresh unix address; Stop() on scope exit.
struct ScopedGateway {
  explicit ScopedGateway(gateway::Gateway::Handler handler,
                         gateway::GatewayOptions options = {}) {
    options.address = shard::MakeWorkerAddress("gwtest");
    auto started = gateway::Gateway::Start(std::move(handler), options);
    if (!started.ok()) {
      ADD_FAILURE() << "gateway start failed: " << started.error().ToText();
      return;
    }
    gateway = std::move(started).value();
  }
  ~ScopedGateway() {
    if (gateway != nullptr) gateway->Stop();
  }
  const std::string& address() const { return gateway->address(); }
  std::unique_ptr<gateway::Gateway> gateway;
};

// ---- many clients, one fleet: results must be byte-identical ---------------

TEST(Gateway, ConcurrentClientsMatchSingleProcessByteIdentically) {
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 4;
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);

  // The single-process reference: one session, 3 x 20 steps, stats.
  server::SimServer local;
  json::Json localCreated = local.Handle(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  ASSERT_EQ(localCreated.GetString("status", ""), "ok");
  const std::int64_t localId = localCreated.GetInt("sessionId", -1);
  for (int batch = 0; batch < 3; ++batch) {
    local.Handle(Cmd("step", {{"sessionId", json::Json(localId)},
                              {"count", json::Json(20)}}));
  }
  const std::string reference =
      local.Handle(Cmd("stats", {{"sessionId", json::Json(localId)}}))
          .Find("statistics")
          ->Dump();

  constexpr int kClients = 8;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(gw.address());
      json::Json created = client.Call(
          Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                                {"entry", json::Json("main")}}));
      if (created.GetString("status", "") != "ok") {
        results[c] = "createSession failed: " + created.Dump();
        return;
      }
      const std::int64_t id = created.GetInt("sessionId", -1);
      for (int batch = 0; batch < 3; ++batch) {
        json::Json stepped =
            client.Call(Cmd("step", {{"sessionId", json::Json(id)},
                                     {"count", json::Json(20)}}));
        if (stepped.GetString("status", "") != "ok") {
          results[c] = "step failed: " + stepped.Dump();
          return;
        }
      }
      json::Json stats =
          client.Call(Cmd("stats", {{"sessionId", json::Json(id)}}));
      const json::Json* statistics = stats.Find("statistics");
      results[c] = statistics == nullptr ? "stats failed: " + stats.Dump()
                                         : statistics->Dump();
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[c], reference) << "client " << c;
  }
}

// ---- misbehaving clients cost only themselves ------------------------------

TEST(Gateway, PartialFramesFromASlowClientAreAssembled) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) {
        return server::ToReply(sim.Handle(request));
      });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  const std::string text =
      Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}).Dump();
  const std::string frame = net::EncodeFrameHeader(text.size(), 0) + text;

  // Dribble the frame a few bytes at a time with pauses between sends:
  // the gateway must accumulate across epoll wakeups, never block a
  // thread on this connection, and answer once the frame completes.
  for (std::size_t offset = 0; offset < frame.size(); offset += 7) {
    const std::size_t len = std::min<std::size_t>(7, frame.size() - offset);
    ASSERT_TRUE(
        net::SendAll(client.socket, frame.substr(offset, len), 5'000).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto response = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "ok");
}

TEST(Gateway, FrameGarbageClosesOnlyThatConnection) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) {
        return server::ToReply(sim.Handle(request));
      });
  ASSERT_NE(gw.gateway, nullptr);

  // An innocent bystander with a request already half-sent.
  Client bystander(gw.address());

  Client garbler(gw.address());
  ASSERT_TRUE(
      net::SendAll(garbler.socket, std::string(64, 'X'), 5'000).ok());
  // Bad magic: the stream is untrustworthy, the connection must close.
  auto closed = server::ReadMessage(garbler.socket, ClientWire());
  EXPECT_FALSE(closed.ok());

  // The bystander (and new connections) are unaffected.
  json::Json parsed =
      bystander.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  EXPECT_EQ(parsed.GetString("status", ""), "ok");
}

TEST(Gateway, BadJsonGetsAnErrorAndTheConnectionLivesOn) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) {
        return server::ToReply(sim.Handle(request));
      });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  const std::string garbage = "this is not json";
  ASSERT_TRUE(net::SendAll(client.socket,
                           net::EncodeFrameHeader(garbage.size(), 0) + garbage,
                           5'000)
                  .ok());
  auto response = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  testutil::CheckErrorEnvelope(response.value());
  EXPECT_EQ(testutil::ErrorOf(response.value()).GetString("kind", ""), "parse");

  json::Json parsed =
      client.Call(Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}));
  EXPECT_EQ(parsed.GetString("status", ""), "ok");
}

TEST(Gateway, PipelinedFramesAreAnsweredInOrder) {
  server::SimServer sim;
  ScopedGateway gw(
      [&sim](const json::Json& request) {
        return server::ToReply(sim.Handle(request));
      });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  // Three distinguishable requests in a single send: a parse success, an
  // unknown command, and the hello handshake. Responses must come back
  // in exactly this order.
  std::string burst;
  for (const json::Json& request :
       {Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}),
        Cmd("definitelyNotACommand"), server::MakeHelloRequest()}) {
    const std::string text = request.Dump();
    burst += net::EncodeFrameHeader(text.size(), 0) + text;
  }
  ASSERT_TRUE(net::SendAll(client.socket, burst, 5'000).ok());

  auto first = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(first.ok()) << first.error().ToText();
  EXPECT_EQ(first.value().GetString("status", ""), "ok");
  auto second = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(second.ok()) << second.error().ToText();
  testutil::CheckErrorEnvelope(second.value());
  auto third = server::ReadMessage(client.socket, ClientWire());
  ASSERT_TRUE(third.ok()) << third.error().ToText();
  EXPECT_TRUE(third.value().GetBool("hello", false)) << third.value().Dump();
}

// ---- admission control -----------------------------------------------------

TEST(Gateway, SessionQuotaIsRefusedWithRetryableUnavailable) {
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  shard::ShardRouter router(routerOptions);
  gateway::GatewayOptions options;
  options.maxSessionsPerConnection = 2;
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  auto create = [&client]() {
    return client.Call(Cmd("createSession",
                           {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  };
  json::Json first = create();
  ASSERT_EQ(first.GetString("status", ""), "ok") << first.Dump();
  json::Json second = create();
  ASSERT_EQ(second.GetString("status", ""), "ok") << second.Dump();

  // The third admission is refused at the gateway: retryable, explicit,
  // and the fleet never sees it.
  json::Json refused = create();
  testutil::CheckErrorEnvelope(refused);
  EXPECT_EQ(testutil::ErrorOf(refused).GetString("kind", ""), "unavailable")
      << refused.Dump();
  EXPECT_NE(testutil::ErrorOf(refused).GetString("message", "").find("quota"),
            std::string::npos);

  // Another connection has its own quota.
  Client other(gw.address());
  json::Json elsewhere = other.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  EXPECT_EQ(elsewhere.GetString("status", ""), "ok") << elsewhere.Dump();

  // deleteSession releases the quota.
  json::Json deleted = client.Call(
      Cmd("deleteSession",
          {{"sessionId", json::Json(first.GetInt("sessionId", -1))}}));
  ASSERT_EQ(deleted.GetString("status", ""), "ok") << deleted.Dump();
  json::Json again = create();
  EXPECT_EQ(again.GetString("status", ""), "ok") << again.Dump();
}

TEST(Gateway, ConnectionCapClosesExcessConnectionsOnArrival) {
  server::SimServer sim;
  gateway::GatewayOptions options;
  options.maxConnections = 2;
  ScopedGateway gw(
      [&sim](const json::Json& request) {
        return server::ToReply(sim.Handle(request));
      },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client first(gw.address());
  Client second(gw.address());
  // Occupy both slots for real (the accept must have happened before the
  // third connect, or the cap has nothing to refuse).
  EXPECT_EQ(first.Call(Cmd("hello")).GetBool("hello", false), true);
  EXPECT_EQ(second.Call(Cmd("hello")).GetBool("hello", false), true);

  Client third(gw.address());
  // The gateway closes it on arrival: the read sees EOF, not a response.
  auto response = server::ReadMessage(third.socket, ClientWire());
  EXPECT_FALSE(response.ok());

  // Closing an admitted connection frees the slot.
  first.socket.Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    Client retry(gw.address());
    auto hello = server::WriteMessage(retry.socket, Cmd("hello"),
                                      ClientWire());
    if (hello.ok()) {
      auto answer = server::ReadMessage(retry.socket, ClientWire());
      if (answer.ok() && answer.value().GetBool("hello", false)) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "a freed connection slot was never reusable";
}

// ---- backpressure: load shed instead of unbounded queues -------------------

TEST(Gateway, DispatchQueueOverflowShedsWithUnavailable) {
  // One dispatcher, a one-slot queue, and a handler that parks on a
  // latch: the first request occupies the dispatcher, the second fills
  // the queue, the third must be shed immediately — not queued, not
  // blocked.
  std::mutex mutex;
  std::condition_variable released;
  bool release = false;
  std::atomic<int> entered{0};
  gateway::GatewayOptions options;
  options.dispatchThreads = 1;
  options.maxDispatchQueue = 1;
  ScopedGateway gw(
      [&](const json::Json& request) {
        ++entered;
        std::unique_lock<std::mutex> lock(mutex);
        released.wait(lock, [&] { return release; });
        json::Json response = json::Json::MakeObject();
        response.Set("status", "ok");
        response.Set("echo", request.GetString("tag", ""));
        return server::ToReply(std::move(response));
      },
      options);
  ASSERT_NE(gw.gateway, nullptr);

  Client a(gw.address());
  Client b(gw.address());
  Client c(gw.address());
  const server::WireOptions wire = ClientWire();
  ASSERT_TRUE(server::WriteMessage(a.socket,
                                   Cmd("work", {{"tag", json::Json("a")}}),
                                   wire)
                  .ok());
  // Wait until the dispatcher is provably inside the handler before
  // filling the queue, or the test races its own setup.
  for (int i = 0; i < 500 && entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(entered.load(), 1);
  ASSERT_TRUE(server::WriteMessage(b.socket,
                                   Cmd("work", {{"tag", json::Json("b")}}),
                                   wire)
                  .ok());
  // b must be *queued* (not shed); give the I/O thread a moment to move
  // it into the dispatch queue before c arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ASSERT_TRUE(server::WriteMessage(c.socket,
                                   Cmd("work", {{"tag", json::Json("c")}}),
                                   wire)
                  .ok());
  auto shed = server::ReadMessage(c.socket, wire);
  ASSERT_TRUE(shed.ok()) << shed.error().ToText();
  testutil::CheckErrorEnvelope(shed.value());
  EXPECT_EQ(testutil::ErrorOf(shed.value()).GetString("kind", ""),
            "unavailable")
      << shed.value().Dump();
  EXPECT_NE(
      testutil::ErrorOf(shed.value()).GetString("message", "").find("shed"),
      std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  released.notify_all();
  auto aDone = server::ReadMessage(a.socket, wire);
  ASSERT_TRUE(aDone.ok()) << aDone.error().ToText();
  EXPECT_EQ(aDone.value().GetString("echo", ""), "a");
  auto bDone = server::ReadMessage(b.socket, wire);
  ASSERT_TRUE(bDone.ok()) << bDone.error().ToText();
  EXPECT_EQ(bDone.value().GetString("echo", ""), "b");
}

/// An in-process transport whose Call blocks (for commands in `blockOn`)
/// until Release(); used to stall a worker or a drain deterministically.
class BlockingTransport : public shard::WorkerTransport {
 public:
  explicit BlockingTransport(std::string blockOn)
      : blockOn_(std::move(blockOn)), inner_(server::SimServer::Limits{}) {}

  Result<server::Reply> Call(const json::Json& request) override {
    const std::string command = request.GetString("command", "");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++calls_[command];
    }
    if (command == blockOn_) {
      ++entered_;
      std::unique_lock<std::mutex> lock(mutex_);
      released_.wait(lock, [&] { return release_; });
    }
    return inner_.Call(request);
  }
  std::string Describe() const override { return "blocking"; }
  server::SimServer* LocalServer() override { return inner_.LocalServer(); }

  int entered() const { return entered_.load(); }
  /// How many `command` requests reached this worker.
  int calls(const std::string& command) {
    std::lock_guard<std::mutex> lock(mutex_);
    return calls_[command];
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      release_ = true;
    }
    released_.notify_all();
  }

 private:
  const std::string blockOn_;
  shard::InProcessTransport inner_;
  std::mutex mutex_;
  std::condition_variable released_;
  bool release_ = false;
  std::map<std::string, int> calls_;
  std::atomic<int> entered_{0};
};

TEST(Gateway, StalledWorkerLaneShedsThroughTheGateway) {
  // One worker whose transport parks on parseAsm, a one-deep lane queue:
  // request one is in flight, request two queues, request three must
  // come back through the gateway as a retryable load shed.
  auto blocking = std::make_shared<BlockingTransport>("parseAsm");
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 1;
  routerOptions.maxLaneQueueDepth = 1;
  routerOptions.transportFactory =
      [&blocking](std::size_t, const server::SimServer::Limits&)
      -> Result<std::shared_ptr<shard::WorkerTransport>> {
    return std::shared_ptr<shard::WorkerTransport>(blocking);
  };
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client a(gw.address());
  Client b(gw.address());
  Client c(gw.address());
  const server::WireOptions wire = ClientWire();
  const json::Json request =
      Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}});
  ASSERT_TRUE(server::WriteMessage(a.socket, request, wire).ok());
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1) << "worker never saw the first request";
  ASSERT_TRUE(server::WriteMessage(b.socket, request, wire).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ASSERT_TRUE(server::WriteMessage(c.socket, request, wire).ok());
  auto shed = server::ReadMessage(c.socket, wire);
  ASSERT_TRUE(shed.ok()) << shed.error().ToText();
  testutil::CheckErrorEnvelope(shed.value());
  EXPECT_EQ(testutil::ErrorOf(shed.value()).GetString("kind", ""),
            "unavailable")
      << shed.value().Dump();

  blocking->Release();
  auto aDone = server::ReadMessage(a.socket, wire);
  ASSERT_TRUE(aDone.ok());
  EXPECT_EQ(aDone.value().GetString("status", ""), "ok");
  auto bDone = server::ReadMessage(b.socket, wire);
  ASSERT_TRUE(bDone.ok());
  EXPECT_EQ(bDone.value().GetString("status", ""), "ok");
}

// ---- a drain owns only its worker: admissions overlap drains ---------------

TEST(Gateway, CreateSessionDoesNotSerializeBehindAnUnrelatedDrain) {
  // Worker 0's transport parks inside exportSession, so a drainWorker(0)
  // stalls mid-move holding worker 0's lane turn. When admissions held
  // the fleet mutex across their round trip, every admission then waited
  // for the whole drain; now a createSession must land on worker 1 while
  // the drain is still stuck.
  auto blocking = std::make_shared<BlockingTransport>("exportSession");
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  routerOptions.transportFactory =
      [&blocking](std::size_t worker, const server::SimServer::Limits& limits)
      -> Result<std::shared_ptr<shard::WorkerTransport>> {
    if (worker == 0) return std::shared_ptr<shard::WorkerTransport>(blocking);
    return std::shared_ptr<shard::WorkerTransport>(
        std::make_shared<shard::InProcessTransport>(limits));
  };
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);

  // Seed at least one session onto worker 0 so the drain has a move to
  // stall in.
  Client seeder(gw.address());
  bool onZero = false;
  for (int i = 0; i < 64 && !onZero; ++i) {
    json::Json created = seeder.Call(
        Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                              {"entry", json::Json("main")}}));
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    onZero = created.GetInt("worker", -1) == 0;
  }
  ASSERT_TRUE(onZero) << "placement never chose worker 0";

  std::thread drainer([&router] {
    json::Json drained =
        router.Handle(Cmd("drainWorker", {{"worker", json::Json(0)}}));
    EXPECT_EQ(drained.GetString("status", ""), "ok") << drained.Dump();
  });
  // Wait until the drain is provably stuck inside worker 0's export.
  for (int i = 0; i < 2'500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(blocking->entered(), 1) << "drain never reached the export";

  // The pin: a fresh admission through the gateway completes *now*, on
  // worker 1, while the drain still holds worker 0. The generous bound
  // only guards against a hung test — the old behavior blocks forever
  // (the export latch is still closed).
  Client admitter(gw.address());
  const auto start = std::chrono::steady_clock::now();
  json::Json admitted = admitter.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(admitted.GetString("status", ""), "ok") << admitted.Dump();
  EXPECT_EQ(admitted.GetInt("worker", -1), 1)
      << "a gated worker must not receive admissions";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5)
      << "createSession serialized behind an unrelated drain";
  EXPECT_EQ(blocking->entered(), 1) << "the drain should still be stalled";

  blocking->Release();
  drainer.join();
}

/// A two-worker router whose worker 0 parks inside exportSession, with
/// one session on worker 0 stepped `kSteppedBefore` cycles: StallDrain()
/// leaves a drainWorker(0) stuck mid-move, holding worker 0's lane turn.
struct StalledDrainFleet {
  static constexpr std::int64_t kSteppedBefore = 100;

  StalledDrainFleet() {
    shard::ShardRouter::Options options;
    options.workerCount = 2;
    options.transportFactory =
        [this](std::size_t worker, const server::SimServer::Limits&)
        -> Result<std::shared_ptr<shard::WorkerTransport>> {
      return std::shared_ptr<shard::WorkerTransport>(worker == 0 ? worker0
                                                                 : worker1);
    };
    router = std::make_unique<shard::ShardRouter>(options);
    for (int i = 0; i < 64 && sessionId < 0; ++i) {
      json::Json created = router->Handle(
          Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                                {"entry", json::Json("main")}}));
      EXPECT_EQ(created.GetString("status", ""), "ok") << created.Dump();
      if (created.GetInt("worker", -1) == 0) {
        sessionId = created.GetInt("sessionId", -1);
      }
    }
    EXPECT_GE(sessionId, 0) << "placement never chose worker 0";
    json::Json stepped = router->Handle(
        Cmd("step", {{"sessionId", json::Json(sessionId)},
                     {"count", json::Json(kSteppedBefore)}}));
    EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  }

  /// Starts the drain; true once it is provably stuck in the export.
  bool StallDrain() {
    drainer = std::thread([this] {
      drained = router->Handle(Cmd("drainWorker", {{"worker", json::Json(0)}}));
    });
    for (int i = 0; i < 2'500 && worker0->entered() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return worker0->entered() == 1;
  }

  /// Lets the export go on and waits for the drain to finish.
  void ReleaseDrain() {
    worker0->Release();
    if (drainer.joinable()) drainer.join();
  }

  ~StalledDrainFleet() { ReleaseDrain(); }

  std::shared_ptr<BlockingTransport> worker0 =
      std::make_shared<BlockingTransport>("exportSession");
  /// Never blocks; counts what reaches worker 1.
  std::shared_ptr<BlockingTransport> worker1 =
      std::make_shared<BlockingTransport>("");
  std::unique_ptr<shard::ShardRouter> router;
  std::int64_t sessionId = -1;
  std::thread drainer;
  json::Json drained;
};

TEST(OwnedWorker, StepWaitingBehindAStalledDrainRunsOnTheSessionsNewWorker) {
  // The drain holds worker 0's turn, so a step for its session waits in
  // worker 0's lane. When its turn comes up, the session has moved: the
  // step must re-resolve and run on worker 1, and the state must be what
  // an undisturbed session reaches.
  constexpr std::int64_t kSteppedAfter = 50;
  StalledDrainFleet fleet;
  ASSERT_GE(fleet.sessionId, 0);
  ASSERT_TRUE(fleet.StallDrain()) << "drain never reached the export";

  auto step = std::async(std::launch::async, [&fleet] {
    return fleet.router->Handle(
        Cmd("step", {{"sessionId", json::Json(fleet.sessionId)},
                     {"count", json::Json(kSteppedAfter)}}));
  });
  EXPECT_EQ(step.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "the step ran while the drain held the session's worker";
  fleet.ReleaseDrain();
  EXPECT_EQ(fleet.drained.GetString("status", ""), "ok")
      << fleet.drained.Dump();
  const json::Json stepped = step.get();
  ASSERT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
  EXPECT_EQ(fleet.worker0->calls("step"), 1) << "only the step before the drain";
  EXPECT_EQ(fleet.worker1->calls("step"), 1)
      << "the waiting step must run on the session's new worker";

  server::SimServer reference;
  json::Json created =
      reference.Handle(Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                                             {"entry", json::Json("main")}}));
  const std::int64_t referenceId = created.GetInt("sessionId", -1);
  for (const std::int64_t count :
       {StalledDrainFleet::kSteppedBefore, kSteppedAfter}) {
    ASSERT_EQ(reference
                  .Handle(Cmd("step", {{"sessionId", json::Json(referenceId)},
                                       {"count", json::Json(count)}}))
                  .GetString("status", ""),
              "ok");
  }
  const json::Json expected =
      reference.Handle(Cmd("state", {{"sessionId", json::Json(referenceId)}}));
  const json::Json actual = fleet.router->Handle(
      Cmd("state", {{"sessionId", json::Json(fleet.sessionId)}}));
  ASSERT_EQ(actual.GetString("status", ""), "ok") << actual.Dump();
  EXPECT_EQ(actual.Find("state")->Dump(), expected.Find("state")->Dump());
}

TEST(OwnedWorker, CompileIsAnsweredWhileADrainIsStalled) {
  // A stateless command must not wait behind a drain: the drained worker
  // is tried last, so worker 1 answers while worker 0 is still held.
  StalledDrainFleet fleet;
  ASSERT_GE(fleet.sessionId, 0);
  ASSERT_TRUE(fleet.StallDrain()) << "drain never reached the export";

  auto compiled = std::async(std::launch::async, [&fleet] {
    return fleet.router->Handle(
        Cmd("compile", {{"code", json::Json("int main() { return 1; }")}}));
  });
  const bool answered = compiled.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  EXPECT_TRUE(answered) << "compile waited behind the drain";
  EXPECT_EQ(fleet.worker0->entered(), 1) << "the drain should still be stalled";
  fleet.ReleaseDrain();
  const json::Json response = compiled.get();
  EXPECT_EQ(response.GetString("status", ""), "ok") << response.Dump();
  EXPECT_EQ(fleet.worker0->calls("compile"), 0);
}

// ---- satellite: ServeFrames survives transient accept failures -------------

std::size_t CountOpenDescriptors() {
  std::size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count >= 3 ? count - 3 : 0;  // ".", "..", and the DIR's own fd
}

TEST(ServeFrames, TransientAcceptFailuresAreCountedAndRetried) {
  const std::string address = shard::MakeWorkerAddress("acceptfail");
  auto listener = net::ListenOn(address);
  ASSERT_TRUE(listener.ok()) << listener.error().ToText();

  // The client descriptor is created up front: connect(2) on an existing
  // socket needs no new descriptor, so it works at the squeezed limit.
  const int clientFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(clientFd, 0);
  net::Socket client(clientFd);

  server::SimServer sim;
  std::thread serveThread(
      [&] { (void)server::ServeFrames(sim, listener.value()); });

  obs::Counter& acceptErrors =
      obs::Registry::Instance().GetCounter("server.acceptErrors");
  const std::uint64_t errorsBefore = acceptErrors.value();

  // Exhaust the descriptor table: soft limit down to the highest fd in
  // use, then plug any holes below it, so the next accept(2) gets EMFILE.
  struct rlimit original;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  struct rlimit squeezed = original;
  squeezed.rlim_cur = CountOpenDescriptors() + 8;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &squeezed), 0);
  std::vector<int> plugs;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    plugs.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE) << "descriptor table never filled";

  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  std::strncpy(sun.sun_path, address.substr(5).c_str(),
               sizeof(sun.sun_path) - 1);
  ASSERT_EQ(::connect(clientFd, reinterpret_cast<struct sockaddr*>(&sun),
                      sizeof(sun)),
            0);

  // The serve loop's accept now fails with EMFILE. The regression: it
  // must count + retry, not return and kill the worker.
  bool counted = false;
  for (int i = 0; i < 2'500 && !counted; ++i) {
    counted = acceptErrors.value() > errorsBefore;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Free the descriptors before asserting: a failed ASSERT here would
  // otherwise leave the whole test binary descriptor-starved.
  for (const int fd : plugs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);
  EXPECT_TRUE(counted) << "accept failures were not counted as transient";

  // With descriptors available again the pending connection is accepted
  // and served — the loop survived the exhaustion window.
  const server::WireOptions wire = ClientWire();
  ASSERT_TRUE(server::WriteMessage(
                  client, Cmd("parseAsm", {{"code", json::Json(kSpinLoop)}}),
                  wire)
                  .ok());
  auto response = server::ReadMessage(client, wire);
  ASSERT_TRUE(response.ok()) << response.error().ToText();
  EXPECT_EQ(response.value().GetString("status", ""), "ok");

  ASSERT_TRUE(
      server::WriteMessage(client, Cmd("shutdownWorker"), wire).ok());
  (void)server::ReadMessage(client, wire);
  serveThread.join();
}

// ---- lane refusals are retryable kUnavailable -------------------------------

/// Waits for `turn` and runs one call on it.
Result<server::Reply> CallOnTurn(shard::WorkerLane& lane,
                                 shard::WorkerLane::Turn turn,
                                 const json::Json& request) {
  Result<shard::WorkerLane::HeldTurn> held = lane.Await(turn);
  if (!held.ok()) return held.error();
  return held.value().Call(request);
}

TEST(WorkerLane, DepthCapShedsWithImmediateRetryableUnavailable) {
  auto blocking = std::make_shared<BlockingTransport>("work");
  shard::WorkerLane lane(blocking, /*maxQueueDepth=*/1);

  auto inFlight =
      std::async(std::launch::async, [&lane] { return lane.Call(Cmd("work")); });
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1);
  auto queuedTurn = lane.TakeTurn();
  ASSERT_TRUE(queuedTurn.ok());
  auto queued = std::async(std::launch::async, [&lane, &queuedTurn] {
    return CallOnTurn(lane, queuedTurn.value(), Cmd("work"));
  });

  auto shed =
      std::async(std::launch::async, [&lane] { return lane.Call(Cmd("work")); });
  // A load shed resolves while the lane is still blocked — backpressure
  // that queues the refusal would be no backpressure at all.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto shedResult = shed.get();
  ASSERT_FALSE(shedResult.ok());
  EXPECT_EQ(shedResult.error().kind, ErrorKind::kUnavailable);
  EXPECT_NE(shedResult.error().message.find("load shed"), std::string::npos);

  blocking->Release();
  EXPECT_TRUE(inFlight.get().ok());
  EXPECT_TRUE(queued.get().ok());
}

TEST(WorkerLane, StoppedLaneAnswersRetryableUnavailable) {
  auto transport =
      std::make_shared<shard::InProcessTransport>(server::SimServer::Limits{});
  shard::WorkerLane lane(transport);
  lane.Stop();
  auto refused = std::async(std::launch::async, [&lane] {
    return lane.Call(Cmd("parseAsm", {{"code", json::Json("x")}}));
  });
  ASSERT_EQ(refused.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto result = refused.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ErrorKind::kUnavailable);
}

// ---- the turn protocol -----------------------------------------------------

/// Records the `id` of every call in arrival order, and whether two calls
/// ever overlapped. Yields inside each call so waiting callers pile up.
class RecordingTransport : public shard::WorkerTransport {
 public:
  Result<server::Reply> Call(const json::Json& request) override {
    if (inside_.fetch_add(1) != 0) overlapped_.store(true);
    order_.push_back(request.GetInt("id", -1));
    std::this_thread::yield();
    inside_.fetch_sub(1);
    return server::Reply{"{\"status\":\"ok\"}", {}};
  }
  std::string Describe() const override { return "recording"; }

  /// Read only after every caller has joined.
  const std::vector<std::int64_t>& order() const { return order_; }
  bool overlapped() const { return overlapped_.load(); }

 private:
  std::atomic<int> inside_{0};
  std::atomic<bool> overlapped_{false};
  std::vector<std::int64_t> order_;
};

TEST(WorkerLane, CallsRunInTheOrderTurnsWereTaken) {
  auto recorder = std::make_shared<RecordingTransport>();
  shard::WorkerLane lane(recorder);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 200;

  // Turns are taken under one mutex that also logs them, the way the
  // router takes them under its fleet mutex: the log is the turn order.
  std::mutex takeMutex;
  std::vector<std::int64_t> taken;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int k = 0; k < kCallsPerThread; ++k) {
        const std::int64_t id = t * kCallsPerThread + k;
        shard::WorkerLane::Turn turn = 0;
        {
          std::lock_guard<std::mutex> lock(takeMutex);
          auto took = lane.TakeTurn();
          if (!took.ok()) {
            errors[t] = took.error().message;
            return;
          }
          turn = took.value();
          taken.push_back(id);
        }
        auto answer =
            CallOnTurn(lane, turn, Cmd("work", {{"id", json::Json(id)}}));
        if (!answer.ok()) {
          errors[t] = answer.error().message;
          return;
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (const std::string& error : errors) ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(taken.size(), static_cast<std::size_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(recorder->order(), taken);
  EXPECT_FALSE(recorder->overlapped()) << "two calls ran on the transport";
  const shard::WorkerLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.dispatched, taken.size());
  EXPECT_EQ(stats.queueDepth, 0u);
  EXPECT_FALSE(stats.inFlight);
}

TEST(WorkerLane, AwaitWaitsForAnEarlierTurnStillWaitingToRun) {
  // What a drain relies on to own its worker: its turn comes up only
  // after every earlier turn has run — the running caller *and* one that
  // took its turn but has not even started waiting for it.
  auto blocking = std::make_shared<BlockingTransport>("work");
  shard::WorkerLane lane(blocking);

  auto running =
      std::async(std::launch::async, [&lane] { return lane.Call(Cmd("work")); });
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1);
  // A second caller takes its turn but has not run yet.
  auto waiting = lane.TakeTurn();
  ASSERT_TRUE(waiting.ok());
  auto later = lane.TakeTurn();
  ASSERT_TRUE(later.ok());

  auto owned = std::async(std::launch::async,
                          [&lane, &later] { return lane.Await(later.value()).ok(); });
  EXPECT_EQ(owned.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a later turn came up while a call was running";
  blocking->Release();
  ASSERT_TRUE(running.get().ok());
  // Nothing runs now, but an earlier turn is still outstanding.
  EXPECT_EQ(owned.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "a later turn came up while an earlier caller was waiting for its turn";

  ASSERT_TRUE(CallOnTurn(lane, waiting.value(), Cmd("work")).ok());
  const bool cameUp = owned.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
  EXPECT_TRUE(cameUp);
  if (!cameUp) lane.Stop();  // unblocks the waiter so the test can end
  EXPECT_EQ(owned.get(), cameUp);
}

TEST(WorkerLane, AHeldTurnDestroyedWithoutACallPassesTheTurnOn) {
  auto recorder = std::make_shared<RecordingTransport>();
  shard::WorkerLane lane(recorder);
  auto first = lane.TakeTurn();
  auto second = lane.TakeTurn();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  {
    auto held = lane.Await(first.value());
    ASSERT_TRUE(held.ok());
    EXPECT_TRUE(lane.stats().inFlight);
  }

  auto next = std::async(std::launch::async, [&lane, &second] {
    return CallOnTurn(lane, second.value(), Cmd("work", {{"id", json::Json(7)}}));
  });
  const bool cameUp = next.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
  EXPECT_TRUE(cameUp) << "the unused turn was never passed on";
  if (!cameUp) lane.Stop();  // unblocks the waiter so the test can end
  EXPECT_TRUE(next.get().ok());
  EXPECT_EQ(recorder->order(), std::vector<std::int64_t>{7});
  const shard::WorkerLane::Stats stats = lane.stats();
  EXPECT_EQ(stats.dispatched, 1u);
  EXPECT_FALSE(stats.inFlight);
}

TEST(WorkerLane, StopAnswersAWaitingCallerWithRetryableUnavailable) {
  auto blocking = std::make_shared<BlockingTransport>("work");
  shard::WorkerLane lane(blocking);

  auto running =
      std::async(std::launch::async, [&lane] { return lane.Call(Cmd("work")); });
  for (int i = 0; i < 500 && blocking->entered() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(blocking->entered(), 1);
  // The turn is taken before Stop, so the caller waits for it rather
  // than being refused at TakeTurn.
  auto turn = lane.TakeTurn();
  ASSERT_TRUE(turn.ok());
  auto waiting = std::async(std::launch::async, [&lane, &turn] {
    return CallOnTurn(lane, turn.value(), Cmd("work"));
  });

  lane.Stop();
  // EXPECT, not ASSERT: on failure the release below must still run, or
  // the waiting caller's future would block the test forever.
  EXPECT_EQ(waiting.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "Stop left a waiting caller hanging";
  EXPECT_EQ(blocking->entered(), 1) << "the refused call reached the worker";

  // The call already running finishes normally.
  blocking->Release();
  EXPECT_TRUE(running.get().ok());
  auto refused = waiting.get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().kind, ErrorKind::kUnavailable);
}

// ---- client input cannot take an in-process fleet down ---------------------

TEST(Gateway, CrashInputsGetTypedEnvelopesAndTheFleetLivesOn) {
  // In-process workers share the gateway's process: one crash here would
  // take every session down with it.
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);

  Client client(gw.address());
  json::Json created = client.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const std::int64_t id = created.GetInt("sessionId", -1);

  struct Case {
    json::Json request;
    const char* kind;
  };
  json::Json oversizedCache = json::Json::MakeObject();
  json::Json cache = json::Json::MakeObject();
  cache.Set("enabled", true);
  cache.Set("lineCount", static_cast<std::int64_t>(1073741824));
  cache.Set("associativity", 1);
  cache.Set("lineSizeBytes", 4096);
  oversizedCache.Set("cache", std::move(cache));
  // 2^29 doubles: 2^32 bytes, once wrapped to 0 by a 32-bit size.
  json::Json hugeArray = json::Json::MakeObject();
  hugeArray.Set("name", "a");
  hugeArray.Set("type", "double");
  hugeArray.Set("constant", 1);
  hugeArray.Set("count", static_cast<std::int64_t>(536870912));
  json::Json hugeArrays = json::Json::MakeArray();
  hugeArrays.Append(std::move(hugeArray));
  const Case cases[] = {
      {Cmd("createSession",
           {{"isC", json::Json(true)},
            {"code", json::Json("int main(){ return " +
                                std::string(5000, '(') + "1" +
                                std::string(5000, ')') + "; }")}}),
       "parse"},
      {Cmd("createSession",
           {{"code", json::Json("main:\n addi x1, x0, " +
                                std::string(20000, '(') + "1" +
                                std::string(20000, ')') + "\n ret\n")}}),
       "parse"},
      {Cmd("createSession", {{"code", json::Json("addi x1, x0, 1")},
                             {"config", oversizedCache}}),
       "config"},
      {Cmd("createSession", {{"code", json::Json("addi x1, x0, 1")},
                             {"arrays", hugeArrays}}),
       "invalid_argument"},
      {Cmd("createSession",
           {{"code", json::Json(".data\n.byte 1\n"
                                ".balign 4611686018427387904\n")}}),
       "parse"},
  };
  for (const Case& bad : cases) {
    const json::Json response = client.Call(bad.request);
    testutil::CheckErrorEnvelope(response);
    EXPECT_EQ(testutil::ErrorOf(response).GetString("kind", ""), bad.kind)
        << response.Dump();
  }

  // The same gateway still answers, and the session made before the bad
  // requests still steps.
  Client after(gw.address());
  const json::Json hello = after.Call(Cmd("hello"));
  EXPECT_EQ(hello.GetString("status", ""), "ok") << hello.Dump();
  const json::Json stepped =
      after.Call(Cmd("step", {{"sessionId", json::Json(id)},
                              {"count", json::Json(10)}}));
  EXPECT_EQ(stepped.GetString("status", ""), "ok") << stepped.Dump();
}

// ---- integer request fields beyond int64 -----------------------------------

TEST(Gateway, OutOfRangeIntegerFieldsAreRefusedByName) {
  // A double no int64 holds used to reach a bare static_cast (undefined
  // behaviour), and `count: 1e300` answered "'count' must be
  // non-negative". The router refuses such a sessionId before routing;
  // the worker refuses such a count.
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);
  Client client(gw.address());
  const json::Json created = client.Call(
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}}));
  ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
  const json::Json id = created.GetInt("sessionId", -1);

  const struct {
    json::Json request;
    const char* field;
  } cases[] = {
      {Cmd("step", {{"sessionId", id}, {"count", json::Json(1e300)}}),
       "'count'"},
      {Cmd("step", {{"sessionId", id}, {"count", json::Json(-1e300)}}),
       "'count'"},
      {Cmd("step", {{"sessionId", json::Json(1e300)},
                    {"count", json::Json(1)}}),
       "'sessionId'"},
  };
  for (const auto& bad : cases) {
    const json::Json response = client.Call(bad.request);
    testutil::CheckErrorEnvelope(response);
    const json::Json error = testutil::ErrorOf(response);
    EXPECT_EQ(error.GetString("kind", ""), "invalid_argument")
        << response.Dump();
    EXPECT_NE(error.GetString("message", "").find(bad.field),
              std::string::npos)
        << response.Dump();
  }
}

// ---- replies are forwarded as the worker's bytes ----------------------------

/// The two GUI kernels of the paper's interactive load (e2ebench gui-step).
const char* kGuiSortC = R"(
int arr[64];
int main() {
  int total = 0;
  for (int rep = 0; rep < 2000; rep++) {
    for (int i = 0; i < 64; i++) arr[i] = (i * 37 + 11 + rep) % 101;
    for (int i = 1; i < 64; i++) {
      int key = arr[i];
      int j = i - 1;
      while (j >= 0 && arr[j] > key) { arr[j + 1] = arr[j]; j--; }
      arr[j + 1] = key;
    }
    total += arr[0] + arr[63];
  }
  return total;
}
)";

const char* kGuiFloatC = R"(
float x[32]; float y[32];
int main() {
  int total = 0;
  for (int rep = 0; rep < 4000; rep++) {
    for (int i = 0; i < 32; i++) { x[i] = (float)i * 0.25f; y[i] = (float)(32 - i + rep % 3); }
    float acc = 0.0f;
    for (int r = 0; r < 8; r++)
      for (int i = 0; i < 32; i++) acc += x[i] * y[i];
    total += (int)acc;
  }
  return total;
}
)";

/// One request frame out, one reply frame back, sections unparsed.
server::Reply RawCall(net::Socket& socket, const std::string& text) {
  const server::WireOptions wire = ClientWire();
  Status wrote = server::WriteFrame(socket, text, {}, wire);
  if (!wrote.ok()) {
    ADD_FAILURE() << "write failed: " << wrote.error().ToText();
    return {};
  }
  auto reply = server::ReadFrame(socket, wire);
  if (!reply.ok()) {
    ADD_FAILURE() << "read failed: " << reply.error().ToText();
    return {};
  }
  return std::move(reply).value();
}

/// A session command for session `id`, as request text.
std::string SessionRequest(
    const char* command, std::int64_t id,
    std::initializer_list<std::pair<const char*, json::Json>> fields = {}) {
  json::Json request = Cmd(command, fields);
  request.Set("sessionId", id);
  return request.Dump();
}

TEST(GatewayReplyBytes, SessionRepliesEqualSimServerHandleRawByteForByte) {
  // gui-step-shaped sessions behind a real gateway over socket workers,
  // against a bare SimServer given the same requests. A reply's bytes
  // (the blob put back as its last key) must equal HandleRaw's — nothing
  // between the worker's serializer and the client socket may re-render
  // them — and must be what Dump(Parse(bytes)) gives.
  shard::SpawnedFleet fleet;
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  routerOptions.transportFactory =
      shard::MakeSpawningTransportFactory(&fleet, "oracle");
  shard::ShardRouter router(routerOptions);
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); });
  ASSERT_NE(gw.gateway, nullptr);
  Client client(gw.address());
  server::SimServer oracle;

  struct Pair {
    std::int64_t fleetId = -1;
    std::int64_t oracleId = -1;
  };
  std::vector<Pair> sessions;
  for (const char* source : {kGuiSortC, kGuiFloatC}) {
    const json::Json create =
        Cmd("createSession", {{"code", json::Json(source)},
                              {"isC", json::Json(true)},
                              {"optLevel", json::Json(2)}});
    const json::Json created = client.Call(create);
    ASSERT_EQ(created.GetString("status", ""), "ok") << created.Dump();
    const json::Json local = oracle.Handle(create);
    ASSERT_EQ(local.GetString("status", ""), "ok") << local.Dump();
    sessions.push_back(
        {created.GetInt("sessionId", -1), local.GetInt("sessionId", -1)});
  }

  std::size_t compared = 0;
  std::size_t blobs = 0;
  // Runs the same command on both sides and compares the reply bytes.
  const auto same = [&](const Pair& session, const char* command,
                        std::initializer_list<std::pair<const char*, json::Json>>
                            fields) {
    const server::Reply reply =
        RawCall(client.socket, SessionRequest(command, session.fleetId, fields));
    const std::string expected =
        oracle.HandleRaw(SessionRequest(command, session.oracleId, fields));
    const std::string bytes = server::JoinReply(reply);
    EXPECT_EQ(bytes, expected) << command;
    auto parsed = json::Parse(bytes);
    ASSERT_TRUE(parsed.ok()) << command;
    EXPECT_EQ(parsed.value().Dump(), bytes) << command;
    EXPECT_EQ(reply.text.rfind("{\"status\":", 0), 0u) << reply.text;
    ++compared;
    if (!reply.blob.empty()) ++blobs;
  };
  for (const Pair& session : sessions) {
    same(session, "step", {{"count", json::Json(256)}});
    same(session, "step", {{"count", json::Json(1)}});
    same(session, "step", {{"count", json::Json(1)}});
    same(session, "stepBack", {});
    same(session, "restoreCheckpoint", {{"cycle", json::Json(100)}});
    same(session, "restoreCheckpoint", {{"cycle", json::Json(300)}});
    same(session, "state", {});
    same(session, "stats", {});
    same(session, "exportSession", {});
    same(session, "step", {{"count", json::Json(-1)}});  // an error envelope
  }
  EXPECT_EQ(compared, 20u);
  EXPECT_EQ(blobs, sessions.size()) << "exportSession ships its blob detached";
}

TEST(GatewayReplyBytes, EveryResponseStartsWithItsStatus) {
  // The router and the gateway read a forwarded reply's outcome from its
  // first key (server::ReplyIsOk). Every response shape — server,
  // router-composed, gateway-composed, error envelopes — must lead with
  // "status", or a peek would misread it.
  const auto leadsWithStatus = [](const std::string& text,
                                  const std::string& what) {
    EXPECT_EQ(text.rfind("{\"status\":\"", 0), 0u) << what << ": " << text;
    EXPECT_EQ(server::ReplyIsOk(text), text.rfind("{\"status\":\"ok\"", 0) == 0)
        << what;
  };

  // The server, through the frame-level entry point both transports use.
  server::SimServer sim;
  const std::string createAsm =
      Cmd("createSession", {{"code", json::Json(kSpinLoop)},
                            {"entry", json::Json("main")}})
          .Dump();
  const std::vector<std::string> serverRequests = {
      createAsm,
      R"({"command":"step","sessionId":1,"count":5})",
      R"({"command":"stepBack","sessionId":1})",
      R"({"command":"saveCheckpoint","sessionId":1})",
      R"({"command":"restoreCheckpoint","sessionId":1,"cycle":2})",
      R"({"command":"state","sessionId":1})",
      R"({"command":"run","sessionId":1,"maxCycles":10})",
      R"({"command":"stats","sessionId":1})",
      R"({"command":"fastForward","sessionId":1,"instructions":3})",
      R"({"command":"exportSession","sessionId":1})",
      R"({"command":"listSessions"})",
      R"({"command":"compile","code":"int main(){return 0;}"})",
      R"({"command":"parseAsm","code":"nonsense x"})",
      R"({"command":"checkConfig","config":{}})",
      R"({"command":"metrics"})",
      R"({"command":"traceDump"})",
      R"({"command":"hello"})",
      R"({"command":"deleteSession","sessionId":1})",
      R"({"command":"step","sessionId":1})",
      R"({"command":"nope"})",
      R"({not json)",
      R"({"command":"shutdownWorker"})",
  };
  for (const std::string& request : serverRequests) {
    leadsWithStatus(sim.HandleFrame(request, {}).text, request);
  }
  EXPECT_TRUE(sim.shutdownRequested());

  // The router's and the gateway's own answers.
  shard::ShardRouter::Options routerOptions;
  routerOptions.workerCount = 2;
  shard::ShardRouter router(routerOptions);
  gateway::GatewayOptions options;
  options.maxSessionsPerConnection = 1;
  ScopedGateway gw(
      [&router](const json::Json& request) { return router.Serve(request); },
      options);
  ASSERT_NE(gw.gateway, nullptr);
  Client client(gw.address());
  const std::vector<std::string> gatewayRequests = {
      createAsm,
      createAsm,  // over the one-session quota
      R"({"command":"step","sessionId":1,"count":5})",
      R"({"command":"step","sessionId":77})",
      R"({"command":"listSessions"})",
      R"({"command":"workerStats"})",
      R"({"command":"metrics"})",
      R"({"command":"traceDump"})",
      R"({"command":"rebalance"})",
      R"({"command":"drainWorker","worker":0})",
      R"({"command":"openWorker","worker":0})",
      R"({"command":"drainWorker","worker":9})",
      R"({"command":"addWorker"})",
      R"({"command":"removeWorker","worker":2})",
      R"({"command":"removeWorker","worker":9})",
      R"({"command":"shutdownWorker"})",
      R"({"command":"hello"})",
      R"({"command":"deleteSession","sessionId":1})",
      R"({not json)",
      R"({"command":"shutdownGateway"})",
  };
  for (const std::string& request : gatewayRequests) {
    leadsWithStatus(RawCall(client.socket, request).text, request);
  }
}

}  // namespace
}  // namespace rvss
