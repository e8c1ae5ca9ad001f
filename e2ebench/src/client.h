// The load generator's side of the wire: a few non-blocking connections
// to the gateway, driven from one thread with poll(2).
//
// Requests are length-prefixed frames (common/framing.h) carrying the
// JSON text the benchmark rendered itself; responses come back as raw
// text for the skimmer. The gateway answers one request per connection
// at a time, in order, so each connection keeps a FIFO of its
// outstanding requests and matches responses to them by position.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/socket.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

struct Completion {
  std::size_t conn = 0;
  std::uint64_t tag = 0;     ///< caller's id for the request
  Clock::time_point due;     ///< when the request was scheduled
  Clock::time_point sent;    ///< when its bytes were handed to the socket
  Clock::time_point done;    ///< when its response was fully read
  std::string text;          ///< the response JSON
  std::size_t frameBytes = 0;
};

class Client {
 public:
  /// Opens `count` connections to `address`; false (with `error` set)
  /// when any fails.
  bool Connect(const std::string& address, std::size_t count,
               std::string& error);

  std::size_t size() const { return conns_.size(); }
  std::size_t outstanding() const { return outstanding_; }

  /// Queues one request on `conn` and writes as much as the socket takes.
  void Send(std::size_t conn, const std::string& json, std::uint64_t tag,
            Clock::time_point due);

  /// Waits until `deadline` at most, moving bytes both ways, and calls
  /// `onDone` for every response completed meanwhile. Returns false on a
  /// connection error (with `error` set).
  bool Poll(Clock::time_point deadline,
            const std::function<void(Completion&)>& onDone,
            std::string& error);

  /// Sends one request on `conn` and waits for its response (control
  /// traffic: setup, metrics, checks). Requires `conn` to be idle.
  bool Call(std::size_t conn, const std::string& json, std::string& response,
            std::string& error, double* latencyMs = nullptr);

 private:
  struct Pending {
    std::uint64_t tag;
    Clock::time_point due;
    Clock::time_point sent;
  };
  struct Conn {
    rvss::net::Socket socket;
    std::string out;
    std::size_t outPos = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  bool Flush(Conn& conn, std::string& error);
  bool Drain(std::size_t index, const std::function<void(Completion&)>& onDone,
             std::string& error);

  std::vector<Conn> conns_;
  std::size_t outstanding_ = 0;
};

}  // namespace e2ebench
