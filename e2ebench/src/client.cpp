#include "client.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstring>

#include "common/framing.h"

namespace e2ebench {

bool Client::Connect(const std::string& address, std::size_t count,
                     std::string& error) {
  conns_.clear();
  conns_.resize(count);
  for (Conn& conn : conns_) {
    auto socket = rvss::net::ConnectTo(address, 10'000);
    if (!socket.ok()) {
      error = "connect " + address + ": " + socket.error().ToText();
      return false;
    }
    conn.socket = std::move(socket).value();
  }
  return true;
}

void Client::Send(std::size_t index, const std::string& json,
                  std::uint64_t tag, Clock::time_point due) {
  Conn& conn = conns_[index];
  conn.out += rvss::net::EncodeFrameHeader(json.size(), 0);
  conn.out += json;
  conn.pending.push_back(Pending{tag, due, Clock::now()});
  ++outstanding_;
  std::string ignored;
  Flush(conn, ignored);  // errors resurface in the next Poll
}

bool Client::Flush(Conn& conn, std::string& error) {
  while (conn.outPos < conn.out.size()) {
    const ssize_t n =
        ::send(conn.socket.fd(), conn.out.data() + conn.outPos,
               conn.out.size() - conn.outPos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outPos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    error = std::string("send: ") + std::strerror(errno);
    return false;
  }
  if (conn.outPos == conn.out.size()) {
    conn.out.clear();
    conn.outPos = 0;
  }
  return true;
}

bool Client::Drain(std::size_t index,
                   const std::function<void(Completion&)>& onDone,
                   std::string& error) {
  Conn& conn = conns_[index];
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn.socket.fd(), buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    error = n == 0 ? "gateway closed the connection"
                   : std::string("recv: ") + std::strerror(errno);
    return false;
  }
  std::size_t pos = 0;
  while (conn.in.size() - pos >= rvss::net::kFrameHeaderBytes) {
    auto header = rvss::net::DecodeFrameHeader(
        std::string_view(conn.in).substr(pos, rvss::net::kFrameHeaderBytes),
        rvss::net::kDefaultMaxFrameBytes);
    if (!header.ok()) {
      error = "bad response frame: " + header.error().ToText();
      return false;
    }
    const std::size_t frame =
        rvss::net::kFrameHeaderBytes + header.value().payloadBytes();
    if (conn.in.size() - pos < frame) break;
    if (conn.pending.empty()) {
      error = "response without a request";
      return false;
    }
    Completion done;
    done.conn = index;
    done.tag = conn.pending.front().tag;
    done.due = conn.pending.front().due;
    done.sent = conn.pending.front().sent;
    done.done = Clock::now();
    done.text.assign(conn.in, pos + rvss::net::kFrameHeaderBytes,
                     header.value().jsonBytes);
    done.frameBytes = frame;
    conn.pending.pop_front();
    --outstanding_;
    pos += frame;
    onDone(done);
  }
  conn.in.erase(0, pos);
  return true;
}

bool Client::Poll(Clock::time_point deadline,
                  const std::function<void(Completion&)>& onDone,
                  std::string& error) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].socket.fd();
    fds[i].events = POLLIN;
    if (!conns_[i].out.empty()) fds[i].events |= POLLOUT;
  }
  // ppoll, not poll: the open-loop schedule needs sub-millisecond wakeups.
  const auto left = std::max<std::chrono::nanoseconds::rep>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(
             deadline - Clock::now())
             .count());
  const timespec timeout{static_cast<time_t>(left / 1'000'000'000),
                         static_cast<long>(left % 1'000'000'000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return true;
    error = std::string("poll: ") + std::strerror(errno);
    return false;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & POLLOUT) {
      if (!Flush(conns_[i], error)) return false;
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!Drain(i, onDone, error)) return false;
    }
  }
  return true;
}

bool Client::Call(std::size_t conn, const std::string& json,
                  std::string& response, std::string& error,
                  double* latencyMs) {
  const Clock::time_point start = Clock::now();
  Send(conn, json, 0, start);
  const Clock::time_point deadline = start + std::chrono::seconds(60);
  bool done = false;
  while (!done) {
    if (Clock::now() > deadline) {
      error = "no response within 60 s";
      return false;
    }
    if (!Poll(deadline,
              [&](Completion& completion) {
                response = std::move(completion.text);
                if (latencyMs != nullptr) {
                  *latencyMs = std::chrono::duration<double, std::milli>(
                                   completion.done - completion.sent)
                                   .count();
                }
                done = true;
              },
              error)) {
      return false;
    }
  }
  return true;
}

}  // namespace e2ebench
