// The fleet under test, started from the production `rvss` binary.
//
// N worker processes (`rvss --worker unix:...`) and one gateway process
// (`rvss --gateway unix:... --workers 1`). The gateway's in-process
// starter worker is swapped for the socket workers through the gateway's
// own fleet commands (addWorker {address} per worker, then removeWorker
// 0), so every session lives in a worker process behind a unix socket.
//
// This is the fleet `rvss --gateway ADDR --spawn-workers N` builds, with
// one difference: --spawn-workers names its worker sockets
// /tmp/rvss-gw-<pid>-<n>.sock (shard::MakeWorkerAddress), and the
// benchmark writes nothing outside its own directory tree. The request
// path is the same: gateway -> ShardRouter -> lane -> SocketTransport ->
// shard::RunWorkerLoop, which a forked --spawn-workers child and an
// `rvss --worker` process both run with default limits; an exec'd worker
// merely starts from a fresh image instead of a copy of the gateway's.
#pragma once

#include <string>
#include <vector>

namespace e2ebench {

/// A child process started with fork/exec; stdout and stderr go to
/// `logPath`. The destructor kills and reaps it.
class Process {
 public:
  Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process(Process&& other) noexcept;
  Process& operator=(Process&& other) noexcept;
  ~Process() { Kill(); }

  /// Starts argv[0] with the given arguments; returns false on failure.
  bool Start(const std::vector<std::string>& argv, const std::string& logPath);
  /// Waits up to `graceMs` for a voluntary exit, then SIGKILLs; always
  /// reaps.
  void Stop(int graceMs);
  void Kill() { Stop(0); }
  int pid() const { return pid_; }

 private:
  int pid_ = -1;
};

/// Peak resident set (VmHWM) of a live process, in KiB; 0 if unreadable.
long PeakRssKib(int pid);

/// Starts `count` `rvss --worker` processes on unix sockets named
/// `<runDir>/<tag>-w<i>.sock`; fills `addresses`.
bool StartWorkers(const std::string& rvss, const std::string& runDir,
                  const std::string& tag, int count,
                  std::vector<Process>& workers,
                  std::vector<std::string>& addresses);

class Client;

/// One gateway fleet. Start() returns once every worker is attached and
/// the starter worker is removed, i.e. once the fleet accepts sessions.
class GatewayFleet {
 public:
  bool Start(const std::string& rvss, const std::string& runDir,
             const std::string& tag, int workerCount);
  /// shutdownGateway, then stop every process.
  void Stop();
  ~GatewayFleet() { Stop(); }

  const std::string& address() const { return address_; }
  /// Sum of VmHWM over the gateway and worker processes, in MiB.
  double PeakRssMib() const;

 private:
  std::string address_;
  Process gateway_;
  std::vector<Process> workers_;
  std::vector<std::string> socketFiles_;
};

}  // namespace e2ebench
