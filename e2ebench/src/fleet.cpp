#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "client.h"
#include "skim.h"

namespace e2ebench {

Process::Process(Process&& other) noexcept : pid_(other.pid_) {
  other.pid_ = -1;
}

Process& Process::operator=(Process&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

bool Process::Start(const std::vector<std::string>& argv,
                    const std::string& logPath) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log < 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log);
    return false;
  }
  if (pid == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    // The fleet runs one nice level below the load generator, so that the
    // generator's sends are not delayed behind the fleet it is measuring.
    if (::nice(5) < 0) ::_exit(126);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log);
  pid_ = pid;
  return true;
}

void Process::Stop(int graceMs) {
  if (pid_ <= 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(graceMs);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

long PeakRssKib(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

bool StartWorkers(const std::string& rvss, const std::string& runDir,
                  const std::string& tag, int count,
                  std::vector<Process>& workers,
                  std::vector<std::string>& addresses) {
  for (int i = 0; i < count; ++i) {
    const std::string path = runDir + "/" + tag + "-w" + std::to_string(i) + ".sock";
    const std::string address = "unix:" + path;
    Process worker;
    if (!worker.Start({rvss, "--worker", address},
                      runDir + "/" + tag + "-w" + std::to_string(i) + ".log")) {
      return false;
    }
    workers.push_back(std::move(worker));
    addresses.push_back(address);
  }
  return true;
}

bool GatewayFleet::Start(const std::string& rvss, const std::string& runDir,
                         const std::string& tag, int workerCount) {
  std::vector<std::string> workerAddresses;
  if (!StartWorkers(rvss, runDir, tag, workerCount, workers_,
                    workerAddresses)) {
    std::fprintf(stderr, "cannot start rvss --worker\n");
    return false;
  }
  for (const std::string& address : workerAddresses) {
    socketFiles_.push_back(address.substr(5));
  }
  address_ = "unix:" + runDir + "/" + tag + "-gw.sock";
  socketFiles_.push_back(address_.substr(5));
  if (!gateway_.Start({rvss, "--gateway", address_, "--workers", "1"},
                      runDir + "/" + tag + "-gw.log")) {
    std::fprintf(stderr, "cannot start rvss --gateway\n");
    return false;
  }
  Client control;
  std::string error;
  if (!control.Connect(address_, 1, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  std::string response;
  for (const std::string& address : workerAddresses) {
    if (!control.Call(0,
                      "{\"command\":\"addWorker\",\"address\":\"" + address +
                          "\"}",
                      response, error) ||
        skim::String(skim::Field(response, "status")) != "ok") {
      std::fprintf(stderr, "addWorker %s failed: %s%s\n", address.c_str(),
                   error.c_str(), response.c_str());
      return false;
    }
  }
  if (!control.Call(0, "{\"command\":\"removeWorker\",\"worker\":0}",
                    response, error) ||
      skim::String(skim::Field(response, "status")) != "ok") {
    std::fprintf(stderr, "removeWorker 0 failed: %s%s\n", error.c_str(),
                 response.c_str());
    return false;
  }
  return true;
}

void GatewayFleet::Stop() {
  if (gateway_.pid() > 0) {
    Client control;
    std::string error;
    std::string response;
    if (control.Connect(address_, 1, error)) {
      control.Call(0, "{\"command\":\"shutdownGateway\"}", response, error);
    }
    gateway_.Stop(5'000);
  }
  for (Process& worker : workers_) worker.Kill();
  workers_.clear();
  for (const std::string& path : socketFiles_) ::unlink(path.c_str());
  socketFiles_.clear();
}

double GatewayFleet::PeakRssMib() const {
  long kib = PeakRssKib(gateway_.pid());
  for (const Process& worker : workers_) kib += PeakRssKib(worker.pid());
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace e2ebench
