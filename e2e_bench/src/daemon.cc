#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "measure.h"

extern char** environ;

namespace e2e {

namespace {

using pghive::Result;
using pghive::Status;

constexpr double kStartTimeoutSeconds = 60.0;
constexpr int kStopTimeoutMs = 60000;

void Pause() { std::this_thread::sleep_for(std::chrono::microseconds(500)); }

/// The bound port once `serve` wrote it (0 while the file is incomplete).
uint16_t ReadPort(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return 0;
  const long port = std::strtol(text.c_str(), nullptr, 10);
  return port > 0 && port <= 65535 ? static_cast<uint16_t>(port) : 0;
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(const DaemonOptions& options) {
  const std::string port_file = options.run_dir + "/port";
  const std::string log_file = options.run_dir + "/daemon.log";
  std::error_code ec;
  std::filesystem::remove(port_file, ec);

  std::vector<std::string> args = {
      options.pghive, "serve", options.graph + "=" + options.state_dir,
      "--port", "0", "--port-file", port_file,
      "--workers", std::to_string(options.workers)};
  if (!options.metrics_out.empty()) {
    args.push_back("--metrics-out");
    args.push_back(options.metrics_out);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::unique_ptr<Daemon> daemon(new Daemon());
  const int rc = posix_spawn(&daemon->pid_, argv[0], &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    daemon->pid_ = -1;
    return Status::IoError("cannot spawn " + options.pghive);
  }

  const Clock::time_point start = Clock::now();
  while (daemon->port_ == 0) {
    int status = 0;
    if (waitpid(daemon->pid_, &status, WNOHANG) == daemon->pid_) {
      daemon->pid_ = -1;
      return Status::IoError("pghive serve exited during start; see " +
                             log_file);
    }
    if (SecondsSince(start) > kStartTimeoutSeconds) {
      return Status::IoError("pghive serve did not bind; see " + log_file);
    }
    daemon->port_ = ReadPort(port_file);
    if (daemon->port_ == 0) Pause();
  }
  for (;;) {
    auto resp = pghive::serve::HttpCall("127.0.0.1", daemon->port_, "GET",
                                        "/readyz");
    if (resp.ok() && resp->status == 200) break;
    if (SecondsSince(start) > kStartTimeoutSeconds) {
      return Status::IoError("pghive serve never became ready");
    }
    Pause();
  }
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) (void)Reap(0);
}

Status Daemon::Stop() { return Reap(kStopTimeoutMs); }

Status Daemon::Reap(int grace_ms) {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, grace_ms > 0 ? SIGTERM : SIGKILL);
  const Clock::time_point start = Clock::now();
  bool killed = grace_ms == 0;
  for (;;) {
    int status = 0;
    struct rusage usage {};
    const pid_t got = wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_ || got < 0) {
      pid_ = -1;
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
      if (got < 0 || killed || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        return Status::IoError("pghive serve did not stop cleanly");
      }
      return Status::OK();
    }
    if (!killed && MsSince(start) > grace_ms) {
      kill(pid_, SIGKILL);
      killed = true;
    }
    Pause();
  }
}

Result<std::unique_ptr<Client>> Client::Connect(uint16_t port) {
  PGHIVE_ASSIGN_OR_RETURN(int fd, pghive::serve::DialTcp("127.0.0.1", port));
  std::unique_ptr<Client> client(new Client(fd));
  PGHIVE_RETURN_NOT_OK(client->conn_.SetTimeouts(30000));
  return client;
}

Result<pghive::serve::HttpResponse> Client::Call(const std::string& method,
                                                 const std::string& target,
                                                 const std::string& body) {
  PGHIVE_RETURN_NOT_OK(conn_.WriteRequest(
      method, target, body, body.empty() ? "" : "application/json"));
  return conn_.ReadResponse(256ull << 20);
}

}  // namespace e2e
