// A `pghive serve` child process hosting one state directory, and a small
// keep-alive HTTP client for talking to it.

#ifndef E2E_BENCH_DAEMON_H_
#define E2E_BENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/http.h"

namespace e2e {

struct DaemonOptions {
  std::string pghive;       // CLI binary
  std::string graph;        // hosted graph name
  std::string state_dir;
  std::string run_dir;      // port file, log and metrics export go here
  int workers = 2;
  std::string metrics_out;  // empty = tracing off
};

/// Owns the child: the destructor kills and reaps it if Stop() did not.
class Daemon {
 public:
  /// Spawns `pghive serve` and waits until /readyz answers 200.
  static pghive::Result<std::unique_ptr<Daemon>> Start(
      const DaemonOptions& options);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  /// SIGTERM (the daemon drains and checkpoints), then reaps the child.
  /// Fails when it does not exit cleanly within the timeout.
  pghive::Status Stop();

  /// Peak resident set of the child in MB, known after Stop().
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  Daemon() = default;
  /// Kills (SIGKILL after `grace_ms` of SIGTERM) and reaps the child.
  pghive::Status Reap(int grace_ms);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  double peak_rss_mb_ = 0.0;
};

/// One keep-alive client connection.
class Client {
 public:
  static pghive::Result<std::unique_ptr<Client>> Connect(uint16_t port);

  pghive::Result<pghive::serve::HttpResponse> Call(
      const std::string& method, const std::string& target,
      const std::string& body = "");

 private:
  explicit Client(int fd) : conn_(fd) {}
  pghive::serve::HttpConnection conn_;
};

}  // namespace e2e

#endif  // E2E_BENCH_DAEMON_H_
