// The server child of bench_berlin_e2e: this binary relaunched with
// --role=server, which builds (or recovers) the database, serves it with
// net::Server and prints one ready line. The parent times spawn → ready
// line as set-up (or recovery) time and reads the child's memory from
// /proc.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gems::bench_e2e {

/// What the child reports once it accepts connections.
struct ReadyLine {
  std::uint16_t port = 0;
  std::size_t rows = 0;   // table instances of the dataset (catalog())
  long rss_kb = 0;        // VmRSS at ready
};

std::string format_ready_line(const ReadyLine& ready);

class ServerProcess {
 public:
  /// Starts `exe` with `args` and waits for its ready line.
  static Result<std::unique_ptr<ServerProcess>> spawn(
      const std::string& exe, const std::vector<std::string>& args);

  /// Kills the child if it is still running, and reaps it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const ReadyLine& ready() const { return ready_; }
  /// Spawn until ready line, in seconds.
  double ready_seconds() const { return ready_seconds_; }

  /// Peak resident set (VmHWM) so far, in KiB.
  long peak_rss_kb() const;

  /// Sends the shutdown verb and waits for a clean exit (a durable server
  /// checkpoints first).
  Status shutdown();

 private:
  ServerProcess() = default;
  Status wait_exit(double timeout_s);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  ReadyLine ready_;
  double ready_seconds_ = 0;
};

/// A /proc/<pid>/status field in KiB ("VmRSS", "VmHWM"); -1 when absent.
long proc_status_kb(const std::string& pid, const std::string& field);

}  // namespace gems::bench_e2e
