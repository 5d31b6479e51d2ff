#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/client.hpp"

namespace gems::bench_e2e {

namespace {

using Clock = std::chrono::steady_clock;

// Generous against the largest set-up (long_reads, a few seconds), well
// inside the benchmark's 180 s per-run limit.
constexpr int kReadyTimeoutMs = 120000;
constexpr double kExitTimeoutS = 60;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

}  // namespace

std::string format_ready_line(const ReadyLine& ready) {
  return "READY " + std::to_string(ready.port) + " " +
         std::to_string(ready.rows) + " " + std::to_string(ready.rss_kb);
}

long proc_status_kb(const std::string& pid, const std::string& field) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::spawn(
    const std::string& exe, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return io_error("pipe2 failed");
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  const auto start = Clock::now();
  proc->pid_ = fork();
  if (proc->pid_ < 0) {
    close(fds[0]);
    close(fds[1]);
    return io_error("fork failed");
  }
  if (proc->pid_ == 0) {
    // Child: async-signal-safe calls only. Die with the parent, so an
    // aborted benchmark never leaves a server behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  proc->out_fd_ = fds[0];

  std::string line;
  while (line.empty() || line.back() != '\n') {
    const int left_ms =
        kReadyTimeoutMs - static_cast<int>(seconds_since(start) * 1000);
    pollfd pfd{proc->out_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&pfd, 1, left_ms) <= 0) {
      return deadline_exceeded("server child sent no ready line");
    }
    char buf[256];
    const ssize_t n = read(proc->out_fd_, buf, sizeof buf);
    if (n <= 0) return io_error("server child exited before it was ready");
    line.append(buf, static_cast<std::size_t>(n));
  }
  proc->ready_seconds_ = seconds_since(start);

  std::istringstream in(line);
  std::string tag;
  unsigned port = 0;
  in >> tag >> port >> proc->ready_.rows >> proc->ready_.rss_kb;
  if (!in || tag != "READY" || port == 0 || port > 65535) {
    return io_error("malformed ready line: " + line);
  }
  proc->ready_.port = static_cast<std::uint16_t>(port);
  return proc;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

long ServerProcess::peak_rss_kb() const {
  return proc_status_kb(std::to_string(pid_), "VmHWM");
}

Status ServerProcess::shutdown() {
  net::ClientOptions options;
  options.port = ready_.port;
  options.client_name = "bench-e2e-control";
  net::Client client(options);
  GEMS_RETURN_IF_ERROR(client.connect());
  GEMS_RETURN_IF_ERROR(client.shutdown_server());
  return wait_exit(kExitTimeoutS);
}

Status ServerProcess::wait_exit(double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::ok();
      return internal_error("server child exited uncleanly (status " +
                            std::to_string(status) + ")");
    }
    if (r < 0) return io_error("waitpid failed");
    if (seconds_since(start) > timeout_s) {
      return deadline_exceeded("server child did not exit after shutdown");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace gems::bench_e2e
