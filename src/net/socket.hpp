// Thin RAII wrappers over POSIX TCP sockets, the only layer of the net
// subsystem that touches the OS. Everything above (wire framing, server,
// client) deals in whole byte buffers; everything here deals in fds,
// partial reads and EINTR. IPv4/IPv6 via getaddrinfo; TCP_NODELAY is set
// on every connection because frames are small and latency-sensitive.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gems::net {

/// Move-only owner of a socket fd; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }

  /// Closes the fd now (idempotent). Any blocked reader on another thread
  /// sees EOF/EBADF and unwinds.
  void close() noexcept;

  /// shutdown(SHUT_RDWR): wakes a peer thread blocked in recv() on this
  /// socket without racing on the fd number the way close() can.
  void shutdown() noexcept;

 private:
  int fd_ = -1;
};

/// Opens a listening TCP socket on `address:port` (port 0 = ephemeral;
/// query the chosen one with `local_port`). SO_REUSEADDR is set so tests
/// and quick restarts do not trip over TIME_WAIT.
Result<Socket> tcp_listen(const std::string& address, std::uint16_t port,
                          int backlog = 64);

/// Accepts one connection; blocks until a client arrives or the listener
/// is shut down (then returns kUnavailable).
Result<Socket> tcp_accept(const Socket& listener);

/// Connects to `host:port`, resolving via getaddrinfo.
Result<Socket> tcp_connect(const std::string& host, std::uint16_t port);

/// Port a bound socket listens on (for ephemeral binds).
Result<std::uint16_t> local_port(const Socket& socket);

/// Sets SO_RCVTIMEO; 0 = block forever. Reads after the timeout fail with
/// kDeadlineExceeded.
Status set_recv_timeout(const Socket& socket, std::uint32_t timeout_ms);

/// Writes the whole buffer, looping over partial sends. kUnavailable on a
/// closed/ reset connection.
Status send_all(const Socket& socket, std::span<const std::uint8_t> data);

/// Whether the peer has closed or reset the connection, without reading
/// or blocking. Frames the peer sent before closing stay readable.
bool peer_closed(const Socket& socket);

/// Reads exactly `out.size()` bytes. kUnavailable on EOF/reset,
/// kDeadlineExceeded if a recv timeout is armed and expires.
Status recv_all(const Socket& socket, std::span<std::uint8_t> out);

}  // namespace gems::net
