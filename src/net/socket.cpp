#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gems::net {

namespace {

Status errno_status(const std::string& what) {
  return unavailable(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool peer_closed(const Socket& socket) {
  pollfd p{};
  p.fd = socket.fd();
  p.events = POLLRDHUP;
  int n = 0;
  do {
    n = ::poll(&p, 1, 0);
  } while (n < 0 && errno == EINTR);
  return n > 0 && (p.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
}

Result<Socket> tcp_listen(const std::string& address, std::uint16_t port,
                          int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument("bad bind address '" + address + "'");
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return errno_status("socket");
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return errno_status("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(sock.fd(), backlog) != 0) return errno_status("listen");
  return sock;
}

Result<Socket> tcp_accept(const Socket& listener) {
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return errno_status("accept");
  }
}

Result<Socket> tcp_connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &list);
  if (rc != 0) {
    return unavailable("resolve '" + host + "': " + ::gai_strerror(rc));
  }
  Status last = unavailable("no addresses for '" + host + "'");
  for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    Socket sock(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!sock.valid()) {
      last = errno_status("socket");
      continue;
    }
    if (::connect(sock.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      set_nodelay(sock.fd());
      ::freeaddrinfo(list);
      return sock;
    }
    last = errno_status("connect " + host + ":" + std::to_string(port));
  }
  ::freeaddrinfo(list);
  return last;
}

Result<std::uint16_t> local_port(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return errno_status("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

Status set_recv_timeout(const Socket& socket, std::uint32_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
      0) {
    return errno_status("setsockopt(SO_RCVTIMEO)");
  }
  return Status::ok();
}

Status send_all(const Socket& socket, std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(socket.fd(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return errno_status("send");
  }
  return Status::ok();
}

Status recv_all(const Socket& socket, std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::recv(socket.fd(), out.data() + got, out.size() - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return deadline_exceeded("recv timed out");
    }
    return errno_status("recv");
  }
  return Status::ok();
}

}  // namespace gems::net
