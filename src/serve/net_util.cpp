#include "serve/net_util.hpp"

#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace safe::serve {

namespace {

/// Closes `fd` (when open) and throws `what` followed by errno's text.
[[noreturn]] void fail(int fd, const std::string& what) {
  const std::string text = what + errno_string(errno);
  if (fd >= 0) ::close(fd);
  throw std::runtime_error(text);
}

/// `host`:`port` as an IPv4 socket address; false unless `host` is a
/// dotted quad.
bool ipv4(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  out = sockaddr_in{};
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

Listener listen_tcp(const std::string& address, std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) fail(fd, "socket() failed: ");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!ipv4(address, port, addr)) {
    ::close(fd);
    throw std::runtime_error("bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail(fd, "bind(" + address + ":" + std::to_string(port) + ") failed: ");
  }
  if (::listen(fd, 128) != 0) fail(fd, "listen() failed: ");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Listener{.fd = fd, .port = 0};
  }
  return Listener{.fd = fd, .port = ntohs(bound.sin_port)};
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail(fd, "socket() failed: ");
  sockaddr_in addr{};
  if (!ipv4(host, port, addr)) {
    ::close(fd);
    throw std::runtime_error("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail(fd, "connect(" + host + ":" + std::to_string(port) + ") failed: ");
  }
  set_tcp_nodelay(fd);
  return fd;
}

std::array<int, 2> wake_pair() {
  std::array<int, 2> fds = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   fds.data()) != 0) {
    fail(-1, "socketpair() failed: ");
  }
  return fds;
}

}  // namespace safe::serve
