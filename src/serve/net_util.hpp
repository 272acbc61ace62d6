// Shared socket plumbing for the serving layer (server, client, chaos
// proxy): the one copy of each TCP setup step, and the error text each
// step throws. The wire protocol is request/response at single-frame
// granularity, so Nagle's algorithm would add a full RTT of coalescing
// delay per frame; every stream socket in the serving path disables it.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace safe::serve {

namespace detail {
// strerror_r comes in two flavors: XSI returns int and fills the buffer,
// GNU returns a char* that may ignore the buffer. Overload resolution on
// the actual return type picks the right unpacking at compile time.
inline const char* strerror_result(int rc, const char* buf) noexcept {
  return rc == 0 ? buf : "unknown error";
}
inline const char* strerror_result(const char* s, const char*) noexcept {
  return s;
}
}  // namespace detail

/// Thread-safe strerror: error text for `err` without the shared static
/// buffer std::strerror uses (which clang-tidy's concurrency-mt-unsafe
/// rightly flags in a multithreaded server).
inline std::string errno_string(int err) {
  char buf[256] = {};
  return detail::strerror_result(::strerror_r(err, buf, sizeof(buf)), buf);
}

/// Disables Nagle on a connected TCP socket. Returns false when setsockopt
/// fails (e.g. not a TCP socket); callers treat that as non-fatal.
inline bool set_tcp_nodelay(int fd) noexcept {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// True when TCP_NODELAY is set on `fd` (loopback tests assert this on both
/// the client socket and server-accepted sockets).
inline bool tcp_nodelay_enabled(int fd) noexcept {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return false;
  }
  return value != 0;
}

/// A listening TCP socket and the port the kernel bound it to.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;  ///< resolves a requested port 0; 0 if unreadable
};

/// A non-blocking, close-on-exec TCP listener on `address`:`port` with
/// SO_REUSEADDR and a backlog of 128. Throws std::runtime_error naming the
/// failed step: "socket() failed: ...", "bad bind address: <address>",
/// "bind(<address>:<port>) failed: ..." or "listen() failed: ...".
Listener listen_tcp(const std::string& address, std::uint16_t port);

/// A blocking, close-on-exec TCP connection to `host`:`port` with Nagle
/// off. Throws std::runtime_error: "socket() failed: ...", "bad host
/// address: <host>" or "connect(<host>:<port>) failed: ...".
int connect_tcp(const std::string& host, std::uint16_t port);

/// A non-blocking AF_UNIX stream pair that wakes a poll loop: a byte sent
/// on [1] makes [0] readable. Throws std::runtime_error ("socketpair()
/// failed: ...").
std::array<int, 2> wake_pair();

}  // namespace safe::serve
