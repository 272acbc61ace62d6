#include "serve/chaos.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "serve/net_util.hpp"
#include "spec/spec.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Per-direction buffering cap: past this the proxy stops reading the
/// source socket, so a slow destination backpressures the source naturally.
constexpr std::size_t kMaxBufferedBytes = 256 * 1024;

constexpr std::size_t kReadChunk = 16 * 1024;

/// Nanoseconds per `ms`/`jitter` unit, and the largest such value whose
/// nanosecond product still fits in a u64.
constexpr std::uint64_t kNsPerMs = 1'000'000ULL;
constexpr std::uint64_t kMaxMs =
    std::numeric_limits<std::uint64_t>::max() / kNsPerMs;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

ChaosSpec parse_chaos_spec(const std::string& text) {
  ChaosSpec out;
  if (text.empty() || text == "none") return out;
  const auto directives = spec::split(text, ";+");
  if (!directives) {
    throw std::invalid_argument("chaos spec: unterminated quote in `" + text +
                                "`");
  }
  for (const std::string& directive : *directives) {
    if (directive.empty()) continue;
    spec::Params params = spec::Params::named("chaos spec", directive);
    const std::string& name = params.name();
    // A directive without arguments is always a mistake — accepting it
    // would let a typo'd spec silently degrade to passthrough.
    params.require(!params.empty(),
                   "directive `" + directive + "` has no arguments");
    if (name == "latency") {
      std::uint64_t ms = out.latency_ns / kNsPerMs;
      std::uint64_t jitter = out.jitter_ns / kNsPerMs;
      params.integer("ms", ms, 0, kMaxMs);
      params.integer("jitter", jitter, 0, kMaxMs);
      out.latency_ns = ms * kNsPerMs;
      out.jitter_ns = jitter * kNsPerMs;
    } else if (name == "throttle") {
      params.integer("bps", out.throttle_bytes_per_sec, 1);
    } else if (name == "split") {
      params.integer("min", out.split_min);
      params.integer("max", out.split_max);
      const bool max_given = out.split_max != 0;
      if (out.split_min == 0) out.split_min = 1;
      if (!max_given) out.split_max = out.split_min;  // exact chunk size
      params.require(out.split_max >= out.split_min,
                     "`max` < `min` in `" + directive + "`");
    } else if (name == "corrupt") {
      params.number("prob", out.corrupt_prob);
      params.require(out.corrupt_prob >= 0.0 && out.corrupt_prob <= 1.0,
                     "`prob` must be in [0, 1]");
    } else if (name == "disconnect") {
      params.number("prob", out.disconnect_prob);
      params.require(out.disconnect_prob >= 0.0 && out.disconnect_prob <= 1.0,
                     "`prob` must be in [0, 1]");
      params.integer("after", out.disconnect_after_bytes);
    } else if (name == "halfclose") {
      params.integer("after", out.half_close_after_bytes, 1);
    } else {
      params.fail("unknown directive `" + name + "`");
    }
    const spec::Check check = params.finish();
    if (!check.ok()) throw std::invalid_argument(check.message);
  }
  return out;
}

std::string chaos_spec_help() {
  return "latency:ms=N[,jitter=N] | throttle:bps=N | split:min=N,max=N | "
         "corrupt:prob=P | disconnect:prob=P[,after=N] | halfclose:after=N "
         "(';'-separated; empty or 'none' = passthrough)";
}

// --- ChaosPlan --------------------------------------------------------------

std::size_t ChaosPlan::next_chunk_len(std::size_t available) {
  if (available == 0) return 0;
  if (spec_.split_min == 0) return available;
  const std::size_t lo = std::max<std::size_t>(
      1, std::min(spec_.split_min, available));
  const std::size_t hi = std::max(lo, std::min(spec_.split_max, available));
  return lo + static_cast<std::size_t>(rng_() % (hi - lo + 1));
}

std::uint64_t ChaosPlan::next_delay_ns() {
  std::uint64_t delay = spec_.latency_ns;
  if (spec_.jitter_ns != 0) {
    delay += static_cast<std::uint64_t>(
        runtime::uniform_double(rng_) *
        static_cast<double>(spec_.jitter_ns));
  }
  return delay;
}

std::size_t ChaosPlan::corrupt(std::uint8_t* data, std::size_t size) {
  if (spec_.corrupt_prob <= 0.0) return 0;
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (runtime::uniform_double(rng_) < spec_.corrupt_prob) {
      data[i] ^= static_cast<std::uint8_t>(1U << (rng_() % 8));
      ++corrupted;
    }
  }
  return corrupted;
}

bool ChaosPlan::should_disconnect(std::uint64_t total_forwarded_bytes) {
  if (spec_.disconnect_after_bytes != 0 &&
      total_forwarded_bytes >= spec_.disconnect_after_bytes) {
    return true;
  }
  if (spec_.disconnect_prob > 0.0 &&
      runtime::uniform_double(rng_) < spec_.disconnect_prob) {
    return true;
  }
  return false;
}

// --- ChaosProxy -------------------------------------------------------------

ChaosProxy::ChaosProxy(ChaosSpec spec, std::uint64_t seed,
                       std::string target_host, std::uint16_t target_port)
    : spec_(spec),
      seed_(seed),
      target_host_(std::move(target_host)),
      target_port_(target_port) {}

ChaosProxy::~ChaosProxy() {
  for (Link& link : links_) close_link(link);
  links_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

void ChaosProxy::bind_and_listen(const std::string& host, std::uint16_t port) {
  const Listener listener = listen_tcp(host, port);
  listen_fd_ = listener.fd;
  port_ = listener.port;
  wake_fds_ = wake_pair();
}

void ChaosProxy::request_stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fds_[1] >= 0) {
    const std::uint8_t byte = 1;
    (void)::send(wake_fds_[1], &byte, 1, MSG_NOSIGNAL);
  }
}

void ChaosProxy::accept_ready(std::uint64_t now) {
  while (true) {
    const int client_fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (client_fd < 0) return;
    set_tcp_nodelay(client_fd);

    int server_fd = -1;
    try {
      server_fd = connect_tcp(target_host_, target_port_);
    } catch (const std::runtime_error&) {
      ::close(client_fd);
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.connect_failures;
      continue;
    }
    set_nonblocking(server_fd);

    Link link{client_fd,
              server_fd,
              ChaosPlan(spec_, seed_, next_connection_index_++),
              Pipe{},
              Pipe{},
              0,
              false};
    link.c2s.last_refill_ns = now;
    link.s2c.last_refill_ns = now;
    links_.push_back(std::move(link));
    const runtime::MutexLock lock(stats_mutex_);
    ++stats_.accepted;
  }
}

void ChaosProxy::close_link(Link& link) {
  if (link.client_fd >= 0) ::close(link.client_fd);
  if (link.server_fd >= 0) ::close(link.server_fd);
  if (link.client_fd >= 0 || link.server_fd >= 0) {
    const runtime::MutexLock lock(stats_mutex_);
    ++stats_.closed;
  }
  link.client_fd = -1;
  link.server_fd = -1;
}

bool ChaosProxy::flush_pipe(Link& link, Pipe& pipe, int dst_fd,
                            bool client_to_server, std::uint64_t now) {
  // Refill the throttle bucket.
  if (spec_.throttle_bytes_per_sec != 0) {
    const double rate = static_cast<double>(spec_.throttle_bytes_per_sec);
    const double burst = std::max(rate / 10.0, 4096.0);
    pipe.tokens += rate *
                   (static_cast<double>(now - pipe.last_refill_ns) * 1e-9);
    pipe.tokens = std::min(pipe.tokens, burst);
    pipe.last_refill_ns = now;
  }

  while (!pipe.chunks.empty() && !pipe.shut) {
    Chunk& front = pipe.chunks.front();
    if (front.release_ns > now) break;
    std::size_t want =
        link.plan.next_chunk_len(front.bytes.size() - front.offset);
    bool resplit = want < front.bytes.size() - front.offset;
    if (spec_.throttle_bytes_per_sec != 0) {
      if (pipe.tokens < 1.0) break;
      if (static_cast<double>(want) > pipe.tokens) {
        want = static_cast<std::size_t>(pipe.tokens);
        resplit = true;
      }
    }
    if (want == 0) break;

    const std::size_t corrupted =
        link.plan.corrupt(front.bytes.data() + front.offset, want);
    const ssize_t n =
        ::send(dst_fd, front.bytes.data() + front.offset, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // destination is gone
    }
    front.offset += static_cast<std::size_t>(n);
    pipe.buffered -= static_cast<std::size_t>(n);
    pipe.forwarded += static_cast<std::uint64_t>(n);
    link.total_forwarded += static_cast<std::uint64_t>(n);
    if (spec_.throttle_bytes_per_sec != 0) {
      pipe.tokens -= static_cast<double>(n);
    }
    {
      const runtime::MutexLock lock(stats_mutex_);
      stats_.bytes_forwarded += static_cast<std::uint64_t>(n);
      stats_.corrupted_bytes += corrupted;
      if (resplit) ++stats_.resplit_writes;
    }
    if (front.offset == front.bytes.size()) pipe.chunks.pop_front();

    if (link.plan.should_disconnect(link.total_forwarded)) {
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.disconnects_injected;
      return false;
    }
    if (client_to_server && !link.half_closed &&
        link.plan.should_half_close(pipe.forwarded)) {
      link.half_closed = true;
      pipe.shut = true;
      pipe.chunks.clear();
      pipe.buffered = 0;
      ::shutdown(dst_fd, SHUT_WR);
      const runtime::MutexLock lock(stats_mutex_);
      ++stats_.half_closes_injected;
      break;
    }
  }

  // Source finished and everything flushed: propagate the EOF.
  if (pipe.src_eof && pipe.chunks.empty() && !pipe.shut) {
    pipe.shut = true;
    ::shutdown(dst_fd, SHUT_WR);
  }
  return true;
}

void ChaosProxy::run() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t now = telemetry::now_ns();
    fds.clear();
    fds.push_back({.fd = wake_fds_[0], .events = POLLIN, .revents = 0});
    fds.push_back({.fd = listen_fd_, .events = POLLIN, .revents = 0});

    int timeout_ms = 50;
    for (const Link& link : links_) {
      for (const Pipe* pipe : {&link.c2s, &link.s2c}) {
        if (pipe->chunks.empty()) continue;
        const std::uint64_t release = pipe->chunks.front().release_ns;
        const std::uint64_t wait_ms =
            release > now ? (release - now) / 1'000'000ULL + 1 : 1;
        timeout_ms = std::min<int>(
            timeout_ms,
            static_cast<int>(std::min<std::uint64_t>(wait_ms, 50)));
      }
    }

    for (const Link& link : links_) {
      short client_events = 0;
      short server_events = 0;
      if (!link.c2s.src_eof && link.c2s.buffered < kMaxBufferedBytes) {
        client_events |= POLLIN;
      }
      if (!link.s2c.src_eof && link.s2c.buffered < kMaxBufferedBytes) {
        server_events |= POLLIN;
      }
      if (!link.s2c.chunks.empty() && !link.s2c.shut) client_events |= POLLOUT;
      if (!link.c2s.chunks.empty() && !link.c2s.shut) server_events |= POLLOUT;
      fds.push_back(
          {.fd = link.client_fd, .events = client_events, .revents = 0});
      fds.push_back(
          {.fd = link.server_fd, .events = server_events, .revents = 0});
    }

    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      break;
    }
    const std::uint64_t after = telemetry::now_ns();

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint8_t drain[64];
      while (::recv(wake_fds_[0], drain, sizeof(drain), 0) > 0) {
      }
    }
    // Links accepted below have no pollfd yet; they are polled from the
    // next round on.
    const std::size_t polled = links_.size();
    if ((fds[1].revents & POLLIN) != 0) accept_ready(after);

    for (std::size_t i = 0; i < polled; ++i) {
      Link& link = links_[i];
      const pollfd& client_p = fds[2 + 2 * i];
      const pollfd& server_p = fds[2 + 2 * i + 1];
      bool alive = true;

      const auto read_side = [&](int fd, const pollfd& p, Pipe& pipe) {
        if (!alive || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return;
        while (pipe.buffered < kMaxBufferedBytes) {
          std::uint8_t buffer[kReadChunk];
          const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
          if (n > 0) {
            Chunk chunk;
            chunk.bytes.assign(buffer, buffer + n);
            chunk.release_ns = after + link.plan.next_delay_ns();
            pipe.buffered += static_cast<std::size_t>(n);
            pipe.chunks.push_back(std::move(chunk));
            continue;
          }
          if (n == 0) {
            pipe.src_eof = true;
            return;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return;
          alive = false;  // hard error: drop the link
          return;
        }
      };

      read_side(link.client_fd, client_p, link.c2s);
      read_side(link.server_fd, server_p, link.s2c);

      if (alive) {
        alive = flush_pipe(link, link.c2s, link.server_fd, true, after) &&
                flush_pipe(link, link.s2c, link.client_fd, false, after);
      }
      // Both directions delivered their EOF (or were cut): link done.
      if (alive && link.c2s.shut && link.s2c.shut) alive = false;
      if (!alive) close_link(link);
    }
    links_.erase(std::remove_if(links_.begin(), links_.end(),
                                [](const Link& l) {
                                  return l.client_fd < 0 && l.server_fd < 0;
                                }),
                 links_.end());
  }

  for (Link& link : links_) close_link(link);
  links_.clear();
}

ChaosProxy::Stats ChaosProxy::stats() const {
  const runtime::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace safe::serve
