#include "serve/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "serve/net_util.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Cap on one ::send, so a full socket buffer stalls one bounded write
/// instead of the whole remaining trace.
constexpr std::size_t kMaxSendChunk = 16 * 1024;

/// stream() ACKs after this many accepted estimates, so the server can trim
/// its replay buffer. A session shorter than this is never ACKed mid-stream.
constexpr std::size_t kAckEvery = 32;

int poll_one(int fd, short events, int timeout_ms) {
  pollfd p{.fd = fd, .events = events, .revents = 0};
  return ::poll(&p, 1, timeout_ms) > 0 ? p.revents : 0;
}

int remaining_ms(std::uint64_t deadline_abs_ns) {
  const std::uint64_t now = telemetry::now_ns();
  if (now >= deadline_abs_ns) return 0;
  const std::uint64_t ms = (deadline_abs_ns - now) / 1'000'000ULL;
  return ms > 60'000 ? 60'000 : static_cast<int>(ms);
}

}  // namespace

SessionClient::~SessionClient() { close(); }

void SessionClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SessionClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = connect_tcp(host, port);
  decoder_ = FrameDecoder{};
  reason_.clear();
}

bool SessionClient::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    reason_ = std::string("send failed: ") + errno_string(errno);
    return false;
  }
  return true;
}

void SessionClient::send_raw(const std::vector<std::uint8_t>& bytes) {
  if (fd_ < 0) throw std::runtime_error("send_raw on closed client");
  if (!send_all(bytes.data(), bytes.size())) {
    throw std::runtime_error(reason_);
  }
}

bool SessionClient::read_some() {
  std::uint8_t buffer[16384];
  const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
  if (n > 0) {
    decoder_.feed(buffer, static_cast<std::size_t>(n));
    return true;
  }
  if (n == 0) {
    reason_ = "connection closed by server";
    return false;
  }
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return true;
  reason_ = std::string("recv failed: ") + errno_string(errno);
  return false;
}

std::optional<Frame> SessionClient::recv_frame(std::uint64_t deadline_ns) {
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  while (true) {
    if (std::optional<Frame> frame = decoder_.next(); frame.has_value()) {
      return frame;
    }
    if (decoder_.failed()) {
      reason_ = "decode failed: " + decoder_.error();
      return std::nullopt;
    }
    const int timeout = remaining_ms(deadline_abs);
    if (timeout == 0) {
      reason_ = "timed out waiting for frame";
      return std::nullopt;
    }
    const int revents = poll_one(fd_, POLLIN, timeout);
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !read_some()) {
      return std::nullopt;
    }
  }
}

SessionClient::OpenReply SessionClient::open_session(
    const HelloFrame& hello, std::uint64_t deadline_ns) {
  OpenReply reply;
  if (fd_ < 0) {
    reply.transport_error = "open_session on closed client";
    return reply;
  }
  const std::vector<std::uint8_t> bytes = encode(hello);
  if (!send_all(bytes.data(), bytes.size())) {
    reply.transport_error = reason_;
    return reply;
  }
  const std::optional<Frame> frame = recv_frame(deadline_ns);
  if (!frame.has_value()) {
    reply.transport_error = reason_;
    return reply;
  }
  std::string error;
  if (frame->type == FrameType::kStatus) {
    if (!decode(*frame, reply.status, &error)) {
      reply.transport_error = "bad STATUS reply: " + error;
      return reply;
    }
    reply.ok = reply.status.code == StatusCode::kHelloOk;
    return reply;
  }
  if (frame->type == FrameType::kError) {
    if (!decode(*frame, reply.error, &error)) {
      reply.transport_error = "bad ERROR reply: " + error;
      return reply;
    }
    reply.has_error = true;
    return reply;
  }
  reply.transport_error =
      std::string("unexpected handshake frame ") + to_string(frame->type);
  return reply;
}

SessionClient::StreamResult SessionClient::stream(
    std::span<const MeasurementFrame> measurements, std::uint64_t deadline_ns,
    std::optional<std::int64_t> send_from) {
  StreamResult result;
  const auto end_with = [&result](StreamEnd end, std::string detail) {
    result.end = end;
    result.complete = end == StreamEnd::kComplete;
    result.detail = std::move(detail);
  };
  if (measurements.empty()) {
    end_with(StreamEnd::kComplete, {});
    return result;
  }
  if (fd_ < 0) {
    end_with(StreamEnd::kTransport, "stream on closed client");
    return result;
  }

  // Pre-encode the measurements to send into one buffer and remember where
  // each frame ends, so a frame's send timestamp is taken when its final
  // byte leaves the socket. ACKs are appended behind them.
  const std::int64_t first_step = measurements.front().step;
  std::vector<std::uint8_t> out;
  std::vector<std::size_t> frame_end;
  std::vector<std::int64_t> frame_step;
  for (const MeasurementFrame& m : measurements) {
    if (m.step < send_from.value_or(first_step)) continue;
    const std::vector<std::uint8_t> bytes = encode(m);
    out.insert(out.end(), bytes.begin(), bytes.end());
    frame_end.push_back(out.size());
    frame_step.push_back(m.step);
  }
  std::unordered_map<std::int64_t, std::uint64_t> send_ns;
  send_ns.reserve(frame_step.size());

  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  std::size_t sent = 0;
  std::size_t next_stamp = 0;
  std::size_t since_ack = 0;
  bool link_up = true;

  // Handles every complete frame in the decoder. Returns false once one of
  // them ended the stream (end_with says how).
  const auto drain = [&]() -> bool {
    while (std::optional<Frame> frame = decoder_.next()) {
      std::string error;
      switch (frame->type) {
        case FrameType::kEstimate: {
          EstimateFrame estimate;
          if (!decode(*frame, estimate, &error)) {
            end_with(StreamEnd::kTransport, "bad ESTIMATE: " + error);
            return false;
          }
          const std::size_t held = result.estimates.size();
          const std::int64_t owed = held < measurements.size()
                                        ? measurements[held].step
                                        : measurements.back().step + 1;
          if (estimate.step < owed) {
            ++result.duplicates;
            break;
          }
          if (estimate.step != owed || held == measurements.size()) {
            end_with(StreamEnd::kProtocol,
                     "estimate step " + std::to_string(estimate.step) +
                         " while step " + std::to_string(owed) + " is owed");
            return false;
          }
          if (const auto it = send_ns.find(estimate.step);
              it != send_ns.end()) {
            result.latencies_ns.push_back(telemetry::now_ns() - it->second);
          }
          result.estimates.push_back(estimate);
          result.estimate_frames.push_back(encode(estimate));
          if (++since_ack == kAckEvery) {
            since_ack = 0;
            const std::vector<std::uint8_t> ack =
                encode(AckFrame{.last_step = estimate.step});
            out.insert(out.end(), ack.begin(), ack.end());
          }
          break;
        }
        case FrameType::kChallengeResult: {
          ChallengeResultFrame challenge;
          if (!decode(*frame, challenge, &error)) {
            end_with(StreamEnd::kTransport, "bad CHALLENGE_RESULT: " + error);
            return false;
          }
          if (challenge.step < first_step) {
            ++result.duplicates;
          } else {
            result.challenges.push_back(challenge);
          }
          break;
        }
        case FrameType::kStatus: {
          StatusFrame status;
          if (!decode(*frame, status, &error)) {
            end_with(StreamEnd::kTransport, "bad STATUS: " + error);
            return false;
          }
          end_with(StreamEnd::kStatus, std::string(to_string(status.code)) +
                                           ": " + status.message);
          result.status = std::move(status);
          return false;
        }
        case FrameType::kError: {
          ErrorFrame err;
          if (!decode(*frame, err, &error)) {
            end_with(StreamEnd::kTransport, "bad ERROR: " + error);
            return false;
          }
          end_with(StreamEnd::kError,
                   std::string(to_string(err.code)) + ": " + err.message);
          return false;
        }
        default:
          end_with(StreamEnd::kProtocol,
                   std::string("unexpected frame ") + to_string(frame->type));
          return false;
      }
    }
    if (decoder_.failed()) {
      end_with(StreamEnd::kTransport, "decode failed: " + decoder_.error());
      return false;
    }
    return true;
  };

  while (drain()) {
    if (result.estimates.size() == measurements.size()) {
      end_with(StreamEnd::kComplete, {});
      break;
    }
    if (!link_up) {
      end_with(StreamEnd::kTransport, reason_);
      break;
    }
    const int timeout = remaining_ms(deadline_abs);
    if (timeout == 0) {
      end_with(StreamEnd::kDeadline, "timed out mid-stream");
      break;
    }

    short events = POLLIN;
    if (sent < out.size()) events = static_cast<short>(events | POLLOUT);
    const int revents = poll_one(fd_, events, timeout);
    if ((revents & POLLOUT) != 0 && sent < out.size()) {
      const std::size_t chunk = std::min(out.size() - sent, kMaxSendChunk);
      const ssize_t n = ::send(fd_, out.data() + sent, chunk, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        const std::uint64_t now = telemetry::now_ns();
        while (next_stamp < frame_end.size() &&
               frame_end[next_stamp] <= sent) {
          send_ns.emplace(frame_step[next_stamp], now);
          ++next_stamp;
        }
      } else if (n < 0 && errno != EINTR && errno != EAGAIN &&
                 errno != EWOULDBLOCK) {
        reason_ = std::string("send failed: ") + errno_string(errno);
        link_up = false;
      }
    }
    if (link_up && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      link_up = read_some();
    }
  }
  return result;
}

}  // namespace safe::serve
