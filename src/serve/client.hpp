// Blocking-with-deadline client for the streaming session protocol: one
// connection, one decoder.
//
// Used by ResilientClient (and through it the load generator), the loopback
// tests, and the serving throughput ablation. stream() is the serving
// client's one interleaved send/receive loop: it never writes the whole trace
// before reading, because the server's outbound backpressure would
// (correctly) disconnect a peer that streams without draining its replies.
// Reconnecting, resuming and the final ACK belong to ResilientClient
// (serve/resilient.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace safe::serve {

/// How a SessionClient::stream() call ended.
enum class StreamEnd : std::uint8_t {
  kComplete = 0,  ///< every owed estimate arrived
  kDeadline,      ///< the deadline expired first
  kTransport,     ///< peer close, send/recv failure, or undecodable bytes
  kStatus,        ///< the server ended the stream with STATUS (`status`)
  kError,         ///< the server sent a fatal ERROR (`detail` has it)
  kProtocol,      ///< an unexpected frame type or an estimate step gap
};

class SessionClient {
 public:
  SessionClient() = default;
  ~SessionClient();

  SessionClient(const SessionClient&) = delete;
  SessionClient& operator=(const SessionClient&) = delete;

  /// Connects to host:port; throws std::runtime_error on failure.
  void connect(const std::string& host, std::uint16_t port);

  /// Result of the HELLO handshake. Exactly one of status/error is
  /// meaningful when ok/closed say so.
  struct OpenReply {
    bool ok = false;        ///< STATUS kHelloOk received
    StatusFrame status;     ///< valid when the server answered with STATUS
    ErrorFrame error;       ///< valid when the server answered with ERROR
    bool has_error = false;
    std::string transport_error;  ///< non-empty on socket/decoder failure
  };

  /// Sends HELLO and waits (up to deadline) for the server's verdict.
  OpenReply open_session(const HelloFrame& hello,
                         std::uint64_t deadline_ns = kDefaultDeadlineNs);

  struct StreamResult {
    bool complete = false;  ///< end == StreamEnd::kComplete
    StreamEnd end = StreamEnd::kTransport;
    std::string detail;  ///< why the stream ended short (empty if complete)
    /// Accepted estimates, in step order.
    std::vector<EstimateFrame> estimates;
    /// Raw wire bytes of each accepted ESTIMATE — the byte-parity artifact
    /// compared against offline encoding.
    std::vector<std::vector<std::uint8_t>> estimate_frames;
    std::vector<ChallengeResultFrame> challenges;
    /// Send-to-receive latency of each accepted estimate whose measurement
    /// this call sent (a resumed session's replays have none).
    std::vector<std::uint64_t> latencies_ns;
    /// ESTIMATE and CHALLENGE_RESULT frames for steps already held.
    std::uint64_t duplicates = 0;
    std::optional<StatusFrame> status;  ///< the STATUS that ended it
  };

  /// Streams a session's measurements and collects reply frames until the
  /// estimate of every measurement has arrived. Estimates are accepted in
  /// step order from the first measurement's step; frames for earlier steps
  /// count as duplicates, and an estimate past the next owed step ends the
  /// stream (kProtocol). `send_from` is where sending starts (default: the
  /// first measurement's step): a resumed session passes RESUME_OK's next
  /// step, and the estimates before it arrive as the server's replay. Every
  /// 32 accepted estimates are ACKed; the final ACK is the caller's.
  StreamResult stream(std::span<const MeasurementFrame> measurements,
                      std::uint64_t deadline_ns = kDefaultDeadlineNs,
                      std::optional<std::int64_t> send_from = std::nullopt);

  /// Sends raw bytes as-is (malformed-input tests). Throws on socket error.
  void send_raw(const std::vector<std::uint8_t>& bytes);

  /// Waits for the next frame. nullopt on timeout, peer close, or decode
  /// failure (reason() explains which).
  std::optional<Frame> recv_frame(std::uint64_t deadline_ns);

  /// Why the last recv_frame() returned nullopt.
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Underlying socket fd (-1 when closed). Tests use it to assert socket
  /// options (TCP_NODELAY) on a live loopback connection.
  [[nodiscard]] int native_handle() const noexcept { return fd_; }

  void close() noexcept;

  static constexpr std::uint64_t kDefaultDeadlineNs = 30'000'000'000ULL;

 private:
  bool send_all(const std::uint8_t* data, std::size_t size);
  /// One ::recv into the decoder; false when the link failed (reason_).
  bool read_some();

  int fd_ = -1;
  FrameDecoder decoder_;
  std::string reason_;
};

}  // namespace safe::serve
