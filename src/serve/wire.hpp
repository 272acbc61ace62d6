// Binary wire protocol for the safe-sensing streaming service (DESIGN.md
// §12).
//
// Framing: every frame is a 5-byte header — u32 payload length then u8 frame
// type, both little-endian — followed by the payload. All integers are
// canonical little-endian; doubles travel as their IEEE-754 bit pattern in a
// little-endian u64, so a measurement survives the round trip bit-exactly
// (the serving parity contract: per-session ESTIMATE output must be
// byte-identical to an offline core::pipeline run of the same trace).
//
// The decoder is strict: an oversized length prefix, an unknown frame type,
// a payload that parses short or leaves trailing bytes, out-of-range enum
// values, and reserved flag bits all put it into a sticky failed state
// instead of guessing. Truncated input is not an error — the decoder simply
// waits for more bytes, so frames may be split arbitrarily across reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "radar/processor.hpp"
#include "units/units.hpp"

namespace safe::serve {

/// Bumped on any incompatible framing or payload change. A HELLO carrying a
/// newer version than the server speaks is rejected with
/// ErrorCode::kUnsupportedVersion; older versions stay accepted (a v3 server
/// decodes v1/v2 HELLOs and treats the missing fields as defaults).
/// v2 adds session resumption (RESUME / RESUME_OK / ACK frames), the
/// kOverloaded status, and the resume error codes.
/// v3 appends `detector_spec` to HELLO (per-session detection backend) and
/// the kUnknownDetector error code.
inline constexpr std::uint16_t kProtocolVersion = 3;

/// Header: u32 payload length + u8 frame type.
inline constexpr std::size_t kHeaderBytes = 5;

/// Hard ceiling on a single payload. Every v1 frame fits comfortably; a
/// length prefix beyond this is rejected before any buffering, so a hostile
/// 4 GiB prefix cannot make the decoder allocate.
inline constexpr std::size_t kMaxPayloadBytes = 4096;

enum class FrameType : std::uint8_t {
  kHello = 1,            ///< client -> server: open a session
  kMeasurement = 2,      ///< client -> server: one radar epoch
  kChallengeResult = 3,  ///< server -> client: challenge-slot outcome
  kEstimate = 4,         ///< server -> client: safe measurement for a step
  kStatus = 5,           ///< server -> client: session/connection status
  kError = 6,            ///< server -> client: protocol error (fatal)
  kResume = 7,           ///< client -> server: re-attach a detached session
  kResumeOk = 8,         ///< server -> client: resume accepted; replay follows
  kAck = 9,              ///< client -> server: estimates received through step
};

enum class StatusCode : std::uint8_t {
  kHelloOk = 0,       ///< session opened; token carries the session id
  kDraining = 1,      ///< server is shutting down gracefully
  kSlowConsumer = 2,  ///< outbound queue overflowed; connection closes
  kIdleTimeout = 3,   ///< session evicted for inactivity
  kOverloaded = 4,    ///< load shed; retry after backoff (session resumable)
};

enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,      ///< decoder entered the failed state
  kUnsupportedVersion = 2,  ///< HELLO version outside 1..kProtocolVersion
  kSessionLimit = 3,        ///< session cap reached; HELLO rejected
  kProtocolOrder = 4,       ///< MEASUREMENT before HELLO, duplicate HELLO...
  kInternal = 5,            ///< server-side failure (message says what)
  kResumeUnknown = 6,       ///< RESUME token unknown, expired, or finished
  kResumeGap = 7,           ///< replay window lost frames the client needs
  kUnknownDetector = 8,     ///< HELLO detector_spec names no known backend
};

/// Session handshake. Everything the server needs to rebuild the exact
/// pipeline the client will compare against offline: the scenario that
/// produced the measurement trace and the pipeline profile that consumes it.
struct HelloFrame {
  std::uint16_t protocol_version = kProtocolVersion;
  std::uint64_t scenario_seed = 1;
  std::int64_t horizon_steps = 300;
  core::LeaderScenario leader = core::LeaderScenario::kConstantDecel;
  core::AttackKind attack = core::AttackKind::kNone;
  radar::BeatEstimator estimator = radar::BeatEstimator::kPeriodogram;
  bool hardened = false;  ///< hardened_pipeline_options() vs paper defaults
  units::Seconds attack_start_s{182.0};
  units::Seconds attack_end_s{300.0};
  std::string client_id;   ///< informational; <= kMaxClientIdBytes
  std::string fault_spec;  ///< fault mini-language; <= kMaxFaultSpecBytes
  /// Detection backend mini-language (v3+; <= kMaxDetectorSpecBytes). Empty
  /// selects the paper's CRA detector. Absent from v1/v2 HELLOs, which
  /// decode with it empty.
  std::string detector_spec;
};

inline constexpr std::size_t kMaxClientIdBytes = 128;
inline constexpr std::size_t kMaxFaultSpecBytes = 1024;
inline constexpr std::size_t kMaxDetectorSpecBytes = 256;

/// Cap on the human-readable message in STATUS and ERROR frames.
inline constexpr std::size_t kMaxMessageBytes = 512;

/// One radar epoch, lossless: every field the pipeline or health monitor
/// reads crosses the wire bit-exactly.
struct MeasurementFrame {
  std::int64_t step = 0;
  radar::RadarMeasurement measurement{};
};

/// The pipeline's SafeMeasurement for one step.
struct EstimateFrame {
  std::int64_t step = 0;
  core::SafeMeasurement safe{};
};

/// Outcome of a challenge slot (emitted alongside the ESTIMATE).
struct ChallengeResultFrame {
  std::int64_t step = 0;
  bool silent = false;        ///< receiver output was zero, as expected
  bool under_attack = false;  ///< detector state after the slot
};

struct StatusFrame {
  StatusCode code = StatusCode::kHelloOk;
  std::uint64_t session_token = 0;
  std::string message;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
};

/// Re-attach a detached session after a disconnect. `last_step` is the
/// highest ESTIMATE step the client has received (-1 = none yet); the server
/// replays every retained frame after it, then the client streams
/// measurements from the step the RESUME_OK names.
struct ResumeFrame {
  std::uint64_t session_token = 0;
  std::int64_t last_step = -1;
};

/// Resume accepted: replayed frames (if any) follow immediately, after which
/// the client must send measurements starting at `next_step`.
struct ResumeOkFrame {
  std::uint64_t session_token = 0;
  std::int64_t next_step = 0;         ///< first measurement step expected next
  std::uint64_t replayed_frames = 0;  ///< frames replayed after this one
};

/// Client acknowledgement: every ESTIMATE through `last_step` has been
/// received, so the server may trim its replay buffer up to that step.
struct AckFrame {
  std::int64_t last_step = -1;
};

// --- encoding --------------------------------------------------------------

/// Each encoder returns the complete frame (header + payload). String
/// fields are clamped at encode time to the same caps the decoders enforce
/// (kMaxClientIdBytes / kMaxFaultSpecBytes / kMaxDetectorSpecBytes /
/// kMaxMessageBytes), so an encoded frame always round-trips through decode.
[[nodiscard]] std::vector<std::uint8_t> encode(const HelloFrame& hello);
[[nodiscard]] std::vector<std::uint8_t> encode(const MeasurementFrame& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const EstimateFrame& e);
[[nodiscard]] std::vector<std::uint8_t> encode(const ChallengeResultFrame& c);
[[nodiscard]] std::vector<std::uint8_t> encode(const StatusFrame& s);
[[nodiscard]] std::vector<std::uint8_t> encode(const ErrorFrame& e);
[[nodiscard]] std::vector<std::uint8_t> encode(const ResumeFrame& r);
[[nodiscard]] std::vector<std::uint8_t> encode(const ResumeOkFrame& r);
[[nodiscard]] std::vector<std::uint8_t> encode(const AckFrame& a);

// --- decoding --------------------------------------------------------------

/// A complete frame lifted off the byte stream (payload not yet parsed).
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Parses a frame's payload into the typed struct. Returns false (and sets
/// `error` when non-null) on short payloads, trailing bytes, out-of-range
/// enums, reserved flag bits, or oversized strings. A false return never
/// reads outside the payload.
bool decode(const Frame& frame, HelloFrame& out, std::string* error = nullptr);
bool decode(const Frame& frame, MeasurementFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, EstimateFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, ChallengeResultFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, StatusFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, ErrorFrame& out, std::string* error = nullptr);
bool decode(const Frame& frame, ResumeFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, ResumeOkFrame& out,
            std::string* error = nullptr);
bool decode(const Frame& frame, AckFrame& out, std::string* error = nullptr);

/// Incremental frame lifter. feed() arbitrary byte chunks, then call next()
/// until it returns nullopt (more bytes needed). Framing violations (length
/// prefix > max payload, unknown frame type) put the decoder into a sticky
/// failed state; the connection must be torn down. The decoder never reads
/// outside the bytes it was fed and never buffers more than
/// kHeaderBytes + max payload per pending frame.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload_bytes = kMaxPayloadBytes)
      : max_payload_(max_payload_bytes) {}

  void feed(const void* data, std::size_t size);

  /// Next complete frame, or nullopt when more bytes are needed or the
  /// decoder has failed.
  std::optional<Frame> next();

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  void fail(std::string message);

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::size_t max_payload_;
  bool failed_ = false;
  std::string error_;
};

[[nodiscard]] const char* to_string(FrameType type);
[[nodiscard]] const char* to_string(StatusCode code);
[[nodiscard]] const char* to_string(ErrorCode code);

}  // namespace safe::serve
