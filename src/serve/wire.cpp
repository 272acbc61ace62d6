#include "serve/wire.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
#include <span>
#include <utility>

namespace safe::serve {

namespace {

/// A frame type, or the same type const: a layout walks a const frame to
/// encode it and a mutable one to decode into it.
template <typename T, typename F>
concept MaybeConst = std::same_as<std::remove_const_t<T>, F>;

/// Sets `*error`, when non-null, to the parts joined; returns false.
template <typename... Parts>
bool reject(std::string* error, const Parts&... parts) {
  if (error != nullptr) {
    error->clear();
    (error->append(parts), ...);
  }
  return false;
}

/// Encodes one frame: frame() writes the header, each later call one field,
/// in canonical little-endian form; finish() fills in the payload length.
class Writer {
 public:
  /// Every fixed-size frame fits (MEASUREMENT, the largest, is 62 bytes),
  /// so encoding one allocates once; a frame with strings may grow.
  Writer() { bytes_.reserve(64); }

  void frame(FrameType type) {
    u32(0);
    u8(static_cast<std::uint8_t>(type));
  }

  void u8(std::uint8_t v) { put(v, 1); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f64(auto unit) { f64(unit.value()); }
  // A bounded field is written as it is; only the reader checks it.
  void u8(auto v, auto, auto, const char*) { u8(static_cast<std::uint8_t>(v)); }
  void i64(std::int64_t v, std::int64_t, const char*) { i64(v); }
  void u8_flags(auto... bits) { put(flag_word(bits...), 1); }
  void u16_flags(auto... bits) { put(flag_word(bits...), 2); }

  /// Clamps to the cap the reader enforces, so a locally built frame with
  /// an oversized string is truncated here rather than encoded with a
  /// length prefix that disagrees with its contents (or rejected only by
  /// the remote decoder).
  void str(const std::string& s, std::size_t cap, const char*) {
    const std::size_t n = std::min(s.size(), cap);
    u16(static_cast<std::uint16_t>(n));
    bytes_.insert(bytes_.end(), s.data(), s.data() + n);
  }

  [[nodiscard]] std::vector<std::uint8_t> finish() && {
    const std::uint64_t len = bytes_.size() - kHeaderBytes;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes_[i] = static_cast<std::uint8_t>(len >> (8 * i));
    }
    return std::move(bytes_);
  }

 private:
  void put(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  static std::uint64_t flag_word(auto... bits) {
    std::uint64_t word = 0;
    unsigned bit = 0;
    ((word |= std::uint64_t{bits} << bit++), ...);
    return word;
  }

  std::vector<std::uint8_t> bytes_;
};

/// Decodes the fields a layout walks, bounds-checked. A frame of another
/// type, a read past the end or a string over its cap stops the walk's
/// reads (each later one yields zero); a field out of range is remembered,
/// the first one only, and the walk goes on. ok() then reports them in
/// that order, with trailing bytes before a field out of range.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes, FrameType type = {})
      : bytes_(bytes), type_(type) {}

  void frame(FrameType type) {
    expected_ = type;
    stopped_ = type != type_;
  }

  void u8(std::uint8_t& v) { load(v, 1); }
  void u16(std::uint16_t& v) { load(v, 2); }
  void u32(std::uint32_t& v) { load(v, 4); }
  void u64(std::unsigned_integral auto& v) { load(v, 8); }
  void i64(std::int64_t& v) { load(v, 8); }
  void f64(double& v) { v = std::bit_cast<double>(take(8)); }
  template <typename Unit>
  void f64(Unit& v) {
    v = Unit{std::bit_cast<double>(take(8))};
  }

  /// An enum (or bool) byte in [first, last], else "<name> out of range".
  template <typename E>
  void u8(E& v, E first, E last, const char* name) {
    std::uint8_t raw = 0;
    u8(raw);
    if (raw < static_cast<std::uint8_t>(first) ||
        raw > static_cast<std::uint8_t>(last)) {
      bad(name, "out of range");
    } else {
      v = static_cast<E>(raw);
    }
  }
  /// An i64 of at least `min`, else "<name> out of range".
  void i64(std::int64_t& v, std::int64_t min, const char* name) {
    i64(v);
    if (v < min) bad(name, "out of range");
  }
  /// Bit i is the i-th flag; every higher bit is reserved and must be zero.
  void u8_flags(auto&... bits) { flags(take(1), bits...); }
  void u16_flags(auto&... bits) { flags(take(2), bits...); }

  /// A u16 length, then that many bytes. More than `cap` counts as a
  /// truncation, reported as "or <noun> too long".
  void str(std::string& s, std::size_t cap, const char* noun) {
    noun_ = noun;
    const auto n = static_cast<std::size_t>(take(2));
    if (stopped_ || n > cap || bytes_.size() - pos_ < n) {
      stopped_ = true;
      return;
    }
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }

  /// The walk's verdict; false sets `error` as reject() does.
  bool ok(std::string* error) const {
    const char* name = to_string(expected_);
    if (expected_ != type_) return reject(error, "frame is not ", name);
    if (stopped_ && noun_ == nullptr) {
      return reject(error, name, " payload truncated");
    }
    if (stopped_) {
      return reject(error, name, " payload truncated or ", noun_, " too long");
    }
    if (pos_ != bytes_.size()) {
      return reject(error, name, " payload has trailing bytes");
    }
    if (bad_field_ != nullptr) {
      return reject(error, name, " ", bad_field_, " ", bad_fault_);
    }
    return true;
  }

 private:
  std::uint64_t take(std::size_t width) {
    if (stopped_ || bytes_.size() - pos_ < width) {
      stopped_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    }
    pos_ += width;
    return v;
  }

  template <typename T>
  void load(T& v, std::size_t width) {
    v = static_cast<T>(take(width));
  }

  void flags(std::uint64_t word, auto&... bits) {
    unsigned bit = 0;
    ((bits = ((word >> bit++) & 1u) != 0), ...);
    if ((word >> sizeof...(bits)) != 0) bad("reserved flag bits", "set");
  }

  void bad(const char* field, const char* fault) {
    if (bad_field_ != nullptr) return;
    bad_field_ = field;
    bad_fault_ = fault;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  FrameType type_;
  FrameType expected_{};
  bool stopped_ = false;
  const char* noun_ = nullptr;
  const char* bad_field_ = nullptr;
  const char* bad_fault_ = nullptr;
};

// --- layouts ---------------------------------------------------------------
//
// Each frame written once: walk() names its type, then lists its payload's
// fields in wire order and width; a Writer walks it to encode and a Reader
// to decode. A Reader walks a frame reset to its defaults, so a field that a
// version does not carry decodes as its default. A bounded field names its
// bounds by enumerator, and the Reader reports the first one out of range
// by `name`.

void walk(auto& io, MaybeConst<HelloFrame> auto& h) {
  using core::AttackKind;
  using core::LeaderScenario;
  using radar::BeatEstimator;
  io.frame(FrameType::kHello);
  io.u16(h.protocol_version);
  io.u64(h.scenario_seed);
  io.i64(h.horizon_steps);
  io.u8(h.leader, LeaderScenario::kConstantDecel,
        LeaderScenario::kDecelThenAccel, "leader scenario");
  io.u8(h.attack, AttackKind::kNone, AttackKind::kDelayInjection,
        "attack kind");
  io.u8(h.estimator, BeatEstimator::kRootMusic, BeatEstimator::kPeriodogram,
        "estimator");
  io.u8(h.hardened, false, true, "hardened flag");
  io.f64(h.attack_start_s);
  io.f64(h.attack_end_s);
  io.str(h.client_id, kMaxClientIdBytes, "string");
  io.str(h.fault_spec, kMaxFaultSpecBytes, "string");
  // v3 appends the detector spec; a frame declaring v1/v2 keeps the old
  // layout so downgraded HELLOs stay decodable by old servers.
  if (h.protocol_version >= 3) {
    io.str(h.detector_spec, kMaxDetectorSpecBytes, "string");
  }
}

void walk(auto& io, MaybeConst<MeasurementFrame> auto& f) {
  auto& m = f.measurement;
  io.frame(FrameType::kMeasurement);
  io.i64(f.step);
  io.f64(m.estimate.distance_m);
  io.f64(m.estimate.range_rate_mps);
  io.f64(m.beats.up_hz);
  io.f64(m.beats.down_hz);
  io.f64(m.rx_power_w);
  io.f64(m.peak_to_average);
  io.u8_flags(m.coherent_echo, m.power_alarm);
}

void walk(auto& io, MaybeConst<EstimateFrame> auto& e) {
  using core::DegradationState;
  auto& s = e.safe;
  io.frame(FrameType::kEstimate);
  io.i64(e.step);
  io.f64(s.distance_m);
  io.f64(s.relative_velocity_mps);
  io.u16_flags(s.target_present, s.estimated, s.under_attack,
               s.challenge_slot, s.attack_started, s.attack_cleared,
               s.safe_stop, s.measurement_rejected);
  io.u8(s.degradation, DegradationState::kClean, DegradationState::kSafeStop,
        "degradation state");
  io.u64(s.holdover_steps);
}

void walk(auto& io, MaybeConst<ChallengeResultFrame> auto& c) {
  io.frame(FrameType::kChallengeResult);
  io.i64(c.step);
  io.u8_flags(c.silent, c.under_attack);
}

void walk(auto& io, MaybeConst<StatusFrame> auto& s) {
  io.frame(FrameType::kStatus);
  io.u8(s.code, StatusCode::kHelloOk, StatusCode::kOverloaded, "code");
  io.u64(s.session_token);
  io.str(s.message, kMaxMessageBytes, "message");
}

void walk(auto& io, MaybeConst<ErrorFrame> auto& e) {
  io.frame(FrameType::kError);
  io.u8(e.code, ErrorCode::kMalformedFrame, ErrorCode::kUnknownDetector,
        "code");
  io.str(e.message, kMaxMessageBytes, "message");
}

void walk(auto& io, MaybeConst<ResumeFrame> auto& r) {
  io.frame(FrameType::kResume);
  io.u64(r.session_token);
  io.i64(r.last_step, -1, "last_step");
}

void walk(auto& io, MaybeConst<ResumeOkFrame> auto& r) {
  io.frame(FrameType::kResumeOk);
  io.u64(r.session_token);
  io.i64(r.next_step, 0, "next_step");
  io.u64(r.replayed_frames);
}

void walk(auto& io, MaybeConst<AckFrame> auto& a) {
  io.frame(FrameType::kAck);
  io.i64(a.last_step, -1, "last_step");
}

std::vector<std::uint8_t> encode_frame(const auto& frame) {
  Writer w;
  walk(w, frame);
  return std::move(w).finish();
}

template <typename F>
bool decode_frame(const Frame& frame, F& out, std::string* error) {
  out = F{};
  Reader r(frame.payload, frame.type);
  walk(r, out);
  return r.ok(error);
}

}  // namespace

// --- encoding and decoding -------------------------------------------------

std::vector<std::uint8_t> encode(const HelloFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const MeasurementFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const EstimateFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const ChallengeResultFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const StatusFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const ErrorFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const ResumeFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const ResumeOkFrame& f) {
  return encode_frame(f);
}
std::vector<std::uint8_t> encode(const AckFrame& f) {
  return encode_frame(f);
}

bool decode(const Frame& frame, HelloFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, MeasurementFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, EstimateFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, ChallengeResultFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, StatusFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, ErrorFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, ResumeFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, ResumeOkFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}
bool decode(const Frame& frame, AckFrame& out, std::string* error) {
  return decode_frame(frame, out, error);
}

// --- FrameDecoder ----------------------------------------------------------

void FrameDecoder::feed(const void* data, std::size_t size) {
  if (failed_ || size == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void FrameDecoder::fail(std::string message) {
  failed_ = true;
  error_ = std::move(message);
  buffer_.clear();
  consumed_ = 0;
}

std::optional<Frame> FrameDecoder::next() {
  if (failed_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderBytes) return std::nullopt;

  const std::uint8_t* head = buffer_.data() + consumed_;
  Reader header({head, kHeaderBytes});
  std::uint32_t payload_len = 0;
  std::uint8_t type_byte = 0;
  header.u32(payload_len);
  header.u8(type_byte);
  // Validate the header before waiting for (or buffering) the payload, so a
  // hostile length prefix can never drive allocation.
  if (payload_len > max_payload_) {
    fail("oversized frame: " + std::to_string(payload_len) +
         " bytes exceeds max payload " + std::to_string(max_payload_));
    return std::nullopt;
  }
  if (type_byte < static_cast<std::uint8_t>(FrameType::kHello) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kAck)) {
    fail("unknown frame type " + std::to_string(type_byte));
    return std::nullopt;
  }
  if (available < kHeaderBytes + payload_len) return std::nullopt;

  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  frame.payload.assign(head + kHeaderBytes,
                       head + kHeaderBytes + payload_len);
  consumed_ += kHeaderBytes + payload_len;
  // Compact once the dead prefix dominates, keeping amortized O(1) feeds.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return frame;
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kMeasurement: return "MEASUREMENT";
    case FrameType::kChallengeResult: return "CHALLENGE_RESULT";
    case FrameType::kEstimate: return "ESTIMATE";
    case FrameType::kStatus: return "STATUS";
    case FrameType::kError: return "ERROR";
    case FrameType::kResume: return "RESUME";
    case FrameType::kResumeOk: return "RESUME_OK";
    case FrameType::kAck: return "ACK";
  }
  return "?";
}

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kHelloOk: return "hello-ok";
    case StatusCode::kDraining: return "draining";
    case StatusCode::kSlowConsumer: return "slow-consumer";
    case StatusCode::kIdleTimeout: return "idle-timeout";
    case StatusCode::kOverloaded: return "overloaded";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kSessionLimit: return "session-limit";
    case ErrorCode::kProtocolOrder: return "protocol-order";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kResumeUnknown: return "resume-unknown";
    case ErrorCode::kResumeGap: return "resume-gap";
    case ErrorCode::kUnknownDetector: return "unknown-detector";
  }
  return "?";
}

}  // namespace safe::serve
