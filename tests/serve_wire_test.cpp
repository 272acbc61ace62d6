// Wire-protocol tests: round-trips for every frame type, golden framing
// bytes, arbitrary read-boundary splits, strict rejection of malformed
// input, and a SplitMix64-driven fuzz pass (random truncations, oversized
// length prefixes, garbage types, bit flips) that must never crash or
// over-read — the sanitizer CI jobs give that teeth.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/seed.hpp"
#include "serve/chaos.hpp"
#include "serve/wire.hpp"

namespace {

using namespace safe;
using namespace safe::serve;

MeasurementFrame sample_measurement() {
  MeasurementFrame m;
  m.step = 42;
  m.measurement.estimate.distance_m = units::Meters{99.25};
  m.measurement.estimate.range_rate_mps = units::MetersPerSecond{-0.875};
  m.measurement.beats.up_hz = units::Hertz{123456.5};
  m.measurement.beats.down_hz = units::Hertz{-7890.125};
  m.measurement.rx_power_w = 3.5e-9;
  m.measurement.peak_to_average = 17.0;
  m.measurement.coherent_echo = true;
  m.measurement.power_alarm = false;
  return m;
}

EstimateFrame sample_estimate() {
  EstimateFrame e;
  e.step = 183;
  e.safe.target_present = true;
  e.safe.distance_m = units::Meters{97.5};
  e.safe.relative_velocity_mps = units::MetersPerSecond{-0.25};
  e.safe.estimated = true;
  e.safe.under_attack = true;
  e.safe.challenge_slot = false;
  e.safe.attack_started = true;
  e.safe.attack_cleared = false;
  e.safe.degradation = core::DegradationState::kHoldover;
  e.safe.safe_stop = false;
  e.safe.measurement_rejected = true;
  e.safe.holdover_steps = 7;
  return e;
}

/// Feeds `bytes` in chunks of `chunk` and returns every decoded frame.
std::vector<Frame> decode_all(const std::vector<std::uint8_t>& bytes,
                              std::size_t chunk, FrameDecoder& decoder) {
  std::vector<Frame> frames;
  for (std::size_t offset = 0; offset < bytes.size(); offset += chunk) {
    const std::size_t n = std::min(chunk, bytes.size() - offset);
    decoder.feed(bytes.data() + offset, n);
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  return frames;
}

TEST(ServeWire, HelloRoundTrip) {
  HelloFrame hello;
  hello.scenario_seed = 0xDEADBEEFCAFE1234ULL;
  hello.horizon_steps = 1234;
  hello.leader = core::LeaderScenario::kDecelThenAccel;
  hello.attack = core::AttackKind::kDelayInjection;
  hello.estimator = radar::BeatEstimator::kRootMusic;
  hello.hardened = true;
  hello.attack_start_s = units::Seconds{17.25};
  hello.attack_end_s = units::Seconds{200.0};
  hello.client_id = "client-7";
  hello.fault_spec = "dropout@100+5";

  FrameDecoder decoder;
  decoder.feed(encode(hello).data(), encode(hello).size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHello);

  HelloFrame out;
  std::string error;
  ASSERT_TRUE(decode(*frame, out, &error)) << error;
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.scenario_seed, hello.scenario_seed);
  EXPECT_EQ(out.horizon_steps, hello.horizon_steps);
  EXPECT_EQ(out.leader, hello.leader);
  EXPECT_EQ(out.attack, hello.attack);
  EXPECT_EQ(out.estimator, hello.estimator);
  EXPECT_EQ(out.hardened, hello.hardened);
  EXPECT_EQ(out.attack_start_s.value(), hello.attack_start_s.value());
  EXPECT_EQ(out.attack_end_s.value(), hello.attack_end_s.value());
  EXPECT_EQ(out.client_id, hello.client_id);
  EXPECT_EQ(out.fault_spec, hello.fault_spec);
}

TEST(ServeWire, MeasurementRoundTripIsBitExact) {
  const MeasurementFrame m = sample_measurement();
  FrameDecoder decoder;
  const std::vector<std::uint8_t> bytes = encode(m);
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  MeasurementFrame out;
  ASSERT_TRUE(decode(*frame, out, nullptr));
  EXPECT_EQ(out.step, m.step);
  EXPECT_EQ(out.measurement.estimate.distance_m.value(),
            m.measurement.estimate.distance_m.value());
  EXPECT_EQ(out.measurement.estimate.range_rate_mps.value(),
            m.measurement.estimate.range_rate_mps.value());
  EXPECT_EQ(out.measurement.beats.up_hz.value(),
            m.measurement.beats.up_hz.value());
  EXPECT_EQ(out.measurement.beats.down_hz.value(),
            m.measurement.beats.down_hz.value());
  EXPECT_EQ(out.measurement.rx_power_w, m.measurement.rx_power_w);
  EXPECT_EQ(out.measurement.peak_to_average, m.measurement.peak_to_average);
  EXPECT_EQ(out.measurement.coherent_echo, m.measurement.coherent_echo);
  EXPECT_EQ(out.measurement.power_alarm, m.measurement.power_alarm);
  // Re-encoding reproduces the exact bytes — the parity contract's anchor.
  EXPECT_EQ(encode(out), bytes);
}

TEST(ServeWire, EstimateRoundTripIsBitExact) {
  const EstimateFrame e = sample_estimate();
  const std::vector<std::uint8_t> bytes = encode(e);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EstimateFrame out;
  ASSERT_TRUE(decode(*frame, out, nullptr));
  EXPECT_EQ(out.step, e.step);
  EXPECT_EQ(out.safe.distance_m.value(), e.safe.distance_m.value());
  EXPECT_EQ(out.safe.relative_velocity_mps.value(),
            e.safe.relative_velocity_mps.value());
  EXPECT_EQ(out.safe.degradation, e.safe.degradation);
  EXPECT_EQ(out.safe.holdover_steps, e.safe.holdover_steps);
  EXPECT_EQ(out.safe.under_attack, e.safe.under_attack);
  EXPECT_EQ(out.safe.measurement_rejected, e.safe.measurement_rejected);
  EXPECT_EQ(encode(out), bytes);
}

TEST(ServeWire, StatusAndErrorRoundTrip) {
  const StatusFrame status{.code = StatusCode::kSlowConsumer,
                           .session_token = 0x0123456789ABCDEFULL,
                           .message = "outbound queue overflow"};
  const ErrorFrame error{.code = ErrorCode::kSessionLimit,
                         .message = "session cap reached"};
  FrameDecoder decoder;
  const auto status_bytes = encode(status);
  const auto error_bytes = encode(error);
  decoder.feed(status_bytes.data(), status_bytes.size());
  decoder.feed(error_bytes.data(), error_bytes.size());

  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  StatusFrame status_out;
  ASSERT_TRUE(decode(*frame, status_out, nullptr));
  EXPECT_EQ(status_out.code, status.code);
  EXPECT_EQ(status_out.session_token, status.session_token);
  EXPECT_EQ(status_out.message, status.message);

  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ErrorFrame error_out;
  ASSERT_TRUE(decode(*frame, error_out, nullptr));
  EXPECT_EQ(error_out.code, error.code);
  EXPECT_EQ(error_out.message, error.message);
}

// Encoders clamp strings to the decoder's caps, so a locally built frame
// with an oversized string (even > 65535 bytes, which used to truncate the
// u16 length prefix while appending every byte) still decodes cleanly on
// the other side.
TEST(ServeWire, OversizedStringsAreClampedAtEncodeTime) {
  StatusFrame status{.code = StatusCode::kDraining,
                     .session_token = 7,
                     .message = std::string(70'000, 'x')};
  HelloFrame hello;
  hello.client_id = std::string(kMaxClientIdBytes + 50, 'c');
  hello.fault_spec = std::string(kMaxFaultSpecBytes + 1, 'f');
  const ErrorFrame error{.code = ErrorCode::kInternal,
                         .message = std::string(kMaxMessageBytes + 9, 'e')};

  FrameDecoder decoder;
  for (const auto& bytes : {encode(status), encode(hello), encode(error)}) {
    decoder.feed(bytes.data(), bytes.size());
  }

  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  StatusFrame status_out;
  std::string why;
  ASSERT_TRUE(decode(*frame, status_out, &why)) << why;
  EXPECT_EQ(status_out.message, std::string(kMaxMessageBytes, 'x'));

  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  HelloFrame hello_out;
  ASSERT_TRUE(decode(*frame, hello_out, &why)) << why;
  EXPECT_EQ(hello_out.client_id, std::string(kMaxClientIdBytes, 'c'));
  EXPECT_EQ(hello_out.fault_spec, std::string(kMaxFaultSpecBytes, 'f'));

  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ErrorFrame error_out;
  ASSERT_TRUE(decode(*frame, error_out, &why)) << why;
  EXPECT_EQ(error_out.message, std::string(kMaxMessageBytes, 'e'));
  EXPECT_FALSE(decoder.failed());
}

TEST(ServeWire, ResumeFramesRoundTrip) {
  const ResumeFrame resume{.session_token = 0xFEEDFACE12345678ULL,
                           .last_step = 29};
  const ResumeOkFrame resume_ok{.session_token = 0xFEEDFACE12345678ULL,
                                .next_step = 30,
                                .replayed_frames = 12};
  const AckFrame ack{.last_step = 63};

  FrameDecoder decoder;
  for (const auto& bytes : {encode(resume), encode(resume_ok), encode(ack)}) {
    decoder.feed(bytes.data(), bytes.size());
  }

  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kResume);
  ResumeFrame resume_out;
  std::string why;
  ASSERT_TRUE(decode(*frame, resume_out, &why)) << why;
  EXPECT_EQ(resume_out.session_token, resume.session_token);
  EXPECT_EQ(resume_out.last_step, resume.last_step);

  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kResumeOk);
  ResumeOkFrame resume_ok_out;
  ASSERT_TRUE(decode(*frame, resume_ok_out, &why)) << why;
  EXPECT_EQ(resume_ok_out.session_token, resume_ok.session_token);
  EXPECT_EQ(resume_ok_out.next_step, resume_ok.next_step);
  EXPECT_EQ(resume_ok_out.replayed_frames, resume_ok.replayed_frames);

  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kAck);
  AckFrame ack_out;
  ASSERT_TRUE(decode(*frame, ack_out, &why)) << why;
  EXPECT_EQ(ack_out.last_step, ack.last_step);
  EXPECT_FALSE(decoder.failed());
}

TEST(ServeWire, ResumeFramesRejectMalformedPayloads) {
  // last_step below -1 is meaningless and must not decode.
  auto bad_resume = encode(ResumeFrame{.session_token = 1, .last_step = -2});
  FrameDecoder decoder;
  decoder.feed(bad_resume.data(), bad_resume.size());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ResumeFrame resume_out;
  std::string why;
  EXPECT_FALSE(decode(*frame, resume_out, &why));

  // Negative next_step must not decode either.
  auto bad_ok =
      encode(ResumeOkFrame{.session_token = 1, .next_step = -1,
                           .replayed_frames = 0});
  decoder = FrameDecoder{};
  decoder.feed(bad_ok.data(), bad_ok.size());
  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ResumeOkFrame ok_out;
  EXPECT_FALSE(decode(*frame, ok_out, &why));

  // Short payloads for every v2 frame type.
  ResumeFrame r;
  ResumeOkFrame ok;
  AckFrame a;
  EXPECT_FALSE(decode(Frame{FrameType::kResume, {0x01}}, r, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kResumeOk, {0x01}}, ok, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kAck, {0x01}}, a, nullptr));
}

TEST(ServeWire, StatusAndErrorCodeRangesTrackV2) {
  // kOverloaded (4) is the top valid STATUS code; 5 must be rejected.
  auto bytes = encode(StatusFrame{.code = StatusCode::kOverloaded,
                                  .session_token = 3,
                                  .message = "busy"});
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  StatusFrame status_out;
  ASSERT_TRUE(decode(*frame, status_out, nullptr));
  EXPECT_EQ(status_out.code, StatusCode::kOverloaded);

  bytes[kHeaderBytes] = 5;  // payload starts with the code byte
  decoder = FrameDecoder{};
  decoder.feed(bytes.data(), bytes.size());
  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(decode(*frame, status_out, nullptr));

  // kUnknownDetector (8) is the top valid ERROR code; 9 must be rejected.
  auto error_bytes = encode(ErrorFrame{.code = ErrorCode::kUnknownDetector,
                                       .message = "no such backend"});
  decoder = FrameDecoder{};
  decoder.feed(error_bytes.data(), error_bytes.size());
  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ErrorFrame error_out;
  ASSERT_TRUE(decode(*frame, error_out, nullptr));
  EXPECT_EQ(error_out.code, ErrorCode::kUnknownDetector);

  error_bytes[kHeaderBytes] = 9;
  decoder = FrameDecoder{};
  decoder.feed(error_bytes.data(), error_bytes.size());
  frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(decode(*frame, error_out, nullptr));
}

TEST(ServeWire, GoldenChallengeResultBytes) {
  // Framing is frozen: u32 length + u8 type header, little-endian payload.
  const ChallengeResultFrame c{.step = 5, .silent = true,
                               .under_attack = false};
  const std::vector<std::uint8_t> expected = {
      0x09, 0x00, 0x00, 0x00,  // payload length = 9
      0x03,                    // FrameType::kChallengeResult
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // step = 5 (i64 LE)
      0x01,                    // flags: bit0 silent
  };
  EXPECT_EQ(encode(c), expected);
}

TEST(ServeWire, ByteAtATimeSplitDelivery) {
  std::vector<std::uint8_t> bytes;
  const auto m = encode(sample_measurement());
  const auto e = encode(sample_estimate());
  const auto c = encode(ChallengeResultFrame{.step = 9, .silent = false,
                                             .under_attack = true});
  bytes.insert(bytes.end(), m.begin(), m.end());
  bytes.insert(bytes.end(), e.begin(), e.end());
  bytes.insert(bytes.end(), c.begin(), c.end());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{7}}) {
    FrameDecoder decoder;
    const std::vector<Frame> frames = decode_all(bytes, chunk, decoder);
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, FrameType::kMeasurement);
    EXPECT_EQ(frames[1].type, FrameType::kEstimate);
    EXPECT_EQ(frames[2].type, FrameType::kChallengeResult);
    EXPECT_FALSE(decoder.failed());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ServeWire, OversizedLengthPrefixFailsBeforeBuffering) {
  // 4 GiB-ish length prefix: the decoder must reject it from the header
  // alone and never wait for (or allocate) the advertised payload.
  const std::vector<std::uint8_t> header = {0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("payload"), std::string::npos);
}

TEST(ServeWire, UnknownFrameTypeFails) {
  const std::vector<std::uint8_t> header = {0x01, 0x00, 0x00, 0x00, 0x77,
                                            0x00};
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
  // Sticky: feeding valid bytes afterwards cannot revive it.
  const auto good = encode(sample_measurement());
  decoder.feed(good.data(), good.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
}

TEST(ServeWire, TruncatedFrameIsNotAnError) {
  const auto bytes = encode(sample_measurement());
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.failed());  // waiting, not broken
  decoder.feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(ServeWire, TrailingPayloadBytesRejected) {
  auto bytes = encode(ChallengeResultFrame{});
  bytes.push_back(0x00);  // one extra payload byte
  bytes[0] = static_cast<std::uint8_t>(bytes[0] + 1);  // fix the length
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ChallengeResultFrame out;
  std::string error;
  EXPECT_FALSE(decode(*frame, out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(ServeWire, ReservedFlagBitsRejected) {
  auto bytes = encode(ChallengeResultFrame{.step = 1, .silent = true,
                                           .under_attack = true});
  bytes.back() = 0xFF;  // set reserved bits in the flags byte
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  ChallengeResultFrame out;
  EXPECT_FALSE(decode(*frame, out, nullptr));
}

TEST(ServeWire, ShortPayloadRejectedForEveryType) {
  const Frame short_frame{.type = FrameType::kHello, .payload = {0x01}};
  HelloFrame hello;
  MeasurementFrame m;
  EstimateFrame e;
  ChallengeResultFrame c;
  StatusFrame s;
  ErrorFrame err;
  EXPECT_FALSE(decode(short_frame, hello, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kMeasurement, {0x01}}, m, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kEstimate, {0x01}}, e, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kChallengeResult, {0x01}}, c, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kStatus, {0x01}}, s, nullptr));
  EXPECT_FALSE(decode(Frame{FrameType::kError, {0x01}}, err, nullptr));
}

/// The frame `bytes` hold, lifted off the wire without a FrameDecoder.
Frame as_frame(const std::vector<std::uint8_t>& bytes) {
  return Frame{.type = static_cast<FrameType>(bytes[4]),
               .payload = {bytes.begin() + kHeaderBytes, bytes.end()}};
}

/// `frame` with payload byte `offset` set to `value`.
Frame with_byte(Frame frame, std::size_t offset, std::uint8_t value) {
  frame.payload.at(offset) = value;
  return frame;
}

/// `frame` with one zero byte after its payload.
Frame with_trailing_byte(Frame frame) {
  frame.payload.push_back(0x00);
  return frame;
}

/// Decodes `frame` as a frame of `type`: the rejection message, or
/// "accepted".
std::string rejection(const Frame& frame, FrameType type) {
  std::string error;
  const auto as = [&](auto out) { return decode(frame, out, &error); };
  bool accepted = false;
  switch (type) {
    case FrameType::kHello: accepted = as(HelloFrame{}); break;
    case FrameType::kMeasurement: accepted = as(MeasurementFrame{}); break;
    case FrameType::kChallengeResult:
      accepted = as(ChallengeResultFrame{});
      break;
    case FrameType::kEstimate: accepted = as(EstimateFrame{}); break;
    case FrameType::kStatus: accepted = as(StatusFrame{}); break;
    case FrameType::kError: accepted = as(ErrorFrame{}); break;
    case FrameType::kResume: accepted = as(ResumeFrame{}); break;
    case FrameType::kResumeOk: accepted = as(ResumeOkFrame{}); break;
    case FrameType::kAck: accepted = as(AckFrame{}); break;
  }
  return accepted ? "accepted" : error;
}

// Every decoder rejection message, word for word, and the order of the
// checks: a truncated payload, then trailing bytes, then the first field out
// of range or reserved flag bit set.
TEST(ServeWire, RejectionMessagesKeepTheirWording) {
  struct Case {
    std::string fault;
    Frame frame;
    FrameType decode_as;
    std::string message;
  };
  struct PerType {
    Frame valid;
    const char* not_this_type;
    const char* truncated;
    const char* trailing;
  };
  HelloFrame hello;
  hello.client_id = "pin";
  const Frame hello_frame = as_frame(encode(hello));
  const Frame measurement = as_frame(encode(sample_measurement()));
  const Frame challenge = as_frame(encode(
      ChallengeResultFrame{.step = 4, .silent = true, .under_attack = false}));
  const Frame estimate = as_frame(encode(sample_estimate()));
  const Frame status = as_frame(encode(StatusFrame{
      .code = StatusCode::kOverloaded, .session_token = 3, .message = "busy"}));
  const Frame error = as_frame(encode(ErrorFrame{
      .code = ErrorCode::kUnknownDetector, .message = "no such backend"}));
  const PerType per_type[] = {
      {hello_frame, "frame is not HELLO",
       "HELLO payload truncated or string too long",
       "HELLO payload has trailing bytes"},
      {measurement, "frame is not MEASUREMENT", "MEASUREMENT payload truncated",
       "MEASUREMENT payload has trailing bytes"},
      {challenge, "frame is not CHALLENGE_RESULT",
       "CHALLENGE_RESULT payload truncated",
       "CHALLENGE_RESULT payload has trailing bytes"},
      {estimate, "frame is not ESTIMATE", "ESTIMATE payload truncated",
       "ESTIMATE payload has trailing bytes"},
      {status, "frame is not STATUS",
       "STATUS payload truncated or message too long",
       "STATUS payload has trailing bytes"},
      {error, "frame is not ERROR",
       "ERROR payload truncated or message too long",
       "ERROR payload has trailing bytes"},
      {as_frame(encode(ResumeFrame{.session_token = 9, .last_step = 4})),
       "frame is not RESUME", "RESUME payload truncated",
       "RESUME payload has trailing bytes"},
      {as_frame(encode(ResumeOkFrame{
           .session_token = 9, .next_step = 5, .replayed_frames = 2})),
       "frame is not RESUME_OK", "RESUME_OK payload truncated",
       "RESUME_OK payload has trailing bytes"},
      {as_frame(encode(AckFrame{.last_step = 5})), "frame is not ACK",
       "ACK payload truncated", "ACK payload has trailing bytes"},
  };

  std::vector<Case> cases;
  for (const PerType& t : per_type) {
    const FrameType type = t.valid.type;
    ASSERT_EQ(rejection(t.valid, type), "accepted") << to_string(type);
    // Any other type byte: the next one, wrapping from ACK to HELLO.
    const auto other = static_cast<FrameType>(
        static_cast<std::uint8_t>(type) % 9 + 1);
    cases.push_back({"wrong type", Frame{other, t.valid.payload}, type,
                     t.not_this_type});
    cases.push_back({"empty payload", Frame{type, {}}, type, t.truncated});
    cases.push_back(
        {"one trailing byte", with_trailing_byte(t.valid), type, t.trailing});
  }

  // Payload offsets: HELLO's u16 version, u64 seed and i64 horizon precede
  // its four u8 fields; ESTIMATE's i64 step and two f64s precede its u16
  // flags, whose high byte holds only reserved bits, then its degradation.
  constexpr std::size_t kLeader = 18;
  constexpr std::size_t kAttack = 19;
  constexpr std::size_t kEstimator = 20;
  constexpr std::size_t kHardened = 21;
  constexpr std::size_t kEstimateFlagsHigh = 25;
  constexpr std::size_t kDegradation = 26;
  const std::size_t measurement_flags = measurement.payload.size() - 1;
  const std::size_t challenge_flags = challenge.payload.size() - 1;
  const Case field_cases[] = {
      {"leader 2", with_byte(hello_frame, kLeader, 2), FrameType::kHello,
       "HELLO leader scenario out of range"},
      {"attack 3", with_byte(hello_frame, kAttack, 3), FrameType::kHello,
       "HELLO attack kind out of range"},
      {"estimator 2", with_byte(hello_frame, kEstimator, 2), FrameType::kHello,
       "HELLO estimator out of range"},
      {"hardened 2", with_byte(hello_frame, kHardened, 2), FrameType::kHello,
       "HELLO hardened flag out of range"},
      {"degradation 4", with_byte(estimate, kDegradation, 4),
       FrameType::kEstimate, "ESTIMATE degradation state out of range"},
      {"status code 5", with_byte(status, 0, 5), FrameType::kStatus,
       "STATUS code out of range"},
      {"error code 0", with_byte(error, 0, 0), FrameType::kError,
       "ERROR code out of range"},
      {"error code 9", with_byte(error, 0, 9), FrameType::kError,
       "ERROR code out of range"},
      {"last_step -2",
       as_frame(encode(ResumeFrame{.session_token = 1, .last_step = -2})),
       FrameType::kResume, "RESUME last_step out of range"},
      {"next_step -1",
       as_frame(encode(ResumeOkFrame{
           .session_token = 1, .next_step = -1, .replayed_frames = 0})),
       FrameType::kResumeOk, "RESUME_OK next_step out of range"},
      {"last_step -2", as_frame(encode(AckFrame{.last_step = -2})),
       FrameType::kAck, "ACK last_step out of range"},
      {"reserved flag bit 2", with_byte(measurement, measurement_flags, 0x05),
       FrameType::kMeasurement, "MEASUREMENT reserved flag bits set"},
      {"reserved flag bit 8", with_byte(estimate, kEstimateFlagsHigh, 0x01),
       FrameType::kEstimate, "ESTIMATE reserved flag bits set"},
      {"reserved flag bit 2", with_byte(challenge, challenge_flags, 0x05),
       FrameType::kChallengeResult, "CHALLENGE_RESULT reserved flag bits set"},
      // Two faults: trailing bytes are reported before the bad leader.
      {"leader 2 and one trailing byte",
       with_trailing_byte(with_byte(hello_frame, kLeader, 2)),
       FrameType::kHello, "HELLO payload has trailing bytes"},
  };
  cases.insert(cases.end(), std::begin(field_cases), std::end(field_cases));

  for (const Case& c : cases) {
    EXPECT_EQ(rejection(c.frame, c.decode_as), c.message)
        << to_string(c.decode_as) << ", " << c.fault;
  }
}

// Fuzz: mutate valid streams with truncations, bit flips, splices, and
// garbage, feed them in random-sized chunks, and decode whatever comes out.
// The decoder may fail (it usually should) but must never crash, hang, or
// read out of bounds; typed decode of surviving frames must be total.
TEST(ServeWire, FuzzedStreamsNeverCrash) {
  std::vector<std::uint8_t> corpus;
  {
    HelloFrame hello;
    hello.client_id = "fuzz";
    const auto h = encode(hello);
    const auto m = encode(sample_measurement());
    const auto e = encode(sample_estimate());
    const auto s = encode(StatusFrame{.code = StatusCode::kDraining,
                                      .session_token = 1,
                                      .message = "bye"});
    corpus.insert(corpus.end(), h.begin(), h.end());
    corpus.insert(corpus.end(), m.begin(), m.end());
    corpus.insert(corpus.end(), e.begin(), e.end());
    corpus.insert(corpus.end(), s.begin(), s.end());
  }

  runtime::SplitMix64 rng(0xF022DEC0DEULL);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<std::uint8_t> bytes = corpus;
    const std::uint64_t mutations = 1 + rng() % 8;
    for (std::uint64_t k = 0; k < mutations; ++k) {
      switch (rng() % 4) {
        case 0:  // truncate
          bytes.resize(rng() % (bytes.size() + 1));
          break;
        case 1:  // flip a byte
          if (!bytes.empty()) {
            bytes[rng() % bytes.size()] =
                static_cast<std::uint8_t>(rng() & 0xFF);
          }
          break;
        case 2: {  // splice garbage in
          const std::size_t count = rng() % 16;
          const std::size_t at = bytes.empty() ? 0 : rng() % bytes.size();
          std::vector<std::uint8_t> garbage(count);
          for (auto& b : garbage) b = static_cast<std::uint8_t>(rng() & 0xFF);
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                       garbage.begin(), garbage.end());
          break;
        }
        default:  // duplicate a slice
          if (bytes.size() > 4) {
            const std::size_t at = rng() % (bytes.size() - 4);
            bytes.insert(bytes.end(), bytes.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         bytes.begin() +
                             static_cast<std::ptrdiff_t>(at + 4));
          }
          break;
      }
    }

    FrameDecoder decoder;
    std::size_t offset = 0;
    while (offset < bytes.size() && !decoder.failed()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 37, bytes.size() - offset);
      decoder.feed(bytes.data() + offset, chunk);
      offset += chunk;
      while (auto frame = decoder.next()) {
        // Typed parsing of whatever survived framing must be total too.
        HelloFrame hello;
        MeasurementFrame m;
        EstimateFrame e;
        ChallengeResultFrame c;
        StatusFrame s;
        ErrorFrame err;
        ResumeFrame resume;
        ResumeOkFrame resume_ok;
        AckFrame ack;
        switch (frame->type) {
          case FrameType::kHello: decode(*frame, hello, nullptr); break;
          case FrameType::kMeasurement: decode(*frame, m, nullptr); break;
          case FrameType::kEstimate: decode(*frame, e, nullptr); break;
          case FrameType::kChallengeResult: decode(*frame, c, nullptr); break;
          case FrameType::kStatus: decode(*frame, s, nullptr); break;
          case FrameType::kError: decode(*frame, err, nullptr); break;
          case FrameType::kResume: decode(*frame, resume, nullptr); break;
          case FrameType::kResumeOk: decode(*frame, resume_ok, nullptr); break;
          case FrameType::kAck: decode(*frame, ack, nullptr); break;
        }
      }
    }
    // The decoder never hoards more than one frame's worth of bytes.
    EXPECT_LE(decoder.buffered_bytes(), kHeaderBytes + kMaxPayloadBytes);
  }
}

// Chaos-corpus pass: feed a valid frame stream through the same ChaosPlan
// the proxy uses. Pure re-splitting must be invisible to the decoder (every
// frame decodes, bit-exact); with corruption enabled the decoder may fail
// but must never crash, over-read, or hoard bytes. Seeds are logged so a
// failure reproduces directly.
TEST(ServeWire, ChaosResplitCorpusDecodesExactly) {
  std::vector<std::uint8_t> corpus;
  std::vector<FrameType> expected_types;
  {
    HelloFrame hello;
    hello.client_id = "chaos";
    for (const auto& bytes :
         {encode(hello), encode(sample_measurement()),
          encode(ResumeFrame{.session_token = 9, .last_step = 4}),
          encode(sample_estimate()),
          encode(ResumeOkFrame{.session_token = 9, .next_step = 5,
                               .replayed_frames = 2}),
          encode(AckFrame{.last_step = 5}),
          encode(StatusFrame{.code = StatusCode::kOverloaded,
                             .session_token = 9,
                             .message = "shed"})}) {
      corpus.insert(corpus.end(), bytes.begin(), bytes.end());
    }
    expected_types = {FrameType::kHello,    FrameType::kMeasurement,
                      FrameType::kResume,   FrameType::kEstimate,
                      FrameType::kResumeOk, FrameType::kAck,
                      FrameType::kStatus};
  }

  const ChaosSpec spec = parse_chaos_spec("split:min=1,max=7");
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosPlan plan(spec, seed, 0);
    FrameDecoder decoder;
    std::vector<Frame> frames;
    std::size_t offset = 0;
    while (offset < corpus.size()) {
      const std::size_t chunk = plan.next_chunk_len(corpus.size() - offset);
      decoder.feed(corpus.data() + offset, chunk);
      offset += chunk;
      while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
    }
    ASSERT_FALSE(decoder.failed()) << decoder.error();
    ASSERT_EQ(frames.size(), expected_types.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, expected_types[i]) << "frame " << i;
    }
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ServeWire, ChaosCorruptedCorpusNeverCrashes) {
  std::vector<std::uint8_t> corpus;
  {
    for (const auto& bytes :
         {encode(sample_measurement()), encode(sample_estimate()),
          encode(ResumeOkFrame{.session_token = 1, .next_step = 10,
                               .replayed_frames = 3}),
          encode(StatusFrame{.code = StatusCode::kHelloOk,
                             .session_token = 1,
                             .message = "ok"})}) {
      corpus.insert(corpus.end(), bytes.begin(), bytes.end());
    }
  }

  const ChaosSpec spec = parse_chaos_spec("split:min=1,max=9;corrupt:prob=0.02");
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosPlan plan(spec, seed, 1);
    std::vector<std::uint8_t> bytes = corpus;
    FrameDecoder decoder;
    std::size_t offset = 0;
    while (offset < bytes.size() && !decoder.failed()) {
      const std::size_t chunk = plan.next_chunk_len(bytes.size() - offset);
      plan.corrupt(bytes.data() + offset, chunk);
      decoder.feed(bytes.data() + offset, chunk);
      offset += chunk;
      while (auto frame = decoder.next()) {
        MeasurementFrame m;
        EstimateFrame e;
        ResumeOkFrame ok;
        StatusFrame s;
        switch (frame->type) {
          case FrameType::kMeasurement: decode(*frame, m, nullptr); break;
          case FrameType::kEstimate: decode(*frame, e, nullptr); break;
          case FrameType::kResumeOk: decode(*frame, ok, nullptr); break;
          case FrameType::kStatus: decode(*frame, s, nullptr); break;
          default: break;  // corrupted type byte may alias any frame
        }
      }
    }
    EXPECT_LE(decoder.buffered_bytes(), kHeaderBytes + kMaxPayloadBytes);
  }
}

}  // namespace
