// Wire v3 + per-session detector tests: HELLO round-trip with a detector
// spec, v1/v2 backward compatibility, the structured kUnknownDetector
// rejection over loopback, and two concurrent sessions on different
// detection backends each byte-identical to their run_offline reference.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"
#include "serve_loopback.hpp"

namespace {

using namespace safe;
using namespace safe::serve;
using loopback::ServerHarness;

TraceSpec quick_spec(std::uint64_t seed = 11) {
  TraceSpec spec;
  spec.seed = seed;
  spec.horizon_steps = 60;
  spec.attack = core::AttackKind::kDosJammer;
  spec.attack_start_s = units::Seconds{20.0};
  spec.attack_end_s = units::Seconds{60.0};
  return spec;
}

std::optional<HelloFrame> reencode(const HelloFrame& hello) {
  const std::vector<std::uint8_t> bytes = encode(hello);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  if (!frame.has_value()) return std::nullopt;
  HelloFrame out;
  std::string error;
  if (!decode(*frame, out, &error)) return std::nullopt;
  return out;
}

TEST(ServeDetect, V3HelloRoundTripsTheDetectorSpec) {
  HelloFrame hello;
  hello.scenario_seed = 77;
  hello.client_id = "detector-roundtrip";
  hello.fault_spec = "bias:start=40,slope=0.25";
  hello.detector_spec = "fusion:members=cra+chi2,quorum=1";
  ASSERT_EQ(hello.protocol_version, 3u) << "v3 is the current version";

  const auto out = reencode(hello);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->protocol_version, 3u);
  EXPECT_EQ(out->scenario_seed, 77u);
  EXPECT_EQ(out->client_id, hello.client_id);
  EXPECT_EQ(out->fault_spec, hello.fault_spec);
  EXPECT_EQ(out->detector_spec, hello.detector_spec);
}

TEST(ServeDetect, V2HelloHasNoDetectorSpecOnTheWire) {
  HelloFrame v3;
  v3.detector_spec = "chi2";
  HelloFrame v2 = v3;
  v2.protocol_version = 2;

  // The v2 encoding simply omits the field...
  const std::vector<std::uint8_t> v3_bytes = encode(v3);
  const std::vector<std::uint8_t> v2_bytes = encode(v2);
  EXPECT_LT(v2_bytes.size(), v3_bytes.size());

  // ...and a v2 HELLO decodes with the spec empty (CRA default), exactly
  // what a pre-v3 client sends.
  const auto out = reencode(v2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->protocol_version, 2u);
  EXPECT_TRUE(out->detector_spec.empty());
}

TEST(ServeDetect, UnknownDetectorIsAStructuredRejection) {
  ServerHarness harness;
  TraceSpec spec = quick_spec();
  spec.detector_spec = "nope";

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  const auto open = client.open_session(hello_from(spec, "unknown"));
  EXPECT_FALSE(open.ok);
  ASSERT_TRUE(open.has_error) << open.transport_error;
  EXPECT_EQ(open.error.code, ErrorCode::kUnknownDetector);
  EXPECT_NE(open.error.message.find("nope"), std::string::npos)
      << open.error.message;
}

TEST(ServeDetect, MalformedDetectorSpecIsAProtocolError) {
  ServerHarness harness;
  TraceSpec spec = quick_spec();
  spec.detector_spec = "chi2:bogus=1";

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  const auto open = client.open_session(hello_from(spec, "malformed"));
  EXPECT_FALSE(open.ok);
  ASSERT_TRUE(open.has_error) << open.transport_error;
  EXPECT_EQ(open.error.code, ErrorCode::kProtocolOrder);
}

TEST(ServeDetect, PreV3ClientsAreStillAccepted) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    HelloFrame hello = hello_from(spec, "pre-v3");
    hello.protocol_version = version;

    SessionClient client;
    client.connect("127.0.0.1", harness.port());
    const auto open = client.open_session(hello);
    ASSERT_TRUE(open.ok) << "version " << version << ": "
                         << open.transport_error;

    // A pre-v3 session runs the CRA default and still matches the offline
    // reference byte for byte.
    const auto result = client.stream(trace);
    ASSERT_TRUE(result.complete) << result.detail;
    const std::vector<EstimateFrame> reference = run_offline(spec, trace);
    ASSERT_EQ(reference.size(), result.estimate_frames.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(result.estimate_frames[i], encode(reference[i]))
          << "version " << version << " step " << i;
    }
  }
}

TEST(ServeDetect, ConcurrentSessionsOnDifferentBackendsMatchOffline) {
  ServerHarness harness;

  TraceSpec cra_spec = quick_spec(7);
  TraceSpec chi2_spec = quick_spec(7);
  chi2_spec.detector_spec = "chi2";

  struct SessionOutcome {
    bool opened = false;
    bool complete = false;
    std::string error;
    std::vector<std::vector<std::uint8_t>> estimate_frames;
  };

  const auto run_session = [&harness](const TraceSpec& spec,
                                      const char* client_id,
                                      SessionOutcome& outcome) {
    const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
    SessionClient client;
    client.connect("127.0.0.1", harness.port());
    const auto open = client.open_session(hello_from(spec, client_id));
    outcome.opened = open.ok;
    if (!open.ok) {
      outcome.error = open.transport_error;
      return;
    }
    const auto result = client.stream(trace);
    outcome.complete = result.complete;
    outcome.error = result.detail;
    outcome.estimate_frames = result.estimate_frames;
  };

  SessionOutcome cra_outcome;
  SessionOutcome chi2_outcome;
  std::thread cra_thread(
      [&] { run_session(cra_spec, "cra-session", cra_outcome); });
  std::thread chi2_thread(
      [&] { run_session(chi2_spec, "chi2-session", chi2_outcome); });
  cra_thread.join();
  chi2_thread.join();

  ASSERT_TRUE(cra_outcome.opened && cra_outcome.complete)
      << cra_outcome.error;
  ASSERT_TRUE(chi2_outcome.opened && chi2_outcome.complete)
      << chi2_outcome.error;

  // Each session is byte-identical to the offline pipeline built from its
  // own spec — the per-session detector choice is honored end to end.
  const auto verify = [](const TraceSpec& spec,
                         const SessionOutcome& outcome) {
    const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
    const std::vector<EstimateFrame> reference = run_offline(spec, trace);
    ASSERT_EQ(reference.size(), outcome.estimate_frames.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(outcome.estimate_frames[i], encode(reference[i]))
          << spec.detector_spec << " step " << i;
    }
  };
  verify(cra_spec, cra_outcome);
  verify(chi2_spec, chi2_outcome);

  // And the two backends genuinely diverge on this DoS trace (the chi2
  // power path and the CRA challenge path detect at different instants), so
  // the parity above is not vacuous.
  EXPECT_NE(cra_outcome.estimate_frames, chi2_outcome.estimate_frames);
}

}  // namespace
