// Loopback tests for session resumption and overload shedding: detached
// sessions replay unacked frames on RESUME with the byte-parity contract
// intact across the disconnect, ACK trims the replay window, grace expiry
// and delivered (finished + final-ACKed) sessions reject resumption,
// admission/deadline overload control sheds with STATUS kOverloaded while
// keeping sessions resumable, and every RESUME rejection and shed ends with
// its own last frame and counters.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"
#include "serve_loopback.hpp"

namespace {

using namespace safe;
using namespace safe::serve;
using loopback::ServerHarness;
using loopback::WedgedServer;

constexpr std::uint64_t kRecvDeadlineNs = 10'000'000'000ULL;

TraceSpec quick_spec(std::uint64_t seed = 31) {
  TraceSpec spec;
  spec.seed = seed;
  spec.horizon_steps = 60;
  spec.attack = core::AttackKind::kDosJammer;
  spec.attack_start_s = units::Seconds{20.0};
  spec.attack_end_s = units::Seconds{60.0};
  return spec;
}

/// Opens a session, streams the first `steps` measurements to completion,
/// and returns the session token. The client is closed (abrupt from the
/// server's perspective: no protocol goodbye exists) before returning.
std::uint64_t stream_prefix_then_disconnect(
    std::uint16_t port, const TraceSpec& spec,
    const std::vector<MeasurementFrame>& trace, std::size_t steps,
    std::vector<std::vector<std::uint8_t>>* estimate_frames = nullptr) {
  SessionClient client;
  client.connect("127.0.0.1", port);
  const auto open = client.open_session(hello_from(spec, "resume-test"));
  EXPECT_TRUE(open.ok) << open.transport_error;
  const std::uint64_t token = open.status.session_token;
  EXPECT_NE(token, 0u);

  const std::vector<MeasurementFrame> prefix(
      trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(steps));
  const auto result = client.stream(prefix);
  EXPECT_TRUE(result.complete) << result.detail;
  EXPECT_EQ(result.estimates.size(), steps);
  if (estimate_frames != nullptr) *estimate_frames = result.estimate_frames;
  client.close();
  return token;
}

/// Sends RESUME over a fresh connection and returns the server's first
/// reply frame.
std::optional<Frame> send_resume(SessionClient& client, std::uint16_t port,
                                 std::uint64_t token, std::int64_t last_step) {
  client.connect("127.0.0.1", port);
  client.send_raw(encode(ResumeFrame{
      .session_token = token,
      .last_step = last_step,
  }));
  return client.recv_frame(kRecvDeadlineNs);
}

/// Receives frames until `count` ESTIMATE frames have arrived (challenge
/// results interleave freely); returns them in arrival order.
std::vector<EstimateFrame> recv_estimates(SessionClient& client,
                                          std::size_t count) {
  std::vector<EstimateFrame> estimates;
  while (estimates.size() < count) {
    const auto frame = client.recv_frame(kRecvDeadlineNs);
    if (!frame.has_value()) {
      ADD_FAILURE() << "stream ended early: " << client.reason();
      break;
    }
    if (frame->type == FrameType::kEstimate) {
      EstimateFrame estimate;
      EXPECT_TRUE(decode(*frame, estimate, nullptr));
      estimates.push_back(estimate);
    } else if (frame->type != FrameType::kChallengeResult) {
      ADD_FAILURE() << "unexpected frame type "
                    << static_cast<int>(frame->type);
      break;
    }
  }
  return estimates;
}

TEST(ServeResume, ResumeAfterDisconnectContinuesWithByteParity) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  std::vector<std::vector<std::uint8_t>> first_frames;
  const std::uint64_t token = stream_prefix_then_disconnect(
      harness.port(), spec, trace, 30, &first_frames);

  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, 29);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kResumeOk);
  ResumeOkFrame ok;
  ASSERT_TRUE(decode(*reply, ok, nullptr));
  EXPECT_EQ(ok.session_token, token);
  EXPECT_EQ(ok.next_step, 30);
  // Everything through step 29 was implicitly acked by last_step, so
  // nothing replays.
  EXPECT_EQ(ok.replayed_frames, 0u);

  const std::vector<MeasurementFrame> rest(trace.begin() + 30, trace.end());
  const auto result = resumed.stream(rest);
  ASSERT_TRUE(result.complete) << result.detail;
  ASSERT_EQ(result.estimates.size(), rest.size());

  // The stitched stream is byte-identical to the offline pipeline: the
  // disconnect is invisible in the output.
  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  ASSERT_EQ(reference.size(), first_frames.size() + result.estimate_frames.size());
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(first_frames[i], encode(reference[i])) << "step " << i;
  }
  for (std::size_t i = 0; i < result.estimate_frames.size(); ++i) {
    EXPECT_EQ(result.estimate_frames[i], encode(reference[30 + i]))
        << "step " << (30 + i);
  }
  EXPECT_EQ(harness.server().stats().sessions_resumed, 1u);
}

TEST(ServeResume, ResumeReplaysUnackedEstimates) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec(32);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::uint64_t token =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 30);

  // Claim only step 19: the server must replay everything it produced for
  // steps 20..29 before accepting new measurements.
  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, 19);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kResumeOk);
  ResumeOkFrame ok;
  ASSERT_TRUE(decode(*reply, ok, nullptr));
  EXPECT_EQ(ok.next_step, 30);
  EXPECT_GE(ok.replayed_frames, 10u);

  const std::vector<EstimateFrame> replayed = recv_estimates(resumed, 10);
  ASSERT_EQ(replayed.size(), 10u);
  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].step, static_cast<std::int64_t>(20 + i));
    EXPECT_EQ(encode(replayed[i]), encode(reference[20 + i]))
        << "replayed step " << (20 + i);
  }
  EXPECT_GE(harness.server().stats().replayed_frames, 10u);

  const std::vector<MeasurementFrame> rest(trace.begin() + 30, trace.end());
  const auto result = resumed.stream(rest);
  ASSERT_TRUE(result.complete) << result.detail;
  for (std::size_t i = 0; i < result.estimate_frames.size(); ++i) {
    EXPECT_EQ(result.estimate_frames[i], encode(reference[30 + i]))
        << "step " << (30 + i);
  }
}

TEST(ServeResume, UnknownTokenGetsResumeUnknown) {
  ServerHarness harness;
  SessionClient client;
  const auto reply =
      send_resume(client, harness.port(), 0xDEADBEEFCAFEF00DULL, -1);
  ASSERT_TRUE(reply.has_value()) << client.reason();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*reply, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kResumeUnknown);
  EXPECT_EQ(harness.server().stats().resume_rejects, 1u);
}

TEST(ServeResume, AckTrimsReplayWindowSoOldResumeGetsGap) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec(33);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  const auto open = client.open_session(hello_from(spec, "ack-trim"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  const std::uint64_t token = open.status.session_token;

  const std::vector<MeasurementFrame> prefix(trace.begin(),
                                             trace.begin() + 30);
  ASSERT_TRUE(client.stream(prefix).complete);
  client.send_raw(encode(AckFrame{.last_step = 29}));
  // Frames are processed in order, so once step 30's estimate arrives the
  // ACK has definitely been applied.
  client.send_raw(encode(trace[30]));
  const std::vector<EstimateFrame> next = recv_estimates(client, 1);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].step, 30);
  client.close();

  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, 10);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*reply, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kResumeGap);
}

TEST(ServeResume, RetainedStepCapOverflowCausesGap) {
  ServerOptions options;
  options.session.max_retained_steps = 8;
  ServerHarness harness(options);
  const TraceSpec spec = quick_spec(34);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::uint64_t token =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 30);

  // Only the last 8 steps are retained; resuming from scratch is impossible.
  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, -1);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*reply, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kResumeGap);
}

TEST(ServeResume, ResumeClaimingUnprocessedStepsIsAProtocolError) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec(35);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::uint64_t token =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 30);

  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, 45);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*reply, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kProtocolOrder);
}

TEST(ServeResume, DetachedSessionExpiresAfterGraceWindow) {
  ServerOptions options;
  options.session.resume_grace_ns = 100'000'000ULL;  // 100 ms
  options.idle_check_period_ns = 20'000'000ULL;
  ServerHarness harness(options);
  const TraceSpec spec = quick_spec(36);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::uint64_t token =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 10);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.server().session_counters().expired == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(harness.server().session_counters().expired, 1u);

  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, 9);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*reply, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kResumeUnknown);
}

// A finished session whose final frames were never ACKed stays resumable:
// the client may have been cut before the tail estimates arrived, and
// destroying the session on close would strand it (every restart re-runs
// into the same cut — a livelock the chaos soak actually hit). Only the
// final ACK proves delivery and lets the server destroy it on close.
TEST(ServeResume, FinishedSessionStaysResumableUntilFinalAck) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec(37);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::int64_t last = static_cast<std::int64_t>(trace.size()) - 1;
  const std::uint64_t token = stream_prefix_then_disconnect(
      harness.port(), spec, trace, trace.size());

  // Finished but unacked: the server cannot know the client got the tail,
  // so the session detaches and the resume succeeds with nothing to replay
  // (the client claims it has everything through `last`).
  SessionClient resumed;
  const auto reply = send_resume(resumed, harness.port(), token, last);
  ASSERT_TRUE(reply.has_value()) << resumed.reason();
  ASSERT_EQ(reply->type, FrameType::kResumeOk);
  ResumeOkFrame ok;
  ASSERT_TRUE(decode(*reply, ok, nullptr));
  EXPECT_EQ(ok.session_token, token);
  EXPECT_EQ(ok.next_step, last + 1);
  EXPECT_EQ(ok.replayed_frames, 0u);

  // ACK the final step and close: the session is now fully delivered, so
  // the server destroys it instead of detaching again.
  const std::uint64_t closed_before = harness.server().session_counters().closed;
  resumed.send_raw(encode(AckFrame{.last_step = last}));
  resumed.close();
  for (int i = 0; i < 500; ++i) {
    if (harness.server().session_counters().closed > closed_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(harness.server().session_counters().closed, closed_before);

  SessionClient again;
  const auto gone = send_resume(again, harness.port(), token, last);
  ASSERT_TRUE(gone.has_value()) << again.reason();
  ASSERT_EQ(gone->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*gone, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kResumeUnknown);
}

TEST(ServeOverload, AdmissionControlShedsHelloWhileBatchesInFlight) {
  ServerOptions options;
  options.admission_max_batches = 1;
  WedgedServer wedged(options);
  const std::uint16_t port = wedged.server->port();
  const TraceSpec spec = quick_spec(38);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient first;
  first.connect("127.0.0.1", port);
  ASSERT_TRUE(first.open_session(hello_from(spec, "wedged")).ok);
  for (std::size_t i = 0; i < 4; ++i) first.send_raw(encode(trace[i]));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (wedged.server->stats().frames_in < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(wedged.server->stats().frames_in, 4u);

  // With one batch wedged in flight, a new HELLO is shed with a retryable
  // STATUS kOverloaded instead of a session.
  SessionClient second;
  second.connect("127.0.0.1", port);
  const auto open = second.open_session(hello_from(spec, "shed"));
  EXPECT_FALSE(open.ok);
  ASSERT_FALSE(open.has_error) << "expected STATUS, got ERROR";
  ASSERT_TRUE(open.transport_error.empty()) << open.transport_error;
  EXPECT_EQ(open.status.code, StatusCode::kOverloaded);
  EXPECT_EQ(wedged.server->stats().shed_hellos, 1u);
  // The shed connection is closed afterwards.
  EXPECT_FALSE(second.recv_frame(5'000'000'000ULL).has_value());

  // Once the wedge clears, admission readmits.
  wedged.open_gate();
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < admit_deadline) {
    SessionClient retry;
    retry.connect("127.0.0.1", port);
    if (retry.open_session(hello_from(spec, "after")).ok) {
      admitted = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(admitted);
}

// A load run with one connection attempt per session (no --retries) reports
// each failure under its own kind: a refused connect, a HELLO rejected with
// ERROR, and a HELLO shed with STATUS kOverloaded.
TEST(ServeOverload, OneAttemptLoadKeepsEachFailureKind) {
  const auto one_session = [](std::uint16_t port, const TraceSpec& spec) {
    LoadOptions load;
    load.port = port;
    load.connections = 1;
    load.sessions = 1;
    load.spec = spec;
    load.deadline_ns = kRecvDeadlineNs;
    return run_load(load);
  };
  const auto expect_kind = [](const LoadReport& report,
                              SessionErrorKind kind) {
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.sessions_failed, 1u);
    EXPECT_EQ(report.error_counts[static_cast<std::size_t>(kind)], 1u);
    ASSERT_EQ(report.session_errors.size(), 1u);
    EXPECT_EQ(report.session_errors[0].kind, kind)
        << to_string(report.session_errors[0].kind) << ": "
        << report.session_errors[0].detail;
  };

  {
    // A bound socket that never listens: connects to its port are refused,
    // and no other listener can take the port while it is held.
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    const LoadReport report = one_session(ntohs(addr.sin_port), quick_spec(40));
    ::close(fd);
    expect_kind(report, SessionErrorKind::kConnectRefused);
  }
  {
    ServerHarness harness;
    TraceSpec spec = quick_spec(41);
    spec.detector_spec = "nope";
    expect_kind(one_session(harness.port(), spec),
                SessionErrorKind::kHandshakeRejected);
  }
  {
    ServerOptions options;
    options.admission_max_batches = 1;
    WedgedServer wedged(options);
    const TraceSpec spec = quick_spec(42);
    const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
    SessionClient occupant;
    occupant.connect("127.0.0.1", wedged.server->port());
    ASSERT_TRUE(occupant.open_session(hello_from(spec, "occupant")).ok);
    for (std::size_t i = 0; i < 4; ++i) occupant.send_raw(encode(trace[i]));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (wedged.server->stats().frames_in < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(wedged.server->stats().frames_in, 4u);
    expect_kind(one_session(wedged.server->port(), spec),
                SessionErrorKind::kOverloaded);
  }
}

TEST(ServeOverload, FrameDeadlineShedsButSessionStaysResumable) {
  ServerOptions options;
  options.frame_deadline_ns = 100'000'000ULL;  // 100 ms
  options.idle_check_period_ns = 20'000'000ULL;
  WedgedServer wedged(options);
  const std::uint16_t port = wedged.server->port();
  const TraceSpec spec = quick_spec(39);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", port);
  const auto open = client.open_session(hello_from(spec, "deadline"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  const std::uint64_t token = open.status.session_token;

  // The first measurement dispatches as a wedged batch; the follow-up burst
  // queues as pending measurements whose deadline then expires.
  client.send_raw(encode(trace[0]));
  const auto dispatch_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (wedged.server->stats().frames_in < 1 &&
         std::chrono::steady_clock::now() < dispatch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::size_t i = 1; i < 8; ++i) client.send_raw(encode(trace[i]));

  const auto shed = client.recv_frame(kRecvDeadlineNs);
  ASSERT_TRUE(shed.has_value()) << client.reason();
  ASSERT_EQ(shed->type, FrameType::kStatus);
  StatusFrame status;
  ASSERT_TRUE(decode(*shed, status, nullptr));
  EXPECT_EQ(status.code, StatusCode::kOverloaded);
  EXPECT_GE(wedged.server->stats().deadline_sheds, 1u);
  client.close();

  // The wedge clears; the shed session resumes, replays steps 0..3 (the
  // dispatched batch), and completes with full byte parity.
  wedged.open_gate();
  std::unique_ptr<SessionClient> resumed;
  ResumeOkFrame ok;
  const auto resume_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!resumed && std::chrono::steady_clock::now() < resume_deadline) {
    auto attempt = std::make_unique<SessionClient>();
    const auto reply = send_resume(*attempt, port, token, -1);
    if (reply.has_value() && reply->type == FrameType::kResumeOk) {
      ASSERT_TRUE(decode(*reply, ok, nullptr));
      resumed = std::move(attempt);
      break;
    }
    // kBusy while the wedged batch finishes arrives as a retryable STATUS
    // kOverloaded; anything else is a real failure.
    ASSERT_TRUE(reply.has_value()) << attempt->reason();
    ASSERT_EQ(reply->type, FrameType::kStatus);
    StatusFrame retry_status;
    ASSERT_TRUE(decode(*reply, retry_status, nullptr));
    ASSERT_EQ(retry_status.code, StatusCode::kOverloaded);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(resumed != nullptr);
  // Exactly the steps that made it into the dispatched batch were
  // processed; everything pending was shed. Segmentation decides how many
  // coalesced into that batch, so derive the count from the reply.
  const std::int64_t processed = ok.next_step;
  ASSERT_GE(processed, 1);
  ASSERT_LT(processed, 8);
  EXPECT_GE(ok.replayed_frames, static_cast<std::uint64_t>(processed));

  const std::vector<EstimateFrame> replayed =
      recv_estimates(*resumed, static_cast<std::size_t>(processed));
  ASSERT_EQ(replayed.size(), static_cast<std::size_t>(processed));
  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(encode(replayed[i]), encode(reference[i])) << "step " << i;
  }

  const std::vector<MeasurementFrame> rest(
      trace.begin() + static_cast<std::ptrdiff_t>(processed), trace.end());
  const auto result = resumed->stream(rest);
  ASSERT_TRUE(result.complete) << result.detail;
  for (std::size_t i = 0; i < result.estimate_frames.size(); ++i) {
    const std::size_t step = static_cast<std::size_t>(processed) + i;
    EXPECT_EQ(result.estimate_frames[i], encode(reference[step]))
        << "step " << step;
  }
}

// --- goodbyes ---------------------------------------------------------------
// The RESUME rejections and the overload sheds, each pinned by the last frame
// the client receives before the server closes the connection, with every
// counter checked against its telemetry twin.

class ServeResumeGoodbye : public loopback::MetricsOn {};

using loopback::error_text;
using loopback::goodbye;
using loopback::status_text;
using loopback::wait_until;

/// RESUME on a fresh connection; returns the goodbye it earns.
std::string resume_goodbye(std::uint16_t port, std::uint64_t token,
                           std::int64_t last_step) {
  SessionClient client;
  client.connect("127.0.0.1", port);
  client.send_raw(
      encode(ResumeFrame{.session_token = token, .last_step = last_step}));
  return goodbye(client);
}

TEST_F(ServeResumeGoodbye, RejectedResumesEndWithTheirError) {
  ServerOptions options;
  options.session.max_retained_steps = 8;
  ServerHarness harness(options);
  const TraceSpec spec = quick_spec(43);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  EXPECT_EQ(resume_goodbye(harness.port(), 0xDEADBEEFCAFEF00DULL, -1),
            error_text(ErrorCode::kResumeUnknown,
                       "unknown, expired, or finished session token"));
  const std::uint64_t ahead =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 30);
  EXPECT_EQ(resume_goodbye(harness.port(), ahead, 45),
            error_text(ErrorCode::kProtocolOrder,
                       "RESUME last_step 45 is beyond the session's last "
                       "processed step 29"));
  const std::uint64_t trimmed =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 30);
  EXPECT_EQ(resume_goodbye(harness.port(), trimmed, -1),
            error_text(ErrorCode::kResumeGap,
                       "replay window no longer reaches back to step -1; "
                       "restart the session"));
  harness.stop();

  EXPECT_EQ(harness.server().stats().resume_rejects, 3u);
  EXPECT_EQ(harness.server().stats().protocol_errors, 3u);
  EXPECT_EQ(harness.server().stats().frames_in, 60u);
  loopback::expect_tallies_match(harness.server());
}

TEST_F(ServeResumeGoodbye, AdmissionShedsHelloAndResumeWithOverloaded) {
  ServerOptions options;
  options.admission_max_batches = 1;
  WedgedServer wedged(options);
  const std::uint16_t port = wedged.server->port();
  const TraceSpec spec = quick_spec(44);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient occupant;
  occupant.connect("127.0.0.1", port);
  const auto open = occupant.open_session(hello_from(spec, "occupant"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  for (std::size_t i = 0; i < 4; ++i) occupant.send_raw(encode(trace[i]));
  ASSERT_TRUE(
      wait_until([&] { return wedged.server->stats().frames_in >= 4; }));

  SessionClient hello;
  hello.connect("127.0.0.1", port);
  hello.send_raw(encode(hello_from(spec, "shed")));
  // Only the number of batches in flight may vary; it reads as N here.
  std::string shed = goodbye(hello);
  const std::size_t count = shed.find_first_of(
      "0123456789", status_text(StatusCode::kOverloaded, 0, "").size());
  if (count != std::string::npos) {
    shed.replace(count, shed.find_first_not_of("0123456789", count) - count,
                 "N");
  }
  EXPECT_EQ(shed, status_text(StatusCode::kOverloaded, 0,
                              "admission control: N batches in flight; "
                              "retry after backoff"));
  EXPECT_EQ(resume_goodbye(port, open.status.session_token, -1),
            status_text(StatusCode::kOverloaded, 0,
                        "admission control: resume shed; retry after "
                        "backoff"));
  wedged.stop();

  EXPECT_EQ(wedged.server->stats().shed_hellos, 2u);
  EXPECT_EQ(wedged.server->stats().resume_rejects, 1u);
  loopback::expect_tallies_match(*wedged.server);
}

TEST_F(ServeResumeGoodbye, FrameDeadlineShedEndsWithOverloaded) {
  ServerOptions options;
  options.frame_deadline_ns = 100'000'000ULL;  // 100 ms
  options.idle_check_period_ns = 20'000'000ULL;
  WedgedServer wedged(options);
  const std::uint16_t port = wedged.server->port();
  const TraceSpec spec = quick_spec(45);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", port);
  const auto open = client.open_session(hello_from(spec, "deadline"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  // The first measurement dispatches as a wedged batch; the rest wait as
  // pending measurements until their deadline sheds the connection.
  client.send_raw(encode(trace[0]));
  ASSERT_TRUE(
      wait_until([&] { return wedged.server->stats().frames_in >= 1; }));
  for (std::size_t i = 1; i < 8; ++i) client.send_raw(encode(trace[i]));

  const auto shed = client.recv_frame(loopback::kGoodbyeDeadlineNs);
  ASSERT_TRUE(shed.has_value()) << client.reason();
  // The connection closes once its wedged batch is back; nothing follows.
  wedged.open_gate();
  EXPECT_EQ(goodbye(client, loopback::describe(*shed)),
            status_text(StatusCode::kOverloaded, open.status.session_token,
                        "frame deadline exceeded; shedding load — resume "
                        "after backoff"));
  wedged.stop();

  EXPECT_EQ(wedged.server->stats().deadline_sheds, 1u);
  loopback::expect_tallies_match(*wedged.server);
}

TEST_F(ServeResumeGoodbye, ResumeOfABusySessionEndsWithOverloaded) {
  WedgedServer wedged(ServerOptions{});
  const std::uint16_t port = wedged.server->port();
  const TraceSpec spec = quick_spec(46);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", port);
  const auto open = client.open_session(hello_from(spec, "busy"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  client.send_raw(encode(trace[0]));
  ASSERT_TRUE(
      wait_until([&] { return wedged.server->stats().frames_in >= 1; }));
  client.close();
  ASSERT_TRUE(wait_until(
      [&] { return wedged.server->session_counters().detached == 1; }));

  EXPECT_EQ(resume_goodbye(port, open.status.session_token, -1),
            status_text(StatusCode::kOverloaded, 0,
                        "session batch still in flight; retry after "
                        "backoff"));
  wedged.stop();

  EXPECT_EQ(wedged.server->stats().resume_rejects, 1u);
  loopback::expect_tallies_match(*wedged.server);
}

TEST_F(ServeResumeGoodbye, ResumeBeyondTheSessionCapEndsWithOverloaded) {
  ServerOptions options;
  options.session.max_sessions = 1;
  ServerHarness harness(options);
  const TraceSpec spec = quick_spec(47);
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  const std::uint64_t token =
      stream_prefix_then_disconnect(harness.port(), spec, trace, 10);
  ASSERT_TRUE(wait_until(
      [&] { return harness.server().session_counters().detached == 1; }));
  SessionClient occupant;
  occupant.connect("127.0.0.1", harness.port());
  ASSERT_TRUE(occupant.open_session(hello_from(spec, "occupant")).ok);

  EXPECT_EQ(resume_goodbye(harness.port(), token, 9),
            status_text(StatusCode::kOverloaded, 0,
                        "live session cap reached; retry after backoff"));
  harness.stop();

  EXPECT_EQ(harness.server().stats().resume_rejects, 1u);
  EXPECT_EQ(harness.server().session_counters().resume_rejected, 1u);
  loopback::expect_tallies_match(harness.server());
}

}  // namespace
