// Loopback tests for the streaming server: the byte-parity contract under
// concurrency, protocol-error handling, the session cap over the wire,
// slow-consumer disconnects, idle eviction, graceful drain, and the last
// frame and counters of every protocol, decode, cap, idle, slow-consumer and
// drain goodbye.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"
#include "serve_loopback.hpp"
#include "telemetry/telemetry.hpp"

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

TEST(ServeServer, SingleSessionMatchesOfflinePipelineByteForByte) {
  ServerHarness harness;
  const TraceSpec spec = quick_spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  const auto open = client.open_session(hello_from(spec, "parity"));
  ASSERT_TRUE(open.ok) << open.transport_error;
  EXPECT_NE(open.status.session_token, 0u);

  const auto result = client.stream(trace);
  ASSERT_TRUE(result.complete) << result.detail;
  ASSERT_EQ(result.estimates.size(), trace.size());

  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  ASSERT_EQ(reference.size(), result.estimate_frames.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.estimate_frames[i], encode(reference[i]))
        << "step " << i;
  }
  // Challenge slots produce CHALLENGE_RESULT frames alongside estimates.
  EXPECT_FALSE(result.challenges.empty());
}

TEST(ServeServer, ConcurrentSessionsAllVerify) {
  ServerHarness harness;
  LoadOptions load;
  load.port = harness.port();
  load.connections = 4;
  load.sessions = 8;
  load.spec = quick_spec();
  load.master_seed = 21;
  load.verify = true;
  const LoadReport report = run_load(load);
  for (const SessionError& error : report.session_errors) {
    ADD_FAILURE() << "session " << error.session << " ["
                  << to_string(error.kind) << "] " << error.detail;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sessions_completed, 8u);
  EXPECT_EQ(report.sessions_verified, 8u);
  EXPECT_EQ(report.verify_mismatched_frames, 0u);
  EXPECT_EQ(report.estimates_received, report.frames_sent);
}

/// The number a JSON field holds in `json` (digits up to the next delimiter).
std::string json_number(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + tag.size();
  return json.substr(begin, json.find_first_of(",}", begin) - begin);
}

TEST(ServeServer, LoadReportTimesOnlyTheStreamPhase) {
  ServerHarness harness;
  LoadOptions load;
  load.port = harness.port();
  load.connections = 2;
  load.sessions = 3;
  load.spec = quick_spec();
  load.master_seed = 5;
  load.verify = true;
  const LoadReport report = run_load(load);
  ASSERT_TRUE(report.ok());
  // Trace synthesis and the offline replay are timed apart from the stream.
  EXPECT_GT(report.trace_build_ns, 0u);
  EXPECT_GT(report.verify_ns, 0u);
  EXPECT_EQ(report.throughput_frames_per_s,
            static_cast<double>(report.estimates_received) * 1e9 /
                static_cast<double>(report.elapsed_ns));

  const std::string json = to_json(report);
  EXPECT_EQ(json_number(json, "trace_build_ns"),
            std::to_string(report.trace_build_ns));
  EXPECT_EQ(json_number(json, "verify_ns"), std::to_string(report.verify_ns));
  // to_json prints the throughput to 6 significant digits.
  char expected[32];
  std::snprintf(expected, sizeof expected, "%g",
                static_cast<double>(report.estimates_received) * 1e9 /
                    static_cast<double>(report.elapsed_ns));
  EXPECT_EQ(json_number(json, "throughput_frames_per_s"), expected);

  load.verify = false;
  const LoadReport unverified = run_load(load);
  ASSERT_TRUE(unverified.ok());
  EXPECT_GT(unverified.trace_build_ns, 0u);
  EXPECT_EQ(unverified.verify_ns, 0u);
  EXPECT_EQ(unverified.sessions_verified, 0u);
}

TEST(ServeServer, DecodeErrorCountIsExportedBeforeAnyError) {
  ServerHarness harness;
  const telemetry::MetricsSnapshot snapshot = telemetry::collect_metrics();
  const auto it = std::find_if(
      snapshot.metrics.begin(), snapshot.metrics.end(),
      [](const auto& m) { return m.name == "serve.decode_errors"; });
  ASSERT_NE(it, snapshot.metrics.end());
}

TEST(ServeServer, GarbageBytesGetErrorFrameAndClose) {
  ServerHarness harness;
  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  client.send_raw({0xFF, 0xFF, 0xFF, 0xFF, 0x99, 0x00, 0x01, 0x02});
  const auto frame = client.recv_frame(5'000'000'000ULL);
  ASSERT_TRUE(frame.has_value()) << client.reason();
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*frame, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);
  // And the server hangs up afterwards.
  EXPECT_FALSE(client.recv_frame(5'000'000'000ULL).has_value());
}

TEST(ServeServer, MeasurementBeforeHelloIsAProtocolError) {
  ServerHarness harness;
  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  client.send_raw(encode(MeasurementFrame{}));
  const auto frame = client.recv_frame(5'000'000'000ULL);
  ASSERT_TRUE(frame.has_value()) << client.reason();
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(decode(*frame, error, nullptr));
  EXPECT_EQ(error.code, ErrorCode::kProtocolOrder);
}

TEST(ServeServer, SessionCapRejectsOverTheWire) {
  ServerOptions options;
  options.session.max_sessions = 1;
  ServerHarness harness(options);

  SessionClient first;
  first.connect("127.0.0.1", harness.port());
  ASSERT_TRUE(first.open_session(hello_from(quick_spec(), "one")).ok);

  SessionClient second;
  second.connect("127.0.0.1", harness.port());
  const auto open = second.open_session(hello_from(quick_spec(), "two"));
  EXPECT_FALSE(open.ok);
  ASSERT_TRUE(open.has_error) << open.transport_error;
  EXPECT_EQ(open.error.code, ErrorCode::kSessionLimit);

  // The rejected connection is closed; the first session still works.
  first.close();
}

TEST(ServeServer, SlowConsumerIsDisconnectedWithStatus) {
  ServerOptions options;
  options.max_outbound_bytes = 256;  // a handful of estimate frames
  options.max_pending_frames = 512;  // don't pause reads before overflow
  ServerHarness harness(options);

  const TraceSpec spec = quick_spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  ASSERT_TRUE(client.open_session(hello_from(spec, "slow")).ok);

  // Fire the whole trace without reading a single reply.
  std::vector<std::uint8_t> burst;
  for (const MeasurementFrame& m : trace) {
    const auto bytes = encode(m);
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  client.send_raw(burst);

  // Eventually the replies overflow the outbound cap and the server sends
  // STATUS kSlowConsumer (possibly after a few estimates) and hangs up.
  bool saw_slow_consumer = false;
  for (int i = 0; i < 1000; ++i) {
    const auto frame = client.recv_frame(10'000'000'000ULL);
    if (!frame.has_value()) break;
    if (frame->type == FrameType::kStatus) {
      StatusFrame status;
      ASSERT_TRUE(decode(*frame, status, nullptr));
      EXPECT_EQ(status.code, StatusCode::kSlowConsumer);
      saw_slow_consumer = true;
      break;
    }
  }
  EXPECT_TRUE(saw_slow_consumer);
  // Allow the loop to finish the disconnect before the harness drains.
  for (int i = 0; i < 100 && harness.server().live_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness.server().stats().slow_consumer_disconnects, 1u);
}

TEST(ServeServer, IdleSessionIsEvictedOverTheWire) {
  ServerOptions options;
  options.session.idle_timeout_ns = 100'000'000ULL;  // 100 ms
  options.idle_check_period_ns = 20'000'000ULL;      // 20 ms sweep
  ServerHarness harness(options);

  SessionClient client;
  client.connect("127.0.0.1", harness.port());
  ASSERT_TRUE(client.open_session(hello_from(quick_spec(), "idler")).ok);

  // Send nothing; the server must evict and notify.
  const auto frame = client.recv_frame(10'000'000'000ULL);
  ASSERT_TRUE(frame.has_value()) << client.reason();
  ASSERT_EQ(frame->type, FrameType::kStatus);
  StatusFrame status;
  ASSERT_TRUE(decode(*frame, status, nullptr));
  EXPECT_EQ(status.code, StatusCode::kIdleTimeout);
  EXPECT_EQ(harness.server().session_counters().evicted, 1u);
}

TEST(ServeServer, DrainNotifiesConnectedClients) {
  runtime::ThreadPool pool(2);
  StreamServer server(ServerOptions{}, pool);
  server.bind_and_listen();
  std::thread loop([&server] { server.run(); });

  SessionClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.open_session(hello_from(quick_spec(), "drainee")).ok);

  server.request_drain();
  const auto frame = client.recv_frame(10'000'000'000ULL);
  ASSERT_TRUE(frame.has_value()) << client.reason();
  ASSERT_EQ(frame->type, FrameType::kStatus);
  StatusFrame status;
  ASSERT_TRUE(decode(*frame, status, nullptr));
  EXPECT_EQ(status.code, StatusCode::kDraining);

  loop.join();  // run() returns once every connection is gone
  pool.drain();
  EXPECT_EQ(server.live_sessions(), 0u);
}

// Regression: once the drain grace period expired, the force-close branch
// used to `continue` past poll()/drain_completions() every iteration, so a
// pipeline batch still in flight at grace expiry could never be reaped and
// run() spun forever. Wedge the pool's only worker so the dispatched batch
// is guaranteed to still be outstanding when the (short) grace expires,
// then check run() returns once the batch finally completes.
TEST(ServeServer, DrainGraceExpiryWithInFlightBatchStillReturns) {
  ServerOptions options;
  options.drain_grace_ns = 50'000'000ULL;  // 50 ms
  runtime::ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });

  StreamServer server(options, pool);
  server.bind_and_listen();
  std::promise<void> run_returned;
  std::thread loop([&server, &run_returned] {
    server.run();
    run_returned.set_value();
  });

  const TraceSpec spec = quick_spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  SessionClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.open_session(hello_from(spec, "wedged")).ok);
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto bytes = encode(trace[i]);
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  client.send_raw(burst);

  // Wait until the frames are decoded (the batch dispatch follows in the
  // same loop pass); it then sits queued behind the wedged worker.
  for (int i = 0; i < 500 && server.stats().frames_in < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.stats().frames_in, 4u);

  server.request_drain();
  // Let the grace expire and the force-close path run with the batch still
  // outstanding.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  release.set_value();

  ASSERT_EQ(run_returned.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "run() wedged after drain grace expiry with a batch in flight";
  loop.join();
  pool.drain();
}

TEST(ServeServer, StatsAccountForCleanRun) {
  ServerOptions options;
  ServerStats stats;
  SessionManager::Counters counters;
  {
    ServerHarness harness(options);
    LoadOptions load;
    load.port = harness.port();
    load.connections = 2;
    load.sessions = 2;
    load.spec = quick_spec(5);
    const LoadReport report = run_load(load);
    EXPECT_TRUE(report.ok());
    // Each session ends when its client closes; the server notices on its
    // next loop pass.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
      counters = harness.server().session_counters();
      if (counters.closed + counters.detached == 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (std::chrono::steady_clock::now() < deadline);
    stats = harness.server().stats();
  }
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_in, 120u);  // 2 sessions x 60 steps
  EXPECT_EQ(counters.opened, 2u);
  EXPECT_EQ(counters.rejected, 0u);
  // Both clients sent the final ACK, so the server destroys each finished
  // session on close instead of parking it for resumption.
  EXPECT_EQ(counters.closed, 2u);
  EXPECT_EQ(counters.detached, 0u);
}

TEST(LoadReportJson, EscapesControlCharactersInErrorDetails) {
  LoadReport report;
  report.session_errors.push_back(
      SessionError{.session = 3,
                   .kind = SessionErrorKind::kTraceGeneration,
                   .detail = "drop\tout\r\x01" "end"});
  const std::string json = to_json(report);
  EXPECT_NE(json.find(R"("detail":"drop\tout\r\u0001end")"),
            std::string::npos)
      << json;
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  })) << json;
}

// --- goodbyes ---------------------------------------------------------------
// Every way the server ends a connection, pinned by the last frame the
// client receives before the server closes it: type, code, session token
// and message, word for word. Each test then checks every counter against
// its telemetry twin.

class ServeGoodbye : public loopback::MetricsOn {};

using loopback::error_text;
using loopback::goodbye;
using loopback::status_text;
using loopback::wait_until;

/// Opens a session on a fresh connection and returns its token.
std::uint64_t open_on(SessionClient& client, std::uint16_t port,
                      const TraceSpec& spec = quick_spec()) {
  client.connect("127.0.0.1", port);
  const auto open = client.open_session(hello_from(spec, "goodbye"));
  EXPECT_TRUE(open.ok) << open.transport_error;
  return open.status.session_token;
}

/// `frame` with its last payload byte cut, or one zero byte added.
std::vector<std::uint8_t> resized(std::vector<std::uint8_t> frame,
                                  bool longer) {
  if (longer) {
    frame.push_back(0);
    ++frame[0];  // the u32 payload length, little-endian; below 255 here
  } else {
    frame.pop_back();
    --frame[0];
  }
  return frame;
}

/// Bytes that make the server end a fresh connection (after a HELLO when
/// `in_session`) and the goodbye they earn.
struct Provocation {
  bool in_session = false;
  std::vector<std::uint8_t> bytes;
  std::string expected;
  bool decode_error = false;
};

std::string server_only(FrameType type) {
  return error_text(ErrorCode::kProtocolOrder,
                    std::string("client sent server-only frame ") +
                        to_string(type));
}

TEST_F(ServeGoodbye, ProtocolAndDecodeErrorsEndWithTheirError) {
  const std::vector<Provocation> cases = {
      {true, encode(hello_from(quick_spec(), "again")),
       error_text(ErrorCode::kProtocolOrder, "duplicate HELLO")},
      {false, encode(MeasurementFrame{}),
       error_text(ErrorCode::kProtocolOrder, "MEASUREMENT before HELLO")},
      {false, encode(AckFrame{.last_step = 3}),
       error_text(ErrorCode::kProtocolOrder, "ACK before HELLO")},
      {false, encode(EstimateFrame{}), server_only(FrameType::kEstimate)},
      {false, encode(ChallengeResultFrame{}),
       server_only(FrameType::kChallengeResult)},
      {false, encode(StatusFrame{}), server_only(FrameType::kStatus)},
      {false, encode(ErrorFrame{}), server_only(FrameType::kError)},
      {false, encode(ResumeOkFrame{}), server_only(FrameType::kResumeOk)},
      {true, encode(ResumeFrame{.session_token = 7, .last_step = -1}),
       error_text(ErrorCode::kProtocolOrder,
                  "RESUME on a connection with an open session")},
      {false, {0xFF, 0xFF, 0xFF, 0xFF, 0x99, 0x00, 0x01, 0x02},
       error_text(ErrorCode::kMalformedFrame,
                  "oversized frame: 4294967295 bytes exceeds max payload "
                  "4096"),
       true},
      {false, {0x00, 0x00, 0x00, 0x00, 0x63},
       error_text(ErrorCode::kMalformedFrame, "unknown frame type 99"), true},
      {false, resized(encode(hello_from(quick_spec(), "long")), true),
       error_text(ErrorCode::kMalformedFrame,
                  "HELLO payload has trailing bytes"),
       true},
      {true, resized(encode(MeasurementFrame{}), false),
       error_text(ErrorCode::kMalformedFrame, "MEASUREMENT payload truncated"),
       true},
  };
  ServerHarness harness;
  std::uint64_t sessions = 0;
  std::uint64_t decode_errors = 0;
  for (const Provocation& c : cases) {
    SessionClient client;
    if (c.in_session) {
      EXPECT_NE(open_on(client, harness.port()), 0u);
      ++sessions;
    } else {
      client.connect("127.0.0.1", harness.port());
    }
    client.send_raw(c.bytes);
    EXPECT_EQ(goodbye(client), c.expected);
    if (c.decode_error) ++decode_errors;
  }
  harness.stop();

  const ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.accepted, cases.size());
  EXPECT_EQ(stats.closed, cases.size());
  EXPECT_EQ(stats.frames_in, 0u);
  EXPECT_EQ(stats.frames_out, sessions + cases.size());
  EXPECT_EQ(stats.decode_errors, decode_errors);
  EXPECT_EQ(stats.protocol_errors, cases.size() - decode_errors);
  EXPECT_EQ(harness.server().session_counters().opened, sessions);
  EXPECT_EQ(harness.server().session_counters().detached, sessions);
  loopback::expect_tallies_match(harness.server());
}

TEST_F(ServeGoodbye, SessionCapEndsWithSessionLimit) {
  ServerOptions options;
  options.session.max_sessions = 1;
  ServerHarness harness(options);
  SessionClient first;
  open_on(first, harness.port());

  SessionClient second;
  second.connect("127.0.0.1", harness.port());
  second.send_raw(encode(hello_from(quick_spec(), "two")));
  EXPECT_EQ(goodbye(second),
            error_text(ErrorCode::kSessionLimit,
                       "session cap reached (1 live sessions)"));
  harness.stop();

  EXPECT_EQ(harness.server().session_counters().rejected, 1u);
  EXPECT_EQ(harness.server().stats().protocol_errors, 1u);
  loopback::expect_tallies_match(harness.server());
}

TEST_F(ServeGoodbye, IdleEvictionEndsWithIdleTimeout) {
  ServerOptions options;
  options.session.idle_timeout_ns = 100'000'000ULL;  // 100 ms
  options.idle_check_period_ns = 20'000'000ULL;      // 20 ms sweep
  ServerHarness harness(options);
  SessionClient client;
  const std::uint64_t token = open_on(client, harness.port());

  EXPECT_EQ(goodbye(client),
            status_text(StatusCode::kIdleTimeout, token,
                        "session evicted after idle timeout"));
  harness.stop();

  EXPECT_EQ(harness.server().session_counters().evicted, 1u);
  EXPECT_EQ(harness.server().stats().frames_out, 2u);
  loopback::expect_tallies_match(harness.server());
}

TEST_F(ServeGoodbye, SlowConsumerEndsWithSlowConsumer) {
  ServerOptions options;
  options.max_outbound_bytes = 256;  // a handful of estimate frames
  options.max_pending_frames = 512;  // don't pause reads before overflow
  ServerHarness harness(options);
  const TraceSpec spec = quick_spec();
  SessionClient client;
  const std::uint64_t token = open_on(client, harness.port(), spec);

  std::vector<std::uint8_t> burst;
  for (const MeasurementFrame& m : make_measurement_trace(spec)) {
    const std::vector<std::uint8_t> bytes = encode(m);
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  client.send_raw(burst);
  EXPECT_EQ(goodbye(client),
            status_text(StatusCode::kSlowConsumer, token,
                        "outbound queue exceeded 256 bytes"));
  harness.stop();

  EXPECT_EQ(harness.server().stats().slow_consumer_disconnects, 1u);
  loopback::expect_tallies_match(harness.server());
}

/// A raw loopback client whose receive buffer is set to 2 KiB before it
/// connects, so the window it advertises stays that small.
class SmallWindowClient {
 public:
  explicit SmallWindowClient(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    const int rcvbuf = 2048;
    EXPECT_EQ(
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~SmallWindowClient() { ::close(fd_); }

  SmallWindowClient(const SmallWindowClient&) = delete;
  SmallWindowClient& operator=(const SmallWindowClient&) = delete;

  void send_all(const std::vector<std::uint8_t>& bytes) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "send failed: errno " << errno;
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads into `decoder` until it yields a frame or, with `to_eof`, until
  /// the server closes; returns that frame, or the last of them.
  std::optional<Frame> read(FrameDecoder& decoder, bool to_eof) {
    std::optional<Frame> last;
    std::uint8_t buffer[4096];
    while (true) {
      while (std::optional<Frame> frame = decoder.next()) {
        last = std::move(frame);
        if (!to_eof) return last;
      }
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      EXPECT_GE(n, 0) << "recv failed: errno " << errno;
      if (n <= 0) return last;
      decoder.feed(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
};

TEST_F(ServeGoodbye, SlowConsumerMidFrameStillEndsWithSlowConsumer) {
  // A client that reads nothing until the server's kernel send buffer is
  // full, so the reply chunk at the front of the outbound queue is partly
  // sent when the queue overflows. The goodbye must keep the rest of that
  // chunk ahead of the STATUS, or the STATUS lands inside a cut frame.
  ServerOptions options;
  options.max_outbound_bytes = 16 * 1024;
  ServerHarness harness(options);
  TraceSpec spec = quick_spec();
  spec.horizon_steps = 100'000;  // the session limit's longest horizon
  const std::vector<MeasurementFrame> base = make_measurement_trace(
      quick_spec());

  SmallWindowClient client(harness.port());
  client.send_all(encode(hello_from(spec, "small-window")));
  FrameDecoder decoder;
  const std::optional<Frame> hello_ok = client.read(decoder, false);
  ASSERT_TRUE(hello_ok.has_value());
  StatusFrame opened;
  ASSERT_TRUE(decode(*hello_ok, opened, nullptr));
  ASSERT_EQ(opened.code, StatusCode::kHelloOk);

  // Each group of 256 measurements is one read and one batch on the server,
  // and one outbound chunk of about 11 KB. The next group goes out only
  // once the last one's replies are queued and the overflow check behind
  // them has run, so the server has read every byte sent when it gives up
  // on this client: its close sends a FIN, not a reset that would discard
  // the replies still in its kernel buffer.
  const auto stats = [&harness] { return harness.server().stats(); };
  const std::size_t estimate_bytes = encode(EstimateFrame{}).size();
  const std::size_t challenge_bytes = encode(ChallengeResultFrame{}).size();
  core::SafeMeasurementPipeline offline = build_session_pipeline(spec);
  std::uint64_t queued_frames = 1;  // the HELLO_OK
  std::uint64_t queued_bytes = stats().bytes_out;
  std::int64_t step = 0;
  while (stats().slow_consumer_disconnects == 0) {
    ASSERT_LE(step + 256, spec.horizon_steps)
        << "the queue never overflowed: the server's kernel send buffer took "
        << stats().bytes_out << " bytes, the whole horizon's replies";
    std::vector<std::uint8_t> group;
    for (const std::int64_t end = step + 256; step < end; ++step) {
      const MeasurementFrame m{
          .step = step,
          .measurement =
              base[static_cast<std::size_t>(step) % base.size()].measurement};
      const std::vector<std::uint8_t> bytes = encode(m);
      group.insert(group.end(), bytes.begin(), bytes.end());
      const bool challenge =
          offline.process(step, m.measurement).challenge_slot;
      queued_frames += challenge ? 2 : 1;
      queued_bytes += estimate_bytes + (challenge ? challenge_bytes : 0);
    }
    client.send_all(group);
    ASSERT_TRUE(
        wait_until([&] { return stats().frames_out == queued_frames; }));
    // The overflow check runs right after frames_out is counted and before
    // bytes_out moves: all bytes out, or 50 ms with none moving, means it
    // has run.
    std::uint64_t out = 0;
    for (int still = 0; still < 50; ++still) {
      const std::uint64_t now = stats().bytes_out;
      if (now == queued_bytes) break;
      if (now != out) still = 0;
      out = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::optional<Frame> last = client.read(decoder, true);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(loopback::describe(*last),
            status_text(StatusCode::kSlowConsumer, opened.session_token,
                        "outbound queue exceeded 16384 bytes"));
  EXPECT_FALSE(decoder.failed()) << decoder.error();
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  harness.stop();

  EXPECT_EQ(harness.server().stats().slow_consumer_disconnects, 1u);
  loopback::expect_tallies_match(harness.server());
}

TEST_F(ServeGoodbye, DrainEndsEveryConnectionWithDraining) {
  ServerHarness harness;
  SessionClient in_session;
  const std::uint64_t token = open_on(in_session, harness.port());
  SessionClient bare;
  bare.connect("127.0.0.1", harness.port());
  ASSERT_TRUE(
      wait_until([&] { return harness.server().stats().accepted == 2; }));

  harness.stop();
  EXPECT_EQ(goodbye(in_session),
            status_text(StatusCode::kDraining, token, "server draining"));
  EXPECT_EQ(goodbye(bare),
            status_text(StatusCode::kDraining, 0, "server draining"));

  EXPECT_EQ(harness.server().stats().frames_out, 3u);
  EXPECT_EQ(harness.server().session_counters().closed, 1u);
  loopback::expect_tallies_match(harness.server());
}

}  // namespace
