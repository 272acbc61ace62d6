// Loopback harnesses for the serving tests: a server on a kernel-assigned
// port with its event loop on its own thread, the same with its one pool
// worker wedged, and the checks every goodbye test makes (the last frame a
// connection receives before the server closes it, and each server counter
// against its serve.* telemetry twin).
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve::loopback {

/// Server on a kernel-assigned loopback port, event loop on its own thread.
/// stop() (or the destructor) drains it and joins.
class ServerHarness {
 public:
  explicit ServerHarness(ServerOptions options = {})
      : pool_(2), server_(std::move(options), pool_) {
    server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() { stop(); }

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  /// Drains: every connection still open gets its goodbye, and run()
  /// returns once the last one closed.
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_drain();
    thread_.join();
    pool_.drain();
  }

  StreamServer& server() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  runtime::ThreadPool pool_;
  StreamServer server_;
  std::thread thread_;
};

/// Wedged-pool harness: a single worker blocked on a gate so dispatched
/// batches stay in flight for as long as the test wants.
struct WedgedServer {
  explicit WedgedServer(ServerOptions options) : pool(1) {
    gate = std::shared_future<void>(release.get_future());
    pool.submit([g = gate] { g.wait(); });
    server.emplace(std::move(options), pool);
    server->bind_and_listen();
    thread = std::thread([this] { server->run(); });
  }

  ~WedgedServer() { stop(); }

  WedgedServer(const WedgedServer&) = delete;
  WedgedServer& operator=(const WedgedServer&) = delete;

  void open_gate() {
    release.set_value();
    release_needed = false;
  }

  /// Opens the gate if still shut, then drains like ServerHarness::stop().
  void stop() {
    if (!thread.joinable()) return;
    if (release_needed) open_gate();
    server->request_drain();
    thread.join();
    pool.drain();
  }

  runtime::ThreadPool pool;
  std::promise<void> release;
  std::shared_future<void> gate;
  std::optional<StreamServer> server;
  std::thread thread;
  bool release_needed = true;
};

inline constexpr std::uint64_t kGoodbyeDeadlineNs = 10'000'000'000ULL;

/// Polls `done` every millisecond for up to 10 s; returns its last answer.
template <typename Predicate>
bool wait_until(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// "STATUS <code> token <token>: <message>" — a goodbye, word for word.
inline std::string status_text(StatusCode code, std::uint64_t token,
                               std::string_view message) {
  return std::string("STATUS ") + to_string(code) + " token " +
         std::to_string(token) + ": " + std::string(message);
}

/// "ERROR <code>: <message>" (an ERROR frame carries no session token).
inline std::string error_text(ErrorCode code, std::string_view message) {
  return std::string("ERROR ") + to_string(code) + ": " + std::string(message);
}

/// A STATUS or ERROR frame as status_text/error_text spell it; any other
/// frame as its type name.
inline std::string describe(const Frame& frame) {
  std::string error;
  if (frame.type == FrameType::kStatus) {
    StatusFrame status;
    if (!decode(frame, status, &error)) return "bad STATUS: " + error;
    return status_text(status.code, status.session_token, status.message);
  }
  if (frame.type == FrameType::kError) {
    ErrorFrame err;
    if (!decode(frame, err, &error)) return "bad ERROR: " + error;
    return error_text(err.code, err.message);
  }
  return to_string(frame.type);
}

/// Reads every frame until the server closes the connection and returns
/// the last one, described, or `last` when none arrives; fails the test if
/// the connection stays open.
inline std::string goodbye(SessionClient& client,
                           std::string last = "no frame") {
  while (const std::optional<Frame> frame =
             client.recv_frame(kGoodbyeDeadlineNs)) {
    last = describe(*frame);
  }
  EXPECT_EQ(client.reason(), "connection closed by server") << last;
  return last;
}

/// Metrics on, from zero, for one test, so every serve.* counter counts
/// exactly what the test's server did.
class MetricsOn : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset_for_testing();
    telemetry::set_metrics_enabled(true);
  }
  void TearDown() override {
    telemetry::set_metrics_enabled(false);
    telemetry::reset_for_testing();
  }
};

/// A counter's value in `snapshot` (0 when it was never registered).
inline std::uint64_t counter_in(const telemetry::MetricsSnapshot& snapshot,
                                std::string_view name) {
  for (const telemetry::MetricSnapshot& m : snapshot.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// Each ServerStats field with a serve.* twin equals it, and so does each
/// SessionManager counter with a serve.sessions_* twin. Call once the
/// server has stopped.
inline void expect_tallies_match(const StreamServer& server) {
  const ServerStats stats = server.stats();
  const SessionManager::Counters sessions = server.session_counters();
  const telemetry::MetricsSnapshot snapshot = telemetry::collect_metrics();
  const auto twin = [&snapshot](std::string_view name) {
    return counter_in(snapshot, name);
  };
  EXPECT_EQ(stats.accepted, twin("serve.accepts"));
  EXPECT_EQ(stats.frames_in, twin("serve.frames_in"));
  EXPECT_EQ(stats.frames_out, twin("serve.frames_out"));
  EXPECT_EQ(stats.decode_errors, twin("serve.decode_errors"));
  EXPECT_EQ(stats.slow_consumer_disconnects,
            twin("serve.slow_consumer_disconnects"));
  EXPECT_EQ(stats.sessions_resumed, twin("serve.resumes"));
  EXPECT_EQ(stats.resume_rejects, twin("serve.resume_rejects"));
  EXPECT_EQ(stats.replayed_frames, twin("serve.replayed_frames"));
  EXPECT_EQ(stats.shed_hellos, twin("serve.shed_hellos"));
  EXPECT_EQ(stats.deadline_sheds, twin("serve.deadline_sheds"));
  EXPECT_EQ(sessions.opened, twin("serve.sessions_opened"));
  EXPECT_EQ(sessions.rejected, twin("serve.sessions_rejected"));
  EXPECT_EQ(sessions.evicted, twin("serve.sessions_evicted"));
  EXPECT_EQ(sessions.detached, twin("serve.sessions_detached"));
  EXPECT_EQ(sessions.resumed, twin("serve.sessions_resumed"));
  EXPECT_EQ(sessions.expired, twin("serve.sessions_resume_expired"));
}

}  // namespace safe::serve::loopback
