// Concurrent load generator for the streaming session server.
//
// Replays deterministic scenario traces over N concurrent connections (one
// session per connection, seeds derived per session index) and reports
// throughput plus p50/p95/p99 frame latency. With verify enabled it also
// byte-compares every received ESTIMATE frame against the offline
// run_offline() reference — the serving parity check used by tests, the CI
// smoke job, and the throughput ablation. Throughput is timed over the
// stream phase alone: every trace is built before the clock starts and
// verified after it stops, and those phases are reported separately.
//
// Every session runs through a ResilientClient with `retry.max_attempts`
// connection attempts (default one): with more, disconnects and overload
// sheds are survived via RESUME + backoff, and the report carries the
// resilience counters (reconnects, resumes, restarts, replays). Either way a
// completed session sends the final ACK, so the server releases it on close.
// Failures are recorded under a structured taxonomy (SessionErrorKind) so a
// chaos soak can distinguish connect-refused from deadline-exceeded from
// verify-mismatch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/resilient.hpp"
#include "serve/trace_source.hpp"

namespace safe::serve {

/// Structured failure classification for one load-generator session.
enum class SessionErrorKind : std::uint8_t {
  kConnectRefused = 0,   ///< TCP connect failed on a one-attempt session
  kHandshakeRejected,    ///< server answered HELLO/RESUME with a fatal ERROR
  kOverloaded,           ///< shed with STATUS kOverloaded and never admitted
  kDeadlineExceeded,     ///< per-session deadline expired
  kVerifyMismatch,       ///< estimate bytes differ from the offline reference
  kTransport,            ///< socket/decoder failure mid-stream
  kServerError,          ///< fatal mid-stream ERROR frame
  kServerStatus,         ///< STATUS other than overloaded (e.g. draining)
  kTraceGeneration,      ///< local scenario simulation threw
  kRetriesExhausted,     ///< retry budget spent before completion
};

inline constexpr std::size_t kSessionErrorKindCount = 10;

[[nodiscard]] const char* to_string(SessionErrorKind kind);

struct SessionError {
  std::size_t session = 0;
  SessionErrorKind kind = SessionErrorKind::kTransport;
  std::string detail;
};

struct LoadOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 8;  ///< concurrent client threads
  std::size_t sessions = 8;     ///< total sessions (>= connections)
  /// Base spec; session i runs it with seed
  /// derive_seed(master_seed, kScenario, i) so every session's trace is
  /// distinct yet reproducible.
  TraceSpec spec{};
  std::uint64_t master_seed = 1;
  bool verify = false;  ///< byte-compare estimates vs run_offline()
  std::uint64_t deadline_ns = 60'000'000'000ULL;  ///< per-session budget
  /// Connection attempts per session and the backoff between them (its
  /// jitter_seed is re-derived per session index).
  RetryPolicy retry{};
};

struct LoadReport {
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;  ///< full estimate stream received
  std::size_t sessions_failed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t estimates_received = 0;
  std::uint64_t challenges_received = 0;
  std::size_t sessions_verified = 0;  ///< byte-identical to offline reference
  std::uint64_t verify_mismatched_frames = 0;
  /// Wall time of the stream phase: connect to last estimate, all sessions.
  std::uint64_t elapsed_ns = 0;
  /// Wall time spent building every session's trace, before elapsed_ns.
  std::uint64_t trace_build_ns = 0;
  /// Wall time of the offline verification, after elapsed_ns (0 without it).
  std::uint64_t verify_ns = 0;
  /// estimates_received per second of elapsed_ns.
  double throughput_frames_per_s = 0.0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p95_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_max_ns = 0;

  // Resilience aggregates (all zero when no session needed a retry).
  std::uint64_t reconnects = 0;
  std::uint64_t resumes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t overload_backoffs = 0;
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t replayed_frames = 0;

  /// Per-kind failure counts, indexed by SessionErrorKind.
  std::array<std::uint64_t, kSessionErrorKindCount> error_counts{};
  /// First few structured failures (per-session), for diagnostics.
  std::vector<SessionError> session_errors;

  [[nodiscard]] bool ok() const {
    return sessions_failed == 0 && verify_mismatched_frames == 0 &&
           sessions_completed == sessions_attempted;
  }
};

/// Runs the load; blocking. Throws std::invalid_argument on nonsensical
/// options (zero sessions/connections, port 0).
[[nodiscard]] LoadReport run_load(const LoadOptions& options);

/// Machine-readable single-object JSON rendering of the report.
[[nodiscard]] std::string to_json(const LoadReport& report);

}  // namespace safe::serve
