// Retrying session client with resumption and exactly-once delivery
// accounting (DESIGN.md §13).
//
// ResilientClient is the retry policy around SessionClient: each attempt
// connects, sends HELLO (a fresh session) or RESUME(token, last step held),
// and streams the steps still owed through SessionClient::stream(), which
// discards replayed estimates it already holds, so every step is delivered
// exactly once no matter how many times the stream is cut. A disconnect or a
// STATUS kOverloaded shed is retried after a backoff (exponential, doubling,
// with SplitMix64 jitter). When a resume is rejected (kResumeUnknown /
// kResumeGap) the session restarts from scratch — a fresh pipeline is still
// byte-identical to the offline reference, so the parity contract holds
// either way. On completion it sends the final ACK, which lets the server
// destroy the delivered session on close.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"

namespace safe::serve {

/// Reconnect/backoff policy. Jitter is deterministic per (seed) — two runs
/// with the same seed draw the same jitter sequence.
struct RetryPolicy {
  /// Total connection attempts per session; 0 counts as 1.
  std::size_t max_attempts = 1;
  std::uint64_t initial_backoff_ns = 25'000'000ULL;  ///< 25 ms
  std::uint64_t max_backoff_ns = 1'000'000'000ULL;   ///< 1 s
  std::uint64_t jitter_seed = 1;
};

/// Why a resilient run gave up (kNone on success). Each kind names what
/// ended the last attempt; kAttemptsExhausted replaces a retryable kind only
/// once a retry was made.
enum class StreamFailure : std::uint8_t {
  kNone = 0,
  kConnect,            ///< the TCP connect failed
  kHandshake,          ///< server rejected HELLO with a fatal ERROR
  kResumeRejected,     ///< server rejected RESUME with an ERROR
  kDeadline,           ///< overall deadline expired
  kServerStatus,       ///< STATUS other than overloaded (e.g. draining)
  kServerError,        ///< mid-stream fatal ERROR frame
  kTransport,          ///< transport or protocol failure
  kAttemptsExhausted,  ///< retry budget spent before completion
  kOverloaded,         ///< shed with STATUS kOverloaded
};

[[nodiscard]] const char* to_string(StreamFailure failure);

struct ResilientResult {
  bool complete = false;
  std::vector<EstimateFrame> estimates;
  /// Raw wire bytes per accepted ESTIMATE, in step order (parity artifact).
  std::vector<std::vector<std::uint8_t>> estimate_frames;
  std::vector<ChallengeResultFrame> challenges;
  /// Send-to-receive latencies for estimates whose measurement was sent on
  /// the connection that delivered them (replayed frames have none).
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t session_token = 0;

  std::size_t connects = 0;    ///< successful TCP connects
  std::size_t reconnects = 0;  ///< connects after the first
  std::size_t resumes = 0;     ///< RESUME handshakes accepted
  std::size_t restarts = 0;    ///< fresh-session restarts (resume rejected)
  std::size_t overload_backoffs = 0;  ///< STATUS kOverloaded sheds honored
  std::uint64_t duplicates_discarded = 0;  ///< replayed frames already held
  std::uint64_t replayed_frames = 0;  ///< frames the server replayed for us

  StreamFailure failure = StreamFailure::kNone;
  std::string failure_detail;
};

class ResilientClient {
 public:
  ResilientClient(std::string host, std::uint16_t port, RetryPolicy policy);

  /// Streams `trace` for `spec`, surviving disconnects and sheds, until
  /// every estimate arrived or the retry budget / deadline is spent.
  ResilientResult run(const TraceSpec& spec, const std::string& client_id,
                      const std::vector<MeasurementFrame>& trace,
                      std::uint64_t deadline_ns =
                          SessionClient::kDefaultDeadlineNs);

 private:
  const std::string host_;
  const std::uint16_t port_;
  const RetryPolicy policy_;
};

}  // namespace safe::serve
