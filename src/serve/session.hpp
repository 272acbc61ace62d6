// Per-session pipeline state for the streaming server (DESIGN.md §12).
//
// A session is one client's safe-sensing pipeline: the CRA detector,
// HealthMonitor, and RLS predictors that consume its measurement stream.
// The SessionManager owns every live session, enforces a hard cap, evicts
// sessions idle past a timeout, and hands out deterministic session tokens
// derived with the campaign engine's SplitMix64 scheme —
// derive_seed(master, SeedStream::kSession, counter) — so a given server
// seed always produces the same token sequence (tests pin this).
//
// Eviction destroys the session object outright. A client that reconnects
// with the same client id gets a freshly constructed pipeline: no predictor
// state, detector state, or health state survives eviction (tested).
//
// Resumption (DESIGN.md §13): when a connection drops mid-stream, the server
// detaches the session into a bounded cache instead of destroying it. A
// RESUME(token, last_step) within the grace window re-attaches it and
// replays every retained output frame after last_step, so the byte-parity
// contract survives disconnects. Retained output is trimmed by client ACKs
// and capped; a resume behind the trimmed window fails with kResumeGap.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "runtime/sync.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

struct SessionLimits {
  /// Hard cap on live sessions; a HELLO beyond it is rejected with
  /// ErrorCode::kSessionLimit.
  std::size_t max_sessions = 64;
  /// A session with no processed frame for this long is evicted.
  std::uint64_t idle_timeout_ns = 30'000'000'000ULL;
  /// Upper bound on a HELLO's horizon (bounds the challenge-schedule
  /// precompute a client can demand).
  std::int64_t max_horizon_steps = 100'000;
  /// How long a detached (disconnected mid-stream) session stays resumable.
  std::uint64_t resume_grace_ns = 15'000'000'000ULL;
  /// Cap on detached sessions kept resumable; the oldest is dropped first.
  std::size_t max_detached_sessions = 256;
  /// Per-session cap on retained output steps awaiting client ACK. Overflow
  /// drops the oldest step, so a resume behind the window gets kResumeGap.
  std::size_t max_retained_steps = 4096;
};

/// One client session. process() is internally serialized; connections
/// already submit one batch at a time, the mutex additionally makes the
/// manager's concurrent bookkeeping safe.
class Session {
 public:
  Session(std::uint64_t token, std::string client_id, const TraceSpec& spec,
          std::uint64_t now_ns, std::size_t max_retained_steps = 4096);

  struct StepOutput {
    EstimateFrame estimate;
    std::optional<ChallengeResultFrame> challenge;
  };

  /// Runs one measurement through the pipeline. Pure function of the
  /// measurement sequence — serving a stream must match run_offline()
  /// byte for byte.
  StepOutput process(const MeasurementFrame& frame, std::uint64_t now_ns);

  [[nodiscard]] std::uint64_t token() const noexcept { return token_; }
  [[nodiscard]] const std::string& client_id() const noexcept {
    return client_id_;
  }
  [[nodiscard]] const TraceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t frames_processed() const noexcept {
    return frames_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t last_active_ns() const noexcept {
    return last_active_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t opened_ns() const noexcept { return opened_ns_; }

  // --- resumption support ---------------------------------------------------

  /// Retains the encoded wire output for one processed step so it can be
  /// replayed on resume. Called by the worker after process()+encode, in
  /// step order. Overflow past the retain cap drops the oldest step.
  void record_step_output(std::int64_t step, std::vector<std::uint8_t> bytes,
                          std::uint64_t frame_count);

  /// Client acknowledgement: retained steps <= last_step are dropped.
  void ack(std::int64_t last_step);

  /// Highest step the client has explicitly ACKed (-1 before the first).
  /// Distinct from the trim watermark, which also advances on cap overflow:
  /// only an ACK proves the client actually received the frames, so only
  /// this decides when a finished session no longer needs to be resumable.
  [[nodiscard]] std::int64_t acked_through() const noexcept {
    return acked_through_.load(std::memory_order_acquire);
  }

  struct Replay {
    std::vector<std::uint8_t> bytes;  ///< retained frames after last_step
    std::uint64_t frames = 0;
    bool gap = false;  ///< frames the client needs were already dropped
  };

  /// Everything retained after `last_step`, concatenated in step order.
  /// `gap` is set when the retain window no longer reaches back that far.
  [[nodiscard]] Replay collect_replay(std::int64_t last_step);

  /// Highest step run through the pipeline (-1 before the first).
  [[nodiscard]] std::int64_t last_processed_step() const noexcept {
    return last_step_.load(std::memory_order_acquire);
  }

  /// A worker batch is between dispatch and completion; a session cannot be
  /// resumed while one is in flight (its replay window is still moving).
  void batch_begin() noexcept {
    batch_in_flight_.store(true, std::memory_order_release);
  }
  void batch_end() noexcept {
    batch_in_flight_.store(false, std::memory_order_release);
  }
  [[nodiscard]] bool batch_in_flight() const noexcept {
    return batch_in_flight_.load(std::memory_order_acquire);
  }

  /// Refreshes the idle clock (a detached session awaiting resume must not
  /// look idle to the eviction sweep).
  void touch(std::uint64_t now_ns) noexcept {
    last_active_ns_.store(now_ns, std::memory_order_relaxed);
  }

 private:
  struct Retained {
    std::int64_t step = 0;
    std::vector<std::uint8_t> bytes;
    std::uint64_t frames = 0;
  };

  const std::uint64_t token_;
  const std::string client_id_;
  const TraceSpec spec_;
  const std::uint64_t opened_ns_;
  const std::size_t max_retained_steps_;
  runtime::Mutex mutex_;
  core::SafeMeasurementPipeline pipeline_ SAFE_GUARDED_BY(mutex_);
  std::deque<Retained> retained_ SAFE_GUARDED_BY(mutex_);
  /// Highest step already dropped from retained_ (ACK trim or cap overflow).
  std::int64_t trimmed_through_ SAFE_GUARDED_BY(mutex_) = -1;
  std::atomic<std::uint64_t> last_active_ns_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::int64_t> last_step_{-1};
  std::atomic<std::int64_t> acked_through_{-1};
  std::atomic<bool> batch_in_flight_{false};
};

using SessionPtr = std::shared_ptr<Session>;

class SessionManager {
 public:
  SessionManager(SessionLimits limits, std::uint64_t master_seed);

  /// Result of a HELLO. On rejection `session` is null and
  /// `error_code`/`error` say why (ready to be sent as an ERROR frame).
  struct OpenResult {
    SessionPtr session;
    ErrorCode error_code = ErrorCode::kInternal;
    std::string error;
  };

  OpenResult open(const HelloFrame& hello, std::uint64_t now_ns);

  /// Live session by token; null when unknown (closed or evicted).
  [[nodiscard]] SessionPtr find(std::uint64_t token);

  /// Removes a session (connection closed). False when already gone.
  bool close(std::uint64_t token, std::uint64_t now_ns);

  /// Moves a live session into the bounded detached cache, keeping it
  /// resumable for the grace window. Beyond the cap the oldest detached
  /// session is destroyed. False when the token is not live.
  bool detach(std::uint64_t token, std::uint64_t now_ns);

  enum class ResumeStatus : std::uint8_t {
    kOk,        ///< session moved back to the live map
    kUnknown,   ///< token not detached (never existed, expired, finished)
    kBusy,      ///< a worker batch is still in flight; retry after backoff
    kCapacity,  ///< live-session cap reached; retry after backoff
  };

  struct ResumeResult {
    SessionPtr session;
    ResumeStatus status = ResumeStatus::kUnknown;
  };

  /// Re-attaches a detached session by token.
  ResumeResult resume(std::uint64_t token, std::uint64_t now_ns);

  /// Destroys detached sessions past the resume grace window; returns how
  /// many expired.
  std::size_t expire_detached(std::uint64_t now_ns);

  struct Evicted {
    std::uint64_t token = 0;
    std::string client_id;
  };

  /// Evicts every session idle past the timeout; returns what was evicted
  /// so the server can notify and close the attached connections.
  std::vector<Evicted> evict_idle(std::uint64_t now_ns);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t detached_size() const;
  [[nodiscard]] const SessionLimits& limits() const noexcept {
    return limits_;
  }

  struct Counters {
    std::uint64_t opened = 0;
    std::uint64_t rejected = 0;
    std::uint64_t evicted = 0;
    std::uint64_t closed = 0;
    std::uint64_t detached = 0;
    std::uint64_t resumed = 0;
    std::uint64_t resume_rejected = 0;
    std::uint64_t expired = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Detached {
    SessionPtr session;
    std::uint64_t detached_ns = 0;
  };

  void record_session_end(const Session& session, std::uint64_t now_ns) const;
  /// The one tally: bumps a Counters field and its serve.sessions_* twin.
  void tally(std::uint64_t Counters::*field, const telemetry::MetricId& twin)
      SAFE_REQUIRES(mutex_);

#ifdef SAFE_SENSING_TS_NEGATIVE_TEST
  // Hooks for tests/compile_fail/ts_*.cpp only (see ThreadPool): defined by
  // the test TU to prove a GUARDED_BY violation against the session maps is
  // a build break under -Werror=thread-safety.
  std::size_t ts_probe_sessions_unlocked();
  std::size_t ts_probe_sessions_locked();
#endif

  const SessionLimits limits_;
  const std::uint64_t master_seed_;
  /// One mutex covers the live map, the detached cache, the token counter,
  /// and the counters: session open/close/detach/resume transitions must be
  /// atomic across the two maps (a token may never be in both).
  mutable runtime::Mutex mutex_;
  std::uint64_t next_session_counter_ SAFE_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::uint64_t, SessionPtr> sessions_
      SAFE_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, Detached> detached_
      SAFE_GUARDED_BY(mutex_);
  Counters counters_ SAFE_GUARDED_BY(mutex_);
};

}  // namespace safe::serve
