#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "detect/spec.hpp"
#include "runtime/seed.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

// Session lifecycle observability (DESIGN.md §12). Open/close/evict counts
// are deterministic for a given workload; session lifetimes are wall-clock.
const telemetry::MetricId& sessions_opened_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_opened", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& sessions_rejected_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_rejected", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& sessions_evicted_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_evicted", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& session_frames_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.session_frames", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& session_lifetime_metric() {
  static const telemetry::MetricId id =
      telemetry::duration_histogram("serve.session_ns");
  return id;
}

const telemetry::MetricId& sessions_detached_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_detached", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& sessions_resumed_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_resumed", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& sessions_expired_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.sessions_resume_expired",
      telemetry::Stability::kSchedulingDependent);
  return id;
}

}  // namespace

Session::Session(std::uint64_t token, std::string client_id,
                 const TraceSpec& spec, std::uint64_t now_ns,
                 std::size_t max_retained_steps)
    : token_(token),
      client_id_(std::move(client_id)),
      spec_(spec),
      opened_ns_(now_ns),
      max_retained_steps_(max_retained_steps),
      pipeline_(build_session_pipeline(spec)),
      last_active_ns_(now_ns) {}

Session::StepOutput Session::process(const MeasurementFrame& frame,
                                     std::uint64_t now_ns) {
  runtime::MutexLock guard(mutex_);
  last_active_ns_.store(now_ns, std::memory_order_relaxed);
  frames_.fetch_add(1, std::memory_order_relaxed);
  telemetry::add(session_frames_metric());

  StepOutput out;
  out.estimate.step = frame.step;
  out.estimate.safe = pipeline_.process(frame.step, frame.measurement);
  if (out.estimate.safe.challenge_slot) {
    out.challenge = ChallengeResultFrame{
        .step = frame.step,
        .silent = !frame.measurement.nonzero_output(),
        .under_attack = out.estimate.safe.under_attack,
    };
  }
  last_step_.store(frame.step, std::memory_order_release);
  return out;
}

void Session::record_step_output(std::int64_t step,
                                 std::vector<std::uint8_t> bytes,
                                 std::uint64_t frame_count) {
  runtime::MutexLock guard(mutex_);
  retained_.push_back(
      Retained{.step = step, .bytes = std::move(bytes), .frames = frame_count});
  while (retained_.size() > max_retained_steps_) {
    trimmed_through_ = std::max(trimmed_through_, retained_.front().step);
    retained_.pop_front();
  }
}

void Session::ack(std::int64_t last_step) {
  runtime::MutexLock guard(mutex_);
  while (!retained_.empty() && retained_.front().step <= last_step) {
    trimmed_through_ = std::max(trimmed_through_, retained_.front().step);
    retained_.pop_front();
  }
  if (last_step > acked_through_.load(std::memory_order_relaxed)) {
    acked_through_.store(last_step, std::memory_order_release);
  }
}

Session::Replay Session::collect_replay(std::int64_t last_step) {
  runtime::MutexLock guard(mutex_);
  Replay replay;
  if (last_step < trimmed_through_) {
    // Steps in (last_step, trimmed_through_] were already dropped — the
    // client would see a hole in its estimate stream.
    replay.gap = true;
    return replay;
  }
  for (const Retained& r : retained_) {
    if (r.step <= last_step) continue;
    replay.bytes.insert(replay.bytes.end(), r.bytes.begin(), r.bytes.end());
    replay.frames += r.frames;
  }
  return replay;
}

SessionManager::SessionManager(SessionLimits limits, std::uint64_t master_seed)
    : limits_(limits), master_seed_(master_seed) {}

SessionManager::OpenResult SessionManager::open(const HelloFrame& hello,
                                                std::uint64_t now_ns) {
  OpenResult result;
  const auto rejected = [&](ErrorCode code, std::string message) {
    {
      runtime::MutexLock guard(mutex_);
      tally(&Counters::rejected, sessions_rejected_metric());
    }
    result.error_code = code;
    result.error = std::move(message);
    return result;
  };

  // Older clients stay accepted: a v1/v2 HELLO decodes with detector_spec
  // empty, which selects the paper CRA detector — the only behaviour those
  // versions could express.
  if (hello.protocol_version < 1 ||
      hello.protocol_version > kProtocolVersion) {
    return rejected(ErrorCode::kUnsupportedVersion,
                    "protocol version " +
                        std::to_string(hello.protocol_version) +
                        " unsupported (server speaks " +
                        std::to_string(kProtocolVersion) + ")");
  }
  if (hello.horizon_steps <= 0 ||
      hello.horizon_steps > limits_.max_horizon_steps) {
    return rejected(ErrorCode::kProtocolOrder,
                    "horizon_steps " + std::to_string(hello.horizon_steps) +
                        " outside [1, " +
                        std::to_string(limits_.max_horizon_steps) + "]");
  }
  if (!std::isfinite(hello.attack_start_s.value()) ||
      !std::isfinite(hello.attack_end_s.value())) {
    return rejected(ErrorCode::kProtocolOrder,
                    "attack window bounds must be finite");
  }
  // Validate the detector spec up front so a bad one is a structured reject,
  // never a silent fall-back to the default backend.
  {
    const spec::Check check = detect::check_detector_spec(hello.detector_spec);
    if (check.status == spec::Status::kUnknown) {
      return rejected(ErrorCode::kUnknownDetector, check.message);
    }
    if (!check.ok()) {
      return rejected(ErrorCode::kProtocolOrder, check.message);
    }
  }

  // Derive the token and claim a slot before the (comparatively heavy)
  // pipeline construction, so two racing HELLOs cannot both pass the cap.
  std::uint64_t token = 0;
  {
    runtime::MutexLock guard(mutex_);
    if (sessions_.size() >= limits_.max_sessions) {
      tally(&Counters::rejected, sessions_rejected_metric());
      result.error_code = ErrorCode::kSessionLimit;
      result.error = "session cap reached (" +
                     std::to_string(limits_.max_sessions) + " live sessions)";
      return result;
    }
    // Token 0 is the "no session" sentinel on the wire; the derivation can
    // hit it only with probability 2^-64 per counter, but skip it anyway so
    // the sentinel stays unambiguous.
    do {
      token = runtime::derive_seed(master_seed_,
                                   runtime::SeedStream::kSession,
                                   next_session_counter_++);
    } while (token == 0 || sessions_.count(token) != 0 ||
             detached_.count(token) != 0);
    sessions_.emplace(token, nullptr);  // placeholder claims the slot
  }

  SessionPtr session;
  try {
    session = std::make_shared<Session>(token, hello.client_id,
                                        spec_from(hello), now_ns,
                                        limits_.max_retained_steps);
  } catch (const std::exception& e) {
    {
      runtime::MutexLock guard(mutex_);
      sessions_.erase(token);
    }
    return rejected(ErrorCode::kInternal,
                    std::string("session setup failed: ") + e.what());
  }

  {
    runtime::MutexLock guard(mutex_);
    sessions_[token] = session;
    tally(&Counters::opened, sessions_opened_metric());
  }
  telemetry::instant_event("serve.session_open", "serve");
  result.session = std::move(session);
  return result;
}

SessionPtr SessionManager::find(std::uint64_t token) {
  runtime::MutexLock guard(mutex_);
  const auto it = sessions_.find(token);
  return it == sessions_.end() ? nullptr : it->second;
}

void SessionManager::record_session_end(const Session& session,
                                        std::uint64_t now_ns) const {
  telemetry::record(session_lifetime_metric(),
                    static_cast<double>(now_ns - session.opened_ns()));
  telemetry::instant_event("serve.session_close", "serve");
}

bool SessionManager::close(std::uint64_t token, std::uint64_t now_ns) {
  SessionPtr session;
  {
    runtime::MutexLock guard(mutex_);
    const auto it = sessions_.find(token);
    if (it != sessions_.end()) {
      session = std::move(it->second);
      sessions_.erase(it);
    } else {
      const auto detached = detached_.find(token);
      if (detached == detached_.end()) return false;
      session = std::move(detached->second.session);
      detached_.erase(detached);
    }
    ++counters_.closed;
  }
  if (session) record_session_end(*session, now_ns);
  return true;
}

bool SessionManager::detach(std::uint64_t token, std::uint64_t now_ns) {
  SessionPtr dropped;  // destroyed outside the lock
  {
    runtime::MutexLock guard(mutex_);
    const auto it = sessions_.find(token);
    if (it == sessions_.end() || !it->second) return false;
    SessionPtr session = std::move(it->second);
    sessions_.erase(it);
    session->touch(now_ns);
    detached_[token] =
        Detached{.session = std::move(session), .detached_ns = now_ns};
    tally(&Counters::detached, sessions_detached_metric());
    if (detached_.size() > limits_.max_detached_sessions) {
      auto oldest = detached_.begin();
      for (auto dit = detached_.begin(); dit != detached_.end(); ++dit) {
        if (dit->second.detached_ns < oldest->second.detached_ns) oldest = dit;
      }
      dropped = std::move(oldest->second.session);
      detached_.erase(oldest);
      tally(&Counters::expired, sessions_expired_metric());
    }
  }
  if (dropped) record_session_end(*dropped, now_ns);
  return true;
}

SessionManager::ResumeResult SessionManager::resume(std::uint64_t token,
                                                    std::uint64_t now_ns) {
  ResumeResult result;
  {
    runtime::MutexLock guard(mutex_);
    const auto it = detached_.find(token);
    if (it == detached_.end()) {
      result.status = ResumeStatus::kUnknown;
      ++counters_.resume_rejected;
      return result;
    }
    if (it->second.session->batch_in_flight()) {
      // The dispatched batch is still appending to the replay window; a
      // resume now would compute a stale next_step. Retryable.
      result.status = ResumeStatus::kBusy;
      ++counters_.resume_rejected;
      return result;
    }
    if (sessions_.size() >= limits_.max_sessions) {
      result.status = ResumeStatus::kCapacity;
      ++counters_.resume_rejected;
      return result;
    }
    result.session = std::move(it->second.session);
    detached_.erase(it);
    result.session->touch(now_ns);
    sessions_[token] = result.session;
    result.status = ResumeStatus::kOk;
    tally(&Counters::resumed, sessions_resumed_metric());
  }
  return result;
}

std::size_t SessionManager::expire_detached(std::uint64_t now_ns) {
  std::vector<SessionPtr> dead;
  {
    runtime::MutexLock guard(mutex_);
    for (auto it = detached_.begin(); it != detached_.end();) {
      if (now_ns - it->second.detached_ns > limits_.resume_grace_ns) {
        dead.push_back(std::move(it->second.session));
        it = detached_.erase(it);
        tally(&Counters::expired, sessions_expired_metric());
      } else {
        ++it;
      }
    }
  }
  for (const SessionPtr& session : dead) record_session_end(*session, now_ns);
  return dead.size();
}

std::vector<SessionManager::Evicted> SessionManager::evict_idle(
    std::uint64_t now_ns) {
  std::vector<Evicted> evicted;
  std::vector<SessionPtr> dead;
  {
    runtime::MutexLock guard(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const SessionPtr& session = it->second;
      // Placeholder slots (HELLO mid-construction) are never idle, and
      // neither is a session a pool worker stamped at or after now_ns (the
      // unsigned difference would wrap). Read the stamp once: a worker may
      // move it forward meanwhile.
      const std::uint64_t last_active =
          session ? session->last_active_ns() : now_ns;
      if (last_active < now_ns &&
          now_ns - last_active > limits_.idle_timeout_ns) {
        evicted.push_back(Evicted{.token = session->token(),
                                  .client_id = session->client_id()});
        dead.push_back(session);
        it = sessions_.erase(it);
        tally(&Counters::evicted, sessions_evicted_metric());
      } else {
        ++it;
      }
    }
  }
  for (const SessionPtr& session : dead) record_session_end(*session, now_ns);
  return evicted;
}

std::size_t SessionManager::size() const {
  runtime::MutexLock guard(mutex_);
  return sessions_.size();
}

void SessionManager::tally(std::uint64_t Counters::*field,
                           const telemetry::MetricId& twin) {
  ++(counters_.*field);
  telemetry::add(twin);
}

SessionManager::Counters SessionManager::counters() const {
  runtime::MutexLock guard(mutex_);
  return counters_;
}

}  // namespace safe::serve
