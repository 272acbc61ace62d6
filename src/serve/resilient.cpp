#include "serve/resilient.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <span>
#include <thread>

#include "runtime/seed.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

/// Backoff growth per retry.
constexpr double kBackoffMultiplier = 2.0;

/// How one connection attempt ended short of a complete stream.
struct Cut {
  StreamFailure failure = StreamFailure::kNone;  ///< kNone: carry on
  std::string detail;
  bool retry = false;  ///< the policy may reconnect and try again
};

std::uint64_t remaining_ns(std::uint64_t deadline_abs) {
  const std::uint64_t now = telemetry::now_ns();
  return now >= deadline_abs ? 0 : deadline_abs - now;
}

/// A link that failed while a reply was awaited: retryable unless the
/// deadline is what ended it.
Cut link_cut(std::string detail, std::uint64_t deadline_abs) {
  if (remaining_ns(deadline_abs) == 0) {
    return {.failure = StreamFailure::kDeadline, .detail = std::move(detail)};
  }
  return {.failure = StreamFailure::kTransport,
          .detail = std::move(detail),
          .retry = true};
}

/// A STATUS that ended a handshake or a stream. kOverloaded is a shed to
/// back off from and draining is final; any other (slow consumer, idle
/// timeout) cut the connection, but the session may still be resumed.
Cut status_cut(const StatusFrame& status) {
  if (status.code == StatusCode::kOverloaded) {
    return {.failure = StreamFailure::kOverloaded,
            .detail = "shed: " + status.message,
            .retry = true};
  }
  return {.failure = StreamFailure::kServerStatus,
          .detail = std::string(to_string(status.code)) + ": " + status.message,
          .retry = status.code != StatusCode::kDraining};
}

/// RESUME(token, last step held) on a connected client. On RESUME_OK it
/// returns no failure and sets `next_step` to the server's next expected
/// step; kResumeUnknown / kResumeGap come back as a retryable
/// kResumeRejected, which the caller turns into a restart.
Cut send_resume(SessionClient& client, ResilientResult& r,
                std::uint64_t deadline_abs, std::int64_t& next_step) {
  std::optional<Frame> reply;
  try {
    client.send_raw(encode(ResumeFrame{
        .session_token = r.session_token,
        .last_step = r.estimates.empty() ? -1 : r.estimates.back().step}));
    reply = client.recv_frame(remaining_ns(deadline_abs));
  } catch (const std::exception& e) {
    return link_cut(e.what(), deadline_abs);
  }
  if (!reply.has_value()) return link_cut(client.reason(), deadline_abs);
  std::string error;
  switch (reply->type) {
    case FrameType::kResumeOk: {
      ResumeOkFrame ok;
      if (!decode(*reply, ok, &error)) {
        return link_cut("bad RESUME_OK: " + error, deadline_abs);
      }
      ++r.resumes;
      r.replayed_frames += ok.replayed_frames;
      next_step = ok.next_step;
      return {};
    }
    case FrameType::kStatus: {
      StatusFrame status;
      if (!decode(*reply, status, &error)) {
        return link_cut("bad STATUS reply: " + error, deadline_abs);
      }
      return status_cut(status);
    }
    case FrameType::kError: {
      ErrorFrame err;
      if (!decode(*reply, err, &error)) {
        return link_cut("bad ERROR reply: " + error, deadline_abs);
      }
      return {.failure = StreamFailure::kResumeRejected,
              .detail = std::string(to_string(err.code)) + ": " + err.message,
              .retry = err.code == ErrorCode::kResumeUnknown ||
                       err.code == ErrorCode::kResumeGap};
    }
    default:
      return link_cut(std::string("unexpected handshake reply ") +
                          to_string(reply->type),
                      deadline_abs);
  }
}

/// HELLO for a fresh session; on admission it stores the session token and
/// returns no failure.
Cut send_hello(SessionClient& client, const HelloFrame& hello,
               ResilientResult& r, std::uint64_t deadline_abs) {
  const SessionClient::OpenReply reply =
      client.open_session(hello, remaining_ns(deadline_abs));
  if (reply.ok) {
    r.session_token = reply.status.session_token;
    return {};
  }
  if (reply.has_error) {
    return {.failure = StreamFailure::kHandshake,
            .detail = std::string(to_string(reply.error.code)) + ": " +
                      reply.error.message};
  }
  if (!reply.transport_error.empty()) {
    return link_cut(reply.transport_error, deadline_abs);
  }
  return status_cut(reply.status);
}

/// How a stream that did not complete ended, as the policy sees it.
Cut stream_cut(const SessionClient::StreamResult& stream) {
  switch (stream.end) {
    case StreamEnd::kComplete:
      break;
    case StreamEnd::kDeadline:
      return {.failure = StreamFailure::kDeadline, .detail = stream.detail};
    case StreamEnd::kTransport:
      return {.failure = StreamFailure::kTransport,
              .detail = stream.detail,
              .retry = true};
    case StreamEnd::kStatus:
      return status_cut(*stream.status);
    case StreamEnd::kError:
      return {.failure = StreamFailure::kServerError, .detail = stream.detail};
    case StreamEnd::kProtocol:
      return {.failure = StreamFailure::kTransport, .detail = stream.detail};
  }
  return {};
}

template <class T>
void append(std::vector<T>& into, std::vector<T>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

}  // namespace

const char* to_string(StreamFailure failure) {
  switch (failure) {
    case StreamFailure::kNone: return "none";
    case StreamFailure::kConnect: return "connect";
    case StreamFailure::kHandshake: return "handshake";
    case StreamFailure::kResumeRejected: return "resume-rejected";
    case StreamFailure::kDeadline: return "deadline";
    case StreamFailure::kServerStatus: return "server-status";
    case StreamFailure::kServerError: return "server-error";
    case StreamFailure::kTransport: return "transport";
    case StreamFailure::kAttemptsExhausted: return "attempts-exhausted";
    case StreamFailure::kOverloaded: return "overloaded";
  }
  return "?";
}

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 RetryPolicy policy)
    : host_(std::move(host)), port_(port), policy_(policy) {}

ResilientResult ResilientClient::run(const TraceSpec& spec,
                                     const std::string& client_id,
                                     const std::vector<MeasurementFrame>& trace,
                                     std::uint64_t deadline_ns) {
  ResilientResult r;
  const std::uint64_t deadline_abs = telemetry::now_ns() + deadline_ns;
  runtime::SplitMix64 jitter_rng(runtime::derive_seed(
      policy_.jitter_seed, runtime::SeedStream::kRetry, 0));
  const std::size_t max_attempts =
      std::max<std::size_t>(policy_.max_attempts, 1);
  std::uint64_t backoff = policy_.initial_backoff_ns;
  Cut cut;

  for (std::size_t attempts = 0; r.estimates.size() < trace.size();
       ++attempts) {
    if (attempts > 0) {
      if (!cut.retry) break;
      if (attempts == max_attempts) {
        if (attempts > 1) {
          cut.detail = "retry budget spent after " + std::to_string(attempts) +
                       " attempts (last: " + to_string(cut.failure) +
                       (cut.detail.empty() ? "" : ", " + cut.detail) + ")";
          cut.failure = StreamFailure::kAttemptsExhausted;
        }
        break;
      }
      if (cut.failure == StreamFailure::kOverloaded) ++r.overload_backoffs;
      const std::uint64_t jitter = static_cast<std::uint64_t>(
          runtime::uniform_double(jitter_rng) * static_cast<double>(backoff) *
          0.5);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min(backoff + jitter, remaining_ns(deadline_abs))));
      backoff = std::min(static_cast<std::uint64_t>(
                             static_cast<double>(backoff) * kBackoffMultiplier),
                         policy_.max_backoff_ns);
    }
    if (remaining_ns(deadline_abs) == 0) {
      if (cut.failure == StreamFailure::kNone) cut.detail = "deadline expired";
      cut.failure = StreamFailure::kDeadline;
      break;
    }

    SessionClient client;
    try {
      client.connect(host_, port_);
    } catch (const std::exception& e) {
      cut = {.failure = StreamFailure::kConnect,
             .detail = e.what(),
             .retry = true};
      continue;
    }
    ++r.connects;
    if (r.connects > 1) ++r.reconnects;

    std::optional<std::int64_t> next_step;
    if (r.session_token == 0) {
      cut = send_hello(client, hello_from(spec, client_id), r, deadline_abs);
    } else {
      std::int64_t resumed_at = 0;
      cut = send_resume(client, r, deadline_abs, resumed_at);
      if (cut.failure == StreamFailure::kNone) {
        next_step = resumed_at;
      } else if (cut.failure == StreamFailure::kResumeRejected && cut.retry) {
        // The server lost the session: restart it from scratch.
        ++r.restarts;
        r.session_token = 0;
        r.estimates.clear();
        r.estimate_frames.clear();
        r.challenges.clear();
        r.latencies_ns.clear();
      }
    }
    if (cut.failure != StreamFailure::kNone) continue;

    SessionClient::StreamResult stream = client.stream(
        std::span(trace).subspan(r.estimates.size()),
        remaining_ns(deadline_abs), next_step);
    if (!stream.estimates.empty()) backoff = policy_.initial_backoff_ns;
    append(r.estimates, std::move(stream.estimates));
    append(r.estimate_frames, std::move(stream.estimate_frames));
    append(r.challenges, std::move(stream.challenges));
    append(r.latencies_ns, std::move(stream.latencies_ns));
    r.duplicates_discarded += stream.duplicates;
    cut = stream_cut(stream);
    if (stream.complete) {
      // Final ACK releases the server's replay buffer, so a fully delivered
      // session is destroyed on close instead of lingering in the resumable
      // cache for the grace window. Best-effort: losing it only delays the
      // server-side cleanup.
      try {
        client.send_raw(encode(AckFrame{.last_step = trace.back().step}));
      } catch (...) {
      }
    }
  }

  r.complete = r.estimates.size() == trace.size();
  if (!r.complete) {
    r.failure = cut.failure;
    r.failure_detail = std::move(cut.detail);
  }
  return r;
}

}  // namespace safe::serve
