#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/net_util.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

// Service-layer observability (DESIGN.md §12). Frame and session counts are
// a pure function of the client workload; everything socket-shaped is not.
const telemetry::MetricId& accepts_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.accepts", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& frames_in_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.frames_in", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& frames_out_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.frames_out", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& decode_errors_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.decode_errors", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& slow_consumer_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.slow_consumer_disconnects",
      telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& outbound_bytes_metric() {
  static const telemetry::MetricId id =
      telemetry::gauge_max("serve.outbound_bytes_max");
  return id;
}

const telemetry::MetricId& pending_frames_metric() {
  static const telemetry::MetricId id =
      telemetry::gauge_max("serve.pending_frames_max");
  return id;
}

const telemetry::MetricId& batch_ns_metric() {
  static const telemetry::MetricId id =
      telemetry::duration_histogram("serve.batch_ns");
  return id;
}

const telemetry::MetricId& resumes_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.resumes", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& resume_rejects_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.resume_rejects", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& replayed_frames_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.replayed_frames", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& shed_hellos_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.shed_hellos", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& deadline_sheds_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "serve.deadline_sheds", telemetry::Stability::kSchedulingDependent);
  return id;
}

/// Every STATUS the server sends: `code` and `message` for `session`'s
/// token, 0 before a session is open.
std::vector<std::uint8_t> status_frame(StatusCode code,
                                       const SessionPtr& session,
                                       std::string message) {
  return encode(StatusFrame{
      .code = code,
      .session_token = session ? session->token() : 0,
      .message = std::move(message),
  });
}

/// How long the listener stays out of the poll set after an accept failure
/// that signals resource exhaustion (EMFILE/ENFILE/...). Without a backoff
/// the still-readable listener would make every poll() return immediately.
constexpr std::uint64_t kAcceptBackoffNs = 100'000'000ULL;

}  // namespace

StreamServer::CompletionChannel::~CompletionChannel() {
  if (wake_write_fd >= 0) ::close(wake_write_fd);
}

void StreamServer::CompletionChannel::push(Completion&& done) {
  {
    runtime::MutexLock guard(mutex);
    items.push_back(std::move(done));
  }
  wake();
}

void StreamServer::CompletionChannel::wake() noexcept {
  if (wake_write_fd >= 0) {
    const char byte = 'w';
    // MSG_NOSIGNAL: no SIGPIPE even if the read end is already closed; a
    // full socket buffer already guarantees a pending wake-up.
    [[maybe_unused]] const ssize_t n =
        ::send(wake_write_fd, &byte, 1, MSG_NOSIGNAL);
  }
}

StreamServer::StreamServer(ServerOptions options, runtime::ThreadPool& pool)
    : options_(std::move(options)),
      pool_(pool),
      sessions_(options_.session, options_.master_seed) {
  // Registered up front so a clean run exports the count as 0 instead of
  // leaving it out.
  (void)decode_errors_metric();
}

StreamServer::~StreamServer() {
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  // channel_ (and the wake write fd it owns) stays alive until the last
  // in-flight worker task drops its reference.
}

void StreamServer::bind_and_listen() {
  if (listen_fd_ >= 0) throw std::runtime_error("server already listening");
  const std::array<int, 2> wake = wake_pair();
  wake_read_fd_ = wake[0];
  channel_->wake_write_fd = wake[1];
  const Listener listener = listen_tcp(options_.bind_address, options_.port);
  listen_fd_ = listener.fd;
  bound_port_ = listener.port;
}

void StreamServer::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  channel_->wake();
}

ServerStats StreamServer::stats() const {
  runtime::MutexLock guard(stats_mutex_);
  return stats_;
}

void StreamServer::tally(std::uint64_t ServerStats::*field,
                         const telemetry::MetricId& twin, std::uint64_t by) {
  telemetry::add(twin, by);
  runtime::MutexLock guard(stats_mutex_);
  stats_.*field += by;
}

void StreamServer::run() {
  if (listen_fd_ < 0) {
    throw std::runtime_error("run() before bind_and_listen()");
  }
  std::uint64_t drain_started_ns = 0;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;

  while (true) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
      drain_started_ns = telemetry::now_ns();
    }
    if (draining_ && connections_.empty() &&
        outstanding_batches_.load(std::memory_order_acquire) == 0) {
      break;
    }
    if (draining_ && drain_started_ns != 0 &&
        telemetry::now_ns() - drain_started_ns > options_.drain_grace_ns) {
      // A peer refusing to read its final frames must not wedge shutdown.
      // No `continue`: the iteration must still reach poll() and
      // drain_completions() below, since in-flight pipeline batches are the
      // only thing that can now be holding run() open and
      // outstanding_batches_ is decremented only in drain_completions().
      close_where([](const Connection&) { return true; });
    }

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back(pollfd{.fd = wake_read_fd_, .events = POLLIN, .revents = 0});
    fd_conn_ids.push_back(0);
    if (!draining_ && telemetry::now_ns() >= accept_backoff_until_ns_) {
      fds.push_back(
          pollfd{.fd = listen_fd_, .events = POLLIN, .revents = 0});
      fd_conn_ids.push_back(0);
    }
    for (const auto& [id, conn] : connections_) {
      short events = 0;
      if (!conn->reading_paused && !conn->close_after_flush) events |= POLLIN;
      if (conn->outbound_bytes > 0) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{.fd = conn->fd, .events = events, .revents = 0});
      fd_conn_ids.push_back(id);
    }

    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("poll() failed: " +
                               errno_string(errno));
    }

    for (std::size_t i = 0; i < fds.size() && ready > 0; ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      if (p.fd == wake_read_fd_) {
        char sink[64];
        while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (p.fd == listen_fd_ && !draining_) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(fd_conn_ids[i]);
      if (it == connections_.end()) continue;  // closed earlier this pass
      Connection& conn = *it->second;
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (p.revents & POLLIN) == 0) {
        close_connection(conn);
        continue;
      }
      if ((p.revents & POLLOUT) != 0) write_ready(conn);
      if (connections_.find(fd_conn_ids[i]) == connections_.end()) continue;
      if ((p.revents & POLLIN) != 0) read_ready(conn);
    }

    drain_completions();
    enforce_frame_deadlines();
    evict_idle_sessions();

    // Reap connections whose goodbye is fully flushed and whose pipeline
    // work has finished.
    close_where([](const Connection& conn) {
      return conn.close_after_flush && conn.outbound_bytes == 0 &&
             !conn.busy && conn.pending.empty();
    });
  }
}

void StreamServer::close_where(bool (*doomed)(const Connection&)) {
  // Ids first: closing a connection erases it from connections_.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, conn] : connections_) {
    if (doomed(*conn)) ids.push_back(id);
  }
  for (const std::uint64_t id : ids) close_connection(*connections_.at(id));
}

void StreamServer::begin_drain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  telemetry::instant_event("serve.drain", "serve");
  for (auto& [id, conn] : connections_) {
    goodbye(*conn, status_frame(StatusCode::kDraining, conn->session,
                                "server draining"));
  }
}

void StreamServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds/buffers: the listener stays readable, so stop polling
        // it for a tick instead of letting poll() spin at 100% CPU.
        accept_backoff_until_ns_ = telemetry::now_ns() + kAcceptBackoffNs;
        return;
      }
      return;  // other transient accept failures are not fatal to the loop
    }
    const bool nodelay_ok = set_tcp_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->id = next_connection_id_++;
    conn->fd = fd;
    const std::uint64_t id = conn->id;
    connections_.emplace(id, std::move(conn));
    tally(&ServerStats::accepted, accepts_metric());
    if (!nodelay_ok) tally(&ServerStats::nodelay_failures);
  }
}

void StreamServer::read_ready(Connection& conn) {
  std::uint8_t buffer[16384];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      tally(&ServerStats::bytes_in, {}, static_cast<std::uint64_t>(n));
      conn.decoder.feed(buffer, static_cast<std::size_t>(n));
      pump_frames(conn);
      if (connections_.find(conn.id) == connections_.end()) return;
      if (conn.reading_paused || conn.close_after_flush) return;
      continue;
    }
    if (n == 0) {  // peer closed; nothing left to deliver to it
      close_connection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_connection(conn);
    return;
  }
}

void StreamServer::pump_frames(Connection& conn) {
  while (true) {
    std::optional<Frame> frame = conn.decoder.next();
    if (!frame.has_value()) break;
    switch (frame->type) {
      case FrameType::kHello:
        handle_hello(conn, *frame);
        break;
      case FrameType::kResume:
        handle_resume(conn, *frame);
        break;
      case FrameType::kAck:
        handle_ack(conn, *frame);
        break;
      case FrameType::kMeasurement: {
        if (!conn.session) {
          fail_connection(conn, ErrorCode::kProtocolOrder,
                          "MEASUREMENT before HELLO", false);
          return;
        }
        MeasurementFrame m;
        std::string error;
        if (!decode(*frame, m, &error)) {
          fail_connection(conn, ErrorCode::kMalformedFrame, error, true);
          return;
        }
        conn.pending.push_back(PendingMeasurement{
            .frame = m, .enqueued_ns = telemetry::now_ns()});
        tally(&ServerStats::frames_in, frames_in_metric());
        telemetry::gauge_update_max(pending_frames_metric(),
                                    static_cast<double>(conn.pending.size()));
        break;
      }
      default:
        fail_connection(conn, ErrorCode::kProtocolOrder,
                        std::string("client sent server-only frame ") +
                            to_string(frame->type),
                        false);
        return;
    }
    if (conn.close_after_flush) return;
  }
  if (conn.decoder.failed()) {
    fail_connection(conn, ErrorCode::kMalformedFrame, conn.decoder.error(),
                    true);
    return;
  }
  if (!conn.pending.empty() && !conn.busy) dispatch(conn);
  if (conn.pending.size() >= options_.max_pending_frames) {
    conn.reading_paused = true;
  }
}

bool StreamServer::admission_overloaded() const {
  return options_.admission_max_batches > 0 &&
         outstanding_batches_.load(std::memory_order_acquire) >=
             options_.admission_max_batches;
}

void StreamServer::shed_connection(Connection& conn, std::string message) {
  goodbye(conn, status_frame(StatusCode::kOverloaded, conn.session,
                             std::move(message)));
}

void StreamServer::handle_hello(Connection& conn, const Frame& frame) {
  if (conn.session) {
    fail_connection(conn, ErrorCode::kProtocolOrder, "duplicate HELLO", false);
    return;
  }
  HelloFrame hello;
  std::string error;
  if (!decode(frame, hello, &error)) {
    fail_connection(conn, ErrorCode::kMalformedFrame, error, true);
    return;
  }
  if (admission_overloaded()) {
    tally(&ServerStats::shed_hellos, shed_hellos_metric());
    shed_connection(conn, "admission control: " +
                              std::to_string(outstanding_batches_.load(
                                  std::memory_order_acquire)) +
                              " batches in flight; retry after backoff");
    return;
  }
  SessionManager::OpenResult result =
      sessions_.open(hello, telemetry::now_ns());
  if (!result.session) {
    fail_connection(conn, result.error_code, result.error, false);
    return;
  }
  conn.session = std::move(result.session);
  enqueue_bytes(conn, status_frame(StatusCode::kHelloOk, conn.session,
                                   "session open"));
}

void StreamServer::handle_resume(Connection& conn, const Frame& frame) {
  if (conn.session) {
    fail_connection(conn, ErrorCode::kProtocolOrder,
                    "RESUME on a connection with an open session", false);
    return;
  }
  ResumeFrame resume;
  std::string error;
  if (!decode(frame, resume, &error)) {
    fail_connection(conn, ErrorCode::kMalformedFrame, error, true);
    return;
  }
  const auto reject = [this] {
    tally(&ServerStats::resume_rejects, resume_rejects_metric());
  };
  if (admission_overloaded()) {
    reject();
    tally(&ServerStats::shed_hellos, shed_hellos_metric());
    shed_connection(conn, "admission control: resume shed; retry after "
                          "backoff");
    return;
  }
  // A RESUME can race the server noticing the old connection's death (the
  // chaos proxy cuts both sides, but poll order is arbitrary). The token is
  // proof of ownership, so the resume takes over: force-close the stale
  // connection, which detaches the session for the resume below.
  std::uint64_t stale_id = 0;
  for (const auto& [id, other] : connections_) {
    if (id != conn.id && other->session &&
        other->session->token() == resume.session_token) {
      stale_id = id;
      break;
    }
  }
  if (stale_id != 0) {
    const auto it = connections_.find(stale_id);
    if (it != connections_.end()) close_connection(*it->second);
  }
  const std::uint64_t now = telemetry::now_ns();
  SessionManager::ResumeResult result = sessions_.resume(resume.session_token,
                                                         now);
  switch (result.status) {
    case SessionManager::ResumeStatus::kUnknown:
      reject();
      fail_connection(conn, ErrorCode::kResumeUnknown,
                      "unknown, expired, or finished session token", false);
      return;
    case SessionManager::ResumeStatus::kBusy:
      reject();
      shed_connection(conn, "session batch still in flight; retry after "
                            "backoff");
      return;
    case SessionManager::ResumeStatus::kCapacity:
      reject();
      shed_connection(conn, "live session cap reached; retry after backoff");
      return;
    case SessionManager::ResumeStatus::kOk:
      break;
  }
  const std::int64_t last_processed = result.session->last_processed_step();
  if (resume.last_step > last_processed) {
    // The client claims frames this session never produced.
    reject();
    sessions_.close(resume.session_token, now);
    fail_connection(conn, ErrorCode::kProtocolOrder,
                    "RESUME last_step " + std::to_string(resume.last_step) +
                        " is beyond the session's last processed step " +
                        std::to_string(last_processed),
                    false);
    return;
  }
  Session::Replay replay = result.session->collect_replay(resume.last_step);
  if (replay.gap) {
    reject();
    sessions_.close(resume.session_token, now);
    fail_connection(conn, ErrorCode::kResumeGap,
                    "replay window no longer reaches back to step " +
                        std::to_string(resume.last_step) +
                        "; restart the session",
                    false);
    return;
  }
  conn.session = std::move(result.session);
  enqueue_bytes(conn, encode(ResumeOkFrame{
                          .session_token = resume.session_token,
                          .next_step = last_processed + 1,
                          .replayed_frames = replay.frames,
                      }));
  if (!replay.bytes.empty()) {
    enqueue_bytes(conn, std::move(replay.bytes), replay.frames);
    tally(&ServerStats::replayed_frames, replayed_frames_metric(),
          replay.frames);
  }
  tally(&ServerStats::sessions_resumed, resumes_metric());
  telemetry::instant_event("serve.session_resume", "serve");
}

void StreamServer::handle_ack(Connection& conn, const Frame& frame) {
  if (!conn.session) {
    fail_connection(conn, ErrorCode::kProtocolOrder, "ACK before HELLO",
                    false);
    return;
  }
  AckFrame ack;
  std::string error;
  if (!decode(frame, ack, &error)) {
    fail_connection(conn, ErrorCode::kMalformedFrame, error, true);
    return;
  }
  conn.session->ack(ack.last_step);
}

void StreamServer::enforce_frame_deadlines() {
  if (options_.frame_deadline_ns == 0) return;
  const std::uint64_t now = telemetry::now_ns();
  for (auto& [id, conn] : connections_) {
    if (conn->close_after_flush || conn->pending.empty() ||
        now - conn->pending.front().enqueued_ns <=
            options_.frame_deadline_ns) {
      continue;
    }
    tally(&ServerStats::deadline_sheds, deadline_sheds_metric());
    shed_connection(*conn,
                    "frame deadline exceeded; shedding load — resume after "
                    "backoff");
  }
}

void StreamServer::dispatch(Connection& conn) {
  std::vector<MeasurementFrame> batch;
  batch.reserve(conn.pending.size());
  for (const PendingMeasurement& p : conn.pending) batch.push_back(p.frame);
  conn.pending.clear();
  conn.busy = true;
  outstanding_batches_.fetch_add(1, std::memory_order_acq_rel);

  SessionPtr session = conn.session;
  session->batch_begin();
  const std::uint64_t conn_id = conn.id;
  // The task captures the channel by shared_ptr, never `this`: a worker
  // finishing after run() returns (and even after the server is destroyed)
  // must not touch server memory.
  pool_.submit([channel = channel_, session = std::move(session), conn_id,
                batch = std::move(batch)]() mutable {
    Completion done;
    done.connection_id = conn_id;
    try {
      telemetry::ScopedTimer span("serve.session", "serve", batch_ns_metric(),
                                  telemetry::TraceDetail::kFine);
      span.arg("frames", static_cast<std::int64_t>(batch.size()));
      span.arg("token",
               static_cast<std::int64_t>(session->token() & 0x7fffffff));
      for (const MeasurementFrame& m : batch) {
        const Session::StepOutput out =
            session->process(m, telemetry::now_ns());
        std::vector<std::uint8_t> step_bytes = encode(out.estimate);
        std::uint64_t step_frames = 1;
        if (out.challenge.has_value()) {
          const std::vector<std::uint8_t> challenge = encode(*out.challenge);
          step_bytes.insert(step_bytes.end(), challenge.begin(),
                            challenge.end());
          ++step_frames;
        }
        done.bytes.insert(done.bytes.end(), step_bytes.begin(),
                          step_bytes.end());
        done.frames += step_frames;
        // Retain for replay-on-resume before the bytes are handed to the
        // loop, so a resume can never observe a processed step with no
        // retained output.
        session->record_step_output(m.step, std::move(step_bytes),
                                    step_frames);
      }
    } catch (const std::exception& e) {
      done.failed = true;
      done.error = e.what();
    } catch (...) {
      done.failed = true;
      done.error = "unknown pipeline failure";
    }
    session->batch_end();
    channel->push(std::move(done));
  });
}

void StreamServer::drain_completions() {
  std::vector<Completion> done;
  {
    runtime::MutexLock guard(channel_->mutex);
    done.swap(channel_->items);
  }
  for (Completion& completion : done) {
    outstanding_batches_.fetch_sub(1, std::memory_order_acq_rel);
    const auto it = connections_.find(completion.connection_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    Connection& conn = *it->second;
    conn.busy = false;
    if (completion.failed) {
      fail_connection(conn, ErrorCode::kInternal, completion.error, false);
      continue;
    }
    if (!conn.close_after_flush) {
      if (!completion.bytes.empty()) {
        enqueue_bytes(conn, std::move(completion.bytes), completion.frames);
        if (conn.close_after_flush) continue;  // became a slow consumer
      }
      write_ready(conn);  // opportunistic flush without waiting for poll
      if (connections_.find(completion.connection_id) ==
          connections_.end()) {
        continue;
      }
    }
    if (!conn.pending.empty() && !conn.busy) dispatch(conn);
    if (conn.reading_paused && !conn.close_after_flush &&
        conn.pending.size() < options_.max_pending_frames / 2) {
      conn.reading_paused = false;
    }
  }
}

void StreamServer::enqueue_bytes(Connection& conn,
                                 std::vector<std::uint8_t> bytes,
                                 std::uint64_t frame_count) {
  conn.outbound_bytes += bytes.size();
  conn.outbound.push_back(std::move(bytes));
  tally(&ServerStats::frames_out, frames_out_metric(), frame_count);
  telemetry::gauge_update_max(outbound_bytes_metric(),
                              static_cast<double>(conn.outbound_bytes));
  check_outbound_limit(conn);
}

void StreamServer::check_outbound_limit(Connection& conn) {
  if (conn.outbound_bytes <= options_.max_outbound_bytes ||
      conn.close_after_flush) {
    return;
  }
  // Slow consumer: drop the queue it is not absorbing, send one STATUS and
  // disconnect. A partly sent front chunk keeps its unsent rest (chunks
  // hold whole frames), so the STATUS still starts on a frame boundary.
  // That STATUS is no reply, so frames_out leaves it out.
  conn.outbound.resize(conn.outbound_head > 0 ? 1 : 0);
  conn.outbound_bytes =
      conn.outbound.empty() ? 0
                            : conn.outbound.front().size() - conn.outbound_head;
  conn.outbound.push_back(status_frame(
      StatusCode::kSlowConsumer, conn.session,
      "outbound queue exceeded " +
          std::to_string(options_.max_outbound_bytes) + " bytes"));
  conn.outbound_bytes += conn.outbound.back().size();
  conn.reading_paused = true;
  conn.pending.clear();
  conn.close_after_flush = true;
  tally(&ServerStats::slow_consumer_disconnects, slow_consumer_metric());
}

void StreamServer::fail_connection(Connection& conn, ErrorCode code,
                                   std::string message,
                                   bool count_decode_error) {
  if (count_decode_error) {
    tally(&ServerStats::decode_errors, decode_errors_metric());
  } else {
    tally(&ServerStats::protocol_errors);
  }
  goodbye(conn,
          encode(ErrorFrame{.code = code, .message = std::move(message)}));
}

void StreamServer::goodbye(Connection& conn,
                           std::vector<std::uint8_t> last_frame) {
  conn.reading_paused = true;
  // Decoded-but-undispatched measurements would only produce replies the
  // close_after_flush path discards; drop them so a closing connection
  // (a drain above all) does not burn worker time.
  conn.pending.clear();
  if (conn.close_after_flush) return;  // the first goodbye stands
  enqueue_bytes(conn, std::move(last_frame));
  conn.close_after_flush = true;
}

void StreamServer::write_ready(Connection& conn) {
  while (!conn.outbound.empty()) {
    const std::vector<std::uint8_t>& chunk = conn.outbound.front();
    const std::size_t remaining = chunk.size() - conn.outbound_head;
    const ssize_t n = ::send(conn.fd, chunk.data() + conn.outbound_head,
                             remaining, MSG_NOSIGNAL);
    if (n > 0) {
      tally(&ServerStats::bytes_out, {}, static_cast<std::uint64_t>(n));
      conn.outbound_head += static_cast<std::size_t>(n);
      conn.outbound_bytes -= static_cast<std::size_t>(n);
      if (conn.outbound_head == chunk.size()) {
        conn.outbound.pop_front();
        conn.outbound_head = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    close_connection(conn);
    return;
  }
}

void StreamServer::close_connection(Connection& conn) {
  if (conn.session) {
    const std::uint64_t now = telemetry::now_ns();
    const bool finished =
        conn.session->frames_processed() >=
        static_cast<std::uint64_t>(conn.session->spec().horizon_steps);
    // "Finished" means the pipeline ran every step — not that the client
    // received every estimate. The connection may have died with the tail
    // of the stream undelivered, so a finished session is only destroyed
    // once the client has ACKed its final step; otherwise it detaches like
    // a mid-stream disconnect and stays resumable for the replay.
    const bool delivered =
        finished && conn.session->acked_through() + 1 >=
                        conn.session->spec().horizon_steps;
    // detach() is a no-op for tokens the manager already dropped (idle
    // eviction), so this never revives an evicted session.
    if (draining_ || delivered ||
        !sessions_.detach(conn.session->token(), now)) {
      sessions_.close(conn.session->token(), now);
    }
  }
  if (conn.fd >= 0) ::close(conn.fd);
  tally(&ServerStats::closed);
  connections_.erase(conn.id);  // invalidates conn
}

void StreamServer::evict_idle_sessions() {
  const std::uint64_t now = telemetry::now_ns();
  if (now - last_idle_check_ns_ < options_.idle_check_period_ns) return;
  last_idle_check_ns_ = now;
  sessions_.expire_detached(now);
  for (const SessionManager::Evicted& gone : sessions_.evict_idle(now)) {
    for (auto& [id, conn] : connections_) {
      if (conn->session && conn->session->token() == gone.token) {
        goodbye(*conn, status_frame(StatusCode::kIdleTimeout, conn->session,
                                    "session evicted after idle timeout"));
        break;
      }
    }
  }
}

}  // namespace safe::serve
