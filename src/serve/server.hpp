// Poll-based streaming session server (DESIGN.md §12).
//
// One event-loop thread owns every socket: it accepts connections, lifts
// frames off non-blocking reads, and flushes bounded outbound queues.
// Pipeline work never runs on the loop — decoded MEASUREMENT frames are
// batched per connection and dispatched onto the shared runtime::ThreadPool,
// with at most one batch in flight per connection so a session's stream is
// processed strictly in order (the serving parity contract). Workers hand
// encoded reply frames back through a shared-ownership completion channel
// that also owns the wake socketpair's write end, so a worker finishing
// after run() returns — even after the StreamServer itself is destroyed —
// never touches server memory or a server-owned fd.
//
// Backpressure, both directions:
//   * inbound — a connection with max_pending_frames decoded-but-unprocessed
//     measurements stops being polled for reads until the backlog halves,
//     so TCP flow control pushes back on the producer;
//   * outbound — a connection whose unsent reply bytes exceed
//     max_outbound_bytes is a slow consumer: its queue is dropped (all but
//     the unsent rest of a partly sent chunk), a STATUS frame with the
//     reason is sent, and the connection closes.
//
// Graceful drain: request_drain() (thread- and signal-safe) stops the
// listener, stops reading, lets every in-flight batch finish, flushes a
// STATUS kDraining to each client, and returns from run() once the last
// connection closes and the last worker task completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/sync.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; see StreamServer::port().
  std::uint64_t master_seed = 1;  ///< Session-token derivation seed.
  SessionLimits session{};
  /// Outbound queue cap per connection; beyond it the peer is a slow
  /// consumer and is disconnected (STATUS kSlowConsumer).
  std::size_t max_outbound_bytes = 256 * 1024;
  /// Decoded-but-unprocessed measurement cap per connection; beyond it the
  /// connection stops being read until the pipeline catches up.
  std::size_t max_pending_frames = 64;
  /// Cadence of the idle-session eviction sweep.
  std::uint64_t idle_check_period_ns = 250'000'000ULL;
  /// How long a drain waits for clients to absorb their final frames before
  /// force-closing. Bounds run()'s exit even against a wedged peer.
  std::uint64_t drain_grace_ns = 5'000'000'000ULL;
  /// Admission control (DESIGN.md §13): a HELLO or RESUME arriving while
  /// this many pipeline batches are in flight is shed with STATUS
  /// kOverloaded instead of queueing behind them. 0 = no admission control.
  std::size_t admission_max_batches = 0;
  /// Per-frame deadline: a connection whose oldest undispatched measurement
  /// has waited longer than this is shed with STATUS kOverloaded (its
  /// session stays resumable). 0 = no deadline.
  std::uint64_t frame_deadline_ns = 0;
};

/// Monotonic totals over the server's lifetime; readable concurrently.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_in = 0;   ///< MEASUREMENT frames decoded
  std::uint64_t frames_out = 0;  ///< frames queued toward clients
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t slow_consumer_disconnects = 0;
  std::uint64_t sessions_resumed = 0;   ///< RESUME frames accepted
  std::uint64_t resume_rejects = 0;     ///< RESUME rejected (any reason)
  std::uint64_t replayed_frames = 0;    ///< frames re-sent from replay buffers
  std::uint64_t shed_hellos = 0;        ///< HELLO/RESUME shed by admission
  std::uint64_t deadline_sheds = 0;     ///< connections shed by frame deadline
  std::uint64_t nodelay_failures = 0;   ///< accepted sockets where TCP_NODELAY
                                        ///< could not be set (expected 0)
};

class StreamServer {
 public:
  /// The pool is shared infrastructure (the caller may size it to the
  /// machine); the server only submits work and never shuts it down.
  StreamServer(ServerOptions options, runtime::ThreadPool& pool);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Binds and listens; throws std::runtime_error on failure. After this
  /// returns, port() is the actual bound port (resolves port 0).
  void bind_and_listen();

  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Runs the event loop until a drain completes. Call from one thread.
  void run();

  /// Initiates graceful drain. Safe from any thread and from a signal
  /// handler (atomic store + self-pipe write only).
  void request_drain() noexcept;

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] SessionManager::Counters session_counters() const {
    return sessions_.counters();
  }
  [[nodiscard]] std::size_t live_sessions() const { return sessions_.size(); }

 private:
  struct PendingMeasurement {
    MeasurementFrame frame;
    std::uint64_t enqueued_ns = 0;  ///< for the per-frame deadline
  };

  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    SessionPtr session;  ///< null until a HELLO/RESUME is accepted
    std::deque<PendingMeasurement> pending;
    bool busy = false;           ///< a batch is on the pool
    bool reading_paused = false;
    bool close_after_flush = false;
    std::deque<std::vector<std::uint8_t>> outbound;
    std::size_t outbound_head = 0;   ///< sent bytes of outbound.front()
    std::size_t outbound_bytes = 0;  ///< unsent total across the deque
  };

  struct Completion {
    std::uint64_t connection_id = 0;
    std::vector<std::uint8_t> bytes;  ///< encoded reply frames, in order
    std::uint64_t frames = 0;
    bool failed = false;  ///< a task-level failure; connection must close
    std::string error;
  };

  /// Worker-to-loop handoff. Held by shared_ptr from the server and from
  /// every in-flight pool task, and owns the wake socketpair's write end, so
  /// a worker that completes after run() returns (or after the server is
  /// destroyed) still has a valid queue and fd to deliver into.
  struct CompletionChannel {
    CompletionChannel() = default;
    ~CompletionChannel();
    CompletionChannel(const CompletionChannel&) = delete;
    CompletionChannel& operator=(const CompletionChannel&) = delete;

    void push(Completion&& done);
    /// Async-signal-safe (send with MSG_NOSIGNAL only).
    void wake() noexcept;

    runtime::Mutex mutex;
    std::vector<Completion> items SAFE_GUARDED_BY(mutex);
    int wake_write_fd = -1;  ///< set once in bind_and_listen(), closed here
  };

  void accept_ready();
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  void pump_frames(Connection& conn);
  void handle_hello(Connection& conn, const Frame& frame);
  void handle_resume(Connection& conn, const Frame& frame);
  void handle_ack(Connection& conn, const Frame& frame);
  void dispatch(Connection& conn);
  void drain_completions();
  /// The one outbound queue: appends `bytes` (`frame_count` encoded
  /// frames), counts them in frames_out and enforces the outbound cap.
  void enqueue_bytes(Connection& conn, std::vector<std::uint8_t> bytes,
                     std::uint64_t frame_count = 1);
  void check_outbound_limit(Connection& conn);
  /// The one goodbye: stops reading, drops undispatched measurements, queues
  /// `last_frame` and closes once it is flushed. A connection that is
  /// already closing keeps its first goodbye.
  void goodbye(Connection& conn, std::vector<std::uint8_t> last_frame);
  /// Goodbye with ERROR `code`; counted as a decode or a protocol error.
  void fail_connection(Connection& conn, ErrorCode code, std::string message,
                       bool count_decode_error);
  /// Load shed: goodbye with STATUS kOverloaded (the session, if any, stays
  /// resumable through the detach-on-close path).
  void shed_connection(Connection& conn, std::string message);
  void enforce_frame_deadlines();
  [[nodiscard]] bool admission_overloaded() const;
  void close_connection(Connection& conn);
  /// Closes every connection `doomed` picks.
  void close_where(bool (*doomed)(const Connection&));
  void begin_drain();
  void evict_idle_sessions();
  /// The one tally: adds `by` to a ServerStats field and to its serve.*
  /// counter, when it has one.
  void tally(std::uint64_t ServerStats::*field,
             const telemetry::MetricId& twin = {}, std::uint64_t by = 1);

  ServerOptions options_;
  runtime::ThreadPool& pool_;
  SessionManager sessions_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::uint64_t next_connection_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  /// Listener polling pauses until this deadline after EMFILE/ENFILE-class
  /// accept failures, so fd exhaustion cannot busy-spin the event loop.
  std::uint64_t accept_backoff_until_ns_ = 0;

  std::shared_ptr<CompletionChannel> channel_ =
      std::make_shared<CompletionChannel>();
  std::atomic<std::size_t> outstanding_batches_{0};

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::uint64_t last_idle_check_ns_ = 0;

  mutable runtime::Mutex stats_mutex_;
  ServerStats stats_ SAFE_GUARDED_BY(stats_mutex_);
};

}  // namespace safe::serve
