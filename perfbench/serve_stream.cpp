// Workload serve_stream: an in-process StreamServer on loopback, driven by the
// benchmark's own load generator. The server does no DSP, so this isolates
// the reactor, the wire code and the hand-off to the pool. Two phases: an
// open-loop phase at one fixed offered rate, each frame timed from when it
// was due (mostly one frame per batch), then an unpaced burst with a window
// of frames in flight per connection (full batches under backpressure).
//
// Measurement traces are synthesized and replayed offline before the timed
// window; every ESTIMATE that arrives is byte-compared with the offline
// reference. The process runs at most nproc threads: the generator (this
// thread), the reactor and nproc - 2 pool workers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "chain.hpp"
#include "runtime/seed.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/trace_source.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace core = safe::core;
namespace serve = safe::serve;

namespace {

constexpr std::int64_t kHorizon = 300;   // steps per session (the paper's)
constexpr std::size_t kTraces = 24;      // distinct session traces
constexpr std::size_t kLanes = 8;        // concurrent connections
constexpr double kPacedRate = 20000.0;   // offered frames/s, paced phase
constexpr std::size_t kBurstWindow = 128;  // frames in flight per connection
constexpr std::uint64_t kBurstBlock = 50000;  // frames per timed burst block

/// One session's input and expected output, prepared before the window.
struct TraceData {
  serve::TraceSpec spec;
  std::vector<std::uint8_t> hello;
  std::vector<std::uint8_t> frames;  ///< encoded MEASUREMENT frames, back to back
  std::vector<std::size_t> offsets;  ///< frame k = [offsets[k], offsets[k + 1])
  std::vector<std::vector<std::uint8_t>> expected;  ///< ESTIMATE payload per step
  std::vector<serve::MeasurementFrame> measurements;
};

serve::TraceSpec trace_spec(std::uint64_t seed, std::size_t i, bool quick) {
  static const char* const kDetectors[] = {"", "chi2", "ar",
                                           "fusion:members=cra+chi2,quorum=1"};
  serve::TraceSpec spec;
  spec.leader = i % 2 == 0 ? core::LeaderScenario::kConstantDecel
                           : core::LeaderScenario::kDecelThenAccel;
  spec.attack = i % 3 == 0   ? core::AttackKind::kNone
                : i % 3 == 1 ? core::AttackKind::kDosJammer
                             : core::AttackKind::kDelayInjection;
  spec.detector_spec = kDetectors[i % 4];
  spec.seed = safe::runtime::derive_seed(seed, safe::runtime::SeedStream::kScenario, i);
  spec.horizon_steps = quick ? 60 : kHorizon;
  if (quick) spec.attack_start_s = safe::units::Seconds{30.0};
  return spec;
}

TraceData make_trace(const serve::TraceSpec& spec) {
  TraceData t;
  t.spec = spec;
  t.hello = serve::encode(serve::hello_from(spec, "perfbench"));
  t.measurements = serve::make_measurement_trace(spec);
  t.offsets.push_back(0);
  for (const serve::MeasurementFrame& m : t.measurements) {
    const std::vector<std::uint8_t> bytes = serve::encode(m);
    t.frames.insert(t.frames.end(), bytes.begin(), bytes.end());
    t.offsets.push_back(t.frames.size());
  }
  for (const serve::EstimateFrame& e : serve::run_offline(spec, t.measurements)) {
    const std::vector<std::uint8_t> bytes = serve::encode(e);
    t.expected.emplace_back(bytes.begin() + serve::kHeaderBytes, bytes.end());
  }
  return t;
}

/// Builds every trace on up to `threads` threads (joined before returning).
std::vector<TraceData> make_traces(std::uint64_t seed, unsigned threads, bool quick) {
  std::vector<TraceData> traces(kTraces);
  std::vector<std::exception_ptr> errors(kTraces);
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, std::min<unsigned>(threads, kTraces));
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w; i < kTraces; i += n) {
        try {
          traces[i] = make_trace(trace_spec(seed, i, quick));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return traces;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect() failed: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// A server instance with its reactor thread; stops and joins on destruction.
class Server {
 public:
  explicit Server(std::size_t workers)
      : pool_(workers), server_(serve::ServerOptions{}, pool_) {
    server_.bind_and_listen();
    reactor_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~Server() {
    server_.request_drain();
    reactor_.join();
    pool_.shutdown();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] serve::ServerStats stats() const { return server_.stats(); }
  [[nodiscard]] serve::SessionManager::Counters sessions() const {
    return server_.session_counters();
  }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  safe::runtime::ThreadPool pool_;
  serve::StreamServer server_;
  std::string error_;
  std::thread reactor_;  // last: joined before the members it uses go away
};

/// Blocks until the server answers a HELLO; true on STATUS kHelloOk.
bool await_hello_ok(int fd) {
  serve::FrameDecoder decoder;
  std::uint8_t buf[4096];
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (now_ns() < deadline) {
    pollfd p{.fd = fd, .events = POLLIN, .revents = 0};
    ::poll(&p, 1, 100);
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return false;
    if (n < 0) continue;
    decoder.feed(buf, static_cast<std::size_t>(n));
    if (auto frame = decoder.next()) {
      serve::StatusFrame status;
      return frame->type == serve::FrameType::kStatus && serve::decode(*frame, status) &&
             status.code == serve::StatusCode::kHelloOk;
    }
  }
  return false;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{.fd = fd, .events = POLLOUT, .revents = 0};
      ::poll(&p, 1, 100);
    } else {
      throw std::runtime_error("send() failed");
    }
  }
}

/// The system's own set-up — pool, server, listener and reactor, up to the
/// first acknowledged HELLO — as the CPU seconds all threads spend on it.
/// Its wall time is mostly thread wake-ups, which host interference doubles
/// from one run to the next; the CPU it takes is what moving work into
/// set-up would change.
double time_setup(std::size_t workers, const TraceData& trace) {
  const double start = process_cpu_s();
  Server server(workers);
  const int fd = connect_loopback(server.port());
  send_all(fd, trace.hello);
  const bool ok = await_hello_ok(fd);
  const double cpu = process_cpu_s() - start;
  ::close(fd);
  if (!ok) throw std::runtime_error("setup: HELLO not acknowledged");
  return cpu;
}

/// Outcome of one generator phase.
struct Phase {
  std::uint64_t frames_sent = 0;
  std::uint64_t estimates = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_cut = 0;  ///< still streaming when the phase ended
  std::map<std::string, std::uint64_t> failed;  ///< sessions, by kind
  std::uint64_t mismatched_frames = 0;
  std::vector<double> latency_us;   ///< paced: reply time minus due time
  std::vector<double> lateness_us;  ///< paced: send time minus due time
  std::vector<double> block_s;      ///< burst: seconds per kBurstBlock frames
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  double generator_cpu_s = 0.0;

  /// Adds another sub-phase's counts and samples.
  void merge(const Phase& o) {
    frames_sent += o.frames_sent;
    estimates += o.estimates;
    sessions_completed += o.sessions_completed;
    sessions_cut += o.sessions_cut;
    for (const auto& [kind, n] : o.failed) failed[kind] += n;
    mismatched_frames += o.mismatched_frames;
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    lateness_us.insert(lateness_us.end(), o.lateness_us.begin(), o.lateness_us.end());
    block_s.insert(block_s.end(), o.block_s.begin(), o.block_s.end());
    wall_s += o.wall_s;
    process_cpu_s += o.process_cpu_s;
    generator_cpu_s += o.generator_cpu_s;
  }
};

/// The benchmark's own client: kLanes connections, each streaming sessions
/// back to back (one session per connection, as the protocol has it).
class Generator {
 public:
  Generator(const std::vector<TraceData>& traces, std::uint16_t port)
      : traces_(traces), port_(port), lanes_(kLanes) {}

  /// paced_rate > 0: open loop at that many frames/s; 0: unpaced burst.
  Phase run(double seconds, double paced_rate) {
    phase_ = Phase{};
    paced_ = paced_rate > 0.0;
    rate_ = paced_rate;
    const double cpu0 = process_cpu_s();
    const double gen0 = thread_cpu_s();
    start_ns_ = now_ns();
    const std::uint64_t end_ns = start_ns_ + static_cast<std::uint64_t>(seconds * 1e9);
    block_start_ns_ = start_ns_;
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
      lanes_[c].index = c;
      lanes_[c].slot = 0;
    }
    std::vector<pollfd> fds(lanes_.size());
    while (true) {
      const std::uint64_t now = now_ns();
      const bool issuing = now < end_ns;
      bool outstanding = false;
      std::uint64_t next_due = end_ns;
      for (Lane& lane : lanes_) {
        if (issuing && lane.fd < 0) open_session(lane);
        if (lane.fd < 0) continue;
        if (issuing) queue_frames(lane, now, next_due);
        flush(lane);
        if (lane.fd >= 0 && lane.received < lane.sent) outstanding = true;
      }
      if (!issuing && !outstanding) break;
      if (!issuing && now > end_ns + 5'000'000'000ULL) break;  // lost replies
      for (std::size_t c = 0; c < lanes_.size(); ++c) {
        const Lane& lane = lanes_[c];
        fds[c] = pollfd{.fd = lane.fd,
                        .events = static_cast<short>(POLLIN | (lane.out_head < lane.out.size() ? POLLOUT : 0)),
                        .revents = 0};
      }
      timespec timeout{0, 100'000'000};
      if (paced_ && issuing) {
        const std::uint64_t t = now_ns();
        const std::uint64_t wait = next_due > t ? next_due - t : 0;
        timeout = timespec{static_cast<time_t>(wait / 1'000'000'000ULL),
                           static_cast<long>(wait % 1'000'000'000ULL)};
      } else if (!paced_ && issuing) {
        timeout = timespec{0, 10'000'000};
      }
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready <= 0) continue;
      for (std::size_t c = 0; c < lanes_.size(); ++c) {
        if (fds[c].fd >= 0 && (fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          receive(lanes_[c]);
        }
      }
    }
    for (Lane& lane : lanes_) {
      if (lane.fd >= 0) {
        ++phase_.sessions_cut;
        close_lane(lane);
      }
    }
    phase_.wall_s = static_cast<double>(now_ns() - start_ns_) / 1e9;
    phase_.process_cpu_s = process_cpu_s() - cpu0;
    phase_.generator_cpu_s = thread_cpu_s() - gen0;
    return phase_;
  }

 private:
  struct Lane {
    std::size_t index = 0;
    int fd = -1;
    std::size_t trace = 0;
    std::size_t sent = 0;
    std::size_t received = 0;
    std::uint64_t slot = 0;  ///< paced: this lane's frames issued so far
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    std::vector<std::uint64_t> due_ns;
    serve::FrameDecoder decoder;
    bool mismatch = false;
  };

  [[nodiscard]] std::uint64_t due(const Lane& lane) const {
    const double slot = static_cast<double>(lane.slot * lanes_.size() + lane.index);
    return start_ns_ + static_cast<std::uint64_t>(slot * 1e9 / rate_);
  }

  void open_session(Lane& lane) {
    lane.fd = connect_loopback(port_);
    lane.trace = next_trace_++ % traces_.size();
    lane.sent = lane.received = 0;
    lane.out.clear();
    lane.out_head = 0;
    lane.due_ns.clear();
    lane.decoder = serve::FrameDecoder{};
    lane.mismatch = false;
    const TraceData& t = traces_[lane.trace];
    lane.out.insert(lane.out.end(), t.hello.begin(), t.hello.end());
  }

  void queue_frames(Lane& lane, std::uint64_t now, std::uint64_t& next_due) {
    const TraceData& t = traces_[lane.trace];
    const std::size_t horizon = t.measurements.size();
    while (lane.sent < horizon) {
      std::uint64_t due_at = now;
      if (paced_) {
        due_at = due(lane);
        if (due_at > now) {
          next_due = std::min(next_due, due_at);
          break;
        }
        phase_.lateness_us.push_back(static_cast<double>(now - due_at) / 1e3);
        ++lane.slot;
      } else if (lane.sent - lane.received >= kBurstWindow) {
        break;
      }
      lane.out.insert(lane.out.end(), t.frames.begin() + static_cast<std::ptrdiff_t>(t.offsets[lane.sent]),
                      t.frames.begin() + static_cast<std::ptrdiff_t>(t.offsets[lane.sent + 1]));
      lane.due_ns.push_back(due_at);
      ++lane.sent;
      ++phase_.frames_sent;
    }
  }

  void flush(Lane& lane) {
    while (lane.fd >= 0 && lane.out_head < lane.out.size()) {
      const ssize_t n = ::send(lane.fd, lane.out.data() + lane.out_head,
                               lane.out.size() - lane.out_head, MSG_NOSIGNAL);
      if (n > 0) {
        lane.out_head += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return;
      } else {
        end_session(lane, "incomplete");
        return;
      }
    }
    if (lane.out_head == lane.out.size()) {
      lane.out.clear();
      lane.out_head = 0;
    }
  }

  void receive(Lane& lane) {
    std::uint8_t buf[65536];
    while (lane.fd >= 0) {
      const ssize_t n = ::recv(lane.fd, buf, sizeof buf, 0);
      if (n > 0) {
        lane.decoder.feed(buf, static_cast<std::size_t>(n));
        while (lane.fd >= 0) {
          std::optional<serve::Frame> frame = lane.decoder.next();
          if (!frame) break;
          on_frame(lane, *frame);
        }
        if (lane.fd >= 0 && lane.decoder.failed()) end_session(lane, "incomplete");
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
      end_session(lane, "incomplete");  // peer closed before the stream ended
    }
  }

  void on_frame(Lane& lane, const serve::Frame& frame) {
    const TraceData& t = traces_[lane.trace];
    switch (frame.type) {
      case serve::FrameType::kEstimate: {
        const std::size_t k = lane.received++;
        const std::uint64_t now = now_ns();
        if (k >= t.expected.size() || frame.payload != t.expected[k]) {
          lane.mismatch = true;
          ++phase_.mismatched_frames;
        }
        ++phase_.estimates;
        if (paced_) {
          phase_.latency_us.push_back(static_cast<double>(now - lane.due_ns[k]) / 1e3);
        } else if (phase_.estimates % kBurstBlock == 0) {
          phase_.block_s.push_back(static_cast<double>(now - block_start_ns_) / 1e9);
          block_start_ns_ = now;
        }
        if (lane.received == t.measurements.size()) {
          // Acknowledge the last step so the server can retire the session.
          const std::vector<std::uint8_t> ack = serve::encode(
              serve::AckFrame{.last_step = static_cast<std::int64_t>(t.measurements.size()) - 1});
          ::send(lane.fd, ack.data(), ack.size(), MSG_NOSIGNAL);
          end_session(lane, lane.mismatch ? "mismatch" : nullptr);
        }
        break;
      }
      case serve::FrameType::kChallengeResult:
        break;
      case serve::FrameType::kStatus: {
        serve::StatusFrame status;
        if (!serve::decode(frame, status)) {
          end_session(lane, "incomplete");
        } else if (status.code == serve::StatusCode::kIdleTimeout) {
          end_session(lane, "idle_timeout");
        } else if (status.code == serve::StatusCode::kSlowConsumer) {
          end_session(lane, "slow_consumer");
        } else if (status.code == serve::StatusCode::kOverloaded) {
          end_session(lane, "overloaded");
        } else if (status.code != serve::StatusCode::kHelloOk) {
          end_session(lane, "incomplete");
        }
        break;
      }
      case serve::FrameType::kError:
        end_session(lane, "error");
        break;
      default:
        end_session(lane, "incomplete");
        break;
    }
  }

  /// `failure` null: the session completed and matched.
  void end_session(Lane& lane, const char* failure) {
    if (failure == nullptr) {
      ++phase_.sessions_completed;
    } else {
      ++phase_.failed[lane.mismatch ? "mismatch" : failure];
    }
    close_lane(lane);
  }

  void close_lane(Lane& lane) {
    if (lane.fd >= 0) ::close(lane.fd);
    lane.fd = -1;
    lane.out.clear();
    lane.out_head = 0;
  }

  const std::vector<TraceData>& traces_;
  std::uint16_t port_;
  std::vector<Lane> lanes_;
  std::size_t next_trace_ = 0;
  Phase phase_;
  bool paced_ = false;
  double rate_ = 0.0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t block_start_ns_ = 0;
};

const char* const kFailureKinds[] = {"incomplete", "mismatch", "idle_timeout",
                                     "slow_consumer", "overloaded", "error"};

/// Replays wire decode, the session pipeline (run_offline) and wire encode
/// over every trace's frames, with one span per stage and session.
struct Replay {
  double decode_us = 0.0, process_us = 0.0, encode_us = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;
  std::uint64_t estimated = 0, frames = 0, mismatches = 0;
};

Replay replay_wire(const std::vector<TraceData>& traces, SpanRecorder& spans) {
  Replay r;
  double decode_ns = 0.0, process_ns = 0.0, encode_ns = 0.0;
  for (int traced = 1; traced >= 0; --traced) {
    const double start = now_s();
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const TraceData& t = traces[i];
      const std::int64_t session =
          traced ? spans.begin("serve.session", -1, static_cast<std::int64_t>(i)) : -1;
      std::uint64_t t0 = now_ns();
      serve::FrameDecoder decoder;
      decoder.feed(t.frames.data(), t.frames.size());
      std::vector<serve::MeasurementFrame> decoded;
      decoded.reserve(t.measurements.size());
      while (auto frame = decoder.next()) {
        serve::MeasurementFrame m;
        if (!serve::decode(*frame, m)) ++r.mismatches;
        decoded.push_back(m);
      }
      std::uint64_t t1 = now_ns();
      if (traced) spans.add("serve.decode", t0, t1, session, static_cast<std::int64_t>(i));
      const std::vector<serve::EstimateFrame> out = serve::run_offline(t.spec, decoded);
      std::uint64_t t2 = now_ns();
      if (traced) spans.add("serve.process", t1, t2, session, static_cast<std::int64_t>(i));
      std::size_t matched = 0;
      std::vector<std::vector<std::uint8_t>> encoded;
      encoded.reserve(out.size());
      for (const serve::EstimateFrame& e : out) encoded.push_back(serve::encode(e));
      std::uint64_t t3 = now_ns();
      if (traced) {
        spans.add("serve.encode", t2, t3, session, static_cast<std::int64_t>(i));
        spans.end(session);
        decode_ns += static_cast<double>(t1 - t0);
        process_ns += static_cast<double>(t2 - t1);
        encode_ns += static_cast<double>(t3 - t2);
        r.frames += out.size();
        for (std::size_t k = 0; k < out.size(); ++k) {
          if (out[k].safe.estimated) ++r.estimated;
          if (k < t.expected.size() &&
              std::equal(encoded[k].begin() + serve::kHeaderBytes, encoded[k].end(),
                         t.expected[k].begin(), t.expected[k].end())) {
            ++matched;
          }
        }
        r.mismatches += t.expected.size() - matched;
      }
    }
    (traced ? r.traced_s : r.untraced_s) = now_s() - start;
  }
  const double frames = static_cast<double>(std::max<std::uint64_t>(r.frames, 1));
  r.decode_us = decode_ns / 1e3 / frames;
  r.process_us = process_ns / 1e3 / frames;
  r.encode_us = encode_ns / 1e3 / frames;
  return r;
}

}  // namespace

Result run_serve_stream(const RunOptions& opt) {
  Result res;
  const std::size_t workers = opt.nproc > 3 ? opt.nproc - 2 : 1;

  // Inputs first (outside every timed figure): traces, wire frames and the
  // offline reference, on at most nproc threads that are joined here.
  const double gen_start = now_s();
  const std::vector<TraceData> traces = make_traces(opt.seed, opt.nproc, opt.quick);
  const double loadgen_s = now_s() - gen_start;

  // Generator thread: 1 us timer slack so ppoll wakes when a frame is due.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  std::vector<double> setups;
  for (int rep = 0; rep < (opt.quick ? 3 : 301); ++rep) {
    setups.push_back(time_setup(workers, traces[static_cast<std::size_t>(rep) % traces.size()]));
  }

  // Paced and burst sub-phases alternate; each figure is the median over the
  // rounds. Times here are raw: they are set by wake-ups and system calls,
  // which the calibration kernel does not track.
  Server server(workers);
  Generator generator(traces, server.port());
  const int rounds = opt.quick ? 1 : 6;
  const double sub_phase_s = opt.quick ? 0.5 : (opt.trace ? 0.5 : 0.9) * opt.seconds / (2 * rounds);
  Phase paced, burst;  // totals over the rounds
  std::vector<double> p50_us, paced_cpu_us, burst_cpu_us, block_s;
  for (int round = 0; round < rounds; ++round) {
    const Phase p = generator.run(sub_phase_s, kPacedRate);
    const Phase b = generator.run(sub_phase_s, 0.0);
    std::vector<double> latency = p.latency_us;
    std::sort(latency.begin(), latency.end());
    p50_us.push_back(percentile_sorted(latency, 50.0));
    paced_cpu_us.push_back(cpu_us_per_op(p.process_cpu_s, p.generator_cpu_s, p.estimates));
    burst_cpu_us.push_back(cpu_us_per_op(b.process_cpu_s, b.generator_cpu_s, b.estimates));
    block_s.push_back(b.block_s.empty()
                          ? b.wall_s * static_cast<double>(kBurstBlock) /
                                static_cast<double>(std::max<std::uint64_t>(b.estimates, 1))
                          : median(b.block_s));
    paced.merge(p);
    burst.merge(b);
  }
  const serve::ServerStats stats = server.stats();
  const serve::SessionManager::Counters counters = server.sessions();
  if (!server.error().empty()) {
    res.correct = false;
    res.fail("server_error");
    res.note("FAIL server: " + server.error());
  }

  std::map<std::string, std::uint64_t> failed;
  for (const Phase* p : {&paced, &burst}) {
    res.attempted += p->sessions_completed;
    for (const auto& [kind, n] : p->failed) {
      res.attempted += n;
      res.fail(kind, n);
      failed[kind] += n;
    }
    if (p->mismatched_frames > 0) res.correct = false;
  }

  const double paced_cpu = median(paced_cpu_us);
  const double burst_cpu = median(burst_cpu_us);
  const double p50 = median(p50_us);
  std::vector<double> sorted_latency = paced.latency_us;
  std::sort(sorted_latency.begin(), sorted_latency.end());
  const double p99 = percentile_sorted(sorted_latency, 99.0);
  const Tail highest = highest_supported(paced.latency_us);
  std::vector<double> lateness = paced.lateness_us;
  std::sort(lateness.begin(), lateness.end());
  const double block = median(block_s);
  const double frames_per_s = static_cast<double>(kBurstBlock) / block;

  res.note(format("paced phase: %.0f frames/s offered over %zu connections, %d x %.2f s; "
                  "%llu frames, %llu sessions completed, %llu cut by the window",
                  kPacedRate, kLanes, rounds, sub_phase_s,
                  static_cast<unsigned long long>(paced.estimates),
                  static_cast<unsigned long long>(paced.sessions_completed),
                  static_cast<unsigned long long>(paced.sessions_cut)));
  res.note(format("  serve_p50_us = %.1f us, serve_p99_us = %.1f us (from due time; p50 is "
                  "the median over rounds); highest supported p%.4f = %.1f us over %zu samples",
                  p50, p99, highest.percentile, highest.value, highest.count));
  res.note(format("  generator lateness p50 %.1f us, p99 %.1f us",
                  percentile_sorted(lateness, 50.0), percentile_sorted(lateness, 99.0)));
  res.note(format("  serve_cpu_us_paced = %.2f us per frame", paced_cpu));
  res.note(format("burst phase: window %zu frames per connection, %d x %.2f s, %llu frames, "
                  "%llu sessions completed",
                  kBurstWindow, rounds, sub_phase_s,
                  static_cast<unsigned long long>(burst.estimates),
                  static_cast<unsigned long long>(burst.sessions_completed)));
  res.note(format("  serve_frames_per_s = %.0f (blocks of %llu frames); serve_cpu_us_burst = "
                  "%.2f us per frame",
                  frames_per_s, static_cast<unsigned long long>(kBurstBlock), burst_cpu));
  res.note(format("server: frames_in %llu, frames_out %llu, bytes_in %llu, bytes_out %llu, "
                  "slow_consumer %llu; sessions evicted %llu",
                  static_cast<unsigned long long>(stats.frames_in),
                  static_cast<unsigned long long>(stats.frames_out),
                  static_cast<unsigned long long>(stats.bytes_in),
                  static_cast<unsigned long long>(stats.bytes_out),
                  static_cast<unsigned long long>(stats.slow_consumer_disconnects),
                  static_cast<unsigned long long>(counters.evicted)));
  res.note(format("threads: generator 1 + reactor 1 + pool %zu (nproc %u)", workers, opt.nproc));
  res.note(format("serve.loadgen_s = %.3f s (trace synthesis, encoding, offline reference)",
                  loadgen_s));

  if (opt.trace) {
    SpanRecorder spans;
    const Replay replay = replay_wire(traces, spans);
    if (replay.mismatches > 0) {
      res.correct = false;
      res.fail("replay_mismatch", replay.mismatches);
    }
    res.set("serve.decode_us", replay.decode_us, "us");
    res.set("serve.process_us", replay.process_us, "us");
    res.set("serve.encode_us", replay.encode_us, "us");
    res.set("serve.overhead_us", p50 - replay.decode_us - replay.process_us - replay.encode_us, "us");
    res.set("serve.bytes_per_frame",
            stats.frames_in > 0 ? static_cast<double>(stats.bytes_in + stats.bytes_out) /
                                      static_cast<double>(stats.frames_in)
                                : 0.0,
            "B");
    const double sent = static_cast<double>(paced.frames_sent + burst.frames_sent);
    res.set("serve.delivered_frac",
            sent > 0 ? static_cast<double>(paced.estimates + burst.estimates) / sent : 0.0, "ratio");
    res.set("serve.gen_late_p50_us", percentile_sorted(lateness, 50.0), "us");
    res.set("serve.gen_late_p99_us", percentile_sorted(lateness, 99.0), "us");
    res.set("serve.loadgen_s", loadgen_s, "s");
    res.set("serve.cpu_us_paced", paced_cpu, "us");
    for (const char* kind : kFailureKinds) {
      const auto it = failed.find(kind);
      res.set(std::string("serve.failed.") + kind,
              static_cast<double>(it == failed.end() ? 0 : it->second), "count");
    }
    res.set("core.pipeline_us", replay.process_us, "us");
    res.set("core.holdover_frac",
            replay.frames > 0 ? static_cast<double>(replay.estimated) / static_cast<double>(replay.frames) : 0.0,
            "ratio");
    std::vector<std::vector<safe::radar::RadarMeasurement>> streams;
    for (const TraceData& t : traces) {
      auto& s = streams.emplace_back();
      for (const serve::MeasurementFrame& m : t.measurements) s.push_back(m.measurement);
    }
    replay_detect_and_estimation(streams, traces.front().spec.horizon_steps, res);
    res.set("trace.overhead_s", replay.traced_s - replay.untraced_s, "s");
    res.set("trace.spans", static_cast<double>(spans.spans().size()), "count");
    report_self_time(spans, res);
    if (!opt.out_dir.empty()) spans.write_jsonl(opt.out_dir + "/serve_stream-spans.jsonl");
    res.note(format("paced frame p50 %.1f us = decode %.3f + pipeline %.3f + encode %.3f + "
                    "transport/reactor/pool %.1f us",
                    p50, replay.decode_us, replay.process_us, replay.encode_us,
                    p50 - replay.decode_us - replay.process_us - replay.encode_us));
    return res;
  }

  res.set("batch_s", block, "s");
  res.set("cpu_us_per_op", burst_cpu, "us");
  res.set("latency_p50_us", p50, "us");
  res.set("setup_s", median(setups), "s");
  return res;
}

}  // namespace perfbench
