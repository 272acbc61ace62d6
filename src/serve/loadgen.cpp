#include "serve/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runtime/seed.hpp"
#include "runtime/sync.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::serve {

namespace {

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(pos + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The kind of an incomplete session. ResilientClient::run gives every
/// incomplete result a failure (a stream ends complete only once it holds
/// every estimate of its window), so kNone never reaches here.
SessionErrorKind classify(StreamFailure failure) {
  switch (failure) {
    case StreamFailure::kConnect: return SessionErrorKind::kConnectRefused;
    case StreamFailure::kHandshake:
    case StreamFailure::kResumeRejected:
      return SessionErrorKind::kHandshakeRejected;
    case StreamFailure::kDeadline: return SessionErrorKind::kDeadlineExceeded;
    case StreamFailure::kServerStatus: return SessionErrorKind::kServerStatus;
    case StreamFailure::kServerError: return SessionErrorKind::kServerError;
    case StreamFailure::kAttemptsExhausted:
      return SessionErrorKind::kRetriesExhausted;
    case StreamFailure::kOverloaded: return SessionErrorKind::kOverloaded;
    case StreamFailure::kNone:
    case StreamFailure::kTransport:
      break;
  }
  return SessionErrorKind::kTransport;
}

/// Byte-compares received estimate frames against the offline reference.
/// Returns the mismatch count (0 = verified).
std::uint64_t count_mismatches(
    const TraceSpec& spec, const std::vector<MeasurementFrame>& trace,
    const std::vector<std::vector<std::uint8_t>>& estimate_frames) {
  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  if (reference.size() != estimate_frames.size()) {
    return reference.size() > estimate_frames.size()
               ? reference.size() - estimate_frames.size()
               : estimate_frames.size() - reference.size();
  }
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (encode(reference[i]) != estimate_frames[i]) ++mismatches;
  }
  return mismatches;
}

/// One session's trace and, when verifying, the estimate frames it got.
struct SessionRun {
  TraceSpec spec;
  std::vector<MeasurementFrame> trace;
  bool traced = false;    ///< the trace was built
  bool complete = false;  ///< every estimate arrived
  std::vector<std::vector<std::uint8_t>> estimate_frames;
};

/// Runs task(index) for every session index on `workers` threads, each
/// taking the next index as it finishes one.
template <class Task>
void for_each_session(std::size_t sessions, std::size_t workers,
                      const Task& task) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
        if (index >= sessions) return;
        task(index);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

const char* to_string(SessionErrorKind kind) {
  switch (kind) {
    case SessionErrorKind::kConnectRefused: return "connect-refused";
    case SessionErrorKind::kHandshakeRejected: return "handshake-rejected";
    case SessionErrorKind::kOverloaded: return "overloaded";
    case SessionErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case SessionErrorKind::kVerifyMismatch: return "verify-mismatch";
    case SessionErrorKind::kTransport: return "transport";
    case SessionErrorKind::kServerError: return "server-error";
    case SessionErrorKind::kServerStatus: return "server-status";
    case SessionErrorKind::kTraceGeneration: return "trace-generation";
    case SessionErrorKind::kRetriesExhausted: return "retries-exhausted";
  }
  return "?";
}

LoadReport run_load(const LoadOptions& options) {
  if (options.sessions == 0 || options.connections == 0) {
    throw std::invalid_argument("loadgen needs >=1 session and connection");
  }
  if (options.port == 0) {
    throw std::invalid_argument("loadgen needs an explicit port");
  }

  LoadReport report;
  report.sessions_attempted = options.sessions;

  runtime::Mutex merge_mutex;
  std::vector<std::uint64_t> all_latencies;
  const std::size_t workers = std::min(options.connections, options.sessions);

  // Counts the failure under its kind; `failed` distinguishes a failed
  // session from a completed-but-mismatched one (which ok() still rejects).
  const auto record_error = [&](std::size_t index, SessionErrorKind kind,
                                std::string detail, bool failed = true) {
    runtime::MutexLock guard(merge_mutex);
    if (failed) ++report.sessions_failed;
    ++report.error_counts[static_cast<std::size_t>(kind)];
    if (report.session_errors.size() < 16) {
      report.session_errors.push_back(SessionError{
          .session = index, .kind = kind, .detail = std::move(detail)});
    }
  };

  // The clock covers the stream phase only. Every session's trace is built
  // before it starts and checked against the offline pipeline after it
  // stops, so elapsed_ns and the throughput measure the server, not the
  // client's radar synthesis or the replay.
  std::vector<SessionRun> runs(options.sessions);
  const std::uint64_t build_start_ns = telemetry::now_ns();
  for_each_session(options.sessions, workers, [&](std::size_t index) {
    SessionRun& run = runs[index];
    run.spec = options.spec;
    run.spec.seed = runtime::derive_seed(options.master_seed,
                                         runtime::SeedStream::kScenario,
                                         static_cast<std::uint64_t>(index));
    try {
      run.trace = make_measurement_trace(run.spec);
      run.traced = true;
    } catch (const std::exception& e) {
      record_error(index, SessionErrorKind::kTraceGeneration, e.what());
    }
  });
  report.trace_build_ns = telemetry::now_ns() - build_start_ns;

  const std::uint64_t start_ns = telemetry::now_ns();
  for_each_session(options.sessions, workers, [&](std::size_t index) {
    SessionRun& run = runs[index];
    if (!run.traced) return;
    const std::string client_id = "loadgen-" + std::to_string(index);

    RetryPolicy policy = options.retry;
    policy.jitter_seed = runtime::derive_seed(
        options.master_seed, runtime::SeedStream::kRetry,
        static_cast<std::uint64_t>(index));
    ResilientClient client(options.host, options.port, policy);
    ResilientResult result =
        client.run(run.spec, client_id, run.trace, options.deadline_ns);
    {
      runtime::MutexLock guard(merge_mutex);
      report.frames_sent += run.trace.size();
      report.estimates_received += result.estimates.size();
      report.challenges_received += result.challenges.size();
      if (result.complete) ++report.sessions_completed;
      report.reconnects += result.reconnects;
      report.resumes += result.resumes;
      report.restarts += result.restarts;
      report.overload_backoffs += result.overload_backoffs;
      report.duplicates_discarded += result.duplicates_discarded;
      report.replayed_frames += result.replayed_frames;
      all_latencies.insert(all_latencies.end(), result.latencies_ns.begin(),
                           result.latencies_ns.end());
    }
    run.complete = result.complete;
    if (options.verify) run.estimate_frames = std::move(result.estimate_frames);
    if (!result.complete) {
      record_error(index, classify(result.failure),
                   std::string(to_string(result.failure)) +
                       (result.failure_detail.empty()
                            ? ""
                            : ": " + result.failure_detail));
    }
  });
  report.elapsed_ns = telemetry::now_ns() - start_ns;

  if (options.verify) {
    const std::uint64_t verify_start_ns = telemetry::now_ns();
    for_each_session(options.sessions, workers, [&](std::size_t index) {
      const SessionRun& run = runs[index];
      if (!run.complete) return;
      const std::uint64_t mismatches =
          count_mismatches(run.spec, run.trace, run.estimate_frames);
      {
        runtime::MutexLock guard(merge_mutex);
        report.verify_mismatched_frames += mismatches;
        if (mismatches == 0) ++report.sessions_verified;
      }
      if (mismatches != 0) {
        record_error(index, SessionErrorKind::kVerifyMismatch,
                     std::to_string(mismatches) +
                         " estimate frames differ from offline reference",
                     /*failed=*/false);
      }
    });
    report.verify_ns = telemetry::now_ns() - verify_start_ns;
  }

  std::sort(all_latencies.begin(), all_latencies.end());
  report.latency_p50_ns = percentile(all_latencies, 0.50);
  report.latency_p95_ns = percentile(all_latencies, 0.95);
  report.latency_p99_ns = percentile(all_latencies, 0.99);
  report.latency_max_ns =
      all_latencies.empty() ? 0 : all_latencies.back();
  if (report.elapsed_ns > 0) {
    report.throughput_frames_per_s =
        static_cast<double>(report.estimates_received) * 1e9 /
        static_cast<double>(report.elapsed_ns);
  }
  return report;
}

std::string to_json(const LoadReport& report) {
  std::ostringstream out;
  out << "{";
  out << "\"sessions_attempted\":" << report.sessions_attempted;
  out << ",\"sessions_completed\":" << report.sessions_completed;
  out << ",\"sessions_failed\":" << report.sessions_failed;
  out << ",\"frames_sent\":" << report.frames_sent;
  out << ",\"estimates_received\":" << report.estimates_received;
  out << ",\"challenges_received\":" << report.challenges_received;
  out << ",\"sessions_verified\":" << report.sessions_verified;
  out << ",\"verify_mismatched_frames\":" << report.verify_mismatched_frames;
  out << ",\"elapsed_ns\":" << report.elapsed_ns;
  out << ",\"trace_build_ns\":" << report.trace_build_ns;
  out << ",\"verify_ns\":" << report.verify_ns;
  out << ",\"throughput_frames_per_s\":" << report.throughput_frames_per_s;
  out << ",\"latency_p50_ns\":" << report.latency_p50_ns;
  out << ",\"latency_p95_ns\":" << report.latency_p95_ns;
  out << ",\"latency_p99_ns\":" << report.latency_p99_ns;
  out << ",\"latency_max_ns\":" << report.latency_max_ns;
  out << ",\"reconnects\":" << report.reconnects;
  out << ",\"resumes\":" << report.resumes;
  out << ",\"restarts\":" << report.restarts;
  out << ",\"overload_backoffs\":" << report.overload_backoffs;
  out << ",\"duplicates_discarded\":" << report.duplicates_discarded;
  out << ",\"replayed_frames\":" << report.replayed_frames;
  out << ",\"ok\":" << (report.ok() ? "true" : "false");
  out << ",\"error_counts\":{";
  bool first = true;
  for (std::size_t k = 0; k < kSessionErrorKindCount; ++k) {
    if (report.error_counts[k] == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << to_string(static_cast<SessionErrorKind>(k))
        << "\":" << report.error_counts[k];
  }
  out << "}";
  out << ",\"session_errors\":[";
  for (std::size_t i = 0; i < report.session_errors.size(); ++i) {
    if (i > 0) out << ",";
    const SessionError& error = report.session_errors[i];
    std::string detail;
    telemetry::append_escaped_json(detail, error.detail);
    out << "{\"session\":" << error.session << ",\"kind\":\""
        << to_string(error.kind) << "\",\"detail\":" << detail << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace safe::serve
