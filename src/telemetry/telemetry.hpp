// Low-overhead telemetry: counters, gauges, histograms, and trace spans.
//
// Design contract (DESIGN.md §11):
//   * Runtime-off by default. Every recording call starts with one relaxed
//     atomic load; a disabled build path records nothing, allocates nothing,
//     and never reads the clock, so benches see no measurable overhead.
//   * Recording never perturbs results. Telemetry only observes — it touches
//     no RNG stream and no simulation state, so figure benches and campaign
//     JSONL output are bit-identical with telemetry on or off.
//   * Lock-free per-thread shards. Each thread owns a fixed-capacity shard of
//     relaxed-atomic slots; only the owner writes, so collectors can read
//     live values (the campaign_cli --progress path) without data races.
//   * Deterministic merge. Shards merge with commutative, order-independent
//     reductions only: integer sums for counters and bucket counts, exact
//     min/max for histogram extremes. No floating-point accumulation whose
//     result depends on thread retirement order is ever exposed, which is
//     what makes merged metrics identical at --jobs 1 and --jobs N.
//   * Stability tags. Work metrics (how many samples, detections, rejections)
//     are registered kDeterministic: their merged values depend only on the
//     campaign spec. Timing and pool metrics (durations, steals, idle time)
//     are kSchedulingDependent and excluded from determinism comparisons.
//
// Trace events export as Chrome trace_event JSON ("X" complete spans and "i"
// instants), loadable in chrome://tracing or Perfetto. Span names and
// categories must be string literals (they are stored as const char*).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace safe::telemetry {

// --- runtime switches ------------------------------------------------------

/// Trace-event granularity: kCoarse records one span per trial plus state
/// transitions; kFine adds the per-sample pipeline stage spans (radar
/// synthesize/estimate, pipeline process), which are ~1000x more numerous.
enum class TraceDetail : std::uint8_t { kCoarse = 0, kFine = 1 };

[[nodiscard]] bool metrics_enabled() noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;
[[nodiscard]] TraceDetail trace_detail() noexcept;
void set_metrics_enabled(bool on) noexcept;
void set_tracing_enabled(bool on) noexcept;
void set_trace_detail(TraceDetail detail) noexcept;

// --- clock -----------------------------------------------------------------

/// Monotonic nanoseconds since the first call (steady clock). This is the
/// one clock path shared by spans, pool idle accounting, and bench timing.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Minimal monotonic stopwatch over now_ns(); bench/bench_common.hpp builds
/// its min/median/max timing on this so benches and production spans share
/// one clock.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_ns_(now_ns()) {}
  void restart() noexcept { start_ns_ = now_ns(); }
  [[nodiscard]] std::uint64_t elapsed_ns() const noexcept {
    return now_ns() - start_ns_;
  }
  [[nodiscard]] double elapsed_seconds() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_ns_;
};

// --- metric registration ---------------------------------------------------

enum class MetricKind : std::uint8_t { kCounter, kGaugeMax, kHistogram };

/// Whether a metric's merged value is a pure function of the workload
/// (kDeterministic) or may vary with scheduling, thread count, and wall
/// clock (kSchedulingDependent). Only deterministic metrics participate in
/// the --jobs invariance contract.
enum class Stability : std::uint8_t { kDeterministic, kSchedulingDependent };

/// Opaque handle to a registered metric. Invalid ids (registry at capacity)
/// make every recording call a no-op rather than an error.
struct MetricId {
  static constexpr std::uint16_t kInvalidIndex = 0xffff;
  MetricKind kind = MetricKind::kCounter;
  std::uint16_t index = kInvalidIndex;
  [[nodiscard]] bool valid() const noexcept { return index != kInvalidIndex; }
};

/// Registers (or looks up) a metric by name. Registration is idempotent —
/// the same name always returns the same id — and cheap enough for the
/// `static const MetricId` call-site idiom. A name already registered with a
/// different kind returns an invalid id instead of aliasing storage.
MetricId counter(std::string_view name,
                 Stability stability = Stability::kDeterministic);
MetricId gauge_max(std::string_view name,
                   Stability stability = Stability::kSchedulingDependent);
/// `upper_bounds` must be ascending; values land in the first bucket whose
/// bound is >= value, with an implicit +inf overflow bucket. At most
/// kMaxHistogramBuckets bounds are kept.
MetricId histogram(std::string_view name, std::vector<double> upper_bounds,
                   Stability stability = Stability::kDeterministic);
/// Histogram with exponential nanosecond buckets (1us..10s), registered
/// kSchedulingDependent — the flavour every duration span uses.
MetricId duration_histogram(std::string_view name);

inline constexpr std::size_t kMaxHistogramBuckets = 16;

// --- recording (hot path) --------------------------------------------------

void add(MetricId id, std::uint64_t delta = 1) noexcept;
void gauge_update_max(MetricId id, double value) noexcept;
void record(MetricId id, double value) noexcept;

/// Live sum of a counter across every thread (including retired ones);
/// powers campaign_cli --progress. Safe to call concurrently with recording.
[[nodiscard]] std::uint64_t counter_value(MetricId id);

/// Names this thread in exported traces (thread_name metadata event). With
/// telemetry off, a thread that has recorded nothing keeps the name aside
/// and registers no shard until it first records.
void set_thread_name(std::string name);

// --- trace events ----------------------------------------------------------

/// Small JSON object builder for span/instant arguments. Keys must be string
/// literals; string values are escaped on the way in.
class TraceArgs {
 public:
  TraceArgs& integer(const char* key, std::int64_t value);
  TraceArgs& text(const char* key, std::string_view value);
  /// Returns the finished JSON object ("" when nothing was added).
  [[nodiscard]] std::string take();

 private:
  std::string json_;
};

/// Emits a Chrome "i" (instant) event when tracing is enabled at `detail`.
void instant_event(const char* name, const char* category,
                   std::string args_json = {},
                   TraceDetail detail = TraceDetail::kCoarse);

/// RAII span: on destruction records the elapsed time into `hist` (when
/// metrics are on and the id is valid) and emits a Chrome "X" complete event
/// (when tracing is on at `detail`). When both subsystems are off the
/// constructor never reads the clock.
class ScopedTimer {
 public:
  ScopedTimer(const char* name, const char* category, MetricId hist = {},
              TraceDetail detail = TraceDetail::kCoarse) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attaches up to two integer arguments to the trace event.
  void arg(const char* key, std::int64_t value) noexcept;

 private:
  const char* name_;
  const char* category_;
  MetricId hist_;
  std::uint64_t start_ns_ = 0;
  const char* arg_key_[2] = {nullptr, nullptr};
  std::int64_t arg_value_[2] = {0, 0};
  bool timing_ = false;
  bool tracing_ = false;
};

// --- collection & export ---------------------------------------------------

struct HistogramSnapshot {
  std::vector<double> upper_bounds;        ///< ascending, implicit +inf last
  std::vector<std::uint64_t> bucket_counts;  ///< upper_bounds.size() + 1
  std::uint64_t count = 0;
  double min = 0.0;  ///< undefined when count == 0 (exported as null)
  double max = 0.0;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Stability stability = Stability::kDeterministic;
  std::uint64_t value = 0;  ///< counters
  double gauge = 0.0;       ///< gauge_max (undefined until first update)
  bool gauge_seen = false;
  HistogramSnapshot hist;   ///< histograms
};

/// Deterministically merged view over every shard, sorted by metric name.
struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;
  /// Trace events dropped because a thread hit its buffer cap; non-zero
  /// means the exported trace is truncated (never silently).
  std::uint64_t dropped_trace_events = 0;

  /// The jobs-invariant subset (Stability::kDeterministic only).
  [[nodiscard]] std::vector<MetricSnapshot> deterministic() const;
};

[[nodiscard]] MetricsSnapshot collect_metrics();

/// One canonical JSON line per metric, sorted by name; doubles use shortest
/// round-trip form and non-finite values serialize as null.
[[nodiscard]] std::string to_jsonl(const MetricsSnapshot& snapshot,
                                   bool deterministic_only = false);
void write_metrics_jsonl(std::ostream& out);

/// Appends `v` in shortest round-trip decimal form (std::to_chars), so
/// equal doubles always serialize to equal bytes; non-finite values append
/// null, keeping the line parseable JSON.
void append_double_json(std::string& out, double v);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// newline, tab and carriage return by name, every other control byte as
/// \u00XX. The one escaper behind every JSON line the repo writes.
void append_escaped_json(std::string& out, std::string_view s);

/// Valid Chrome trace_event JSON ({"traceEvents":[...]}): thread_name
/// metadata, "X" spans, and "i" instants, sorted by timestamp. Loadable in
/// chrome://tracing and Perfetto.
void write_chrome_trace(std::ostream& out);

/// Zeroes every metric value and clears every trace buffer while keeping
/// registrations (call-site static MetricIds stay valid). Only call while no
/// other thread is recording.
void reset_for_testing();

/// Number of per-thread shards registered so far (shards are never freed).
[[nodiscard]] std::size_t shard_count_for_testing();

}  // namespace safe::telemetry
