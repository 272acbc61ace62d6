#include "telemetry/telemetry.hpp"

#include "runtime/sync.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace safe::telemetry {

namespace {

// --- runtime switches ------------------------------------------------------

// All three switches share one word, so a call site that asks about both
// subsystems (a span) still costs one relaxed load.
constexpr std::uint8_t kMetricsOn = 1U;
constexpr std::uint8_t kTracingOn = 2U;
constexpr std::uint8_t kFineDetail = 4U;
std::atomic<std::uint8_t> g_switches{0};

std::uint8_t switches() noexcept {
  return g_switches.load(std::memory_order_relaxed);
}

bool traces_at(std::uint8_t s, TraceDetail detail) noexcept {
  return (s & kTracingOn) != 0 &&
         (detail == TraceDetail::kCoarse || (s & kFineDetail) != 0);
}

void set_switch(std::uint8_t bit, bool on) noexcept {
  if (on) {
    g_switches.fetch_or(bit, std::memory_order_relaxed);
  } else {
    g_switches.fetch_and(static_cast<std::uint8_t>(~bit),
                         std::memory_order_relaxed);
  }
}

// --- registry capacities ---------------------------------------------------
//
// Fixed capacities keep every per-thread shard a flat, pre-sized block of
// relaxed atomics: recording indexes an array, never allocates, and never
// takes a lock. Registration past a cap returns an invalid id (recording
// becomes a no-op) rather than failing.

constexpr std::size_t kMaxCounters = 128;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 64;

/// Per-thread trace buffer cap; overflow increments the shard's dropped
/// count so a truncated export is never silent.
constexpr std::size_t kMaxTraceEventsPerThread = 1 << 16;

// --- event & shard storage -------------------------------------------------

struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'X';  ///< 'X' complete span, 'i' instant.
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string args_json;  ///< "" = no args object.
};

/// One thread's slice of every metric. Only the owning thread writes the
/// slots (relaxed stores); collectors read them live (relaxed loads), which
/// is race-free by the single-writer rule. The trace buffer is the one
/// mutex-guarded member: span emission is already opt-in and orders of
/// magnitude rarer than counter bumps.
struct Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};

  struct GaugeSlot {
    std::atomic<std::uint64_t> bits{0};  ///< double payload, bit-cast.
    std::atomic<std::uint64_t> seen{0};
  };
  GaugeSlot gauges[kMaxGauges] = {};

  struct HistSlot {
    std::atomic<std::uint64_t> buckets[kMaxHistogramBuckets + 1] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> min_bits{0};
    std::atomic<std::uint64_t> max_bits{0};
  };
  HistSlot hists[kMaxHistograms] = {};

  runtime::Mutex trace_mutex;
  std::vector<TraceEvent> events SAFE_GUARDED_BY(trace_mutex);
  std::uint64_t dropped_events SAFE_GUARDED_BY(trace_mutex) = 0;
  std::string thread_name;
  std::uint64_t tid = 0;
};

struct HistogramRegistration {
  std::array<double, kMaxHistogramBuckets> upper_bounds = {};
  std::size_t num_bounds = 0;
};

struct Registration {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Stability stability = Stability::kDeterministic;
  std::uint16_t index = 0;  ///< Per-kind slot index.
};

/// Global registry: name -> id map plus the shard roster. Shards are owned
/// here and never destroyed before process exit, so a retired thread's
/// counts stay visible to counter_value() and the final merge, and the
/// thread_local pointer into the roster stays valid for the thread's life.
struct Registry {
  runtime::Mutex mutex;
  std::unordered_map<std::string, MetricId> by_name SAFE_GUARDED_BY(mutex);
  std::vector<Registration> registrations
      SAFE_GUARDED_BY(mutex);  ///< In registration order.
  std::size_t num_counters SAFE_GUARDED_BY(mutex) = 0;
  std::size_t num_gauges SAFE_GUARDED_BY(mutex) = 0;
  std::size_t num_histograms SAFE_GUARDED_BY(mutex) = 0;
  /// Fixed array, filled before the histogram id is published, immutable
  /// afterwards — so record() reads bounds with no lock (hot path).
  std::array<HistogramRegistration, kMaxHistograms> histogram_bounds = {};
  std::vector<std::unique_ptr<Shard>> shards;
  std::uint64_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

/// This thread's shard; null until the thread first records something.
thread_local Shard* t_shard = nullptr;
/// A name set while the thread had no shard and telemetry was off: the
/// shard is only created (and registered for good) when one is needed.
thread_local std::string t_pending_thread_name;

Shard& local_shard() {
  if (t_shard == nullptr) {
    auto shard = std::make_unique<Shard>();
    shard->thread_name = std::move(t_pending_thread_name);
    Registry& r = registry();
    runtime::MutexLock guard(r.mutex);
    shard->tid = r.next_tid++;
    t_shard = r.shards.emplace_back(std::move(shard)).get();
  }
  return *t_shard;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

MetricId register_metric(std::string_view name, MetricKind kind,
                         Stability stability,
                         std::vector<double> upper_bounds = {}) {
  Registry& r = registry();
  runtime::MutexLock guard(r.mutex);
  const std::string key(name);
  if (const auto it = r.by_name.find(key); it != r.by_name.end()) {
    // Idempotent on (name, kind); a kind clash must not alias another
    // metric's storage, so it degrades to a recording no-op.
    if (it->second.kind != kind) return MetricId{kind, MetricId::kInvalidIndex};
    return it->second;
  }

  MetricId id{kind, MetricId::kInvalidIndex};
  switch (kind) {
    case MetricKind::kCounter:
      if (r.num_counters < kMaxCounters) {
        id.index = static_cast<std::uint16_t>(r.num_counters++);
      }
      break;
    case MetricKind::kGaugeMax:
      if (r.num_gauges < kMaxGauges) {
        id.index = static_cast<std::uint16_t>(r.num_gauges++);
      }
      break;
    case MetricKind::kHistogram:
      if (r.num_histograms < kMaxHistograms) {
        id.index = static_cast<std::uint16_t>(r.num_histograms++);
        HistogramRegistration& bounds = r.histogram_bounds[id.index];
        bounds.num_bounds = std::min(upper_bounds.size(), kMaxHistogramBuckets);
        std::copy_n(upper_bounds.begin(), bounds.num_bounds,
                    bounds.upper_bounds.begin());
      }
      break;
  }
  if (!id.valid()) return id;  // capacity exhausted: do not poison the map
  r.by_name.emplace(key, id);
  r.registrations.push_back(Registration{key, kind, stability, id.index});
  return id;
}

void append_trace_event(TraceEvent event) {
  Shard& shard = local_shard();
  runtime::MutexLock guard(shard.trace_mutex);
  if (shard.events.size() >= kMaxTraceEventsPerThread) {
    ++shard.dropped_events;
    return;
  }
  shard.events.push_back(std::move(event));
}

// --- canonical JSON fragments ----------------------------------------------

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGaugeMax: return "gauge_max";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const char* stability_name(Stability stability) {
  return stability == Stability::kDeterministic ? "deterministic"
                                                : "scheduling_dependent";
}

}  // namespace

void append_double_json(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void append_escaped_json(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// --- runtime switches ------------------------------------------------------

bool metrics_enabled() noexcept { return (switches() & kMetricsOn) != 0; }

bool tracing_enabled() noexcept { return (switches() & kTracingOn) != 0; }

TraceDetail trace_detail() noexcept {
  return (switches() & kFineDetail) != 0 ? TraceDetail::kFine
                                         : TraceDetail::kCoarse;
}

void set_metrics_enabled(bool on) noexcept { set_switch(kMetricsOn, on); }

void set_tracing_enabled(bool on) noexcept { set_switch(kTracingOn, on); }

void set_trace_detail(TraceDetail detail) noexcept {
  set_switch(kFineDetail, detail == TraceDetail::kFine);
}

// --- clock -----------------------------------------------------------------

std::uint64_t now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

// --- registration ----------------------------------------------------------

MetricId counter(std::string_view name, Stability stability) {
  return register_metric(name, MetricKind::kCounter, stability);
}

MetricId gauge_max(std::string_view name, Stability stability) {
  return register_metric(name, MetricKind::kGaugeMax, stability);
}

MetricId histogram(std::string_view name, std::vector<double> upper_bounds,
                   Stability stability) {
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end())) {
    return MetricId{MetricKind::kHistogram, MetricId::kInvalidIndex};
  }
  return register_metric(name, MetricKind::kHistogram, stability,
                         std::move(upper_bounds));
}

MetricId duration_histogram(std::string_view name) {
  // Exponential nanosecond buckets, 1 us .. 10 s (decades x {1, 3}).
  static const std::vector<double> kBounds = {
      1e3,  3e3,  1e4,  3e4,  1e5,  3e5,  1e6,  3e6,
      1e7,  3e7,  1e8,  3e8,  1e9,  3e9,  1e10};
  return register_metric(name, MetricKind::kHistogram,
                         Stability::kSchedulingDependent, kBounds);
}

// --- recording (hot path) --------------------------------------------------

void add(MetricId id, std::uint64_t delta) noexcept {
  if (!metrics_enabled()) return;
  if (!id.valid() || id.kind != MetricKind::kCounter ||
      id.index >= kMaxCounters) {
    return;
  }
  local_shard().counters[id.index].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_update_max(MetricId id, double value) noexcept {
  if (!metrics_enabled()) return;
  if (!id.valid() || id.kind != MetricKind::kGaugeMax ||
      id.index >= kMaxGauges) {
    return;
  }
  Shard::GaugeSlot& slot = local_shard().gauges[id.index];
  // Single-writer slot: plain load/store is enough; no CAS loop needed.
  if (slot.seen.load(std::memory_order_relaxed) == 0) {
    slot.bits.store(double_bits(value), std::memory_order_relaxed);
    slot.seen.store(1, std::memory_order_relaxed);
    return;
  }
  const double current = bits_double(slot.bits.load(std::memory_order_relaxed));
  // `value > current` (not std::max) keeps the first value when a NaN shows
  // up later; a NaN first value is replaced by any finite successor.
  if (value > current || std::isnan(current)) {
    slot.bits.store(double_bits(value), std::memory_order_relaxed);
  }
}

void record(MetricId id, double value) noexcept {
  if (!metrics_enabled()) return;
  if (!id.valid() || id.kind != MetricKind::kHistogram ||
      id.index >= kMaxHistograms) {
    return;
  }
  // A valid id is only ever observed after its bounds were written under the
  // registry lock, and bounds never change afterwards: lock-free read.
  const HistogramRegistration& bounds = registry().histogram_bounds[id.index];
  std::size_t bucket = bounds.num_bounds;  // overflow bucket by default
  for (std::size_t i = 0; i < bounds.num_bounds; ++i) {
    if (value <= bounds.upper_bounds[i]) {
      bucket = i;
      break;
    }
  }
  Shard::HistSlot& slot = local_shard().hists[id.index];
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t n = slot.count.load(std::memory_order_relaxed);
  if (n == 0) {
    slot.min_bits.store(double_bits(value), std::memory_order_relaxed);
    slot.max_bits.store(double_bits(value), std::memory_order_relaxed);
  } else {
    const double lo = bits_double(slot.min_bits.load(std::memory_order_relaxed));
    const double hi = bits_double(slot.max_bits.load(std::memory_order_relaxed));
    if (value < lo) {
      slot.min_bits.store(double_bits(value), std::memory_order_relaxed);
    }
    if (value > hi) {
      slot.max_bits.store(double_bits(value), std::memory_order_relaxed);
    }
  }
  slot.count.store(n + 1, std::memory_order_relaxed);
}

std::uint64_t counter_value(MetricId id) {
  if (!id.valid() || id.kind != MetricKind::kCounter ||
      id.index >= kMaxCounters) {
    return 0;
  }
  Registry& r = registry();
  runtime::MutexLock guard(r.mutex);
  std::uint64_t sum = 0;
  for (const auto& shard : r.shards) {
    sum += shard->counters[id.index].load(std::memory_order_relaxed);
  }
  return sum;
}

void set_thread_name(std::string name) {
  if (t_shard == nullptr && (switches() & (kMetricsOn | kTracingOn)) == 0) {
    t_pending_thread_name = std::move(name);
    return;
  }
  Shard& shard = local_shard();
  runtime::MutexLock guard(shard.trace_mutex);
  shard.thread_name = std::move(name);
}

// --- trace events ----------------------------------------------------------

TraceArgs& TraceArgs::integer(const char* key, std::int64_t value) {
  json_ += json_.empty() ? '{' : ',';
  append_escaped_json(json_, key);
  json_ += ':';
  json_ += std::to_string(value);
  return *this;
}

TraceArgs& TraceArgs::text(const char* key, std::string_view value) {
  json_ += json_.empty() ? '{' : ',';
  append_escaped_json(json_, key);
  json_ += ':';
  append_escaped_json(json_, value);
  return *this;
}

std::string TraceArgs::take() {
  if (!json_.empty()) json_ += '}';
  return std::move(json_);
}

void instant_event(const char* name, const char* category,
                   std::string args_json, TraceDetail detail) {
  if (!traces_at(switches(), detail)) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  event.ts_ns = now_ns();
  event.args_json = std::move(args_json);
  append_trace_event(std::move(event));
}

ScopedTimer::ScopedTimer(const char* name, const char* category, MetricId hist,
                         TraceDetail detail) noexcept
    : name_(name), category_(category), hist_(hist) {
  const std::uint8_t s = switches();
  timing_ = hist_.valid() && (s & kMetricsOn) != 0;
  tracing_ = traces_at(s, detail);
  if (timing_ || tracing_) start_ns_ = now_ns();
}

void ScopedTimer::arg(const char* key, std::int64_t value) noexcept {
  if (arg_key_[0] == nullptr) {
    arg_key_[0] = key;
    arg_value_[0] = value;
  } else if (arg_key_[1] == nullptr) {
    arg_key_[1] = key;
    arg_value_[1] = value;
  }
}

ScopedTimer::~ScopedTimer() {
  if (!timing_ && !tracing_) return;
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur_ns = end_ns - start_ns_;
  if (timing_) record(hist_, static_cast<double>(dur_ns));
  if (tracing_) {
    TraceEvent event;
    event.name = name_;
    event.category = category_;
    event.phase = 'X';
    event.ts_ns = start_ns_;
    event.dur_ns = dur_ns;
    if (arg_key_[0] != nullptr) {
      TraceArgs args;
      args.integer(arg_key_[0], arg_value_[0]);
      if (arg_key_[1] != nullptr) args.integer(arg_key_[1], arg_value_[1]);
      event.args_json = args.take();
    }
    append_trace_event(std::move(event));
  }
}

// --- collection & export ---------------------------------------------------

std::vector<MetricSnapshot> MetricsSnapshot::deterministic() const {
  std::vector<MetricSnapshot> out;
  for (const MetricSnapshot& m : metrics) {
    if (m.stability == Stability::kDeterministic) out.push_back(m);
  }
  return out;
}

MetricsSnapshot collect_metrics() {
  Registry& r = registry();
  runtime::MutexLock guard(r.mutex);

  MetricsSnapshot snapshot;
  snapshot.metrics.reserve(r.registrations.size());
  for (const Registration& reg : r.registrations) {
    MetricSnapshot m;
    m.name = reg.name;
    m.kind = reg.kind;
    m.stability = reg.stability;
    switch (reg.kind) {
      case MetricKind::kCounter:
        for (const auto& shard : r.shards) {
          m.value += shard->counters[reg.index].load(std::memory_order_relaxed);
        }
        break;
      case MetricKind::kGaugeMax:
        for (const auto& shard : r.shards) {
          const Shard::GaugeSlot& slot = shard->gauges[reg.index];
          if (slot.seen.load(std::memory_order_relaxed) == 0) continue;
          const double v =
              bits_double(slot.bits.load(std::memory_order_relaxed));
          if (!m.gauge_seen || v > m.gauge) m.gauge = v;
          m.gauge_seen = true;
        }
        break;
      case MetricKind::kHistogram: {
        const HistogramRegistration& bounds = r.histogram_bounds[reg.index];
        m.hist.upper_bounds.assign(
            bounds.upper_bounds.begin(),
            bounds.upper_bounds.begin() +
                static_cast<std::ptrdiff_t>(bounds.num_bounds));
        m.hist.bucket_counts.assign(bounds.num_bounds + 1, 0);
        for (const auto& shard : r.shards) {
          const Shard::HistSlot& slot = shard->hists[reg.index];
          const std::uint64_t n = slot.count.load(std::memory_order_relaxed);
          if (n == 0) continue;
          for (std::size_t b = 0; b <= bounds.num_bounds; ++b) {
            m.hist.bucket_counts[b] +=
                slot.buckets[b].load(std::memory_order_relaxed);
          }
          const double lo =
              bits_double(slot.min_bits.load(std::memory_order_relaxed));
          const double hi =
              bits_double(slot.max_bits.load(std::memory_order_relaxed));
          if (m.hist.count == 0 || lo < m.hist.min) m.hist.min = lo;
          if (m.hist.count == 0 || hi > m.hist.max) m.hist.max = hi;
          m.hist.count += n;
        }
        break;
      }
    }
    snapshot.metrics.push_back(std::move(m));
  }
  for (const auto& shard : r.shards) {
    runtime::MutexLock trace_guard(shard->trace_mutex);
    snapshot.dropped_trace_events += shard->dropped_events;
  }
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snapshot;
}

std::string to_jsonl(const MetricsSnapshot& snapshot, bool deterministic_only) {
  std::string out;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (deterministic_only && m.stability != Stability::kDeterministic) {
      continue;
    }
    out += "{\"name\":";
    append_escaped_json(out, m.name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += "\",\"stability\":\"";
    out += stability_name(m.stability);
    out += '"';
    switch (m.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        out += std::to_string(m.value);
        break;
      case MetricKind::kGaugeMax:
        out += ",\"value\":";
        if (m.gauge_seen) {
          append_double_json(out, m.gauge);
        } else {
          out += "null";
        }
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        out += std::to_string(m.hist.count);
        out += ",\"min\":";
        if (m.hist.count > 0) {
          append_double_json(out, m.hist.min);
        } else {
          out += "null";
        }
        out += ",\"max\":";
        if (m.hist.count > 0) {
          append_double_json(out, m.hist.max);
        } else {
          out += "null";
        }
        out += ",\"le\":[";
        for (std::size_t i = 0; i < m.hist.upper_bounds.size(); ++i) {
          if (i > 0) out += ',';
          append_double_json(out, m.hist.upper_bounds[i]);
        }
        if (!m.hist.upper_bounds.empty()) out += ',';
        out += "null],\"counts\":[";  // trailing null = the +inf bucket
        for (std::size_t i = 0; i < m.hist.bucket_counts.size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(m.hist.bucket_counts[i]);
        }
        out += ']';
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

void write_metrics_jsonl(std::ostream& out) {
  out << to_jsonl(collect_metrics());
  out.flush();
}

void write_chrome_trace(std::ostream& out) {
  struct FlatEvent {
    TraceEvent event;
    std::uint64_t tid = 0;
    std::uint64_t seq = 0;  ///< Tie-break so the sort is total.
  };
  std::vector<FlatEvent> events;
  std::vector<std::pair<std::uint64_t, std::string>> thread_names;
  std::uint64_t dropped = 0;
  {
    Registry& r = registry();
    runtime::MutexLock guard(r.mutex);
    std::uint64_t seq = 0;
    for (const auto& shard : r.shards) {
      runtime::MutexLock trace_guard(shard->trace_mutex);
      if (!shard->thread_name.empty()) {
        thread_names.emplace_back(shard->tid, shard->thread_name);
      }
      dropped += shard->dropped_events;
      for (const TraceEvent& event : shard->events) {
        events.push_back(FlatEvent{event, shard->tid, seq++});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlatEvent& a, const FlatEvent& b) {
              if (a.event.ts_ns != b.event.ts_ns) {
                return a.event.ts_ns < b.event.ts_ns;
              }
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });

  std::string json;
  json.reserve(events.size() * 96 + 256);
  json += "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) json += ',';
    first = false;
    json += '\n';
  };
  for (const auto& [tid, name] : thread_names) {
    comma();
    json += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
    json += std::to_string(tid);
    json += ",\"args\":{\"name\":";
    append_escaped_json(json, name);
    json += "}}";
  }
  const auto append_us = [&json](std::uint64_t ns) {
    // Microsecond timestamps with nanosecond precision, decimal-exact.
    json += std::to_string(ns / 1000);
    json += '.';
    char frac[4];
    std::snprintf(frac, sizeof(frac), "%03u",
                  static_cast<unsigned>(ns % 1000));
    json += frac;
  };
  for (const FlatEvent& flat : events) {
    comma();
    json += "{\"ph\":\"";
    json += flat.event.phase;
    json += "\",\"name\":";
    append_escaped_json(json, flat.event.name);
    json += ",\"cat\":";
    append_escaped_json(json, flat.event.category);
    json += ",\"pid\":1,\"tid\":";
    json += std::to_string(flat.tid);
    json += ",\"ts\":";
    append_us(flat.event.ts_ns);
    if (flat.event.phase == 'X') {
      json += ",\"dur\":";
      append_us(flat.event.dur_ns);
    } else if (flat.event.phase == 'i') {
      json += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (!flat.event.args_json.empty()) {
      json += ",\"args\":";
      json += flat.event.args_json;
    }
    json += '}';
  }
  json += "\n],\"displayTimeUnit\":\"ms\"";
  if (dropped > 0) {
    json += ",\"otherData\":{\"dropped_trace_events\":\"";
    json += std::to_string(dropped);
    json += "\"}";
  }
  json += "}\n";
  out << json;
  out.flush();
}

std::size_t shard_count_for_testing() {
  Registry& r = registry();
  runtime::MutexLock guard(r.mutex);
  return r.shards.size();
}

void reset_for_testing() {
  Registry& r = registry();
  runtime::MutexLock guard(r.mutex);
  for (const auto& shard : r.shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : shard->gauges) {
      g.bits.store(0, std::memory_order_relaxed);
      g.seen.store(0, std::memory_order_relaxed);
    }
    for (auto& h : shard->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.min_bits.store(0, std::memory_order_relaxed);
      h.max_bits.store(0, std::memory_order_relaxed);
    }
    runtime::MutexLock trace_guard(shard->trace_mutex);
    shard->events.clear();
    shard->dropped_events = 0;
  }
}

}  // namespace safe::telemetry
