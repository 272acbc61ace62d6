// Shared pieces of the repository benchmark: clocks, the statistics rules the
// report uses, the in-memory span recorder of the traced runs, output digests
// and the metric report. Header-only so the self-test links nothing else.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- clocks -----------------------------------------------------------------

inline double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Monotonic wall clock, seconds.
inline double now_s() { return clock_s(CLOCK_MONOTONIC); }

/// Monotonic wall clock, nanoseconds.
inline std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of every thread of this process, seconds.
inline double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread, seconds.
inline double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set size of this process image, MiB: VmHWM, which exec
/// resets (getrusage's ru_maxrss would carry over the launching parent's).
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- calibration ------------------------------------------------------------
//
// On a shared cloud VM (measured: 4 vCPUs) the speed drifts by 20% and more
// over minutes as other tenants load the host, far more than a change to the
// code under test moves a time, and neither longer runs nor medians remove a
// drift slower than a run. Timings of single-threaded, CPU-bound work
// (fig_paper, and every workload's set-up except the server's) are therefore
// bracketed by samples of a fixed CPU kernel that calls no library code, and
// reported scaled to a reference speed: seconds on a machine where one kernel
// sample takes kCalibrationRefS. Multi-threaded and system-call-bound timings
// do not track the kernel and stay raw. Raw times are printed alongside.

/// One kernel sample's time on the reference machine (about that 4-vCPU VM's
/// speed when its host is quiet).
inline constexpr double kCalibrationRefS = 0.025;

/// Keeps the kernel's result observable.
inline volatile double calibration_sink = 0.0;

/// The kernel: 100 radix-2 4096-point complex FFTs on the benchmark's own
/// code (the library's FFT must not be the yardstick it is measured by).
inline double calibration_kernel_s() {
  constexpr std::size_t n = 4096;
  std::vector<std::complex<double>> x(n), twiddle(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    twiddle[i] = std::polar(1.0, -2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n));
  }
  const double start = now_s();
  for (int rep = 0; rep < 100; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = {std::sin(0.01 * static_cast<double>(i) + rep), std::cos(0.02 * static_cast<double>(i))};
    }
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; (j & bit) != 0; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(x[i], x[j]);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t step = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const std::complex<double> u = x[i + k];
          const std::complex<double> v = x[i + k + len / 2] * twiddle[k * step];
          x[i + k] = u + v;
          x[i + k + len / 2] = u - v;
        }
      }
    }
    calibration_sink = x[7].real();
  }
  return now_s() - start;
}

/// Speed factor for the interval between two kernel samples: multiply a
/// time measured in that interval by factor() to get reference seconds.
class Calibration {
 public:
  Calibration() : last_(calibration_kernel_s()) {}

  /// Samples the kernel again; returns reference / mean(previous, this).
  double factor() {
    const double now = calibration_kernel_s();
    const double f = kCalibrationRefS / (0.5 * (last_ + now));
    last_ = now;
    factors_.push_back(f);
    return f;
  }

  /// Every factor handed out so far (for the report).
  [[nodiscard]] const std::vector<double>& factors() const { return factors_; }

 private:
  double last_;
  std::vector<double> factors_;
};

// --- statistics -------------------------------------------------------------

/// Median with the midpoint rule for an even count; 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]) of ascending-sorted samples.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

/// A tail figure: which percentile, its value, and the sample count.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t count = 0;
};

/// The highest percentile that still has at least `beyond` samples above
/// it: the (n - beyond)-th smallest sample, percentile 100 (n - beyond) / n.
/// With fewer than beyond + 1 samples no tail is supported and the maximum
/// is returned at percentile 100.
inline Tail highest_supported(std::vector<double> v, std::size_t beyond = 10) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.percentile = 100.0;
    t.value = v.back();
    return t;
  }
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  t.value = v[n - beyond - 1];
  return t;
}

/// Share of attempted operations that failed (0 when nothing was attempted).
inline double failed_share(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

/// Set-up time at reference speed: the median over `blocks` blocks, each the
/// median of `reps` calls of `setup` (returning seconds) scaled by the
/// calibration samples around it. Many short blocks keep one disturbed
/// sample from moving the figure.
template <typename Fn>
double scaled_setup_s(int blocks, int reps, Fn&& setup) {
  Calibration cal;
  std::vector<double> per_block;
  for (int b = 0; b < blocks; ++b) {
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) times.push_back(setup());
    per_block.push_back(median(times) * cal.factor());
  }
  return median(per_block);
}

/// CPU microseconds per operation the system under test spent: process CPU
/// minus the CPU of the benchmark's own threads (load generator), per op.
inline double cpu_us_per_op(double process_cpu_s, double own_threads_cpu_s,
                            std::uint64_t ops) {
  if (ops == 0) return 0.0;
  return 1e6 * std::max(0.0, process_cpu_s - own_threads_cpu_s) /
         static_cast<double>(ops);
}

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around a public
/// call. `group` identifies the run/step or session the span belongs to.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder's spans, -1 = root
  std::int64_t group = 0;
};

/// In-memory span store; written out once, when the benchmark ends.
class SpanRecorder {
 public:
  std::int64_t begin(std::string name, std::int64_t parent, std::int64_t group) {
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, group});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  /// Records an already-timed interval.
  std::int64_t add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t parent, std::int64_t group) {
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, group});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"group\":" << s.group << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
inline std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t lo = spans[i].start_ns;
    const std::uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = lo;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::uint64_t a = std::max(kid_start, cursor);
      const std::uint64_t b = std::min(kid_end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Total self time per span name, nanoseconds.
inline std::map<std::string, std::uint64_t> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, std::uint64_t> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) totals[spans[i].name] += self[i];
  return totals;
}

// --- digests ----------------------------------------------------------------

/// FNV-1a, 64-bit: a stable fingerprint of output bytes.
class Digest {
 public:
  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void update(const std::string& s) { update(s.data(), s.size()); }
  void update(double x) { update(&x, sizeof x); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// --- report -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: operations attempted and failed (by kind),
/// whether every output checked out, and named metrics with units.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failed_by_kind;
  std::map<std::string, Metric> metrics;  ///< the final line's metrics
  std::vector<std::string> notes;         ///< human-readable report lines

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& kind, std::uint64_t n = 1) {
    if (n == 0) return;
    failed += n;
    failed_by_kind[kind] += n;
  }
  void note(const std::string& line) { notes.push_back(line); }
};

/// printf into a std::string.
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string s(static_cast<std::size_t>(std::max(n, 0)), '\0');
  std::snprintf(s.data(), s.size() + 1, fmt, args...);
  return s;
}

/// Options every workload receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;     ///< minimal sizes, every check on (self-check)
  std::string out_dir;    ///< where traced runs write their spans
  unsigned nproc = 1;
};

Result run_fig_paper(const RunOptions& options);
Result run_campaign_mixed(const RunOptions& options);
Result run_serve_stream(const RunOptions& options);

}  // namespace perfbench
