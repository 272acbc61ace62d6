// Self-test of the benchmark's own arithmetic: the tail-percentile rule, span
// self time, CPU-per-frame accounting and the failed share. Exits non-zero on
// the first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_percentiles() {
  using perfbench::highest_supported;
  // 100 samples 1..100: the highest percentile with 10 samples beyond it is
  // p90, value 90 (91..100 lie beyond).
  perfbench::Tail t = highest_supported(ramp(100));
  expect(near(t.percentile, 90.0) && near(t.value, 90.0) && t.count == 100,
         "highest supported percentile of 100 samples is p90 = 90");
  // 1000 samples: p99 = 990 is supported, with exactly 10 beyond.
  t = highest_supported(ramp(1000));
  expect(near(t.percentile, 99.0) && near(t.value, 990.0), "1000 samples support p99 = 990");
  // 999 samples: the 989th sample, percentile 100 * 989 / 999 (just under p99).
  t = highest_supported(ramp(999));
  expect(near(t.value, 989.0) && near(t.percentile, 100.0 * 989.0 / 999.0),
         "999 samples support only the 989th sample");
  // Ten samples or fewer support no tail: the maximum at p100.
  t = highest_supported(ramp(10));
  expect(near(t.percentile, 100.0) && near(t.value, 10.0), "10 samples: maximum at p100");
  t = highest_supported({});
  expect(t.count == 0 && t.value == 0.0, "no samples: empty tail");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  expect(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  std::vector<double> sorted = {1, 2, 3, 4};
  expect(near(perfbench::percentile_sorted(sorted, 50.0), 2.0), "nearest-rank p50 of 4");
  expect(near(perfbench::percentile_sorted(sorted, 0.0), 1.0), "nearest-rank p0 is the minimum");
  std::vector<double> thousand = ramp(1000);
  std::sort(thousand.begin(), thousand.end());
  expect(near(perfbench::percentile_sorted(thousand, 99.0), 990.0), "nearest-rank p99 of 1000");
}

void test_self_time() {
  using perfbench::Span;
  // root [0, 100) with children [10, 30) and [20, 50) (overlapping, 40 ns
  // covered) and [60, 70); grandchild [62, 65) under the last child.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},    {"b", 20, 50, 0, 1},
      {"c", 60, 70, 0, 1},      {"d", 62, 65, 3, 1},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "root self time excludes the union of its children");
  expect(self[1] == 20 && self[2] == 30, "leaf self time is the duration");
  expect(self[3] == 7 && self[4] == 3, "grandchild time is charged to its own parent only");
  const auto totals = perfbench::self_time_by_name(spans);
  expect(totals.at("root") == 50 && totals.at("c") == 7, "self time by name");
  // A child running past its parent's end is clipped at the parent.
  const std::vector<Span> clipped = {{"p", 0, 10, -1, 2}, {"k", 5, 20, 0, 2}};
  expect(perfbench::self_times_ns(clipped)[0] == 5, "child clipped at the parent's end");
}

void test_cpu_accounting() {
  // 3 s of process CPU, of which the generator thread used 1 s, over
  // 1,000,000 frames: 2 us of server CPU per frame.
  expect(near(perfbench::cpu_us_per_op(3.0, 1.0, 1'000'000), 2.0), "server CPU per frame");
  expect(perfbench::cpu_us_per_op(3.0, 1.0, 0) == 0.0, "no frames, no per-frame CPU");
  expect(perfbench::cpu_us_per_op(1.0, 1.5, 10) == 0.0, "clock skew never goes negative");
}

void test_failed_share() {
  expect(near(perfbench::failed_share(200, 3), 0.015), "3 of 200 failed");
  expect(perfbench::failed_share(0, 0) == 0.0, "nothing attempted");
  perfbench::Result r;
  r.fail("idle_timeout", 2);
  r.fail("mismatch");
  r.fail("idle_timeout", 0);
  expect(r.failed == 3 && r.failed_by_kind.at("idle_timeout") == 2 &&
             r.failed_by_kind.at("mismatch") == 1 && r.failed_by_kind.size() == 2,
         "failures add up by kind");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_cpu_accounting();
  test_failed_share();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
