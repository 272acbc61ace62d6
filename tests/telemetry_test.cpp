// Tests for src/telemetry/: registration semantics, the lock-free shard
// merge, the disabled-is-a-no-op contract, canonical JSONL serialization
// (non-finite values, key escaping), structural validity of the exported
// Chrome trace, and the load-bearing property that merged deterministic
// metrics are identical at --jobs 1 and --jobs 4.
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "radar/processor.hpp"
#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace safe;
namespace tm = safe::telemetry;

// Every test runs against the process-global registry, so each one starts
// from zeroed values and leaves recording switched off.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tm::reset_for_testing();
    tm::set_metrics_enabled(true);
  }
  void TearDown() override {
    tm::set_metrics_enabled(false);
    tm::set_tracing_enabled(false);
    tm::set_trace_detail(tm::TraceDetail::kCoarse);
    tm::reset_for_testing();
  }
};

// --- minimal JSON validator ------------------------------------------------
// Recursive-descent well-formedness check (RFC 8259 grammar, no semantics);
// enough to assert the exporters emit parseable JSON without a JSON library.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (peek() != '"' || !string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          for (std::size_t i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Pulls the one JSONL line whose "name" matches, "" when absent.
std::string jsonl_line(const std::string& jsonl, const std::string& name) {
  std::istringstream lines(jsonl);
  std::string line;
  const std::string needle = "\"name\":\"" + name + "\"";
  while (std::getline(lines, line)) {
    if (line.find(needle) != std::string::npos) return line;
  }
  return {};
}

// --- registration ----------------------------------------------------------

TEST_F(TelemetryTest, RegistrationIsIdempotentByName) {
  const tm::MetricId a = tm::counter("test.idempotent");
  const tm::MetricId b = tm::counter("test.idempotent");
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.kind, b.kind);
}

TEST_F(TelemetryTest, KindClashYieldsInvalidId) {
  const tm::MetricId as_counter = tm::counter("test.kind_clash");
  const tm::MetricId as_gauge = tm::gauge_max("test.kind_clash");
  ASSERT_TRUE(as_counter.valid());
  EXPECT_FALSE(as_gauge.valid());
  // Recording through the invalid id must be a harmless no-op.
  tm::gauge_update_max(as_gauge, 42.0);
  tm::add(as_counter, 3);
  EXPECT_EQ(tm::counter_value(as_counter), 3U);
}

TEST_F(TelemetryTest, DefaultConstructedIdIsInvalidNoOp) {
  const tm::MetricId id{};
  EXPECT_FALSE(id.valid());
  tm::add(id);
  tm::record(id, 1.0);
  EXPECT_EQ(tm::counter_value(id), 0U);
}

// --- recording & merge -----------------------------------------------------

TEST_F(TelemetryTest, DisabledRecordingIsANoOp) {
  const tm::MetricId id = tm::counter("test.disabled");
  tm::set_metrics_enabled(false);
  tm::add(id, 100);
  EXPECT_EQ(tm::counter_value(id), 0U);
  tm::set_metrics_enabled(true);
  tm::add(id, 1);
  EXPECT_EQ(tm::counter_value(id), 1U);
}

TEST_F(TelemetryTest, CounterSumsAcrossThreads) {
  const tm::MetricId id = tm::counter("test.cross_thread");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([id] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) tm::add(id);
    });
  }
  for (auto& t : threads) t.join();
  // Retired threads' shards stay visible to the merged sum.
  EXPECT_EQ(tm::counter_value(id), kThreads * kPerThread);
}

TEST_F(TelemetryTest, HistogramBucketsMinMaxAndOverflow) {
  const tm::MetricId id =
      tm::histogram("test.hist", {1.0, 10.0, 100.0});
  tm::record(id, 0.5);    // le 1
  tm::record(id, 1.0);    // le 1 (inclusive upper bound)
  tm::record(id, 7.0);    // le 10
  tm::record(id, 1000.0); // +inf overflow

  const tm::MetricsSnapshot snap = tm::collect_metrics();
  const auto it = std::find_if(
      snap.metrics.begin(), snap.metrics.end(),
      [](const tm::MetricSnapshot& m) { return m.name == "test.hist"; });
  ASSERT_NE(it, snap.metrics.end());
  EXPECT_EQ(it->hist.count, 4U);
  EXPECT_DOUBLE_EQ(it->hist.min, 0.5);
  EXPECT_DOUBLE_EQ(it->hist.max, 1000.0);
  ASSERT_EQ(it->hist.bucket_counts.size(), 4U);
  EXPECT_EQ(it->hist.bucket_counts[0], 2U);
  EXPECT_EQ(it->hist.bucket_counts[1], 1U);
  EXPECT_EQ(it->hist.bucket_counts[2], 0U);
  EXPECT_EQ(it->hist.bucket_counts[3], 1U);
}

TEST_F(TelemetryTest, GaugeTracksMaxAcrossThreads) {
  const tm::MetricId id = tm::gauge_max("test.gauge");
  std::thread low([id] { tm::gauge_update_max(id, 3.0); });
  std::thread high([id] { tm::gauge_update_max(id, 9.0); });
  low.join();
  high.join();
  tm::gauge_update_max(id, 5.0);

  const tm::MetricsSnapshot snap = tm::collect_metrics();
  const auto it = std::find_if(
      snap.metrics.begin(), snap.metrics.end(),
      [](const tm::MetricSnapshot& m) { return m.name == "test.gauge"; });
  ASSERT_NE(it, snap.metrics.end());
  EXPECT_TRUE(it->gauge_seen);
  EXPECT_DOUBLE_EQ(it->gauge, 9.0);
}

// --- JSONL serialization ---------------------------------------------------

TEST_F(TelemetryTest, JsonlNonFiniteValuesSerializeAsNull) {
  const tm::MetricId gauge = tm::gauge_max("test.nonfinite_gauge");
  tm::gauge_update_max(gauge, std::numeric_limits<double>::quiet_NaN());
  const tm::MetricId hist = tm::histogram("test.nonfinite_hist", {1.0});
  tm::record(hist, std::numeric_limits<double>::infinity());

  const std::string jsonl = tm::to_jsonl(tm::collect_metrics());
  const std::string gauge_line = jsonl_line(jsonl, "test.nonfinite_gauge");
  ASSERT_FALSE(gauge_line.empty());
  EXPECT_NE(gauge_line.find("\"value\":null"), std::string::npos);
  EXPECT_TRUE(JsonValidator(gauge_line).valid()) << gauge_line;

  const std::string hist_line = jsonl_line(jsonl, "test.nonfinite_hist");
  ASSERT_FALSE(hist_line.empty());
  // +inf landed in the overflow bucket; min == max == inf exports as null.
  EXPECT_NE(hist_line.find("\"max\":null"), std::string::npos);
  EXPECT_NE(hist_line.find("\"counts\":[0,1]"), std::string::npos);
  EXPECT_TRUE(JsonValidator(hist_line).valid()) << hist_line;
}

TEST_F(TelemetryTest, JsonlEscapesMetricNames) {
  const tm::MetricId id = tm::counter("test.\"quoted\\name\"\twith\ncontrol");
  tm::add(id);
  const std::string jsonl = tm::to_jsonl(tm::collect_metrics());
  std::istringstream lines(jsonl);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonValidator(line).valid()) << line;
    if (line.find("\\\"quoted\\\\name\\\"") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << jsonl;
}

TEST_F(TelemetryTest, EmptyRegistryStillEmitsValidJsonlLines) {
  // Freshly reset: every registered metric is zero. Each line must still be
  // parseable (zero-count histograms use null min/max).
  const std::string jsonl = tm::to_jsonl(tm::collect_metrics());
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonValidator(line).valid()) << line;
  }
}

// --- Chrome trace export ---------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceIsStructurallyValid) {
  tm::set_tracing_enabled(true);
  tm::set_thread_name("test-main");
  {
    tm::ScopedTimer span("test.span", "test");
    span.arg("step", 7);
    tm::instant_event(
        "test.instant", "test",
        tm::TraceArgs{}.integer("k", 1).text("why", "be\"cause\\").take());
  }
  std::ostringstream out;
  tm::write_chrome_trace(out);
  const std::string trace = out.str();

  ASSERT_TRUE(JsonValidator(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);  // thread_name
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(trace.find("\"name\":\"test.span\""), std::string::npos);
  EXPECT_NE(trace.find("\"step\":7"), std::string::npos);
}

TEST_F(TelemetryTest, PoolsWithTelemetryOffRegisterNoShard) {
  // Every pool worker names itself; with telemetry off that must not
  // register a shard, which is never freed (a campaign builds a pool per
  // pass, so each pass would otherwise grow the process).
  tm::set_metrics_enabled(false);
  tm::set_tracing_enabled(false);
  const std::size_t shards_before = tm::shard_count_for_testing();
  for (int pass = 0; pass < 8; ++pass) {
    runtime::ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int task = 0; task < 16; ++task) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 16);
  }
  EXPECT_EQ(tm::shard_count_for_testing(), shards_before);
}

TEST_F(TelemetryTest, ThreadNamedWhileOffExportsItsNameOnceTracing) {
  tm::set_metrics_enabled(false);
  tm::set_tracing_enabled(false);
  const std::size_t shards_before = tm::shard_count_for_testing();
  std::latch named(1);
  std::latch enabled(1);
  std::thread worker([&] {
    tm::set_thread_name("named-while-off");
    named.count_down();
    enabled.wait();
    tm::ScopedTimer span("test.after_enable", "test");
  });
  named.wait();
  EXPECT_EQ(tm::shard_count_for_testing(), shards_before);
  tm::set_tracing_enabled(true);
  enabled.count_down();
  worker.join();

  EXPECT_EQ(tm::shard_count_for_testing(), shards_before + 1);
  std::ostringstream out;
  tm::write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"name\":\"named-while-off\""), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("test.after_enable"), std::string::npos);
}

TEST_F(TelemetryTest, FineEventsSuppressedAtCoarseDetail) {
  tm::set_tracing_enabled(true);
  tm::set_trace_detail(tm::TraceDetail::kCoarse);
  tm::instant_event("test.fine", "test", {}, tm::TraceDetail::kFine);
  tm::instant_event("test.coarse", "test", {}, tm::TraceDetail::kCoarse);
  std::ostringstream out;
  tm::write_chrome_trace(out);
  EXPECT_EQ(out.str().find("test.fine"), std::string::npos);
  EXPECT_NE(out.str().find("test.coarse"), std::string::npos);
}

TEST_F(TelemetryTest, SwitchesAreIndependent) {
  tm::set_metrics_enabled(false);
  tm::set_trace_detail(tm::TraceDetail::kFine);
  tm::set_tracing_enabled(true);
  EXPECT_FALSE(tm::metrics_enabled());
  EXPECT_TRUE(tm::tracing_enabled());
  EXPECT_EQ(tm::trace_detail(), tm::TraceDetail::kFine);
  tm::set_tracing_enabled(false);
  tm::set_metrics_enabled(true);
  EXPECT_TRUE(tm::metrics_enabled());
  EXPECT_FALSE(tm::tracing_enabled());
  EXPECT_EQ(tm::trace_detail(), tm::TraceDetail::kFine);
  tm::set_trace_detail(tm::TraceDetail::kCoarse);
  EXPECT_EQ(tm::trace_detail(), tm::TraceDetail::kCoarse);
  EXPECT_TRUE(tm::metrics_enabled());
}

radar::RadarMeasurement one_radar_epoch() {
  radar::RadarProcessorConfig cfg;
  cfg.estimator = radar::BeatEstimator::kPeriodogram;
  radar::RadarProcessor receiver(cfg, 3);
  radar::EchoScene scene;
  scene.noise_power_w = cfg.noise_floor_w;
  scene.echoes.push_back(radar::EchoComponent{
      .distance_m = units::Meters{50.0},
      .range_rate_mps = units::MetersPerSecond{-2.0},
      .power_w = 1e-10,
  });
  return receiver.measure(scene);
}

bool same_bits(const radar::RadarMeasurement& a,
               const radar::RadarMeasurement& b) {
  return std::memcmp(&a.estimate, &b.estimate, sizeof a.estimate) == 0 &&
         std::memcmp(&a.beats, &b.beats, sizeof a.beats) == 0 &&
         std::memcmp(&a.rx_power_w, &b.rx_power_w, sizeof(double)) == 0 &&
         std::memcmp(&a.peak_to_average, &b.peak_to_average,
                     sizeof(double)) == 0 &&
         a.coherent_echo == b.coherent_echo && a.power_alarm == b.power_alarm;
}

std::uint64_t histogram_count(const tm::MetricsSnapshot& snap,
                              const std::string& name) {
  for (const tm::MetricSnapshot& m : snap.metrics) {
    if (m.name == name) return m.hist.count;
  }
  return 0;
}

TEST_F(TelemetryTest, RadarStagesAreFineSpansInsideTheEpoch) {
  tm::set_metrics_enabled(false);
  const radar::RadarMeasurement untraced = one_radar_epoch();

  tm::set_metrics_enabled(true);
  tm::set_tracing_enabled(true);
  tm::set_trace_detail(tm::TraceDetail::kCoarse);
  EXPECT_TRUE(same_bits(one_radar_epoch(), untraced));
  std::ostringstream coarse;
  tm::write_chrome_trace(coarse);
  EXPECT_EQ(coarse.str().find("radar.synthesize"), std::string::npos);

  tm::reset_for_testing();
  tm::set_trace_detail(tm::TraceDetail::kFine);
  EXPECT_TRUE(same_bits(one_radar_epoch(), untraced));
  std::ostringstream fine;
  tm::write_chrome_trace(fine);
  const std::string trace = fine.str();
  ASSERT_TRUE(JsonValidator(trace).valid());
  for (const char* span :
       {"radar.measure", "radar.synthesize", "radar.estimate"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << span;
  }
  const tm::MetricsSnapshot snap = tm::collect_metrics();
  EXPECT_EQ(histogram_count(snap, "radar.measure_ns"), 1U);
  EXPECT_EQ(histogram_count(snap, "radar.synthesize_ns"), 1U);
  EXPECT_EQ(histogram_count(snap, "radar.estimate_ns"), 1U);
}

// --- campaign integration --------------------------------------------------

runtime::CampaignSpec small_campaign() {
  runtime::CampaignSpec spec;
  spec.base.horizon_steps = 60;
  spec.base.estimator = radar::BeatEstimator::kPeriodogram;
  spec.trials = 4;
  spec.seed = 7;
  return spec;
}

// The determinism contract: deterministic-tagged metrics merged over all
// shards are a pure function of the campaign spec, independent of --jobs.
TEST_F(TelemetryTest, MergedDeterministicMetricsIdenticalAtJobs1And4) {
  const runtime::Campaign campaign(small_campaign());

  campaign.run(1);
  const std::string jobs1 =
      tm::to_jsonl(tm::collect_metrics(), /*deterministic_only=*/true);

  tm::reset_for_testing();
  campaign.run(4);
  const std::string jobs4 =
      tm::to_jsonl(tm::collect_metrics(), /*deterministic_only=*/true);

  EXPECT_FALSE(jobs1.empty());
  EXPECT_EQ(jobs1, jobs4);
  // Sanity: the campaign actually recorded work.
  EXPECT_NE(jobs1.find("\"name\":\"campaign.trials\""), std::string::npos);
  EXPECT_NE(jobs1.find("\"value\":4"), std::string::npos);
}

// Every scene runs its followers through one core::Follower chain, so every
// follower's controller call is timed: a 3-vehicle platoon records two
// control.step_ns samples per step, the pair one. Recording them moves no
// bit of the trial JSONL.
TEST_F(TelemetryTest, EveryFollowerStepIsTimed) {
  const auto run = [](const std::string& platoon, bool record) {
    runtime::CampaignSpec spec = small_campaign();
    spec.trials = 1;
    spec.base.platoon_spec = platoon;
    tm::reset_for_testing();
    tm::set_metrics_enabled(record);
    tm::set_tracing_enabled(record);
    tm::set_trace_detail(record ? tm::TraceDetail::kFine
                                : tm::TraceDetail::kCoarse);
    std::ostringstream records;
    runtime::JsonlWriter writer(records);
    std::vector<runtime::TrialSink*> sinks{&writer};
    runtime::Campaign(spec).run(1, sinks);
    return std::make_pair(
        records.str(), histogram_count(tm::collect_metrics(), "control.step_ns"));
  };
  for (const auto& [platoon, followers] :
       {std::make_pair(std::string(""), 1U), std::make_pair(std::string("n=3"), 2U)}) {
    const auto [quiet, quiet_count] = run(platoon, false);
    const auto [traced, count] = run(platoon, true);
    EXPECT_EQ(quiet_count, 0U) << platoon;
    EXPECT_EQ(count, 60U * followers) << platoon;
    EXPECT_FALSE(quiet.empty());
    EXPECT_EQ(traced, quiet) << platoon;
  }
}

// Degenerate campaign: zero trials. The summary must stay finite and the
// metrics/JSONL exports must stay well-formed.
TEST_F(TelemetryTest, EmptyCampaignProducesFiniteSummaryAndValidJsonl) {
  runtime::CampaignSpec spec = small_campaign();
  spec.trials = 0;
  const runtime::Campaign campaign(spec);
  // A 0-trial campaign never reaches the lazy call-site registration inside
  // run_trial; registering up front (idempotent) pins the exported line.
  tm::counter("campaign.trials");

  std::ostringstream records;
  runtime::JsonlWriter writer(records);
  std::vector<runtime::TrialSink*> sinks{&writer};
  const runtime::CampaignResult result = campaign.run(2, sinks);

  EXPECT_EQ(result.trials, 0U);
  EXPECT_EQ(result.summary.trials, 0U);
  EXPECT_EQ(records.str(), "");
  EXPECT_TRUE(std::isfinite(result.summary.collision_rate));
  EXPECT_TRUE(std::isfinite(result.summary.latency_mean_s.value()));
  EXPECT_TRUE(std::isfinite(result.summary.min_gap_mean_m.value()));
  const std::string text = runtime::format_summary(result.summary);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;

  const std::string jsonl = tm::to_jsonl(tm::collect_metrics());
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(JsonValidator(line).valid()) << line;
  }
  const std::string trials_line = jsonl_line(jsonl, "campaign.trials");
  ASSERT_FALSE(trials_line.empty());
  EXPECT_NE(trials_line.find("\"value\":0"), std::string::npos);
}

}  // namespace
