// Tests for the src/runtime/ campaign engine: seed derivation, the
// work-stealing pool, spec parsing, sinks, and — the load-bearing property —
// bit-identical campaign output regardless of thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/campaign.hpp"
#include "runtime/seed.hpp"
#include "runtime/sink.hpp"
#include "runtime/spec.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace safe;
using namespace safe::runtime;

// --- seeds -----------------------------------------------------------------

// The derivation scheme is frozen: recorded campaign goldens embed these
// values, so changing the mixer silently invalidates every recorded run.
TEST(SeedDerivation, GoldenValuesAreFrozen) {
  EXPECT_EQ(derive_seed(42, SeedStream::kScenario, 0),
            6332618229526065668ULL);
  EXPECT_EQ(derive_seed(42, SeedStream::kScenario, 1),
            17630415256238047317ULL);
  EXPECT_EQ(derive_seed(42, SeedStream::kParams, 0),
            18201609923829866926ULL);
  EXPECT_EQ(derive_seed(7, SeedStream::kParams, 123),
            11073459727256996185ULL);
}

TEST(SeedDerivation, StreamsAndCountersNeverCollide) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t trial = 0; trial < 2000; ++trial) {
    seen.insert(derive_seed(1, SeedStream::kScenario, trial));
    seen.insert(derive_seed(1, SeedStream::kParams, trial));
  }
  EXPECT_EQ(seen.size(), 4000U);
}

TEST(SeedDerivation, UniformDoubleStaysInUnitInterval) {
  SplitMix64 rng(123);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform_double(rng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);  // actually explores the interval
  EXPECT_GT(hi, 0.99);
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1000);
  }
}

TEST(ThreadPool, BoundedQueuesApplyBackpressureWithoutLosingTasks) {
  std::atomic<int> count{0};
  {
    // Tiny queues + slow-ish tasks: submit must block, not drop.
    ThreadPool pool(2, /*queue_capacity=*/2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        count.fetch_add(1);
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool drains before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed: the pool keeps working afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

// --- distributions & spec parsing ------------------------------------------

TEST(Distribution, SamplesStayInBounds) {
  SplitMix64 rng(9);
  const Distribution u = Distribution::uniform(10.0, 20.0);
  const Distribution lg = Distribution::log_uniform(0.01, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double a = u.sample(rng);
    ASSERT_GE(a, 10.0);
    ASSERT_LE(a, 20.0);
    const double b = lg.sample(rng);
    ASSERT_GE(b, 0.01);
    ASSERT_LE(b, 1.0);
  }
  EXPECT_DOUBLE_EQ(Distribution::fixed(3.5).sample(rng), 3.5);
}

TEST(Distribution, RejectsImpossibleBounds) {
  EXPECT_THROW(Distribution::uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Distribution::log_uniform(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Distribution::log_uniform(-1.0, 1.0), std::invalid_argument);
}

TEST(SpecParser, ParsesGridsDistributionsAndScalars) {
  const CampaignSpec spec = parse_campaign_spec(
      "# comment line\n"
      "trials = 120\n"
      "seed = 7\n"
      "horizon = 200\n"
      "leader = decel | decel-accel\n"
      "attack = none | dos | delay   # trailing comment\n"
      "onset = uniform(60, 240)\n"
      "duration = uniform(30, 120)\n"
      "jammer_power_w = loguniform(0.01, 1)\n"
      "fault = none | \"dropout:start=60,len=12;nan:start=100,period=40\"\n"
      "estimator = fft\n"
      "hardened = true\n");
  EXPECT_EQ(spec.trials, 120U);
  EXPECT_EQ(spec.seed, 7U);
  EXPECT_EQ(spec.base.horizon_steps, 200);
  EXPECT_EQ(spec.leaders.size(), 2U);
  EXPECT_EQ(spec.attacks.size(), 3U);
  ASSERT_TRUE(spec.attack_onset_s.has_value());
  EXPECT_EQ(spec.attack_onset_s->kind(), Distribution::Kind::kUniform);
  ASSERT_TRUE(spec.jammer_power_w.has_value());
  EXPECT_EQ(spec.jammer_power_w->kind(), Distribution::Kind::kLogUniform);
  ASSERT_EQ(spec.fault_specs.size(), 2U);
  EXPECT_TRUE(spec.fault_specs[0].empty());  // "none" normalizes to empty
  EXPECT_EQ(spec.fault_specs[1],
            "dropout:start=60,len=12;nan:start=100,period=40");
  EXPECT_EQ(spec.base.estimator, radar::BeatEstimator::kPeriodogram);
  EXPECT_GT(spec.base.pipeline.health.max_holdover_steps, 0U);
  EXPECT_EQ(spec.grid_cells(), 2U * 3U * 2U);
}

TEST(SpecParser, SemicolonsSeparateInlineEntries) {
  const CampaignSpec spec =
      parse_campaign_spec("trials = 3; attack = dos; onset = 100");
  EXPECT_EQ(spec.trials, 3U);
  ASSERT_EQ(spec.attacks.size(), 1U);
  EXPECT_EQ(spec.base.attack_start_s.value(), 100.0);
}

TEST(SpecParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_campaign_spec("bogus_key = 3"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("trials"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("trials = abc"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("onset = gaussian(0,1)"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("onset = uniform(10)"),
               std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("attack = evil"), std::invalid_argument);
  EXPECT_THROW(parse_campaign_spec("onset = uniform(240, 60)"),
               std::invalid_argument);
  // Integers take no sign (no wrap to 2^64 - k); numbers must be finite.
  for (const char* text :
       {"trials = -3", "horizon = -3", "seed = -1", "onset = nan"}) {
    EXPECT_THROW(parse_campaign_spec(text), std::invalid_argument) << text;
  }
}

// --- expansion & sinks -----------------------------------------------------

CampaignSpec small_spec() {
  CampaignSpec spec = parse_campaign_spec(
      "trials = 12; seed = 11; horizon = 60\n"
      "attack = none | dos | delay\n"
      "onset = uniform(15, 35); duration = uniform(10, 25)\n"
      "jammer_power_w = loguniform(0.02, 0.5)\n"
      "estimator = fft; hardened = true");
  return spec;
}

TEST(Campaign, ExpansionIsAPureFunctionOfTrialId) {
  const Campaign a(small_spec());
  const Campaign b(small_spec());
  for (std::uint64_t t = 0; t < 12; ++t) {
    TrialRecord ra;
    TrialRecord rb;
    const core::ScenarioOptions oa = a.expand(t, ra);
    const core::ScenarioOptions ob = b.expand(t, rb);
    EXPECT_EQ(oa.seed, ob.seed);
    EXPECT_EQ(oa.attack, ob.attack);
    EXPECT_EQ(oa.attack_start_s.value(), ob.attack_start_s.value());
    EXPECT_EQ(oa.jammer.peak_power_w, ob.jammer.peak_power_w);
    EXPECT_EQ(to_jsonl(ra), to_jsonl(rb));
    // Grid round-robin: trial t lands in cell t % 3.
    const core::AttackKind expected[] = {core::AttackKind::kNone,
                                         core::AttackKind::kDosJammer,
                                         core::AttackKind::kDelayInjection};
    EXPECT_EQ(oa.attack, expected[t % 3]);
  }
}

TEST(Campaign, ScenarioSeedsIndependentOfSampledAxes) {
  // Adding or removing a randomized axis must not disturb the scenario
  // noise seeds of existing trials (separate derivation streams).
  CampaignSpec with = small_spec();
  CampaignSpec without = small_spec();
  without.attack_onset_s.reset();
  without.jammer_power_w.reset();
  const Campaign a(with);
  const Campaign b(without);
  for (std::uint64_t t = 0; t < 12; ++t) {
    TrialRecord ra;
    TrialRecord rb;
    EXPECT_EQ(a.expand(t, ra).seed, b.expand(t, rb).seed) << "trial " << t;
  }
}

TEST(JsonlWriter, EscapesStringsAndEmitsOneObjectPerLine) {
  TrialRecord r;
  r.trial_id = 3;
  r.fault_spec = "dropout:start=60,len=12";
  r.error = "line\nbreak \"quoted\"";
  std::ostringstream out;
  JsonlWriter writer(out);
  writer.consume(r);
  writer.finish();
  const std::string line = out.str();
  EXPECT_NE(line.find("\"trial\":3"), std::string::npos);
  EXPECT_NE(line.find("\"fault\":\"dropout:start=60,len=12\""),
            std::string::npos);
  EXPECT_NE(line.find("line\\nbreak \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

TEST(SummaryAccumulator, MergeMatchesSequentialAccumulation) {
  const Campaign campaign(small_spec());
  std::vector<TrialRecord> records;
  for (std::uint64_t t = 0; t < 12; ++t) {
    TrialRecord r;
    (void)campaign.expand(t, r);
    // Synthesize outcomes so latency/gap/rmse vectors are non-trivial.
    r.min_gap_m = units::Meters{5.0 + static_cast<double>(t)};
    r.holdover_steps = t % 2;
    r.holdover_rmse_m = units::Meters{0.1 * static_cast<double>(t)};
    if (r.attack != core::AttackKind::kNone) {
      r.detection_step = static_cast<std::int64_t>(40 + t);
      r.detection_latency_s = units::Seconds{static_cast<double>(t)};
    }
    r.collided = (t % 5 == 0);
    records.push_back(r);
  }

  SummaryAccumulator sequential;
  for (const auto& r : records) sequential.add(r);

  // Shard by a scheduling-like interleave, then merge in a different order.
  SummaryAccumulator shard_a;
  SummaryAccumulator shard_b;
  SummaryAccumulator shard_c;
  for (std::size_t i = 0; i < records.size(); ++i) {
    (i % 3 == 0   ? shard_a
     : i % 3 == 1 ? shard_b
                  : shard_c)
        .add(records[records.size() - 1 - i]);
  }
  SummaryAccumulator merged;
  merged.merge(shard_c);
  merged.merge(shard_a);
  merged.merge(shard_b);

  EXPECT_EQ(format_summary(sequential.finalize()),
            format_summary(merged.finalize()));
  const CampaignSummary s = merged.finalize();
  EXPECT_EQ(s.trials, 12U);
  EXPECT_EQ(s.collisions, 3U);
  EXPECT_EQ(s.attacked_trials, 8U);
}

// --- the tentpole property: determinism across job counts ------------------

std::string run_campaign_jsonl(const CampaignSpec& spec, std::size_t jobs) {
  std::ostringstream out;
  JsonlWriter writer(out);
  std::vector<TrialSink*> sinks{&writer};
  const Campaign campaign(spec);
  (void)campaign.run(jobs, sinks);
  return out.str();
}

std::string sorted_by_trial_id(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end(), [](const auto& a, const auto& b) {
    const auto id = [](const std::string& s) {
      return std::stoull(s.substr(s.find(':') + 1));
    };
    return id(a) < id(b);
  });
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(Campaign, JsonlOutputIsByteIdenticalAcrossJobCounts) {
  const CampaignSpec spec = small_spec();
  const std::string serial = run_campaign_jsonl(spec, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 12);
  // No trial may have errored: a throwing trial would still be
  // deterministic, but it would mean the spec itself is broken.
  std::size_t clean_trials = 0;
  for (std::size_t pos = serial.find("\"error\":\"\"}");
       pos != std::string::npos;
       pos = serial.find("\"error\":\"\"}", pos + 1)) {
    ++clean_trials;
  }
  EXPECT_EQ(clean_trials, 12U);

  const std::string four = run_campaign_jsonl(spec, 4);
  const std::string hw = run_campaign_jsonl(spec, Campaign::default_jobs());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);
  // Belt and braces: the canonical-sort comparison the goldens use.
  EXPECT_EQ(sorted_by_trial_id(serial), sorted_by_trial_id(four));
  // Sinks already receive records in trial-id order.
  EXPECT_EQ(serial, sorted_by_trial_id(serial));
}

TEST(Campaign, SummaryIsIdenticalAcrossJobCounts) {
  const CampaignSpec spec = small_spec();
  const Campaign campaign(spec);
  const std::string s1 = format_summary(campaign.run(1).summary);
  const std::string s4 = format_summary(campaign.run(4).summary);
  EXPECT_EQ(s1, s4);
}

TEST(Campaign, CustomizeHookAndExplicitSeedsAreHonoured) {
  CampaignSpec spec;
  spec.trials = 3;
  spec.base.horizon_steps = 30;
  spec.base.estimator = radar::BeatEstimator::kPeriodogram;
  spec.scenario_seeds = {101, 202, 303};
  std::atomic<int> customized{0};
  spec.customize = [&customized](core::Scenario&, const TrialRecord&) {
    customized.fetch_add(1);
  };

  std::ostringstream out;
  JsonlWriter writer(out);
  std::vector<TrialSink*> sinks{&writer};
  const CampaignResult result = Campaign(spec).run(2, sinks);
  EXPECT_EQ(result.trials, 3U);
  EXPECT_EQ(customized.load(), 3);
  EXPECT_NE(out.str().find("\"seed\":101"), std::string::npos);
  EXPECT_NE(out.str().find("\"seed\":202"), std::string::npos);
  EXPECT_NE(out.str().find("\"seed\":303"), std::string::npos);
}

TEST(Campaign, TrialExceptionsBecomeRecordErrorsNotCrashes) {
  CampaignSpec spec;
  spec.trials = 4;
  spec.base.horizon_steps = 30;
  spec.base.estimator = radar::BeatEstimator::kPeriodogram;
  // Invalid window: end precedes start -> validate() throws per trial.
  spec.base.attack = core::AttackKind::kDosJammer;
  spec.base.attack_start_s = units::Seconds{50.0};
  spec.base.attack_end_s = units::Seconds{10.0};

  const CampaignResult result = Campaign(spec).run(2);
  EXPECT_EQ(result.summary.trials, 4U);
  EXPECT_EQ(result.summary.errors, 4U);
}

}  // namespace
