// Campaign engine x platoon subsystem: the platoon grid axis, the platoon
// columns of TrialRecord/to_jsonl, the SummaryAccumulator's propagation
// aggregates, and --jobs byte-invariance of platoon trials.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"
#include "runtime/spec.hpp"

namespace safe::runtime {
namespace {

CampaignSpec platoon_spec() {
  CampaignSpec spec = parse_campaign_spec(
      "trials = 8; seed = 7; horizon = 60\n"
      "attack = delay; onset = 20\n"
      "estimator = fft\n"
      "platoon = none | \"n=4,attacked=2\"");
  return spec;
}

TEST(PlatoonCampaign, SpecKeyFormsAGridAxis) {
  const CampaignSpec spec = platoon_spec();
  ASSERT_EQ(spec.platoon_specs.size(), 2u);
  EXPECT_EQ(spec.platoon_specs[0], "");  // `none` normalizes to empty
  EXPECT_EQ(spec.platoon_specs[1], "n=4,attacked=2");
  EXPECT_EQ(spec.grid_cells(), 2u);

  const Campaign campaign(spec);
  for (std::uint64_t t = 0; t < 4; ++t) {
    TrialRecord r;
    const core::ScenarioOptions o = campaign.expand(t, r);
    EXPECT_EQ(o.platoon_spec, spec.platoon_specs[t % 2]) << t;
    EXPECT_EQ(r.platoon_spec, o.platoon_spec) << t;
  }
}

TEST(PlatoonCampaign, SpecParserRejectsBadPlatoonValuesAtParseTime) {
  EXPECT_THROW((void)parse_campaign_spec("platoon = \"n=4,attacked=9\""),
               std::invalid_argument);
  EXPECT_THROW((void)parse_campaign_spec("platoon = bogus"),
               std::invalid_argument);
}

TEST(PlatoonCampaign, AppendingThePlatoonAxisPreservesExistingCells) {
  // The platoon axis unravels last: specs without one must keep their
  // trial-to-parameter mapping when it is added.
  CampaignSpec without = parse_campaign_spec(
      "trials = 6; seed = 3; attack = none | dos | delay; estimator = fft");
  CampaignSpec with = without;
  with.platoon_specs = {""};

  const Campaign a(without);
  const Campaign b(with);
  for (std::uint64_t t = 0; t < 6; ++t) {
    TrialRecord ra;
    TrialRecord rb;
    const core::ScenarioOptions oa = a.expand(t, ra);
    const core::ScenarioOptions ob = b.expand(t, rb);
    EXPECT_EQ(oa.attack, ob.attack) << t;
    EXPECT_EQ(oa.seed, ob.seed) << t;
  }
}

TEST(PlatoonCampaign, JsonlCarriesThePlatoonColumns) {
  TrialRecord r;
  r.platoon_spec = "n=4,attacked=2";
  r.platoon_size = 4;
  r.attacked_index = 2;
  r.shock_depth = 3;
  r.linf_amplification = 1.25;
  r.safe_stop_vehicles = 1;
  r.detected_vehicles = 2;
  const std::string line = to_jsonl(r);
  EXPECT_NE(line.find("\"platoon\":\"n=4,attacked=2\""), std::string::npos);
  EXPECT_NE(line.find("\"platoon_size\":4"), std::string::npos);
  EXPECT_NE(line.find("\"attacked_index\":2"), std::string::npos);
  EXPECT_NE(line.find("\"shock_depth\":3"), std::string::npos);
  EXPECT_NE(line.find("\"linf_amp\":1.25"), std::string::npos);
  EXPECT_NE(line.find("\"safe_stop_vehicles\":1"), std::string::npos);
  EXPECT_NE(line.find("\"detected_vehicles\":2"), std::string::npos);
  // `error` stays the terminal key (tooling relies on it).
  const std::string tail = "\"error\":\"\"}";
  EXPECT_EQ(line.find(tail), line.size() - tail.size());
}

std::vector<TrialRecord> synthetic_platoon_records() {
  std::vector<TrialRecord> records;
  for (std::uint64_t t = 0; t < 10; ++t) {
    TrialRecord r;
    r.trial_id = t;
    if (t % 2 == 1) {  // odd trials are platoon trials
      r.platoon_size = 4;
      r.attacked_index = 1;
      r.shock_depth = t % 3;
      r.linf_amplification = 1.0 + 0.1 * static_cast<double>(t);
      r.safe_stop_vehicles = t % 2;
      r.detected_vehicles = 1;
    }
    r.min_gap_m = units::Meters{4.0 + static_cast<double>(t)};
    records.push_back(r);
  }
  return records;
}

TEST(PlatoonCampaign, SummaryAggregatesThePlatoonColumns) {
  SummaryAccumulator acc;
  for (const TrialRecord& r : synthetic_platoon_records()) acc.add(r);

  const CampaignSummary s = acc.finalize();
  EXPECT_EQ(s.platoon_trials, 5u);
  EXPECT_EQ(s.shock_depth_max, 2u);
  EXPECT_EQ(s.safe_stop_vehicles_total, 5u);
  EXPECT_EQ(s.detected_vehicles_total, 5u);
  EXPECT_DOUBLE_EQ(s.linf_amplification_max, 1.9);
  EXPECT_DOUBLE_EQ(s.linf_amplification_mean,
                   (1.1 + 1.3 + 1.5 + 1.7 + 1.9) / 5.0);
  EXPECT_DOUBLE_EQ(s.shock_depth_mean, (1 + 0 + 2 + 1 + 0) / 5.0);
}

TEST(PlatoonCampaign, ZeroTrialSummaryHasNoPlatoonBlock) {
  const SummaryAccumulator empty;
  const CampaignSummary s = empty.finalize();
  EXPECT_EQ(s.trials, 0u);
  EXPECT_EQ(s.platoon_trials, 0u);
  EXPECT_DOUBLE_EQ(s.shock_depth_mean, 0.0);
  EXPECT_DOUBLE_EQ(s.linf_amplification_max, 0.0);
  EXPECT_EQ(format_summary(s).find("platoon"), std::string::npos);
}

TEST(PlatoonCampaign, PairOnlySummaryHasNoPlatoonBlock) {
  SummaryAccumulator acc;
  TrialRecord r;
  r.min_gap_m = units::Meters{5.0};
  acc.add(r);
  EXPECT_EQ(format_summary(acc.finalize()).find("platoon"),
            std::string::npos);
}

std::string run_jsonl(const CampaignSpec& spec, std::size_t jobs) {
  std::ostringstream out;
  JsonlWriter writer(out);
  std::vector<TrialSink*> sinks{&writer};
  (void)Campaign(spec).run(jobs, sinks);
  return out.str();
}

TEST(PlatoonCampaign, PlatoonTrialsAreByteIdenticalAcrossJobCounts) {
  const CampaignSpec spec = platoon_spec();
  const std::string serial = run_jsonl(spec, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 8);
  // Platoon trials really ran (size stamped) and none of them errored.
  EXPECT_NE(serial.find("\"platoon_size\":4"), std::string::npos);
  std::size_t clean = 0;
  for (std::size_t pos = serial.find("\"error\":\"\"}");
       pos != std::string::npos;
       pos = serial.find("\"error\":\"\"}", pos + 1)) {
    ++clean;
  }
  EXPECT_EQ(clean, 8u);

  EXPECT_EQ(serial, run_jsonl(spec, 3));
}

}  // namespace
}  // namespace safe::runtime
