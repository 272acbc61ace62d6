// Unit tests for SafeMeasurementPipeline (Algorithm 2 glue).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {
namespace {

std::shared_ptr<const cra::ChallengeSchedule> schedule_with(
    std::vector<std::int64_t> steps) {
  return std::make_shared<cra::FixedChallengeSchedule>(std::move(steps));
}

SafeMeasurementPipeline make_pipeline(
    std::shared_ptr<const cra::ChallengeSchedule> schedule) {
  return SafeMeasurementPipeline(
      std::move(schedule), std::make_unique<estimation::RlsArPredictor>(),
      std::make_unique<estimation::RlsArPredictor>());
}

radar::RadarMeasurement echo_measurement(double d, double dv) {
  radar::RadarMeasurement m;
  m.estimate = radar::RangeRate{.distance_m = units::Meters{d},
                                .range_rate_mps = units::MetersPerSecond{dv}};
  m.coherent_echo = true;
  m.peak_to_average = 500.0;
  return m;
}

radar::RadarMeasurement silent_measurement() {
  radar::RadarMeasurement m;
  m.coherent_echo = false;
  m.power_alarm = false;
  return m;
}

radar::RadarMeasurement jammed_measurement() {
  radar::RadarMeasurement m;
  m.coherent_echo = false;
  m.power_alarm = true;
  m.estimate = radar::RangeRate{.distance_m = units::Meters{999.0},
                                .range_rate_mps = units::MetersPerSecond{50.0}};
  return m;
}

TEST(Pipeline, NullPredictorThrows) {
  EXPECT_THROW(SafeMeasurementPipeline(schedule_with({1}), nullptr,
                                       std::make_unique<estimation::RlsArPredictor>()),
               std::invalid_argument);
}

TEST(Pipeline, ProbeSuppressionFollowsSchedule) {
  auto p = make_pipeline(schedule_with({3, 8}));
  EXPECT_TRUE(p.probe_suppressed(3));
  EXPECT_TRUE(p.probe_suppressed(8));
  EXPECT_FALSE(p.probe_suppressed(4));
}

TEST(Pipeline, PassesThroughCleanMeasurements) {
  auto p = make_pipeline(schedule_with({100}));
  const auto safe = p.process(0, echo_measurement(80.0, -2.0));
  EXPECT_TRUE(safe.target_present);
  EXPECT_FALSE(safe.estimated);
  EXPECT_DOUBLE_EQ(safe.distance_m.value(), 80.0);
  EXPECT_DOUBLE_EQ(safe.relative_velocity_mps.value(), -2.0);
}

TEST(Pipeline, NoTargetWhenNoEcho) {
  auto p = make_pipeline(schedule_with({100}));
  const auto safe = p.process(0, silent_measurement());
  EXPECT_FALSE(safe.target_present);
  EXPECT_FALSE(safe.under_attack);
}

TEST(Pipeline, SilentChallengeStaysClean) {
  auto p = make_pipeline(schedule_with({5}));
  for (std::int64_t k = 0; k < 5; ++k) {
    p.process(k, echo_measurement(100.0 - static_cast<double>(k), -1.0));
  }
  const auto safe = p.process(5, silent_measurement());
  EXPECT_TRUE(safe.challenge_slot);
  EXPECT_FALSE(safe.under_attack);
  // Radar was mute this epoch: the pipeline must still report the target.
  EXPECT_TRUE(safe.target_present);
  EXPECT_TRUE(safe.estimated);
}

TEST(Pipeline, DetectsAttackAtChallenge) {
  auto p = make_pipeline(schedule_with({10}));
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0 - static_cast<double>(k), -1.0));
  }
  const auto safe = p.process(10, jammed_measurement());
  EXPECT_TRUE(safe.attack_started);
  EXPECT_TRUE(safe.under_attack);
  ASSERT_TRUE(p.detection_step().has_value());
  EXPECT_EQ(*p.detection_step(), 10);
}

TEST(Pipeline, HoldsOverWithEstimatesDuringAttack) {
  auto p = make_pipeline(schedule_with({20}));
  for (std::int64_t k = 0; k < 20; ++k) {
    p.process(k, echo_measurement(100.0 - 0.5 * static_cast<double>(k), -0.5));
  }
  p.process(20, jammed_measurement());
  // Corrupted data keeps arriving; outputs must be estimates continuing the
  // pre-attack ramp, not the corrupted 999 m.
  for (std::int64_t k = 21; k < 40; ++k) {
    const auto safe = p.process(k, jammed_measurement());
    EXPECT_TRUE(safe.estimated);
    const double expected = 100.0 - 0.5 * static_cast<double>(k);
    EXPECT_NEAR(safe.distance_m.value(), expected, 2.0) << "k=" << k;
  }
}

TEST(Pipeline, UntrainedPipelineHoldsLastValue) {
  PipelineOptions opts;
  opts.min_training_samples = 50;  // never reached here
  SafeMeasurementPipeline p(schedule_with({4}),
                            std::make_unique<estimation::RlsArPredictor>(),
                            std::make_unique<estimation::RlsArPredictor>(),
                            opts);
  p.process(0, echo_measurement(60.0, -1.5));
  const auto safe = p.process(4, jammed_measurement());
  EXPECT_TRUE(safe.under_attack);
  EXPECT_DOUBLE_EQ(safe.distance_m.value(), 60.0);
  EXPECT_DOUBLE_EQ(safe.relative_velocity_mps.value(), -1.5);
}

TEST(Pipeline, AttackClearsOnSilentChallenge) {
  auto p = make_pipeline(schedule_with({10, 30}));
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0, -1.0));
  }
  p.process(10, jammed_measurement());
  EXPECT_TRUE(p.under_attack());
  const auto safe = p.process(30, silent_measurement());
  EXPECT_TRUE(safe.attack_cleared);
  EXPECT_FALSE(p.under_attack());
}

TEST(Pipeline, ResumesPassThroughAfterClear) {
  auto p = make_pipeline(schedule_with({10, 20}));
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0, -1.0));
  }
  p.process(10, jammed_measurement());
  p.process(20, silent_measurement());  // clears
  const auto safe = p.process(21, echo_measurement(42.0, -0.25));
  EXPECT_FALSE(safe.estimated);
  EXPECT_DOUBLE_EQ(safe.distance_m.value(), 42.0);
}

TEST(Pipeline, EstimatedDistanceNeverNegative) {
  auto p = make_pipeline(schedule_with({30}));
  // Steep closing ramp: free-run would cross zero quickly.
  for (std::int64_t k = 0; k < 30; ++k) {
    p.process(k, echo_measurement(30.0 - static_cast<double>(k), -1.0));
  }
  p.process(30, jammed_measurement());
  for (std::int64_t k = 31; k < 60; ++k) {
    const auto safe = p.process(k, jammed_measurement());
    EXPECT_GE(safe.distance_m, units::Meters{0.0});
  }
}

TEST(Pipeline, ScoredStatsAccumulate) {
  auto p = make_pipeline(schedule_with({5, 10}));
  for (std::int64_t k = 0; k < 5; ++k) {
    p.process_scored(k, echo_measurement(50.0, 0.0), false);
  }
  p.process_scored(5, silent_measurement(), false);   // TN
  p.process_scored(10, jammed_measurement(), true);   // TP
  const auto& stats = p.detection_stats();
  EXPECT_EQ(stats.challenges, 2u);
  EXPECT_EQ(stats.true_negatives, 1u);
  EXPECT_EQ(stats.true_positives, 1u);
  EXPECT_EQ(stats.false_positives, 0u);
  EXPECT_EQ(stats.false_negatives, 0u);
}

TEST(Pipeline, ResetRestoresCleanState) {
  auto p = make_pipeline(schedule_with({5}));
  for (std::int64_t k = 0; k < 5; ++k) {
    p.process(k, echo_measurement(50.0, 0.0));
  }
  p.process(5, jammed_measurement());
  p.reset();
  EXPECT_FALSE(p.under_attack());
  EXPECT_FALSE(p.detection_step().has_value());
  const auto safe = p.process(0, silent_measurement());
  EXPECT_FALSE(safe.target_present);
}

TEST(Pipeline, RollbackQuarantinesPoisonedSamples) {
  // Clean challenge at 20 (snapshot), stealth bias from 21, detecting
  // challenge at 30: the nine biased samples must not leak into the
  // holdover level.
  auto p = make_pipeline(schedule_with({20, 30}));
  for (std::int64_t k = 0; k < 20; ++k) {
    p.process(k, echo_measurement(100.0 - 0.5 * static_cast<double>(k), -0.5));
  }
  p.process(20, silent_measurement());  // snapshot here
  for (std::int64_t k = 21; k < 30; ++k) {
    // Attacker feeds +6 m while staying coherent.
    p.process(k, echo_measurement(
                     100.0 - 0.5 * static_cast<double>(k) + 6.0, -0.5));
  }
  const auto at_detect = p.process(30, jammed_measurement());
  EXPECT_TRUE(at_detect.attack_started);
  // Without rollback the estimate would sit near 91 (85 + 6); with
  // quarantine it continues the clean ramp (~85).
  EXPECT_NEAR(at_detect.distance_m.value(), 100.0 - 0.5 * 30.0, 2.0);
  const auto next = p.process(31, jammed_measurement());
  EXPECT_NEAR(next.distance_m.value(), 100.0 - 0.5 * 31.0, 2.0);
}

TEST(Pipeline, SnapshotRefreshesAtEachCleanChallenge) {
  // Two clean challenges: rollback must restore the state captured at the
  // SECOND one, i.e. samples between 10 and 20 stay in the training set and
  // only the post-20 poison is quarantined.
  auto p = make_pipeline(schedule_with({10, 20, 30}));
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0 - 0.5 * static_cast<double>(k), -0.5));
  }
  p.process(10, silent_measurement());  // snapshot #1
  for (std::int64_t k = 11; k < 20; ++k) {
    p.process(k, echo_measurement(100.0 - 0.5 * static_cast<double>(k), -0.5));
  }
  p.process(20, silent_measurement());  // snapshot #2 replaces #1
  for (std::int64_t k = 21; k < 30; ++k) {
    p.process(k, echo_measurement(
                     100.0 - 0.5 * static_cast<double>(k) + 6.0, -0.5));
  }
  const auto at_detect = p.process(30, jammed_measurement());
  EXPECT_TRUE(at_detect.attack_started);
  // Rolling back to snapshot #1 and replaying nothing would free-run from
  // ~95 m; the refreshed snapshot holds the clean ramp at ~85 m.
  EXPECT_NEAR(at_detect.distance_m.value(), 100.0 - 0.5 * 30.0, 2.0);
}

TEST(Pipeline, RollbackLandsWhereAnUninterruptedHoldoverWouldBe) {
  // The snapshot is taken after the clean challenge's own free-run step, so
  // rolling back at 30 and replaying 21-29 gives the bits of a holdover that
  // free-ran from 20 without interruption.
  std::vector<std::int64_t> mute_from_20;
  for (std::int64_t k = 20; k <= 30; ++k) mute_from_20.push_back(k);
  auto reference = make_pipeline(schedule_with(mute_from_20));
  auto attacked = make_pipeline(schedule_with({20, 30}));
  for (std::int64_t k = 0; k < 20; ++k) {
    const auto echo =
        echo_measurement(100.0 - 0.5 * static_cast<double>(k), -0.5);
    reference.process(k, echo);
    attacked.process(k, echo);
  }
  SafeMeasurement expected;
  for (std::int64_t k = 20; k <= 30; ++k) {
    expected = reference.process(k, silent_measurement());
  }
  attacked.process(20, silent_measurement());
  for (std::int64_t k = 21; k < 30; ++k) {
    attacked.process(k, echo_measurement(60.0, 4.0));
  }
  const auto at_detect = attacked.process(30, jammed_measurement());
  ASSERT_TRUE(at_detect.attack_started);
  EXPECT_EQ(at_detect.distance_m, expected.distance_m);
  EXPECT_EQ(at_detect.relative_velocity_mps, expected.relative_velocity_mps);
}

TEST(Pipeline, DebouncedClearanceIgnoresFlappingJammer) {
  PipelineOptions opts;
  opts.detector.clear_after_silent_challenges = 2;
  SafeMeasurementPipeline p(schedule_with({10, 20, 30, 40, 50}),
                            std::make_unique<estimation::RlsArPredictor>(),
                            std::make_unique<estimation::RlsArPredictor>(),
                            opts);
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0, -0.5));
  }
  p.process(10, jammed_measurement());  // detect
  EXPECT_TRUE(p.under_attack());

  // Flapping jammer: silent at 20, radiating again at 30. With M = 2 the
  // single silent challenge must NOT clear the attack.
  const auto first_silent = p.process(20, silent_measurement());
  EXPECT_FALSE(first_silent.attack_cleared);
  EXPECT_TRUE(p.under_attack());
  p.process(30, jammed_measurement());  // flap back: run resets
  EXPECT_TRUE(p.under_attack());

  // Two consecutive silent challenges finally clear it.
  const auto second_silent = p.process(40, silent_measurement());
  EXPECT_FALSE(second_silent.attack_cleared);
  const auto third_silent = p.process(50, silent_measurement());
  EXPECT_TRUE(third_silent.attack_cleared);
  EXPECT_FALSE(p.under_attack());
}

TEST(Pipeline, DefaultClearanceIsImmediate) {
  auto p = make_pipeline(schedule_with({10, 20}));
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0, -0.5));
  }
  p.process(10, jammed_measurement());
  const auto safe = p.process(20, silent_measurement());
  EXPECT_TRUE(safe.attack_cleared);  // paper behaviour: M = 1
}

/// Free-runs straight to -inf and counts its free-run calls (shared by its
/// clones, so snapshots count too).
class DivergingPredictor final : public estimation::SeriesPredictor {
 public:
  explicit DivergingPredictor(std::shared_ptr<int> calls)
      : calls_(std::move(calls)) {}
  void observe(double) override {}
  double predict_next() override {
    ++*calls_;
    return -std::numeric_limits<double>::infinity();
  }
  void reset() override {}
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<DivergingPredictor>(calls_);
  }
  [[nodiscard]] std::string name() const override { return "diverging"; }

 private:
  std::shared_ptr<int> calls_;
};

TEST(Pipeline, DivergedFreeRunRepeatsLastTrustedValuesAndRetrains) {
  // -inf would clamp to a finite 0 m: the guard must judge the unclamped
  // estimate.
  const auto calls = std::make_shared<int>(0);
  SafeMeasurementPipeline p(schedule_with({10, 11, 20}),
                            std::make_unique<DivergingPredictor>(calls),
                            std::make_unique<estimation::RlsArPredictor>());
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(100.0 - static_cast<double>(k), -1.0));
  }
  const auto diverged = p.process(10, silent_measurement());
  EXPECT_EQ(*calls, 1);
  EXPECT_TRUE(diverged.estimated);
  EXPECT_DOUBLE_EQ(diverged.distance_m.value(), 91.0);
  EXPECT_DOUBLE_EQ(diverged.relative_velocity_mps.value(), -1.0);
  EXPECT_EQ(p.health_stats().predictor_resets, 1u);

  // Retraining from zero: the next holdover repeats the last trusted values
  // without free-running.
  const auto untrained = p.process(11, silent_measurement());
  EXPECT_EQ(*calls, 1);
  EXPECT_TRUE(untrained.estimated);
  EXPECT_DOUBLE_EQ(untrained.distance_m.value(), 91.0);
  EXPECT_DOUBLE_EQ(untrained.relative_velocity_mps.value(), -1.0);
  EXPECT_EQ(p.health_stats().predictor_resets, 1u);

  // Eight trusted samples retrain it; the next holdover free-runs again.
  for (std::int64_t k = 12; k < 20; ++k) {
    p.process(k, echo_measurement(100.0 - static_cast<double>(k), -1.0));
  }
  const auto retrained = p.process(20, silent_measurement());
  EXPECT_EQ(*calls, 2);
  EXPECT_DOUBLE_EQ(retrained.distance_m.value(), 81.0);
  EXPECT_EQ(p.health_stats().predictor_resets, 2u);
}

TEST(Pipeline, DefaultFactoryProducesWorkingPipeline) {
  auto p = make_default_pipeline(schedule_with({8}));
  for (std::int64_t k = 0; k < 8; ++k) {
    p.process(k, echo_measurement(90.0 - static_cast<double>(k), -1.0));
  }
  const auto safe = p.process(8, silent_measurement());
  EXPECT_TRUE(safe.target_present);
  EXPECT_NEAR(safe.distance_m.value(), 82.0, 1.5);
}

}  // namespace
}  // namespace safe::core
