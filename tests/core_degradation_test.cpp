// Tests for the graceful-degradation manager: measurement validation,
// innovation gating, holdover budget / DEGRADED_SAFE_STOP, dropout bridging,
// and the HealthMonitor state machine itself.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const cra::ChallengeSchedule> schedule_with(
    std::vector<std::int64_t> steps) {
  return std::make_shared<cra::FixedChallengeSchedule>(std::move(steps));
}

SafeMeasurementPipeline make_pipeline(
    std::shared_ptr<const cra::ChallengeSchedule> schedule,
    const PipelineOptions& options = {}) {
  return SafeMeasurementPipeline(
      std::move(schedule), std::make_unique<estimation::RlsArPredictor>(),
      std::make_unique<estimation::RlsArPredictor>(), options);
}

radar::RadarMeasurement echo_measurement(double d, double dv) {
  radar::RadarMeasurement m;
  m.estimate = radar::RangeRate{.distance_m = Meters{d},
                                .range_rate_mps = MetersPerSecond{dv}};
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
  return m;
}

double ramp(std::int64_t k) { return 100.0 - 0.5 * static_cast<double>(k); }

/// Raw-double shim over the typed HealthMonitor::validate signature.
HealthMonitor::Verdict validate(HealthMonitor& hm, double d, double v) {
  return hm.validate(Meters{d}, MetersPerSecond{v}, false, Meters{0.0},
                     MetersPerSecond{0.0});
}

TEST(HealthMonitor, ValidatesFinitenessAndRange) {
  HealthMonitor hm;
  using V = HealthMonitor::Verdict;
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kAccept);
  EXPECT_EQ(validate(hm, kNan, -2.0), V::kRejectNonFinite);
  EXPECT_EQ(validate(hm, 80.0, kInf), V::kRejectNonFinite);
  EXPECT_EQ(validate(hm, -3.0, 0.0), V::kRejectRange);
  EXPECT_EQ(validate(hm, 5000.0, 0.0), V::kRejectRange);
  EXPECT_EQ(validate(hm, 80.0, 400.0), V::kRejectRange);
  EXPECT_EQ(hm.stats().rejected_nonfinite, 2u);
  EXPECT_EQ(hm.stats().rejected_out_of_range, 3u);
}

TEST(HealthMonitor, PredictionOkRejectsDivergedFreeRuns) {
  HealthMonitor hm;
  EXPECT_TRUE(hm.prediction_ok(Meters{50.0}, MetersPerSecond{-3.0}));
  EXPECT_FALSE(hm.prediction_ok(Meters{kNan}, MetersPerSecond{-3.0}));
  EXPECT_FALSE(hm.prediction_ok(Meters{50.0}, MetersPerSecond{kInf}));
  EXPECT_FALSE(hm.prediction_ok(Meters{1e9}, MetersPerSecond{0.0}));
  EXPECT_FALSE(hm.prediction_ok(Meters{50.0}, MetersPerSecond{900.0}));
}

TEST(HealthMonitor, HoldoverBudgetLatchesSafeStop) {
  HealthOptions o;
  o.max_holdover_steps = 3;
  HealthMonitor hm(o);
  for (int i = 0; i < 3; ++i) hm.note_holdover_step();
  EXPECT_FALSE(hm.safe_stop());  // budget allows exactly 3
  hm.note_holdover_step();
  EXPECT_TRUE(hm.safe_stop());
  EXPECT_EQ(hm.stats().safe_stop_entries, 1u);
  // A trusted sample mid-attack resets the run but keeps the latch.
  hm.note_trusted_sample(/*attack_over=*/false);
  EXPECT_TRUE(hm.safe_stop());
  EXPECT_EQ(hm.holdover_steps(), 0u);
  // Only a trusted sample after the attack clears releases it.
  hm.note_trusted_sample(/*attack_over=*/true);
  EXPECT_FALSE(hm.safe_stop());
}

TEST(HealthMonitor, UnboundedBudgetNeverStops) {
  HealthMonitor hm;  // max_holdover_steps = 0
  for (int i = 0; i < 10'000; ++i) hm.note_holdover_step();
  EXPECT_FALSE(hm.safe_stop());
}

TEST(DegradationState, NamesAreStable) {
  EXPECT_STREQ(to_string(DegradationState::kClean), "clean");
  EXPECT_STREQ(to_string(DegradationState::kUnderAttack), "under-attack");
  EXPECT_STREQ(to_string(DegradationState::kHoldover), "holdover");
  EXPECT_STREQ(to_string(DegradationState::kSafeStop), "safe-stop");
}

TEST(Degradation, NanMeasurementNeverPropagates) {
  auto p = make_pipeline(schedule_with({100}));
  for (std::int64_t k = 0; k < 12; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  // Coherent echo carrying NaN: the worst case for a consumer that trusts
  // the coherent flag alone.
  const auto safe = p.process(12, echo_measurement(kNan, kNan));
  EXPECT_TRUE(safe.measurement_rejected);
  EXPECT_TRUE(safe.target_present);
  EXPECT_TRUE(safe.estimated);
  EXPECT_TRUE(std::isfinite(safe.distance_m.value()));
  EXPECT_TRUE(std::isfinite(safe.relative_velocity_mps.value()));
  EXPECT_NEAR(safe.distance_m.value(), ramp(12), 2.0);
  EXPECT_EQ(safe.degradation, DegradationState::kHoldover);
  EXPECT_EQ(p.health_stats().rejected_nonfinite, 1u);
}

TEST(Degradation, NanBeforeAnyTargetReportsNoTarget) {
  auto p = make_pipeline(schedule_with({100}));
  const auto safe = p.process(0, echo_measurement(kInf, 0.0));
  EXPECT_TRUE(safe.measurement_rejected);
  EXPECT_FALSE(safe.target_present);
  EXPECT_TRUE(std::isfinite(safe.distance_m.value()));
}

TEST(Degradation, OutOfRangeMeasurementIsQuarantined) {
  auto p = make_pipeline(schedule_with({100}));
  for (std::int64_t k = 0; k < 12; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  const auto safe = p.process(12, echo_measurement(4000.0, -0.5));
  EXPECT_TRUE(safe.measurement_rejected);
  EXPECT_NEAR(safe.distance_m.value(), ramp(12), 2.0);
  EXPECT_EQ(p.health_stats().rejected_out_of_range, 1u);
}

TEST(Degradation, InnovationGateQuarantinesStealthJump) {
  PipelineOptions opts;
  opts.health.innovation_threshold = 25.0;
  auto p = make_pipeline(schedule_with({200}), opts);
  for (std::int64_t k = 0; k < 40; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  // A +30 m teleport while staying coherent and in-range: only the
  // innovation gate can catch it.
  const auto safe = p.process(40, echo_measurement(ramp(40) + 30.0, -0.5));
  EXPECT_TRUE(safe.measurement_rejected);
  EXPECT_TRUE(safe.estimated);
  EXPECT_NEAR(safe.distance_m.value(), ramp(40), 3.0);
  EXPECT_EQ(safe.degradation, DegradationState::kHoldover);
  EXPECT_GE(p.health_stats().rejected_innovation, 1u);
}

TEST(Degradation, HoldoverBudgetEntersSafeStopUnderPersistentAttack) {
  PipelineOptions opts;
  opts.health.max_holdover_steps = 5;
  auto p = make_pipeline(schedule_with({20, 60}), opts);
  for (std::int64_t k = 0; k < 20; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  const auto detect = p.process(20, jammed_measurement());
  EXPECT_TRUE(detect.attack_started);
  EXPECT_EQ(detect.degradation, DegradationState::kUnderAttack);

  SafeMeasurement last{};
  for (std::int64_t k = 21; k <= 30; ++k) {
    last = p.process(k, jammed_measurement());
  }
  // 10 estimated steps > budget of 5: the machine must have latched.
  EXPECT_TRUE(last.safe_stop);
  EXPECT_EQ(last.degradation, DegradationState::kSafeStop);
  EXPECT_GT(last.holdover_steps, 5u);
  EXPECT_EQ(p.health_stats().safe_stop_entries, 1u);
}

TEST(Degradation, SafeStopReleasesAfterClearanceAndTrustedSample) {
  PipelineOptions opts;
  opts.health.max_holdover_steps = 3;
  auto p = make_pipeline(schedule_with({20, 40}), opts);
  for (std::int64_t k = 0; k < 20; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  p.process(20, jammed_measurement());
  for (std::int64_t k = 21; k < 40; ++k) {
    const auto s = p.process(k, jammed_measurement());
    if (k > 24) {
      EXPECT_TRUE(s.safe_stop) << "k=" << k;
    }
  }
  const auto cleared = p.process(40, silent_measurement());
  EXPECT_TRUE(cleared.attack_cleared);
  // Clearance alone keeps the latch: estimates are still stale.
  EXPECT_TRUE(cleared.safe_stop);
  const auto trusted = p.process(41, echo_measurement(ramp(41), -0.5));
  EXPECT_FALSE(trusted.safe_stop);
  EXPECT_EQ(trusted.degradation, DegradationState::kClean);
  EXPECT_EQ(trusted.holdover_steps, 0u);
}

TEST(Degradation, DropoutBridgingHoldsTargetBriefly) {
  PipelineOptions opts;
  opts.health.dropout_holdover_steps = 3;
  auto p = make_pipeline(schedule_with({200}), opts);
  for (std::int64_t k = 0; k < 15; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  // Three silent epochs are bridged with estimates...
  for (std::int64_t k = 15; k < 18; ++k) {
    const auto s = p.process(k, silent_measurement());
    EXPECT_TRUE(s.target_present) << "k=" << k;
    EXPECT_TRUE(s.estimated) << "k=" << k;
    EXPECT_NEAR(s.distance_m.value(), ramp(k), 2.0) << "k=" << k;
  }
  // ...the fourth declares the target lost.
  const auto lost = p.process(18, silent_measurement());
  EXPECT_FALSE(lost.target_present);
  EXPECT_EQ(p.health_stats().bridged_dropouts, 3u);
  // A returning echo resumes pass-through cleanly.
  const auto back = p.process(19, echo_measurement(ramp(19), -0.5));
  EXPECT_TRUE(back.target_present);
  EXPECT_FALSE(back.estimated);
}

TEST(Degradation, LegacyDefaultsDropTargetImmediately) {
  auto p = make_pipeline(schedule_with({200}));
  for (std::int64_t k = 0; k < 15; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  const auto s = p.process(15, silent_measurement());
  EXPECT_FALSE(s.target_present);  // paper behaviour: no bridging
  EXPECT_EQ(p.health_stats().bridged_dropouts, 0u);
}

TEST(HealthMonitor, FrozenStreamIsQuarantinedAfterIdenticalRun) {
  // Stuck-at faults repeat the last frame exactly; their innovation is zero,
  // so the frozen-stream check is the only detector that can see them.
  HealthOptions o;
  o.max_identical_measurements = 3;
  HealthMonitor hm{o};
  using V = HealthMonitor::Verdict;
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kAccept);
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kAccept);
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kAccept);
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kRejectStuck);
  EXPECT_EQ(validate(hm, 80.0, -2.0), V::kRejectStuck);
  EXPECT_EQ(hm.stats().rejected_stuck, 2u);
  // Any change on either channel clears the run.
  EXPECT_EQ(validate(hm, 79.5, -2.0), V::kAccept);
  EXPECT_EQ(validate(hm, 79.5, -2.0), V::kAccept);
}

TEST(HealthMonitor, FrozenStreamCheckOffByDefault) {
  HealthMonitor hm;  // paper defaults: repeats are legal
  using V = HealthMonitor::Verdict;
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(validate(hm, 80.0, -2.0), V::kAccept);
  }
  EXPECT_EQ(hm.stats().rejected_stuck, 0u);
}

TEST(Degradation, StuckMeasurementsForceHoldover) {
  PipelineOptions opts;
  opts.health.max_identical_measurements = 3;
  auto p = make_pipeline(schedule_with({}), opts);
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  // Stream freezes at the k = 9 frame.
  SafeMeasurement last;
  for (std::int64_t k = 10; k < 20; ++k) {
    last = p.process(k, echo_measurement(ramp(9), -0.5));
  }
  EXPECT_TRUE(last.measurement_rejected);
  EXPECT_EQ(last.degradation, DegradationState::kHoldover);
  EXPECT_GT(p.health_stats().rejected_stuck, 0u);
}

TEST(Degradation, HardenedOptionsEnableEverything) {
  const PipelineOptions o = hardened_pipeline_options(42);
  EXPECT_GT(o.health.innovation_threshold, 0.0);
  EXPECT_EQ(o.health.max_holdover_steps, 42u);
  EXPECT_GT(o.health.dropout_holdover_steps, 0u);
  EXPECT_GT(o.health.max_identical_measurements, 0u);
  EXPECT_GE(o.detector.clear_after_silent_challenges, 2u);
  // And the paper defaults leave all of it off.
  const PipelineOptions paper{};
  EXPECT_EQ(paper.health.innovation_threshold, 0.0);
  EXPECT_EQ(paper.health.max_holdover_steps, 0u);
  EXPECT_EQ(paper.health.dropout_holdover_steps, 0u);
  EXPECT_EQ(paper.health.max_identical_measurements, 0u);
  EXPECT_EQ(paper.detector.clear_after_silent_challenges, 1u);
}

TEST(Degradation, ResetClearsMachine) {
  PipelineOptions opts;
  opts.health.max_holdover_steps = 2;
  auto p = make_pipeline(schedule_with({10}), opts);
  for (std::int64_t k = 0; k < 10; ++k) {
    p.process(k, echo_measurement(ramp(k), -0.5));
  }
  p.process(10, jammed_measurement());
  for (std::int64_t k = 11; k < 20; ++k) p.process(k, jammed_measurement());
  EXPECT_EQ(p.degradation(), DegradationState::kSafeStop);
  p.reset();
  EXPECT_EQ(p.degradation(), DegradationState::kClean);
  EXPECT_EQ(p.health_stats().safe_stop_entries, 0u);
}

}  // namespace
}  // namespace safe::core
