// Platoon simulation: the n=2 degeneracy contract (bit-identical to the
// pair case study, outcome included), attack targeting, multi-target scenes,
// cut-in events, the string-wide collision freeze, and the propagation and
// merged-outcome reductions.
//
// All closed-loop tests use the periodogram estimator for speed; the
// degeneracy contract holds for either estimator because the platoon loop
// replicates the pair loop's RNG draw order exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "platoon/metrics.hpp"
#include "platoon/platoon.hpp"

namespace safe::platoon {
namespace {

core::ScenarioOptions fast_options() {
  core::ScenarioOptions o;
  o.estimator = radar::BeatEstimator::kPeriodogram;
  return o;
}

/// Column pairs that must match exactly between the pair trace and follower
/// 1 of a 2-vehicle platoon. (`attack1` records ground truth while the
/// pair's `under_attack` records the detector's verdict, so it is compared
/// through the detection stats instead.)
const std::pair<const char*, const char*> kPairedColumns[] = {
    {"time_s", "time_s"},
    {"leader_v_mps", "leader_v_mps"},
    {"true_gap_m", "true_gap1_m"},
    {"safe_gap_m", "safe_gap1_m"},
    {"follower_v_mps", "v1_mps"},
    {"follower_a_mps2", "a1_mps2"},
    {"degradation", "degradation1"},
};

/// Every field of two follower outcomes, bit for bit.
void expect_same_outcome(const core::FollowerOutcome& a,
                         const core::FollowerOutcome& b) {
  EXPECT_EQ(a.min_gap_m, b.min_gap_m);
  EXPECT_EQ(a.peak_gap_deviation_m, b.peak_gap_deviation_m);
  EXPECT_EQ(a.holdover_steps, b.holdover_steps);
  EXPECT_EQ(a.holdover_sq_sum_m2, b.holdover_sq_sum_m2);
  EXPECT_EQ(a.degradation_max, b.degradation_max);
  EXPECT_EQ(a.detection_step, b.detection_step);
  EXPECT_EQ(a.detection_stats.challenges, b.detection_stats.challenges);
  EXPECT_EQ(a.detection_stats.true_positives,
            b.detection_stats.true_positives);
  EXPECT_EQ(a.detection_stats.false_positives,
            b.detection_stats.false_positives);
  EXPECT_EQ(a.detection_stats.true_negatives,
            b.detection_stats.true_negatives);
  EXPECT_EQ(a.detection_stats.false_negatives,
            b.detection_stats.false_negatives);
  const core::HealthStats& ha = a.health_stats;
  const core::HealthStats& hb = b.health_stats;
  EXPECT_EQ(ha.rejected_nonfinite, hb.rejected_nonfinite);
  EXPECT_EQ(ha.rejected_out_of_range, hb.rejected_out_of_range);
  EXPECT_EQ(ha.rejected_innovation, hb.rejected_innovation);
  EXPECT_EQ(ha.rejected_stuck, hb.rejected_stuck);
  EXPECT_EQ(ha.innovation_resyncs, hb.innovation_resyncs);
  EXPECT_EQ(ha.predictor_resets, hb.predictor_resets);
  EXPECT_EQ(ha.safe_stop_entries, hb.safe_stop_entries);
  EXPECT_EQ(ha.bridged_dropouts, hb.bridged_dropouts);
  EXPECT_EQ(a.safe_stop_steps, b.safe_stop_steps);
  EXPECT_EQ(a.nonfinite_controller_inputs, b.nonfinite_controller_inputs);
}

void expect_degenerates_to_pair(const core::ScenarioOptions& options) {
  const core::CarFollowingResult pair =
      core::make_paper_scenario(options).run();

  core::ScenarioOptions platoon_options = options;
  platoon_options.platoon_spec = "n=2";
  const PlatoonResult platoon =
      make_paper_platoon(platoon_options).run();

  ASSERT_EQ(platoon.trace.num_rows(), pair.trace.num_rows());
  for (const auto& [pair_col, platoon_col] : kPairedColumns) {
    const auto& a = pair.trace.column(pair_col);
    const auto& b = platoon.trace.column(platoon_col);
    for (std::size_t k = 0; k < a.size(); ++k) {
      // Bit-identical, not approximately equal: the platoon must replay the
      // pair scene's exact RNG and arithmetic.
      ASSERT_EQ(a[k], b[k]) << pair_col << " diverges at k=" << k;
    }
  }

  EXPECT_EQ(platoon.collided, pair.collided);
  EXPECT_EQ(platoon.collision_step, pair.collision_step);
  ASSERT_EQ(platoon.followers.size(), 1u);
  expect_same_outcome(platoon.followers.front(), pair);
}

TEST(Platoon, TwoVehicleCleanRunDegeneratesToPairScene) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kNone;
  expect_degenerates_to_pair(o);
}

TEST(Platoon, TwoVehicleDelayAttackDegeneratesToPairScene) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDelayInjection;
  o.attack_start_s = units::Seconds{180.0};
  expect_degenerates_to_pair(o);
}

TEST(Platoon, TwoVehicleNoDefenseDegeneratesToPairScene) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDelayInjection;
  o.attack_start_s = units::Seconds{180.0};
  o.defense_enabled = false;
  expect_degenerates_to_pair(o);
}

TEST(Platoon, TwoVehicleDosAttackDegeneratesToPairScene) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDosJammer;
  expect_degenerates_to_pair(o);
}

TEST(Platoon, TwoVehicleFaultScheduleDegeneratesToPairScene) {
  // The faults land on the attacked follower's stream, the pair's only one.
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDelayInjection;
  o.attack_start_s = units::Seconds{180.0};
  o.pipeline = core::hardened_pipeline_options();
  o.fault_spec =
      "dropout:start=60,len=10;nan:start=100,len=1,period=25;flap:start=150";
  expect_degenerates_to_pair(o);
}

TEST(Platoon, PlatoonOptionsControllerIsTheOneThatRuns) {
  // PlatoonConfig documents that the platoon options override
  // `base.controller`: setting only `platoon.controller` must run IDM, as
  // the `controller=idm` spec does.
  core::ScenarioOptions o = fast_options();
  o.horizon_steps = 120;
  o.platoon_spec = "n=3,controller=idm";
  const PlatoonResult from_spec = make_paper_platoon(o).run();

  o.platoon_spec = "n=3";
  PlatoonScenario scenario = make_paper_platoon(o);
  ASSERT_EQ(scenario.config.base.controller,
            core::FollowerController::kAccHierarchy);
  scenario.config.platoon.controller = core::FollowerController::kIdm;
  const PlatoonResult from_options = scenario.run();

  ASSERT_EQ(from_options.trace.num_rows(), from_spec.trace.num_rows());
  for (const std::string& column : from_spec.trace.column_names()) {
    const auto& a = from_spec.trace.column(column);
    const auto& b = from_options.trace.column(column);
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k], b[k]) << column << " diverges at k=" << k;
    }
  }
}

TEST(Platoon, AttackTargetsOnlyTheSpecifiedFollower) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDelayInjection;
  o.attack_start_s = units::Seconds{180.0};
  o.platoon_spec = "n=4,attacked=2";
  const PlatoonResult result = make_paper_platoon(o).run();

  ASSERT_EQ(result.followers.size(), 3u);
  // The targeted follower's CRA sees the injected echoes and fires...
  EXPECT_TRUE(result.followers[1].detection_step.has_value());
  EXPECT_GT(result.followers[1].detection_stats.true_positives, 0u);
  // ...while the untargeted streams stay clean: no false alarms anywhere.
  EXPECT_FALSE(result.followers[0].detection_step.has_value());
  EXPECT_FALSE(result.followers[2].detection_step.has_value());
  for (const VehicleOutcome& v : result.followers) {
    EXPECT_EQ(v.detection_stats.false_positives, 0u) << v.index;
  }
}

TEST(Platoon, CleanMultiTargetSceneRaisesNoFalseAlarms) {
  // Deep string, every follower past the first seeing its second-ahead
  // echo: root-MUSIC must keep locking onto the direct predecessor.
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kNone;
  o.platoon_spec = "n=8";
  const PlatoonResult result = make_paper_platoon(o).run();

  EXPECT_FALSE(result.collided);
  EXPECT_EQ(string_outcome(result.followers).detection_stats.false_positives,
            0u);
  EXPECT_EQ(result.metrics.shock_depth, 0u);
  for (const VehicleOutcome& v : result.followers) {
    EXPECT_GT(v.min_gap_m, units::Meters{4.5}) << v.index;
  }
}

TEST(Platoon, MultiTargetToggleLeavesFollowerOneUntouched) {
  core::ScenarioOptions o = fast_options();
  o.platoon_spec = "n=4,multi_target=on";
  const PlatoonResult on = make_paper_platoon(o).run();
  o.platoon_spec = "n=4,multi_target=off";
  const PlatoonResult off = make_paper_platoon(o).run();

  // Follower 1 has nothing two-ahead, so its stream is identical either
  // way; deeper followers see a different echo scene.
  const auto& gap_on = on.trace.column("safe_gap1_m");
  const auto& gap_off = off.trace.column("safe_gap1_m");
  for (std::size_t k = 0; k < gap_on.size(); ++k) {
    ASSERT_EQ(gap_on[k], gap_off[k]) << k;
  }
}

TEST(Platoon, CutInGhostPerturbsTheTargetFollower) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kNone;
  o.platoon_spec = "n=4";
  const PlatoonResult clean = make_paper_platoon(o).run();
  o.platoon_spec = "n=4,cutin_into=2,cutin_start=60,cutin_len=20";
  const PlatoonResult cutin = make_paper_platoon(o).run();

  // The ghost echo sits at half the true gap, so follower 2 brakes for a
  // phantom: its trajectory must diverge from the clean run's.
  const auto& v_clean = clean.trace.column("v2_mps");
  const auto& v_cutin = cutin.trace.column("v2_mps");
  bool diverged = false;
  for (std::size_t k = 0; k < v_clean.size() && !diverged; ++k) {
    diverged = v_clean[k] != v_cutin[k];
  }
  EXPECT_TRUE(diverged);
  // Braking for a phantom opens the real gap; it must never close it.
  EXPECT_FALSE(cutin.collided);
}

TEST(Platoon, CollisionFreezesTheWholeStringButKeepsRecording) {
  core::ScenarioOptions o = fast_options();
  o.attack = core::AttackKind::kDelayInjection;
  o.attack_start_s = units::Seconds{180.0};
  o.defense_enabled = false;
  o.platoon_spec = "n=4,attacked=1";
  const PlatoonResult result = make_paper_platoon(o).run();

  ASSERT_TRUE(result.collided);
  ASSERT_TRUE(result.collision_step.has_value());
  EXPECT_EQ(result.collision_index, 1u);
  // Rows keep coming after the freeze so every trace has the full horizon.
  EXPECT_EQ(result.trace.num_rows(),
            static_cast<std::size_t>(o.horizon_steps));
  // Frozen vehicles stop moving: velocities hold after the collision step.
  const auto& v3 = result.trace.column("v3_mps");
  const auto k_collision = static_cast<std::size_t>(*result.collision_step);
  for (std::size_t k = k_collision + 1; k < v3.size(); ++k) {
    ASSERT_EQ(v3[k], v3[k_collision]) << k;
  }
}

TEST(Platoon, RejectsInvalidSpecThroughTheFactory) {
  core::ScenarioOptions o = fast_options();
  o.platoon_spec = "n=4,attacked=9";
  EXPECT_THROW((void)make_paper_platoon(o), std::invalid_argument);
}

TEST(PlatoonMetrics, ShockDepthCountsFromTheAttackedVehicle) {
  std::vector<VehicleOutcome> followers(5);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    followers[i].index = i + 1;
    followers[i].min_gap_m = units::Meters{10.0};
  }
  followers[1].min_gap_m = units::Meters{1.0};  // attacked (index 2)
  followers[3].min_gap_m = units::Meters{-0.5};  // two behind it

  const PropagationMetrics m =
      compute_propagation_metrics(followers, 2, units::Meters{2.5});
  EXPECT_EQ(m.shock_depth, 3u);  // follower 4 = attacked + 2 -> depth 3
  EXPECT_EQ(string_outcome(followers).min_gap_m, units::Meters{-0.5});
}

TEST(PlatoonMetrics, ShockAheadOfTheAttackedVehicleDoesNotCount) {
  std::vector<VehicleOutcome> followers(3);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    followers[i].index = i + 1;
    followers[i].min_gap_m = units::Meters{10.0};
  }
  followers[0].min_gap_m = units::Meters{0.1};  // ahead of attacked
  const PropagationMetrics m =
      compute_propagation_metrics(followers, 2, units::Meters{2.5});
  EXPECT_EQ(m.shock_depth, 0u);
}

TEST(PlatoonMetrics, AmplificationGuardsDegenerateReference) {
  std::vector<VehicleOutcome> followers(3);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    followers[i].index = i + 1;
    followers[i].min_gap_m = units::Meters{10.0};
    followers[i].peak_gap_deviation_m = units::Meters{4.0};
  }
  followers[0].peak_gap_deviation_m = units::Meters{0.0};  // attacked, clean
  const PropagationMetrics degenerate =
      compute_propagation_metrics(followers, 1, units::Meters{2.5});
  EXPECT_DOUBLE_EQ(degenerate.linf_amplification, 0.0);

  followers[0].peak_gap_deviation_m = units::Meters{2.0};
  const PropagationMetrics m =
      compute_propagation_metrics(followers, 1, units::Meters{2.5});
  EXPECT_DOUBLE_EQ(m.linf_amplification, 2.0);
}

TEST(PlatoonMetrics, CascadeAndDetectionTallies) {
  std::vector<VehicleOutcome> followers(3);
  for (std::size_t i = 0; i < followers.size(); ++i) {
    followers[i].index = i + 1;
    followers[i].min_gap_m = units::Meters{10.0};
  }
  followers[0].detection_step = 42;
  followers[0].detection_stats.true_positives = 7;
  followers[0].holdover_steps = 2;
  followers[0].holdover_sq_sum_m2 = 8.0;
  followers[1].safe_stop_steps = 9;
  followers[1].min_gap_m = units::Meters{3.0};
  followers[1].health_stats.rejected_stuck = 4;
  followers[2].detection_step = 40;
  followers[2].detection_stats.false_positives = 1;
  followers[2].nonfinite_controller_inputs = 2;
  followers[2].degradation_max = 3.0;
  followers[2].holdover_steps = 2;
  followers[2].holdover_sq_sum_m2 = 28.0;

  const PropagationMetrics m =
      compute_propagation_metrics(followers, 1, units::Meters{2.5});
  EXPECT_EQ(m.detected_vehicles, 2u);
  EXPECT_EQ(m.safe_stop_vehicles, 1u);

  // The string's roll-up is the followers' merged outcome.
  const core::FollowerOutcome merged = string_outcome(followers);
  EXPECT_EQ(merged.min_gap_m, units::Meters{3.0});
  EXPECT_EQ(merged.detection_step, 40);
  EXPECT_EQ(merged.safe_stop_steps, 9u);
  EXPECT_EQ(merged.detection_stats.true_positives, 7u);
  EXPECT_EQ(merged.detection_stats.false_positives, 1u);
  EXPECT_EQ(merged.health_stats.rejected_stuck, 4u);
  EXPECT_EQ(merged.nonfinite_controller_inputs, 2u);
  EXPECT_DOUBLE_EQ(merged.degradation_max, 3.0);
  EXPECT_EQ(merged.holdover_steps, 4u);
  EXPECT_DOUBLE_EQ(merged.holdover_rmse_m().value(), 3.0);  // sqrt(36 / 4)

  EXPECT_EQ(string_outcome({}).min_gap_m, units::Meters{0.0});
}

}  // namespace
}  // namespace safe::platoon
