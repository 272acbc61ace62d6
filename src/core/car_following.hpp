// Closed-loop car-following simulation (paper Figure 1 and Section 6).
//
// leader kinematics -> RF scene -> (attack) -> CRA radar -> safe-measurement
// pipeline -> ACC hierarchy -> follower kinematics, sampled at T = 1 s.
//
// The pair scene is the leader, one core::Follower (core/follower.hpp, the
// per-step chain every scene runs), the collision check and the trace.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "attack/attack.hpp"
#include "control/acc.hpp"
#include "control/idm.hpp"
#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "fault/schedule.hpp"
#include "radar/processor.hpp"
#include "sim/trace.hpp"
#include "vehicle/leader_profile.hpp"
#include "vehicle/longitudinal.hpp"

namespace safe::core {

/// Which longitudinal controller drives the follower.
enum class FollowerController {
  kAccHierarchy,  ///< The paper's upper/lower-level ACC (default).
  kIdm,           ///< Plain intelligent-driver model (baseline).
};

struct CarFollowingConfig {
  /// Initial speeds (paper: leader 65 mph, follower set speed 67 mph).
  units::MetersPerSecond leader_speed_mps{29.0576};
  units::MetersPerSecond follower_speed_mps{29.0576};
  units::Meters initial_gap_m{100.0};
  std::int64_t horizon_steps = 300;
  units::Seconds sample_time_s{1.0};
  double target_rcs_m2 = 10.0;

  FollowerController controller = FollowerController::kAccHierarchy;
  control::AccParameters acc{};
  control::IdmParameters idm{};
  radar::RadarProcessorConfig radar{};

  /// Radar noise seed (kept distinct per run for without/with comparisons).
  std::uint64_t seed = 1;

  /// Feed raw (possibly corrupted) radar data to the ACC instead of the
  /// pipeline output. The "RadarData-With-Attack" failure traces of
  /// Figures 2-3 are produced with the defense disabled.
  bool defense_enabled = true;

  /// Safe-measurement pipeline configuration (defaults reproduce the paper;
  /// see hardened_pipeline_options for the fault-robust profile).
  PipelineOptions pipeline{};

  /// Optional sensor-fault schedule applied to the radar measurement stream
  /// between receiver and pipeline (null/empty = no faults). The simulation
  /// copies the schedule so repeated runs start from identical state.
  std::shared_ptr<const fault::FaultSchedule> faults;
};

/// One follower's outcome over a run (Section 6), the record every scene
/// reports and the campaign reads. core::Follower tallies it online.
struct FollowerOutcome {
  units::Meters min_gap_m{0.0};  ///< Smallest post-step gap to the target.
  /// Peak |gap - initial gap| over the run: the disturbance magnitude the
  /// platoon's string-stability ratio compares between vehicles.
  units::Meters peak_gap_deviation_m{0.0};
  /// Steps the pipeline substituted an RLS estimate with a finite error
  /// against the true gap, and the sum of those squared errors.
  std::size_t holdover_steps = 0;
  double holdover_sq_sum_m2 = 0.0;
  double degradation_max = 0.0;  ///< Worst DegradationState, as a number.
  std::optional<std::int64_t> detection_step;
  cra::DetectionStats detection_stats;
  HealthStats health_stats;
  std::size_t safe_stop_steps = 0;  ///< Steps spent in DEGRADED_SAFE_STOP.
  /// Controller epochs whose selected distance/velocity inputs were not
  /// finite. Must be zero whenever the defense pipeline is enabled — the
  /// whole point of the health monitor.
  std::size_t nonfinite_controller_inputs = 0;

  /// RMSE of the holdover estimates against truth (0 without holdover).
  [[nodiscard]] units::Meters holdover_rmse_m() const;

  /// Folds `other` in, as for a whole string: the smaller min gap, the
  /// larger peak deviation and degradation, the earlier detection, and
  /// summed counts and stats.
  void merge(const FollowerOutcome& other);
};

/// Everything recorded about one simulation run: the follower's outcome,
/// the collision and the trace.
struct CarFollowingResult : FollowerOutcome {
  sim::Trace trace;
  bool collided = false;
  std::optional<std::int64_t> collision_step;

  CarFollowingResult() : trace(columns()) {}

  /// Trace column names, in order.
  static std::vector<std::string> columns();
};

class CarFollowingSimulation {
 public:
  /// `attack` may be nullptr (clean run). `schedule` drives both the radar's
  /// probe gating and the pipeline's detector.
  CarFollowingSimulation(CarFollowingConfig config,
                         std::shared_ptr<const vehicle::LeaderProfile> leader,
                         std::shared_ptr<const attack::AttackModel> attack,
                         std::shared_ptr<const cra::ChallengeSchedule> schedule);

  /// Runs the full horizon and returns the recorded result. Stops stepping
  /// vehicles after a collision (gap <= 0) but keeps recording rows so all
  /// traces have `horizon_steps` rows.
  CarFollowingResult run();

 private:
  CarFollowingConfig config_;
  std::shared_ptr<const vehicle::LeaderProfile> leader_profile_;
  std::shared_ptr<const attack::AttackModel> attack_;
  std::shared_ptr<const cra::ChallengeSchedule> schedule_;
};

}  // namespace safe::core
