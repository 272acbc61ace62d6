// One follower's per-step chain (paper Figure 1), the single copy every
// scene runs:
//
//   echo scene -> attack -> CRA radar receiver -> sensor faults ->
//   safe-measurement pipeline -> ACC hierarchy (or IDM) -> follower plant.
//
// RadarFrontEnd is the receiver half, up to the measurement stream the
// pipeline consumes; the open-loop serving trace runs it alone. Follower
// adds the pipeline, the controller and the plant; the pair scene runs one,
// a platoon one per follower. A scene keeps only its geometry (who is
// ahead of whom, extra echoes, collisions) and what it records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "attack/attack.hpp"
#include "control/acc.hpp"
#include "core/car_following.hpp"
#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "fault/schedule.hpp"
#include "radar/processor.hpp"
#include "vehicle/longitudinal.hpp"

namespace safe::core {

/// A return beyond the predecessor's (the vehicle two ahead, a cut-in
/// ghost). Its received power follows from the paper's link budget at
/// `distance_m` for a target of `rcs_m2`.
struct ExtraEcho {
  units::Meters distance_m{0.0};
  units::MetersPerSecond range_rate_mps{0.0};
  double rcs_m2 = 0.0;
};

/// The measurement stream's next epoch, and whether an attack shaped it.
struct SensedEpoch {
  radar::RadarMeasurement measurement;
  bool attack_active = false;
};

/// The radar receiver and a per-run copy of the sensor-fault schedule.
class RadarFrontEnd {
 public:
  /// `faults` may be null (no faults); the front end keeps its own copy, so
  /// stream state (stuck frames, challenge counts) starts fresh.
  RadarFrontEnd(const radar::RadarProcessorConfig& radar, std::uint64_t seed,
                double target_rcs_m2, const fault::FaultSchedule* faults);

  /// One epoch against a predecessor at `gap` closing at `dv`. Its echo
  /// joins the scene when the probe radiates (`tx_enabled`), the target is
  /// `visible` and in the range window; each in-window `extra` echo
  /// follows, in order, on the same condition. `attack` (may be null)
  /// then shapes the scene while the target is visible. The receiver
  /// measures, and the faults apply with `!tx_enabled` as the challenge
  /// flag.
  SensedEpoch sense(std::int64_t k, units::Seconds t, bool tx_enabled,
                    bool visible, units::Meters gap, units::MetersPerSecond dv,
                    std::span<const ExtraEcho> extra,
                    attack::AttackModel* attack);

 private:
  radar::RadarProcessor radar_;
  double target_rcs_m2_;
  fault::FaultSchedule faults_;
};

/// What one follower step saw and produced.
struct FollowerStep {
  units::Meters true_gap_m{0.0};            ///< Before the follower moved.
  units::MetersPerSecond true_dv_mps{0.0};  ///< Before the follower moved.
  units::Meters gap_after_m{0.0};  ///< After it moved: the collision gap.
  radar::RadarMeasurement measurement;
  SafeMeasurement safe;
  bool attack_active = false;
};

/// One follower: radar front end, safe-measurement pipeline, controller and
/// plant, driven one sample at a time against its predecessor, with its
/// FollowerOutcome tallied as it goes.
class Follower {
 public:
  /// Takes radar, pipeline, controller, speeds and sample time from
  /// `config`. The undefended consumer's held track starts at
  /// `config.initial_gap_m` (the configured gap, not a difference of
  /// positions) closing at the true initial relative velocity. `faults`
  /// may be null.
  Follower(const CarFollowingConfig& config, std::uint64_t radar_seed,
           std::shared_ptr<const cra::ChallengeSchedule> schedule,
           const fault::FaultSchedule* faults,
           const vehicle::VehicleState& predecessor,
           const vehicle::VehicleState& initial);

  /// Senses `predecessor` (already stepped this sample) with `extra`
  /// echoes and `attack` (may be null), runs the pipeline and controller,
  /// moves the plant unless the scene is `frozen` (after a collision the
  /// target is invisible and nothing moves), and tallies the step.
  FollowerStep step(std::int64_t k, units::Seconds t,
                    const vehicle::VehicleState& predecessor, bool frozen,
                    std::span<const ExtraEcho> extra,
                    attack::AttackModel* attack);

  [[nodiscard]] const vehicle::VehicleState& state() const { return state_; }
  /// The steps' tallies so far, with the pipeline's detection and health
  /// record.
  [[nodiscard]] FollowerOutcome outcome() const;

 private:
  units::Seconds sample_time_;
  bool defense_enabled_;
  FollowerController controller_;
  control::IdmParameters idm_;
  RadarFrontEnd front_end_;
  SafeMeasurementPipeline pipeline_;
  control::AccController acc_;
  vehicle::VehicleState state_;
  // Raw-radar track hold for the undefended consumer: a real radar bridges
  // challenge slots and dropouts with its last track.
  units::Meters held_gap_;
  units::MetersPerSecond held_dv_;
  bool held_valid_ = false;
  units::Meters initial_gap_;
  FollowerOutcome tally_;
};

}  // namespace safe::core
