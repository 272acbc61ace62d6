#include "core/car_following.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/follower.hpp"

namespace safe::core {

namespace units = safe::units;

units::Meters FollowerOutcome::holdover_rmse_m() const {
  return units::Meters{
      holdover_steps > 0
          ? std::sqrt(holdover_sq_sum_m2 / static_cast<double>(holdover_steps))
          : 0.0};
}

void FollowerOutcome::merge(const FollowerOutcome& other) {
  min_gap_m = units::min(min_gap_m, other.min_gap_m);
  peak_gap_deviation_m =
      units::max(peak_gap_deviation_m, other.peak_gap_deviation_m);
  holdover_steps += other.holdover_steps;
  holdover_sq_sum_m2 += other.holdover_sq_sum_m2;
  degradation_max = std::max(degradation_max, other.degradation_max);
  if (other.detection_step &&
      (!detection_step || *other.detection_step < *detection_step)) {
    detection_step = other.detection_step;
  }
  cra::DetectionStats& d = detection_stats;
  d.challenges += other.detection_stats.challenges;
  d.true_positives += other.detection_stats.true_positives;
  d.false_positives += other.detection_stats.false_positives;
  d.true_negatives += other.detection_stats.true_negatives;
  d.false_negatives += other.detection_stats.false_negatives;
  HealthStats& h = health_stats;
  h.rejected_nonfinite += other.health_stats.rejected_nonfinite;
  h.rejected_out_of_range += other.health_stats.rejected_out_of_range;
  h.rejected_innovation += other.health_stats.rejected_innovation;
  h.rejected_stuck += other.health_stats.rejected_stuck;
  h.innovation_resyncs += other.health_stats.innovation_resyncs;
  h.predictor_resets += other.health_stats.predictor_resets;
  h.safe_stop_entries += other.health_stats.safe_stop_entries;
  h.bridged_dropouts += other.health_stats.bridged_dropouts;
  safe_stop_steps += other.safe_stop_steps;
  nonfinite_controller_inputs += other.nonfinite_controller_inputs;
}

std::vector<std::string> CarFollowingResult::columns() {
  return {
      "time_s",       "true_gap_m",  "true_dv_mps",  "meas_gap_m",
      "meas_dv_mps",  "safe_gap_m",  "safe_dv_mps",  "leader_v_mps",
      "follower_v_mps", "follower_a_mps2", "challenge", "under_attack",
      "estimated",    "collided",    "degradation",  "holdover",
  };
}

CarFollowingSimulation::CarFollowingSimulation(
    CarFollowingConfig config,
    std::shared_ptr<const vehicle::LeaderProfile> leader,
    std::shared_ptr<const attack::AttackModel> attack,
    std::shared_ptr<const cra::ChallengeSchedule> schedule)
    : config_(std::move(config)),
      leader_profile_(std::move(leader)),
      attack_(std::move(attack)),
      schedule_(std::move(schedule)) {
  if (!leader_profile_) {
    throw std::invalid_argument("CarFollowingSimulation: null leader profile");
  }
  if (!schedule_) {
    throw std::invalid_argument("CarFollowingSimulation: null schedule");
  }
  if (config_.horizon_steps <= 0 ||
      config_.sample_time_s <= units::Seconds{0.0}) {
    throw std::invalid_argument("CarFollowingSimulation: bad horizon/T");
  }
  if (config_.initial_gap_m <= units::Meters{0.0}) {
    throw std::invalid_argument("CarFollowingSimulation: bad initial gap");
  }
}

CarFollowingResult CarFollowingSimulation::run() {
  const units::Seconds t_sample = config_.sample_time_s;

  // Per-run clone of the attack model: entrainment-style attacks carry a
  // lock-on state machine, and repeated run() calls must start it fresh.
  std::unique_ptr<attack::AttackModel> attack =
      attack_ ? attack_->clone() : nullptr;
  if (attack) attack->reset();

  vehicle::VehicleState leader{.position_m = config_.initial_gap_m,
                               .velocity_mps = config_.leader_speed_mps};
  Follower follower(config_, config_.seed, schedule_, config_.faults.get(),
                    leader,
                    vehicle::VehicleState{
                        .position_m = units::Meters{0.0},
                        .velocity_mps = config_.follower_speed_mps});

  CarFollowingResult result;

  for (std::int64_t k = 0; k < config_.horizon_steps; ++k) {
    const units::Seconds t = static_cast<double>(k) * t_sample;

    // --- Leader dynamics (Eq. 15).
    if (!result.collided) {
      leader = vehicle::step(leader, leader_profile_->acceleration(t),
                             t_sample);
    }

    const FollowerStep s =
        follower.step(k, t, leader, result.collided, {}, attack.get());

    if (!result.collided && s.gap_after_m <= units::Meters{0.0}) {
      result.collided = true;
      result.collision_step = k;
    }

    // The recorded radar output is zero when the receiver saw nothing
    // (challenge slots in clean runs: the zero-spikes of Figures 2-3), and
    // the possibly-corrupted estimate whenever anything radiated.
    const radar::RadarMeasurement& meas = s.measurement;
    const bool receiver_output = meas.nonzero_output();
    const vehicle::VehicleState& own = follower.state();
    result.trace.append_row({
        t.value(),
        s.true_gap_m.value(),
        s.true_dv_mps.value(),
        receiver_output ? meas.estimate.distance_m.value() : 0.0,
        receiver_output ? meas.estimate.range_rate_mps.value() : 0.0,
        s.safe.distance_m.value(),
        s.safe.relative_velocity_mps.value(),
        leader.velocity_mps.value(),
        own.velocity_mps.value(),
        own.acceleration_mps2.value(),
        s.safe.challenge_slot ? 1.0 : 0.0,
        s.safe.under_attack ? 1.0 : 0.0,
        s.safe.estimated ? 1.0 : 0.0,
        result.collided ? 1.0 : 0.0,
        static_cast<double>(s.safe.degradation),
        static_cast<double>(s.safe.holdover_steps),
    });
  }

  static_cast<FollowerOutcome&>(result) = follower.outcome();
  return result;
}

}  // namespace safe::core
