#include "core/car_following.hpp"

#include <stdexcept>
#include <utility>

#include "core/follower.hpp"

namespace safe::core {

namespace units = safe::units;

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
  result.min_gap_m = config_.initial_gap_m;

  for (std::int64_t k = 0; k < config_.horizon_steps; ++k) {
    const units::Seconds t = static_cast<double>(k) * t_sample;

    // --- Leader dynamics (Eq. 15).
    if (!result.collided) {
      leader = vehicle::step(leader, leader_profile_->acceleration(t),
                             t_sample);
    }

    const FollowerStep s =
        follower.step(k, t, leader, result.collided, {}, attack.get());

    const units::Meters gap_after = vehicle::gap(leader, follower.state());
    result.min_gap_m = units::min(result.min_gap_m, gap_after);
    if (!result.collided && gap_after <= units::Meters{0.0}) {
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

  const SafeMeasurementPipeline& pipeline = follower.pipeline();
  result.detection_step = pipeline.detection_step();
  result.detection_stats = pipeline.detection_stats();
  result.health_stats = pipeline.health_stats();
  result.safe_stop_steps = follower.safe_stop_steps();
  result.nonfinite_controller_inputs = follower.nonfinite_controller_inputs();
  return result;
}

}  // namespace safe::core
