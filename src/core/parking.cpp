#include "core/parking.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/holdover.hpp"
#include "detect/backends.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {

namespace units = safe::units;

ParkingResult::ParkingResult()
    : trace({"time_s", "clearance_m", "measured_m", "used_m", "speed_mps",
             "challenge", "under_attack"}) {}

ParkingSimulation::ParkingSimulation(
    ParkingConfig config,
    std::shared_ptr<const cra::ChallengeSchedule> schedule,
    std::optional<ParkingAttack> attack)
    : config_(std::move(config)),
      schedule_(std::move(schedule)),
      attack_(std::move(attack)) {
  if (!schedule_) {
    throw std::invalid_argument("ParkingSimulation: null schedule");
  }
  // Inside its minimum range the sensor sees nothing: a stop there would be
  // driven on the last in-window reading, into the obstacle.
  if (config_.initial_clearance_m <= config_.stop_distance_m ||
      config_.stop_distance_m < config_.sensor.min_range_m) {
    throw std::invalid_argument(
        "ParkingSimulation: stop distance must lie in [sensor minimum range, "
        "initial clearance)");
  }
  if (config_.sample_time_s <= units::Seconds{0.0} ||
      config_.horizon_steps <= 0) {
    throw std::invalid_argument("ParkingSimulation: bad time base");
  }
  if (config_.approach_gain <= 0.0 ||
      config_.max_speed_mps <= units::MetersPerSecond{0.0}) {
    throw std::invalid_argument("ParkingSimulation: bad controller");
  }
}

ParkingResult ParkingSimulation::run() {
  const bool defended = config_.defense_enabled;
  sensors::TofSensor sensor(config_.sensor, config_.seed);
  detect::CraBackend detector;
  double clearance = config_.initial_clearance_m.value();
  std::vector<estimation::SeriesPredictorPtr> predictors;
  predictors.push_back(std::make_unique<estimation::RlsArPredictor>());
  Holdover holdover(std::move(predictors), {true},
                    config_.min_training_samples, {clearance});

  ParkingResult result;

  for (std::int64_t k = 0; k < config_.horizon_steps; ++k) {
    const double t = static_cast<double>(k) * config_.sample_time_s.value();
    const bool challenge = schedule_->is_challenge(k);
    // Post-collision the run is frozen and the attacker stops radiating;
    // scoring must match what actually reaches the receiver.
    const bool attack_active =
        attack_ &&
        attack_->window.contains(units::Seconds{static_cast<double>(k)}) &&
        !result.collided;

    // --- Acoustic/optical scene.
    radar::EchoScene scene;
    scene.tx_enabled = !challenge;
    scene.noise_power_w = config_.sensor.noise_floor_w;
    const bool in_window = clearance >= config_.sensor.min_range_m.value() &&
                           clearance <= config_.sensor.max_range_m.value();
    if (scene.tx_enabled && in_window && !result.collided) {
      scene.echoes.push_back(radar::EchoComponent{
          .distance_m = units::Meters{clearance},
          .range_rate_mps = units::MetersPerSecond{0.0},
          .power_w = 0.0,  // sensor's own link budget
      });
    }
    if (attack_active && !result.collided) {
      if (attack_->kind == ParkingAttack::Kind::kSpoof) {
        // Counterfeit replaces the genuine echo and persists through
        // challenge slots (replay latency, Section 5.2).
        scene.echoes.clear();
        scene.echoes.push_back(radar::EchoComponent{
            .distance_m =
                units::Meters{clearance} + attack_->spoof_offset_m,
            .range_rate_mps = units::MetersPerSecond{0.0},
            .power_w = 10.0 * sensors::tof_received_power_w(
                                  config_.sensor,
                                  units::max(units::Meters{clearance},
                                             config_.sensor.min_range_m)),
        });
      } else {
        scene.noise_power_w += attack_->blinder_power_w;
      }
    }

    const auto meas = sensor.measure(scene);
    detect::Observation obs;
    obs.step = k;
    obs.challenge_slot = challenge;
    obs.receiver_nonzero = meas.nonzero_output();
    const detect::Verdict decision =
        detector.observe_scored(obs, attack_active);

    // --- Clearance estimate consumed by the controller: the last trusted
    // echo, or the estimate a defended run holds over an attack or a
    // challenge. A blind epoch (dropout, jam, or a challenge without
    // defense) keeps the last value.
    if (!(defended && holdover.defend(k, decision)) && meas.target_detected) {
      const double measured = meas.distance_m.value();
      holdover.trust({&measured, 1});
    }
    const double used = holdover.last(0);

    // --- Proportional approach control.
    const double v_cmd = std::clamp(
        config_.approach_gain * (used - config_.stop_distance_m.value()), 0.0,
        config_.max_speed_mps.value());
    if (!result.collided) {
      clearance -= v_cmd * config_.sample_time_s.value();
      if (clearance <= 0.0) {
        clearance = 0.0;
        result.collided = true;
      }
    }

    result.trace.append_row(
        {t, clearance, meas.target_detected ? meas.distance_m.value() : 0.0,
         used, v_cmd, challenge ? 1.0 : 0.0,
         decision.under_attack ? 1.0 : 0.0});
  }

  result.final_clearance_m = units::Meters{clearance};
  result.detection_step = detector.detection_step();
  result.detection_stats = detector.stats();
  return result;
}

}  // namespace safe::core
