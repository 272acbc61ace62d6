// Park-assist case study: CRA + RLS holdover on an ultrasonic (or lidar)
// time-of-flight sensor.
//
// A vehicle backs toward an obstacle under proportional speed control on
// the measured clearance. A delay-injection spoof makes the obstacle appear
// further away (the classic ultrasonic attack from the literature the paper
// cites), a DoS blinder floods the receiver. Same defense, different
// modality — demonstrating Section 5.2's claim that CRA applies to any
// active sensor.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "attack/window.hpp"
#include "cra/challenge.hpp"
#include "cra/detector.hpp"
#include "sensors/tof_sensor.hpp"
#include "sim/trace.hpp"

namespace safe::core {

struct ParkingAttack {
  enum class Kind { kSpoof, kDos };
  Kind kind = Kind::kSpoof;
  attack::AttackWindow window{};
  units::Meters spoof_offset_m{1.0};  ///< Apparent extra clearance.
  /// DoS noise power at the receiver. The default is strong enough that
  /// the echo cannot burn through anywhere inside the sensor's range
  /// window (a weaker blinder is defeated by the d^-4 echo growth at very
  /// short range — the sensor re-acquires and stops late but safely).
  double blinder_power_w = 1e-3;
};

struct ParkingConfig {
  sensors::TofSensorParameters sensor = sensors::ultrasonic_parameters();
  units::Meters initial_clearance_m{4.0};
  /// At least the sensor's minimum range (lidar: 0.5 m), else the
  /// constructor throws.
  units::Meters stop_distance_m{0.35};
  double approach_gain = 0.8;      ///< v_cmd = gain * (d - stop), 1/s.
  units::MetersPerSecond max_speed_mps{0.6};
  units::Seconds sample_time_s{0.1};
  std::int64_t horizon_steps = 200;
  std::uint64_t seed = 1;
  bool defense_enabled = true;
  std::size_t min_training_samples = 6;
};

struct ParkingResult {
  sim::Trace trace;
  bool collided = false;                      ///< Clearance reached zero.
  units::Meters final_clearance_m{0.0};
  std::optional<std::int64_t> detection_step;
  cra::DetectionStats detection_stats;

  ParkingResult();
};

class ParkingSimulation {
 public:
  /// Throws std::invalid_argument on a null schedule, a stop distance
  /// outside [sensor minimum range, initial clearance), a bad time base or
  /// a bad controller.
  ParkingSimulation(ParkingConfig config,
                    std::shared_ptr<const cra::ChallengeSchedule> schedule,
                    std::optional<ParkingAttack> attack);

  ParkingResult run();

 private:
  ParkingConfig config_;
  std::shared_ptr<const cra::ChallengeSchedule> schedule_;
  std::optional<ParkingAttack> attack_;
};

}  // namespace safe::core
