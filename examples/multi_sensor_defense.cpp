// Multi-sensor defense walkthrough: the same CRA contract on ultrasonic and
// lidar ToF sensors, plus the redundancy-fusion baseline and where it breaks.
#include <iostream>
#include <memory>

#include "core/parking.hpp"
#include "sensors/fusion_detector.hpp"
#include "sensors/tof_sensor.hpp"

int main() {
  using namespace safe;
  namespace units = safe::units;

  std::cout << "CRA beyond radar: ultrasonic park assist under spoofing\n"
            << "=======================================================\n\n";

  const auto schedule =
      std::make_shared<cra::PrbsChallengeSchedule>(0x0B5E, 1, 5, 200);
  core::ParkingAttack spoof;
  spoof.kind = core::ParkingAttack::Kind::kSpoof;
  spoof.window =
      attack::AttackWindow{units::Seconds{40.0}, units::Seconds{200.0}};

  for (const bool defended : {false, true}) {
    core::ParkingConfig cfg;
    cfg.defense_enabled = defended;
    core::ParkingSimulation sim(cfg, schedule, spoof);
    const auto r = sim.run();
    std::cout << (defended ? "defended  " : "undefended") << ": final clearance "
              << r.final_clearance_m.value() << " m, "
              << (r.collided ? "HIT THE OBSTACLE" : "stopped safely");
    if (r.detection_step) {
      std::cout << ", spoof detected at ping " << *r.detection_step;
    }
    std::cout << "\n";
  }

  std::cout << "\nSame defense, lidar profile (8 m approach):\n";
  core::ParkingConfig lidar_cfg;
  lidar_cfg.sensor = sensors::lidar_parameters();
  lidar_cfg.initial_clearance_m = units::Meters{8.0};
  lidar_cfg.stop_distance_m = units::Meters{0.6};  // lidar is blind < 0.5 m
  core::ParkingSimulation lidar_sim(lidar_cfg, schedule, spoof);
  const auto lidar_run = lidar_sim.run();
  std::cout << "defended  : final clearance "
            << lidar_run.final_clearance_m.value() << " m, "
            << (lidar_run.collided ? "HIT THE OBSTACLE" : "stopped safely")
            << "\n\n";

  std::cout << "Redundancy fusion baseline (radar+lidar cross-check):\n";
  sensors::FusionDetector fusion({.disagreement_threshold_m = units::Meters{1.0},
                                  .required_consecutive = 2});
  // One-channel spoof: disagreement reveals it.
  fusion.observe(true, units::Meters{46.0}, true, units::Meters{40.0});
  fusion.observe(true, units::Meters{45.8}, true, units::Meters{39.8});
  std::cout << "  one-channel spoof  -> "
            << (fusion.under_attack() ? "detected" : "missed") << "\n";
  fusion.reset();
  // Coordinated spoof: both channels consistent, fusion is blind.
  for (int i = 0; i < 10; ++i) {
    fusion.observe(true, units::Meters{46.0}, true, units::Meters{46.0});
  }
  std::cout << "  coordinated spoof  -> "
            << (fusion.under_attack() ? "detected" : "missed (CRA still "
                                                     "catches this case)")
            << "\n";
  return 0;
}
