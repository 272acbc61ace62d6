// Sensor-modality ablation: the same CRA + RLS defense on the park-assist
// study with the ultrasonic and lidar profiles (Section 5.2 claims CRA works
// for any active sensor). Also shows the burn-through effect: a weak DoS
// blinder is defeated by the d^-4 echo growth at short range even without
// any defense.
#include <cstdio>
#include <memory>
#include <string>

#include "core/parking.hpp"

namespace {

using namespace safe;
namespace units = safe::units;
using core::ParkingAttack;
using core::ParkingConfig;
using core::ParkingSimulation;

std::shared_ptr<const cra::ChallengeSchedule> schedule() {
  return std::make_shared<cra::PrbsChallengeSchedule>(0x0B5E, 1, 5, 200);
}

void run_case(const ParkingConfig& cfg, std::optional<ParkingAttack> attack,
              const char* sensor_label, const char* case_label) {
  ParkingSimulation sim(cfg, schedule(), std::move(attack));
  const auto r = sim.run();
  const std::string detected =
      r.detection_step ? std::to_string(*r.detection_step)
                       : std::string("-");
  std::printf("%-11s %-22s %-9s %12.2f %10s %9s %4zu %4zu\n", sensor_label,
              case_label, cfg.defense_enabled ? "on" : "off",
              r.final_clearance_m.value(),
              r.collided ? "COLLISION" : "stopped",
              detected.c_str(), r.detection_stats.false_positives,
              r.detection_stats.false_negatives);
}

ParkingAttack spoof() {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kSpoof;
  a.window = attack::AttackWindow{units::Seconds{40.0},
                                  units::Seconds{200.0}};
  return a;
}

ParkingAttack dos(double power) {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kDos;
  a.window = attack::AttackWindow{units::Seconds{40.0},
                                  units::Seconds{200.0}};
  a.blinder_power_w = power;
  return a;
}

}  // namespace

int main() {
  std::printf(
      "Park-assist under attack, per sensor modality (stop target 0.35 m; "
      "lidar 0.6 m, outside its 0.5 m blind zone)\n\n");
  std::printf("%-11s %-22s %-9s %12s %10s %9s %4s %4s\n", "sensor", "case",
              "defense", "final [m]", "outcome", "detected@", "FP", "FN");

  for (const bool defended : {false, true}) {
    ParkingConfig ultra;
    ultra.defense_enabled = defended;
    run_case(ultra, std::nullopt, "ultrasonic", "clean");
    run_case(ultra, spoof(), "ultrasonic", "spoof +1 m");
    run_case(ultra, dos(1e-3), "ultrasonic", "dos strong");
    run_case(ultra, dos(1e-6), "ultrasonic", "dos weak (burn-thru)");

    ParkingConfig lidar;
    lidar.defense_enabled = defended;
    lidar.sensor = sensors::lidar_parameters();
    lidar.initial_clearance_m = units::Meters{8.0};
    lidar.stop_distance_m = units::Meters{0.6};
    run_case(lidar, std::nullopt, "lidar", "clean");
    run_case(lidar, spoof(), "lidar", "spoof +1 m");
  }

  std::printf(
      "\nshape: identical defense logic protects both modalities (CRA is "
      "transmitter-side, not waveform-specific). Undefended, the spoof and "
      "the strong blinder end in collision; the weak blinder is survived "
      "even undefended because the echo burns through at short range — an "
      "attack-power threshold Eq. 11 predicts.\n");
  return 0;
}
