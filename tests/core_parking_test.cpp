// Tests for the ultrasonic park-assist case study.
#include <gtest/gtest.h>

#include <memory>

#include "core/parking.hpp"

namespace safe::core {
namespace {

std::shared_ptr<const cra::ChallengeSchedule> parking_schedule(
    std::int64_t horizon = 200) {
  // Ultrasonic pings are cheap: challenge about every 5th ping.
  return std::make_shared<cra::PrbsChallengeSchedule>(0x0B5E, 1, 5, horizon);
}

ParkingAttack spoof(double start, double end, double offset = 1.0) {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kSpoof;
  a.window = attack::AttackWindow{units::Seconds{start}, units::Seconds{end}};
  a.spoof_offset_m = units::Meters{offset};
  return a;
}

ParkingAttack blinder(double start, double end) {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kDos;
  a.window = attack::AttackWindow{units::Seconds{start}, units::Seconds{end}};
  return a;
}

TEST(Parking, ConstructionValidation) {
  ParkingConfig cfg;
  EXPECT_THROW(ParkingSimulation(cfg, nullptr, std::nullopt),
               std::invalid_argument);
  cfg.initial_clearance_m = units::Meters{0.2};
  EXPECT_THROW(ParkingSimulation(cfg, parking_schedule(), std::nullopt),
               std::invalid_argument);
  cfg = ParkingConfig{};
  cfg.sample_time_s = units::Seconds{0.0};
  EXPECT_THROW(ParkingSimulation(cfg, parking_schedule(), std::nullopt),
               std::invalid_argument);
  cfg = ParkingConfig{};
  cfg.approach_gain = 0.0;
  EXPECT_THROW(ParkingSimulation(cfg, parking_schedule(), std::nullopt),
               std::invalid_argument);
  // The lidar is blind inside 0.5 m: the default 0.35 m stop is unreachable.
  cfg = ParkingConfig{};
  cfg.sensor = sensors::lidar_parameters();
  EXPECT_THROW(ParkingSimulation(cfg, parking_schedule(), std::nullopt),
               std::invalid_argument);
}

TEST(Parking, CleanApproachStopsAtTargetDistance) {
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(), std::nullopt);
  const auto r = sim.run();
  EXPECT_FALSE(r.collided);
  EXPECT_FALSE(r.detection_step.has_value());
  EXPECT_EQ(r.detection_stats.false_positives, 0u);
  EXPECT_NEAR(r.final_clearance_m.value(), ParkingConfig{}.stop_distance_m.value(),
              0.1);
}

TEST(Parking, SpoofUndefendedHitsTheObstacle) {
  ParkingConfig cfg;
  cfg.defense_enabled = false;
  ParkingSimulation sim(cfg, parking_schedule(), spoof(40.0, 200.0));
  const auto r = sim.run();
  EXPECT_TRUE(r.collided);
}

TEST(Parking, SpoofDefendedStopsSafely) {
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(),
                        spoof(40.0, 200.0));
  const auto r = sim.run();
  EXPECT_FALSE(r.collided);
  ASSERT_TRUE(r.detection_step.has_value());
  EXPECT_GE(*r.detection_step, 40);
  EXPECT_EQ(r.detection_stats.false_positives, 0u);
  EXPECT_EQ(r.detection_stats.false_negatives, 0u);
  EXPECT_GT(r.final_clearance_m, units::Meters{0.1});
}

TEST(Parking, BlinderUndefendedDrivesOn) {
  // Jammed sensor reports nothing; the undefended controller holds the last
  // clearance value and keeps creeping forward into the obstacle.
  ParkingConfig cfg;
  cfg.defense_enabled = false;
  ParkingSimulation sim(cfg, parking_schedule(), blinder(40.0, 200.0));
  const auto r = sim.run();
  EXPECT_TRUE(r.collided);
}

TEST(Parking, BlinderDefendedStopsSafely) {
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(),
                        blinder(40.0, 200.0));
  const auto r = sim.run();
  EXPECT_FALSE(r.collided);
  ASSERT_TRUE(r.detection_step.has_value());
  EXPECT_EQ(r.detection_stats.false_negatives, 0u);
}

TEST(Parking, DefendedBlindPingHoldsTheLastHeldEstimate) {
  // The blinder over pings 13-70 drives the defended car into the obstacle
  // at ping 69. Ping 71 is a silent challenge that holds over; ping 72 is a
  // blind epoch outside any challenge or declared attack. It must hold the
  // estimate ping 71 held, not the level the rollback at ping 18 replayed.
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(),
                        blinder(13.0, 70.0));
  const auto r = sim.run();
  const auto& used = r.trace.column("used_m");
  const auto& challenge = r.trace.column("challenge");
  const auto& under = r.trace.column("under_attack");
  ASSERT_EQ(challenge[71], 1.0);
  ASSERT_EQ(under[71], 0.0);
  ASSERT_EQ(challenge[72], 0.0);
  ASSERT_EQ(under[72], 0.0);
  EXPECT_EQ(used[72], used[71]);
}

TEST(Parking, LidarProfileWorksToo) {
  // Same study with the lidar profile: CRA is modality-agnostic.
  ParkingConfig cfg;
  cfg.sensor = sensors::lidar_parameters();
  cfg.initial_clearance_m = units::Meters{8.0};
  cfg.stop_distance_m = units::Meters{0.6};  // outside the 0.5 m blind zone
  ParkingSimulation sim(cfg, parking_schedule(), spoof(40.0, 200.0, 2.0));
  const auto r = sim.run();
  EXPECT_FALSE(r.collided);
  ASSERT_TRUE(r.detection_step.has_value());
  EXPECT_EQ(r.detection_stats.false_positives, 0u);
}

TEST(Parking, ShortAttackClearsAndFinishesParking) {
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(),
                        spoof(40.0, 80.0));
  const auto r = sim.run();
  EXPECT_FALSE(r.collided);
  const auto& under = r.trace.column("under_attack");
  bool cleared_after = false;
  for (std::size_t k = 90; k < under.size(); ++k) {
    if (under[k] == 0.0) cleared_after = true;
  }
  EXPECT_TRUE(cleared_after);
  EXPECT_NEAR(r.final_clearance_m.value(), ParkingConfig{}.stop_distance_m.value(),
              0.15);
}

TEST(Parking, TraceIsComplete) {
  ParkingSimulation sim(ParkingConfig{}, parking_schedule(), std::nullopt);
  const auto r = sim.run();
  EXPECT_EQ(r.trace.num_rows(), 200u);
  EXPECT_EQ(r.trace.num_columns(), 7u);
}

TEST(Parking, DeterministicGivenSeed) {
  ParkingSimulation a(ParkingConfig{}, parking_schedule(), spoof(40.0, 200.0));
  ParkingSimulation b(ParkingConfig{}, parking_schedule(), spoof(40.0, 200.0));
  EXPECT_EQ(a.run().final_clearance_m, b.run().final_clearance_m);
}

}  // namespace
}  // namespace safe::core
