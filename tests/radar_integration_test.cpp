// Cross-component radar integration tests: two-target scenes, and the
// tracker fed by the processor.
#include <gtest/gtest.h>

#include <vector>

#include "radar/link_budget.hpp"
#include "radar/processor.hpp"
#include "radar/tracker.hpp"

namespace safe::radar {
namespace {

using units::Meters;
using units::MetersPerSecond;

RadarProcessorConfig test_config() {
  RadarProcessorConfig cfg;
  cfg.estimator = BeatEstimator::kPeriodogram;
  cfg.noise_floor_w = thermal_noise_power_w(cfg.waveform);
  return cfg;
}

EchoScene scene_for(double d, double dv, const RadarProcessorConfig& cfg) {
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{d},
      .range_rate_mps = MetersPerSecond{dv},
      .power_w = received_echo_power_w(cfg.waveform, Meters{d}, 10.0),
  });
  scene.noise_power_w = cfg.noise_floor_w;
  return scene;
}

TEST(RadarTwoTargets, StrongerEchoWins) {
  const auto cfg = test_config();
  RadarProcessor radar(cfg, 7);
  EchoScene scene = scene_for(40.0, -1.0, cfg);
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{90.0},
      .range_rate_mps = MetersPerSecond{2.0},
      .power_w = received_echo_power_w(cfg.waveform, Meters{90.0}, 10.0),
  });
  // d^-4: the 40 m echo is ~26 dB stronger; the receiver locks onto it.
  const auto m = radar.measure(scene);
  ASSERT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 40.0, 2.0);
}

TEST(RadarTracker, FollowsProcessorThroughChallengeDropouts) {
  const auto cfg = test_config();
  RadarProcessor radar(cfg, 9);
  RangeTracker tracker;

  double d = 100.0;
  const double dv = -2.0;
  for (int k = 0; k < 30; ++k) {
    d += dv;
    const bool challenge = (k % 7) == 5;  // periodic probe suppression
    std::vector<RangeRate> detections;
    if (!challenge) {
      const auto m = radar.measure(scene_for(d, dv, cfg));
      if (m.coherent_echo) detections.push_back(m.estimate);
    }
    tracker.update(detections);
  }
  const auto primary = tracker.primary_track();
  ASSERT_TRUE(primary.has_value());
  EXPECT_NEAR(primary->range_m.value(), d, 3.0);
  EXPECT_NEAR(primary->range_rate_mps.value(), dv, 1.0);
  EXPECT_EQ(tracker.tracks().size(), 1u);  // dropouts spawned no ghosts
}

TEST(RadarTracker, SpoofOnsetVisibleAsTrackSplit) {
  const auto cfg = test_config();
  RadarProcessor radar(cfg, 11);
  RangeTracker tracker;

  // 4 spoofed epochs: enough to confirm the counterfeit track while the
  // genuine track is still coasting (it is dropped after 5 misses).
  double d = 60.0;
  for (int k = 0; k < 22; ++k) {
    d -= 0.5;
    EchoScene scene;
    scene.noise_power_w = cfg.noise_floor_w;
    const bool spoofed = k >= 18;
    scene.echoes.push_back(EchoComponent{
        .distance_m = Meters{spoofed ? d + 6.0 : d},  // +6 m jump at onset
        .range_rate_mps = MetersPerSecond{-0.5},
        .power_w = received_echo_power_w(cfg.waveform, Meters{d}, 10.0) *
                   (spoofed ? 4.0 : 1.0),
    });
    const auto m = radar.measure(scene);
    std::vector<RangeRate> detections;
    if (m.coherent_echo) detections.push_back(m.estimate);
    tracker.update(detections);
  }
  // The 6 m jump exceeds the 5 m gate: the old track coasts, a new track
  // forms. Track-splitting is an independent spoofing tell that complements
  // CRA.
  EXPECT_GE(tracker.tracks().size(), 2u);
}

}  // namespace
}  // namespace safe::radar
