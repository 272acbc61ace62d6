// End-to-end tests of the radar signal path: scene -> baseband -> estimate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dsp/spectral.hpp"
#include "radar/echo_scene.hpp"
#include "radar/link_budget.hpp"
#include "radar/processor.hpp"

namespace safe::radar {
namespace {

using units::Meters;
using units::MetersPerSecond;

RadarProcessorConfig test_config(BeatEstimator estimator) {
  RadarProcessorConfig cfg;
  cfg.estimator = estimator;
  cfg.noise_floor_w = thermal_noise_power_w(cfg.waveform);
  return cfg;
}

EchoScene target_scene(double distance_m, double range_rate_mps,
                       const RadarProcessorConfig& cfg, double rcs = 10.0) {
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{distance_m},
      .range_rate_mps = MetersPerSecond{range_rate_mps},
      .power_w = received_echo_power_w(cfg.waveform, Meters{distance_m}, rcs),
  });
  scene.noise_power_w = cfg.noise_floor_w;
  return scene;
}

TEST(RadarProcessor, ConfigValidation) {
  RadarProcessorConfig cfg = test_config(BeatEstimator::kRootMusic);
  cfg.sample_rate_hz = units::Hertz{0.0};
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);

  cfg = test_config(BeatEstimator::kRootMusic);
  cfg.samples_per_segment = 8;  // < 2 * music_order
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);

  cfg = test_config(BeatEstimator::kRootMusic);
  cfg.samples_per_segment = 4096;  // 4.1 ms > half sweep (1 ms)
  EXPECT_THROW(RadarProcessor(cfg, 1), std::invalid_argument);
}

TEST(RadarProcessor, MeasuresStationaryTargetRootMusic) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 7);
  const auto m = radar.measure(target_scene(100.0, 0.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 100.0, 1.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), 0.0, 0.5);
}

TEST(RadarProcessor, MeasuresMovingTargetRootMusic) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 11);
  const auto m = radar.measure(target_scene(60.0, -4.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 60.0, 1.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), -4.0, 0.5);
}

TEST(RadarProcessor, MeasuresTargetPeriodogram) {
  const auto cfg = test_config(BeatEstimator::kPeriodogram);
  RadarProcessor radar(cfg, 13);
  const auto m = radar.measure(target_scene(80.0, 2.0, cfg));
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 80.0, 2.0);
  EXPECT_NEAR(m.estimate.range_rate_mps.value(), 2.0, 1.0);
}

TEST(RadarProcessor, ChallengeSlotWithNoAttackIsSilent) {
  // Tx suppressed, no attacker: only thermal noise reaches the receiver.
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 17);
  EchoScene scene;
  scene.tx_enabled = false;
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_FALSE(m.coherent_echo);
  EXPECT_FALSE(m.power_alarm);
  EXPECT_FALSE(m.nonzero_output());
}

TEST(RadarProcessor, JammingRaisesPowerAlarm) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 19);
  EchoScene scene;
  scene.tx_enabled = false;  // challenge slot
  scene.noise_power_w =
      cfg.noise_floor_w +
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.power_alarm);
  EXPECT_TRUE(m.nonzero_output());
}

TEST(RadarProcessor, JammingCorruptsRangeEstimate) {
  // With the echo buried under jamming, the estimator output is garbage
  // (this is the corrupted trace of Figures 2a / 3a).
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 23);
  EchoScene scene = target_scene(100.0, -1.0, cfg);
  scene.noise_power_w +=
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  const auto m = radar.measure(scene);
  // The coherent echo is ~33 dB below the jam floor: no stable lock.
  EXPECT_GT(std::abs((m.estimate.distance_m - Meters{100.0}).value()), 5.0);
}

TEST(RadarProcessor, SpoofedEchoShiftsRangeBySixMeters) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 29);
  // Counterfeit echo: same kinematics, apparent range +6 m, healthy power.
  EchoScene scene;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{100.0 + 6.0},
      .range_rate_mps = MetersPerSecond{-2.0},
      .power_w =
          received_echo_power_w(cfg.waveform, Meters{100.0}, 10.0) * 4.0,
  });
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_NEAR(m.estimate.distance_m.value(), 106.0, 1.0);
}

TEST(RadarProcessor, SpoofDuringChallengeIsDetectable) {
  // Attacker keeps replaying during a challenge slot: receiver sees a
  // coherent tone where silence was expected.
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 31);
  EchoScene scene;
  scene.tx_enabled = false;
  scene.echoes.push_back(EchoComponent{
      .distance_m = Meters{106.0},
      .range_rate_mps = MetersPerSecond{-2.0},
      .power_w =
          received_echo_power_w(cfg.waveform, Meters{100.0}, 10.0) * 4.0,
  });
  scene.noise_power_w = cfg.noise_floor_w;
  const auto m = radar.measure(scene);
  EXPECT_TRUE(m.coherent_echo);
  EXPECT_TRUE(m.nonzero_output());
}

TEST(RadarProcessor, SynthesizeProducesRequestedLength)
{
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 37);
  const auto seg = radar.synthesize(target_scene(50.0, 0.0, cfg));
  EXPECT_EQ(seg.up.size(), cfg.samples_per_segment);
  EXPECT_EQ(seg.down.size(), cfg.samples_per_segment);
}

TEST(RadarProcessor, SegmentPowerMatchesSceneBudget) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 41);
  auto scene = target_scene(30.0, 0.0, cfg);
  const double expected =
      scene.echoes[0].power_w + scene.noise_power_w;
  const auto m = radar.measure(scene);
  EXPECT_NEAR(m.rx_power_w / expected, 1.0, 0.35);
}

TEST(RadarProcessor, DeterministicGivenSeed) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor a(cfg, 99), b(cfg, 99);
  const auto scene = target_scene(75.0, -3.0, cfg);
  const auto ma = a.measure(scene);
  const auto mb = b.measure(scene);
  EXPECT_EQ(ma.estimate.distance_m.value(), mb.estimate.distance_m.value());
  EXPECT_EQ(ma.estimate.range_rate_mps.value(),
            mb.estimate.range_rate_mps.value());
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(RadarProcessor, PeriodogramMeasureEqualsSeparatelyComposedEstimates) {
  // measure() reads the up segment's coherence statistic and beat from one
  // shared spectrum. Composing the two public estimators on a twin
  // receiver's segments must give the same bits: clean targets, a jammed
  // epoch, a silent challenge slot and an all-zero epoch (no tone at all).
  const auto cfg = test_config(BeatEstimator::kPeriodogram);
  RadarProcessor radar(cfg, 43);
  RadarProcessor twin(cfg, 43);
  const double fs = cfg.sample_rate_hz.value();

  std::vector<EchoScene> scenes = {target_scene(80.0, 2.0, cfg),
                                   target_scene(15.0, -6.0, cfg)};
  EchoScene jammed = target_scene(100.0, -1.0, cfg);
  jammed.noise_power_w +=
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  scenes.push_back(jammed);
  EchoScene silent;
  silent.tx_enabled = false;
  silent.noise_power_w = cfg.noise_floor_w;
  scenes.push_back(silent);
  scenes.push_back(EchoScene{});  // no echo, no noise: all-zero segments

  for (std::size_t i = 0; i < scenes.size(); ++i) {
    SCOPED_TRACE(i);
    const RadarMeasurement m = radar.measure(scenes[i]);
    const RadarProcessor::Segments seg = twin.synthesize(scenes[i]);
    const double papr = dsp::peak_to_average_power(seg.up);
    const auto up = dsp::estimate_dominant_tone(seg.up, fs);
    const auto down = dsp::estimate_dominant_tone(seg.down, fs);
    const BeatFrequencies beats{
        .up_hz = Hertz{up ? up->frequency_hz : 0.0},
        .down_hz = Hertz{down ? down->frequency_hz : 0.0}};
    const RangeRate expected = range_rate_from_beats(cfg.waveform, beats);

    EXPECT_TRUE(same_bits(m.peak_to_average, papr));
    EXPECT_TRUE(same_bits(m.beats.up_hz.value(), beats.up_hz.value()));
    EXPECT_TRUE(same_bits(m.beats.down_hz.value(), beats.down_hz.value()));
    EXPECT_TRUE(same_bits(m.estimate.distance_m.value(),
                          expected.distance_m.value()));
    EXPECT_TRUE(same_bits(m.estimate.range_rate_mps.value(),
                          expected.range_rate_mps.value()));
    EXPECT_EQ(m.coherent_echo, papr > cfg.coherence_threshold);
  }
}

// Accuracy sweep across the radar's specified range window.
class RangeSweep : public ::testing::TestWithParam<double> {};

TEST_P(RangeSweep, RootMusicRangeWithinOneMeter) {
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 101);
  const double d = GetParam();
  const auto m = radar.measure(target_scene(d, -1.0, cfg));
  EXPECT_TRUE(m.coherent_echo) << "range " << d;
  EXPECT_NEAR(m.estimate.distance_m.value(), d, 1.0) << "range " << d;
}

INSTANTIATE_TEST_SUITE_P(AcrossBand, RangeSweep,
                         ::testing::Values(5.0, 10.0, 20.0, 40.0, 60.0, 80.0,
                                           100.0, 120.0, 150.0, 180.0, 200.0));

}  // namespace
}  // namespace safe::radar
