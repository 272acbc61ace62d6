// End-to-end tests of the radar signal path: scene -> baseband -> estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "dsp/music.hpp"
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

// RadarProcessor::synthesize as written on <random>: one
// std::normal_distribution draw from std::mt19937_64 per value, in sample
// order, then two phase draws and a std::polar tone per echo. The receiver's
// own engine and bulk draws must reproduce it bit for bit.
RadarProcessor::Segments reference_synthesize(
    const RadarProcessorConfig& cfg, std::mt19937_64& engine,
    std::normal_distribution<double>& normal, const EchoScene& scene) {
  using dsp::Complex;
  const std::size_t n = cfg.samples_per_segment;
  RadarProcessor::Segments seg{dsp::ComplexSignal(n), dsp::ComplexSignal(n)};
  const double sigma_per_axis =
      std::sqrt(std::max(scene.noise_power_w, 0.0) / 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    seg.up[i] = Complex{sigma_per_axis * normal(engine),
                        sigma_per_axis * normal(engine)};
    seg.down[i] = Complex{sigma_per_axis * normal(engine),
                          sigma_per_axis * normal(engine)};
  }
  for (const EchoComponent& echo : scene.echoes) {
    const BeatFrequencies beats = beat_frequencies(
        cfg.waveform, echo.distance_m, echo.range_rate_mps);
    const double amplitude = std::sqrt(std::max(echo.power_w, 0.0));
    const double phase_up =
        2.0 * std::numbers::pi * 0.5 * (1.0 + std::tanh(normal(engine)));
    const double phase_down =
        2.0 * std::numbers::pi * 0.5 * (1.0 + std::tanh(normal(engine)));
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / cfg.sample_rate_hz.value();
      seg.up[i] += std::polar(
          amplitude,
          2.0 * std::numbers::pi * beats.up_hz.value() * t + phase_up);
      seg.down[i] += std::polar(
          amplitude,
          2.0 * std::numbers::pi * beats.down_hz.value() * t + phase_down);
    }
  }
  return seg;
}

bool same_bits(const dsp::ComplexSignal& a, const dsp::ComplexSignal& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(dsp::Complex)) == 0;
}

TEST(RadarProcessor, SynthesizeMatchesStdRandomReference) {
  // Epochs with zero, one and two echoes, noiseless and jammed ones, in
  // sequence on one receiver, at the default 512 samples and at a segment
  // length that leaves a partial draw block.
  for (const std::size_t samples : {std::size_t{512}, std::size_t{100}}) {
    SCOPED_TRACE(samples);
    RadarProcessorConfig cfg = test_config(BeatEstimator::kPeriodogram);
    cfg.samples_per_segment = samples;
    const std::uint64_t seed = 2024;
    RadarProcessor radar(cfg, seed);
    std::mt19937_64 engine(seed);
    std::normal_distribution<double> normal(0.0, 1.0);

    EchoScene quiet;
    quiet.noise_power_w = cfg.noise_floor_w;
    EchoScene two = target_scene(40.0, -2.0, cfg);
    two.echoes.push_back(target_scene(90.0, 5.0, cfg).echoes.front());
    EchoScene jammed = target_scene(100.0, -1.0, cfg);
    jammed.noise_power_w += received_jammer_power_w(
        cfg.waveform, JammerParameters{}, Meters{100.0});
    const std::vector<EchoScene> scenes = {
        quiet, target_scene(60.0, 1.0, cfg), two, EchoScene{}, jammed,
        two,   quiet};

    for (std::size_t i = 0; i < scenes.size(); ++i) {
      SCOPED_TRACE(i);
      const RadarProcessor::Segments got = radar.synthesize(scenes[i]);
      const RadarProcessor::Segments want =
          reference_synthesize(cfg, engine, normal, scenes[i]);
      EXPECT_TRUE(same_bits(got.up, want.up));
      EXPECT_TRUE(same_bits(got.down, want.down));
    }
  }
}

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

TEST(RadarProcessor, RootMusicEpochMatchesPerSegmentPath) {
  // measure() roots both segments' null-spectrum polynomials as one pair.
  // On a twin receiver's segments, the per-segment path must give the same
  // bits: the up segment's PAPR, root_music_frequencies per segment, then a
  // lone candidate as is or the strongest by tone power. Scenes with 0 to 3
  // echoes (3 and 2 candidates go through the tone-power pick), a jammed
  // epoch and a silent challenge slot.
  const auto cfg = test_config(BeatEstimator::kRootMusic);
  RadarProcessor radar(cfg, 47);
  RadarProcessor twin(cfg, 47);
  const double fs = cfg.sample_rate_hz.value();
  const dsp::MusicOptions options{.covariance_order = cfg.music_order,
                                  .forward_backward = true};

  EchoScene noise_only;
  noise_only.noise_power_w = cfg.noise_floor_w;
  std::vector<EchoScene> scenes = {noise_only, target_scene(60.0, -1.0, cfg)};
  EchoScene two = target_scene(40.0, -2.0, cfg);
  two.echoes.push_back(target_scene(75.0, 1.0, cfg, 2.5).echoes.front());
  scenes.push_back(two);
  EchoScene three = two;
  three.echoes.push_back(target_scene(46.0, -2.0, cfg, 40.0).echoes.front());
  scenes.push_back(three);
  EchoScene jammed = target_scene(100.0, -1.0, cfg);
  jammed.noise_power_w +=
      received_jammer_power_w(cfg.waveform, JammerParameters{}, Meters{100.0});
  scenes.push_back(jammed);
  EchoScene silent;
  silent.tx_enabled = false;
  silent.noise_power_w = cfg.noise_floor_w;
  scenes.push_back(silent);

  const auto pick = [fs](const dsp::ComplexSignal& segment,
                         const std::vector<double>& candidates) {
    if (candidates.empty()) return 0.0;
    if (candidates.size() == 1) return candidates.front();
    double best_freq = candidates.front();
    double best_power = -1.0;
    for (const double f : candidates) {
      const double p = dsp::tone_power(segment, f, fs);
      if (p > best_power) {
        best_power = p;
        best_freq = f;
      }
    }
    return best_freq;
  };

  for (std::size_t i = 0; i < scenes.size(); ++i) {
    SCOPED_TRACE(i);
    const RadarMeasurement m = radar.measure(scenes[i]);
    const RadarProcessor::Segments seg = twin.synthesize(scenes[i]);
    const std::size_t sources =
        std::max<std::size_t>(scenes[i].echoes.size(), 1);
    const double papr = dsp::peak_to_average_power(seg.up);
    const BeatFrequencies beats{
        .up_hz = Hertz{pick(seg.up, dsp::root_music_frequencies(
                                        seg.up, fs, sources, options))},
        .down_hz = Hertz{pick(seg.down, dsp::root_music_frequencies(
                                            seg.down, fs, sources, options))}};
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
