// FMCW radar receiver: baseband synthesis + beat-frequency estimation.
//
// This is the reproduction of the paper's MATLAB Phased-Array-Toolbox signal
// path: for each measurement epoch the processor synthesizes the up- and
// down-sweep complex baseband segments implied by an EchoScene, estimates the
// two beat frequencies (root-MUSIC by default, matching the paper; FFT
// periodogram as the cheap alternative), and inverts Eqs. 7-8 to range and
// range rate.
#pragma once

#include <cstdint>
#include <optional>

#include "dsp/fft.hpp"
#include "radar/echo_scene.hpp"
#include "radar/fmcw.hpp"
#include "sim/noise.hpp"

namespace safe::radar {

enum class BeatEstimator {
  kRootMusic,    ///< Subspace estimator (paper's choice).
  kPeriodogram,  ///< Zero-padded FFT peak with parabolic interpolation.
};

struct RadarProcessorConfig {
  FmcwParameters waveform{};
  BeatEstimator estimator = BeatEstimator::kRootMusic;
  Hertz sample_rate_hz{1.0e6};          ///< Baseband ADC rate.
  std::size_t samples_per_segment = 512;  ///< Per up/down sweep segment.
  std::size_t music_order = 16;         ///< Covariance order M.
  /// Receiver-output power above `noise_floor_w * power_alarm_factor` counts
  /// as a non-zero output for the CRA comparison (catches jamming).
  double power_alarm_factor = 8.0;
  /// Peak-to-average periodogram ratio above which a coherent echo is
  /// declared present (catches replayed/spoofed tones). Pure noise gives
  /// O(log N) ~ 10; real tones give O(N) ~ hundreds.
  double coherence_threshold = 40.0;
  /// Expected noise floor used for the power alarm (thermal by default; set
  /// from link_budget::thermal_noise_power_w).
  double noise_floor_w = 4.0e-14;
};

/// One radar output sample y'_k: what the digital side of the sensor sees.
struct RadarMeasurement {
  /// Estimated range/range-rate (only meaningful when `coherent_echo`).
  RangeRate estimate{};
  BeatFrequencies beats{};
  double rx_power_w = 0.0;        ///< Mean |x|^2 over the epoch.
  double peak_to_average = 0.0;   ///< Coherence statistic (up segment).
  bool coherent_echo = false;     ///< A sinusoidal component stands out.
  bool power_alarm = false;       ///< Total power far above the noise floor.

  /// "Val(y) != 0" in Algorithm 2: the receiver produced a non-zero output.
  [[nodiscard]] bool nonzero_output() const {
    return coherent_echo || power_alarm;
  }
};

/// Stateful (noise RNG) radar receiver.
class RadarProcessor {
 public:
  explicit RadarProcessor(RadarProcessorConfig config, std::uint64_t seed = 1);

  /// Processes one epoch. Deterministic given the construction seed and the
  /// sequence of calls.
  RadarMeasurement measure(const EchoScene& scene);

  /// Synthesizes the up- and down-sweep baseband segments for a scene
  /// (exposed for tests and the signal-path example).
  struct Segments {
    dsp::ComplexSignal up;
    dsp::ComplexSignal down;
  };
  Segments synthesize(const EchoScene& scene);

  [[nodiscard]] const RadarProcessorConfig& config() const { return config_; }

 private:
  RadarProcessorConfig config_;
  sim::GaussianNoise noise_;
};

}  // namespace safe::radar
