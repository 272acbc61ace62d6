#include "radar/processor.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::radar {

namespace {

// Receiver-stage metrics: one epoch per measure() call (synthesize +
// demodulate + estimate). Counts are jobs-invariant; the duration histograms
// are the per-stage profile the fine trace detail exposes as spans: the
// epoch, and inside it the synthesis and the estimation from the segments.
struct ProcessorMetrics {
  telemetry::MetricId epochs = telemetry::counter("radar.epochs");
  telemetry::MetricId coherent_echoes =
      telemetry::counter("radar.coherent_echoes");
  telemetry::MetricId power_alarms = telemetry::counter("radar.power_alarms");
  telemetry::MetricId measure_ns =
      telemetry::duration_histogram("radar.measure_ns");
  telemetry::MetricId synthesize_ns =
      telemetry::duration_histogram("radar.synthesize_ns");
  telemetry::MetricId estimate_ns =
      telemetry::duration_histogram("radar.estimate_ns");
};

const ProcessorMetrics& processor_metrics() {
  static const ProcessorMetrics m;
  return m;
}

/// The root-MUSIC candidate a segment's receiver locks to: the strongest by
/// coherent power, 0 Hz when there is none.
double strongest_beat_hz(const dsp::ComplexSignal& segment,
                         const std::vector<double>& candidates,
                         double sample_rate_hz) {
  if (candidates.empty()) return 0.0;
  // A lone candidate wins whatever its power: p >= 0 or NaN never displaces
  // front() in the ranking below, so it is returned without one.
  if (candidates.size() == 1) return candidates.front();
  double best_freq = candidates.front();
  double best_power = -1.0;
  for (const double f : candidates) {
    const double p = dsp::tone_power(segment, f, sample_rate_hz);
    if (p > best_power) {
      best_power = p;
      best_freq = f;
    }
  }
  return best_freq;
}

}  // namespace

using dsp::Complex;
using dsp::ComplexSignal;

RadarProcessor::RadarProcessor(RadarProcessorConfig config, std::uint64_t seed)
    : config_(std::move(config)), noise_(0.0, 1.0, seed) {
  validate_parameters(config_.waveform);
  if (config_.sample_rate_hz <= Hertz{0.0}) {
    throw std::invalid_argument("RadarProcessor: sample rate must be > 0");
  }
  if (config_.samples_per_segment < 2 * config_.music_order) {
    throw std::invalid_argument(
        "RadarProcessor: segment too short for the MUSIC covariance order");
  }
  const double segment_duration =
      static_cast<double>(config_.samples_per_segment) /
      config_.sample_rate_hz.value();
  if (segment_duration > config_.waveform.sweep_time_s.value() / 2.0) {
    throw std::invalid_argument(
        "RadarProcessor: segment longer than a half sweep");
  }
}

RadarProcessor::Segments RadarProcessor::synthesize(const EchoScene& scene) {
  const std::size_t n = config_.samples_per_segment;
  Segments seg{ComplexSignal(n), ComplexSignal(n)};

  // Incoherent noise: complex AWGN with total power scene.noise_power_w,
  // drawn per sample as up real, up imaginary, down real, down imaginary.
  const double sigma_per_axis = std::sqrt(std::max(scene.noise_power_w, 0.0) / 2.0);
  constexpr std::size_t kBlock = 64;  // samples per draw (2 KB of stack)
  double draws[4 * kBlock];
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t count = std::min(kBlock, n - start);
    noise_.fill(draws, 4 * count);
    for (std::size_t i = 0; i < count; ++i) {
      const double* d = draws + 4 * i;
      seg.up[start + i] = Complex{sigma_per_axis * d[0], sigma_per_axis * d[1]};
      seg.down[start + i] =
          Complex{sigma_per_axis * d[2], sigma_per_axis * d[3]};
    }
  }

  // Coherent echoes: one complex tone per component in each segment.
  for (const EchoComponent& echo : scene.echoes) {
    const BeatFrequencies beats = beat_frequencies(
        config_.waveform, echo.distance_m, echo.range_rate_mps);
    const double amplitude = std::sqrt(std::max(echo.power_w, 0.0));
    // Deterministic pseudo-random starting phases from the noise stream.
    const double phase_up = 2.0 * std::numbers::pi * 0.5 *
                            (1.0 + std::tanh(noise_.sample()));
    const double phase_down = 2.0 * std::numbers::pi * 0.5 *
                              (1.0 + std::tanh(noise_.sample()));
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / config_.sample_rate_hz.value();
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

RadarMeasurement RadarProcessor::measure(const EchoScene& scene) {
  const ProcessorMetrics& metrics = processor_metrics();
  telemetry::ScopedTimer span("radar.measure", "radar", metrics.measure_ns,
                              telemetry::TraceDetail::kFine);
  telemetry::add(metrics.epochs);

  const Segments seg = [&] {
    telemetry::ScopedTimer synthesis("radar.synthesize", "radar",
                                     metrics.synthesize_ns,
                                     telemetry::TraceDetail::kFine);
    return synthesize(scene);
  }();
  telemetry::ScopedTimer estimation("radar.estimate", "radar",
                                    metrics.estimate_ns,
                                    telemetry::TraceDetail::kFine);

  // Estimate beats even when no coherent echo stands out: under jamming the
  // receiver still produces (corrupted) measurements, which is precisely the
  // failure mode of Figures 2a/3a.
  const std::size_t components = std::max<std::size_t>(scene.echoes.size(), 1);
  const double fs = config_.sample_rate_hz.value();
  RadarMeasurement m;
  m.rx_power_w = 0.5 * (dsp::mean_power(seg.up) + dsp::mean_power(seg.down));
  if (config_.estimator == BeatEstimator::kPeriodogram) {
    // The up segment's one spectrum gives both its coherence and its beat.
    const dsp::PeriodogramSummary up = dsp::summarize_periodogram(seg.up, fs);
    m.peak_to_average = up.peak_to_average;
    m.beats.up_hz =
        Hertz{up.dominant_tone ? up.dominant_tone->frequency_hz : 0.0};
    const auto down = dsp::estimate_dominant_tone(seg.down, fs);
    m.beats.down_hz = Hertz{down ? down->frequency_hz : 0.0};
  } else {
    m.peak_to_average = dsp::peak_to_average_power(seg.up);
    // Both segments' candidates from one paired rooting, each ranked by
    // its own segment's tone power.
    const dsp::MusicOptions options{.covariance_order = config_.music_order,
                                    .forward_backward = true};
    const auto candidates = dsp::root_music_frequencies_pair(
        seg.up, seg.down, fs, components, options);
    m.beats.up_hz = Hertz{strongest_beat_hz(seg.up, candidates[0], fs)};
    m.beats.down_hz = Hertz{strongest_beat_hz(seg.down, candidates[1], fs)};
  }
  m.coherent_echo = m.peak_to_average > config_.coherence_threshold;
  m.power_alarm =
      m.rx_power_w > config_.power_alarm_factor * config_.noise_floor_w;
  if (m.coherent_echo) telemetry::add(metrics.coherent_echoes);
  if (m.power_alarm) telemetry::add(metrics.power_alarms);
  m.estimate = range_rate_from_beats(config_.waveform, m.beats);
  return m;
}

}  // namespace safe::radar
