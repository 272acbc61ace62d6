#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace safe::dsp {

namespace {

/// Maps an FFT bin index to its signed frequency in Hz.
double bin_to_hz(double bin, std::size_t fft_size, double sample_rate_hz) {
  const double n = static_cast<double>(fft_size);
  double f = bin / n;
  if (f > 0.5) f -= 1.0;
  return f * sample_rate_hz;
}

/// One thread's periodogram scratch: the window last asked for and buffers
/// that keep their capacity from call to call.
struct SpectrumWorkspace {
  WindowKind window_kind = WindowKind::kRectangular;
  RealSignal window;
  ComplexSignal windowed;
  ComplexSignal spectrum;
  RealSignal power;
};

/// |FFT(window * signal)|^2, zero-padded to options.min_fft_size. The result
/// lives in the calling thread's workspace until that thread's next call.
const RealSignal& windowed_power_spectrum(const ComplexSignal& signal,
                                          const PeriodogramOptions& options) {
  thread_local SpectrumWorkspace ws;
  if (ws.window.size() != signal.size() || ws.window_kind != options.window) {
    ws.window = make_window(options.window, signal.size());
    ws.window_kind = options.window;
  }
  ws.windowed.assign(signal.begin(), signal.end());
  apply_window(ws.windowed, ws.window);
  fft_into(ws.windowed, options.min_fft_size, ws.spectrum);
  ws.power.resize(ws.spectrum.size());
  for (std::size_t i = 0; i < ws.spectrum.size(); ++i) {
    ws.power[i] = std::norm(ws.spectrum[i]);
  }
  return ws.power;
}

/// Strongest bin over the mean bin of a power spectrum (0 when all zero).
double peak_to_average(const RealSignal& power) {
  double peak = 0.0, sum = 0.0;
  for (const double p : power) {
    peak = std::max(peak, p);
    sum += p;
  }
  if (sum <= 0.0) return 0.0;
  return peak / (sum / static_cast<double>(power.size()));
}

/// Greedy peak picking over the periodogram of a `signal_size`-sample signal
/// (see estimate_tones_periodogram).
std::vector<ToneEstimate> pick_tones(const RealSignal& power,
                                     std::size_t signal_size,
                                     double sample_rate_hz, std::size_t count,
                                     const PeriodogramOptions& options) {
  const std::size_t n = power.size();

  // Guard band: the padding factor blows one pre-padding bin up to
  // pad_factor bins, so suppress +-2*pad_factor around each accepted peak.
  const std::size_t pad_factor = std::max<std::size_t>(1, n / signal_size);
  const std::size_t guard = 2 * pad_factor;

  std::vector<bool> masked(n, false);
  std::vector<ToneEstimate> tones;
  tones.reserve(count);

  for (std::size_t pick = 0; pick < count; ++pick) {
    std::size_t best = n;  // sentinel
    double best_power = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!masked[i] && power[i] > best_power) {
        best_power = power[i];
        best = i;
      }
    }
    if (best == n || best_power <= 0.0) break;

    double bin = static_cast<double>(best);
    if (options.parabolic_interpolation) {
      const std::size_t prev = (best + n - 1) % n;
      const std::size_t next = (best + 1) % n;
      // Log-magnitude parabola through the three bins around the peak.
      const double a = 0.5 * std::log(std::max(power[prev], 1e-300));
      const double b = 0.5 * std::log(std::max(power[best], 1e-300));
      const double c = 0.5 * std::log(std::max(power[next], 1e-300));
      const double denom = a - 2.0 * b + c;
      if (std::abs(denom) > 1e-30) {
        const double delta = 0.5 * (a - c) / denom;
        if (std::abs(delta) <= 1.0) bin += delta;
      }
    }

    tones.push_back(ToneEstimate{
        .frequency_hz = bin_to_hz(bin, n, sample_rate_hz),
        .power = best_power,
    });

    for (std::size_t off = 0; off <= guard; ++off) {
      masked[(best + off) % n] = true;
      masked[(best + n - off) % n] = true;
    }
  }
  return tones;
}

}  // namespace

std::vector<ToneEstimate> estimate_tones_periodogram(
    const ComplexSignal& signal, double sample_rate_hz, std::size_t count,
    const PeriodogramOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("estimate_tones: sample rate must be > 0");
  }
  if (signal.empty() || count == 0) return {};
  return pick_tones(windowed_power_spectrum(signal, options), signal.size(),
                    sample_rate_hz, count, options);
}

std::optional<ToneEstimate> estimate_dominant_tone(
    const ComplexSignal& signal, double sample_rate_hz,
    const PeriodogramOptions& options) {
  auto tones = estimate_tones_periodogram(signal, sample_rate_hz, 1, options);
  if (tones.empty()) return std::nullopt;
  return tones.front();
}

double tone_power(const ComplexSignal& signal, double frequency_hz,
                  double sample_rate_hz) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("tone_power: sample rate must be > 0");
  }
  if (signal.empty()) return 0.0;
  const double omega =
      2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
  Complex acc{};
  for (std::size_t n = 0; n < signal.size(); ++n) {
    acc += signal[n] * std::polar(1.0, -omega * static_cast<double>(n));
  }
  acc /= static_cast<double>(signal.size());
  return std::norm(acc);
}

double mean_power(const ComplexSignal& signal) {
  if (signal.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& xi : signal) acc += std::norm(xi);
  return acc / static_cast<double>(signal.size());
}

double peak_to_average_power(const ComplexSignal& signal,
                             const PeriodogramOptions& options) {
  if (signal.empty()) return 0.0;
  return peak_to_average(windowed_power_spectrum(signal, options));
}

PeriodogramSummary summarize_periodogram(const ComplexSignal& signal,
                                         double sample_rate_hz,
                                         const PeriodogramOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("summarize_periodogram: sample rate must be > 0");
  }
  if (signal.empty()) return {};
  const RealSignal& power = windowed_power_spectrum(signal, options);
  PeriodogramSummary summary;
  summary.peak_to_average = peak_to_average(power);
  const auto tones =
      pick_tones(power, signal.size(), sample_rate_hz, 1, options);
  if (!tones.empty()) summary.dominant_tone = tones.front();
  return summary;
}

}  // namespace safe::dsp
