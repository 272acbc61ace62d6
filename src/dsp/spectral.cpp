#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace safe::dsp {

namespace lanes = linalg::lanes;

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
  SplitSpectrum spectrum;
  RealSignal power;  ///< Bin powers, stored only for picks after the first.
};

SpectrumWorkspace& workspace() {
  thread_local SpectrumWorkspace ws;
  return ws;
}

/// FFT(window * signal), zero-padded to options.min_fft_size. The result
/// lives in the calling thread's workspace until that thread's next call.
const SplitSpectrum& windowed_spectrum(const ComplexSignal& signal,
                                       const PeriodogramOptions& options) {
  SpectrumWorkspace& ws = workspace();
  if (ws.window.size() != signal.size() || ws.window_kind != options.window) {
    ws.window = make_window(options.window, signal.size());
    ws.window_kind = options.window;
  }
  ws.windowed.assign(signal.begin(), signal.end());
  apply_window(ws.windowed, ws.window);
  fft_into(ws.windowed, options.min_fft_size, ws.spectrum);
  return ws.spectrum;
}

/// Strongest bin over the mean bin (0 when every bin is zero) of an n-bin
/// spectrum, from its scan. The scan's peak is the running std::max of
/// every bin from 0.
double peak_to_average(const PowerScan& scan, std::size_t n) {
  if (scan.sum <= 0.0) return 0.0;
  return scan.peak / (scan.sum / static_cast<double>(n));
}

/// The tone at bin `best` of an n-bin spectrum whose bin powers `power`
/// returns, refined by a log-magnitude parabola through its neighbours.
template <class Power>
ToneEstimate tone_at(std::size_t best, double best_power, std::size_t n,
                     const Power& power, double sample_rate_hz,
                     const PeriodogramOptions& options) {
  double bin = static_cast<double>(best);
  if (options.parabolic_interpolation) {
    const std::size_t prev = (best + n - 1) % n;
    const std::size_t next = (best + 1) % n;
    const double a = 0.5 * std::log(std::max(power(prev), 1e-300));
    const double b = 0.5 * std::log(std::max(power(best), 1e-300));
    const double c = 0.5 * std::log(std::max(power(next), 1e-300));
    const double denom = a - 2.0 * b + c;
    if (std::abs(denom) > 1e-30) {
      const double delta = 0.5 * (a - c) / denom;
      if (std::abs(delta) <= 1.0) bin += delta;
    }
  }
  return ToneEstimate{
      .frequency_hz = bin_to_hz(bin, n, sample_rate_hz),
      .power = best_power,
  };
}

/// A summing scan's strongest bin.
PowerPeak peak_of(const PowerScan& scan) {
  return PowerPeak{.peak_bin = scan.peak_bin, .peak = scan.peak};
}

/// The strongest tone of a spectrum from its strongest bin (none when no bin
/// is above zero).
std::optional<ToneEstimate> first_tone(const SplitSpectrum& spectrum,
                                       const PowerPeak& peak,
                                       double sample_rate_hz,
                                       const PeriodogramOptions& options) {
  if (peak.peak_bin == spectrum.size()) return std::nullopt;
  const auto power = [&](std::size_t i) {
    return spectrum.re()[i] * spectrum.re()[i] +
           spectrum.im()[i] * spectrum.im()[i];
  };
  return tone_at(peak.peak_bin, peak.peak, spectrum.size(), power,
                 sample_rate_hz, options);
}

/// Greedy peak picking over the periodogram of a `signal_size`-sample signal
/// (see estimate_tones_periodogram). The first pick comes from a scan: the
/// peak-only one for a single pick, else the one that stores the bin powers
/// for later picks to search outside the guard bands.
std::vector<ToneEstimate> pick_tones(const SplitSpectrum& spectrum,
                                     std::size_t signal_size,
                                     double sample_rate_hz, std::size_t count,
                                     const PeriodogramOptions& options) {
  const std::size_t n = spectrum.size();
  RealSignal& power = workspace().power;
  if (count > 1) power.resize(n);
  const PowerPeak first = count > 1
                              ? peak_of(scan_power(spectrum, power.data()))
                              : scan_peak(spectrum);
  std::vector<ToneEstimate> tones;
  const auto tone = first_tone(spectrum, first, sample_rate_hz, options);
  if (!tone) return tones;
  tones.reserve(count);
  tones.push_back(*tone);

  // Guard band: the padding factor blows one pre-padding bin up to
  // pad_factor bins, so suppress +-2*pad_factor around each accepted peak.
  const std::size_t pad_factor = std::max<std::size_t>(1, n / signal_size);
  const std::size_t guard = 2 * pad_factor;
  std::vector<bool> masked;
  std::size_t best = first.peak_bin;
  for (std::size_t pick = 1; pick < count; ++pick) {
    masked.resize(n, false);
    for (std::size_t off = 0; off <= guard; ++off) {
      masked[(best + off) % n] = true;
      masked[(best + n - off) % n] = true;
    }
    best = n;  // sentinel
    double best_power = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!masked[i] && power[i] > best_power) {
        best_power = power[i];
        best = i;
      }
    }
    if (best == n || best_power <= 0.0) break;
    tones.push_back(tone_at(
        best, best_power, n, [&](std::size_t i) { return power[i]; },
        sample_rate_hz, options));
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
  return pick_tones(windowed_spectrum(signal, options), signal.size(),
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

namespace {

/// The one-pass scan of the bin powers |X|^2 at L doubles per vector:
/// the strongest bin and, with kSum, the in-order sum and (when `power` is
/// not null) every bin's power. Two vectors of L lanes take the bins in
/// turn (bin mod 2L), each lane keeping the first bin of its largest power
/// above zero; the two vectors keep two compare chains in flight.
template <std::size_t L, bool kSum>
[[gnu::always_inline]] inline PowerScan scan_lanes(
    const SplitSpectrum& spectrum, double* power) {
  using V = lanes::V<L>;
  using Index = typename lanes::Lanes<L>::Index;
  const std::size_t n = spectrum.size();
  const double* re = spectrum.re();
  const double* im = spectrum.im();
  const auto none = static_cast<std::int64_t>(n);
  V best[2] = {};
  Index best_bin[2] = {};
  Index bin[2] = {};
  Index step = {};
  for (std::size_t lane = 0; lane < L; ++lane) {
    for (std::size_t h = 0; h < 2; ++h) {
      best_bin[h][lane] = none;
      bin[h][lane] = static_cast<std::int64_t>(h * L + lane);
    }
    step[lane] = static_cast<std::int64_t>(2 * L);
  }
  double sum = 0.0;
  std::size_t i = 0;
  for (; i + 2 * L <= n; i += 2 * L) {
    // Unrolled, so each chain's vectors stay in registers.
#pragma GCC unroll 2
    for (std::size_t h = 0; h < 2; ++h) {
      V r;
      V m;
      lanes::load_plane<L>(r, re + i + h * L);
      lanes::load_plane<L>(m, im + i + h * L);
      const V p = r * r + m * m;
      if constexpr (kSum) {
#pragma GCC unroll 8
        for (std::size_t lane = 0; lane < L; ++lane) sum += p[lane];
        if (power != nullptr) lanes::store_plane<L>(power + i + h * L, p);
      }
      const Index better = p > best[h];
      best[h] = better ? p : best[h];
      best_bin[h] = better ? bin[h] : best_bin[h];
      bin[h] += step;
    }
  }
  // The largest power wins, and on a tie the lowest bin: the bin one strict
  // > scan from bin 0 keeps.
  PowerScan result{.peak_bin = n, .peak = 0.0, .sum = 0.0};
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t lane = 0; lane < L; ++lane) {
      const double p = best[h][lane];
      const auto b = static_cast<std::size_t>(best_bin[h][lane]);
      if (p > result.peak || (p == result.peak && b < result.peak_bin)) {
        result.peak = p;
        result.peak_bin = b;
      }
    }
  }
  for (; i < n; ++i) {
    const double p = re[i] * re[i] + im[i] * im[i];
    if constexpr (kSum) {
      sum += p;
      if (power != nullptr) power[i] = p;
    }
    if (p > result.peak) {
      result.peak = p;
      result.peak_bin = i;
    }
  }
  result.sum = sum;
  return result;
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] PowerScan four_lane_scan(const SplitSpectrum& spectrum,
                                                 double* power) {
  return scan_lanes<4, true>(spectrum, power);
}

[[gnu::target("avx2")]] PowerPeak four_lane_peak(
    const SplitSpectrum& spectrum) {
  return peak_of(scan_lanes<4, false>(spectrum, nullptr));
}

[[gnu::target("avx512f")]] PowerPeak eight_lane_peak(
    const SplitSpectrum& spectrum) {
  return peak_of(scan_lanes<8, false>(spectrum, nullptr));
}
#endif

}  // namespace

PowerScan scan_power(const SplitSpectrum& spectrum, double* power) {
#if defined(__x86_64__)
  if (lanes::width() >= 4) return four_lane_scan(spectrum, power);
#endif
  return scan_lanes<2, true>(spectrum, power);
}

PowerPeak scan_peak(const SplitSpectrum& spectrum) {
#if defined(__x86_64__)
  switch (lanes::width()) {
    case 8:
      return eight_lane_peak(spectrum);
    case 4:
      return four_lane_peak(spectrum);
    default:
      break;
  }
#endif
  return peak_of(scan_lanes<2, false>(spectrum, nullptr));
}

double peak_to_average_power(const ComplexSignal& signal,
                             const PeriodogramOptions& options) {
  if (signal.empty()) return 0.0;
  const SplitSpectrum& spectrum = windowed_spectrum(signal, options);
  return peak_to_average(scan_power(spectrum), spectrum.size());
}

PeriodogramSummary summarize_periodogram(const ComplexSignal& signal,
                                         double sample_rate_hz,
                                         const PeriodogramOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("summarize_periodogram: sample rate must be > 0");
  }
  if (signal.empty()) return {};
  const SplitSpectrum& spectrum = windowed_spectrum(signal, options);
  const PowerScan scan = scan_power(spectrum);
  return PeriodogramSummary{
      .peak_to_average = peak_to_average(scan, spectrum.size()),
      .dominant_tone =
          first_tone(spectrum, peak_of(scan), sample_rate_hz, options),
  };
}

}  // namespace safe::dsp
