// Classical (FFT periodogram) frequency estimation.
//
// This is the cheap baseline against which root-MUSIC is compared in the
// ablation benches, and the fallback estimator in the radar processor.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace safe::dsp {

/// A single estimated complex-exponential component.
struct ToneEstimate {
  double frequency_hz = 0.0;  ///< Signed frequency in (-fs/2, fs/2].
  double power = 0.0;         ///< Peak power (arbitrary units).
};

struct PeriodogramOptions {
  WindowKind window = WindowKind::kHann;
  std::size_t min_fft_size = 4096;  ///< Zero-pad target for finer bins.
  bool parabolic_interpolation = true;
};

/// Estimates the `count` strongest tones of a complex baseband signal
/// sampled at `sample_rate_hz` from its zero-padded windowed periodogram.
///
/// Peaks are greedily picked with a guard band of +-2 (pre-padding) bins so
/// one physical tone is not reported twice. Returns fewer than `count`
/// estimates when the spectrum has fewer distinct peaks.
std::vector<ToneEstimate> estimate_tones_periodogram(
    const ComplexSignal& signal, double sample_rate_hz, std::size_t count,
    const PeriodogramOptions& options = {});

/// Single strongest tone, or std::nullopt for an all-zero signal.
std::optional<ToneEstimate> estimate_dominant_tone(
    const ComplexSignal& signal, double sample_rate_hz,
    const PeriodogramOptions& options = {});

/// Goertzel-style coherent power of `signal` at exactly `frequency_hz`:
/// |(1/N) sum_n x[n] e^{-j 2 pi f n / fs}|^2. Used to rank candidate
/// frequencies returned by subspace estimators by their actual power.
double tone_power(const ComplexSignal& signal, double frequency_hz,
                  double sample_rate_hz);

/// Mean squared magnitude of the signal (total in-band power).
double mean_power(const ComplexSignal& signal);

/// Ratio of the strongest periodogram bin to the average bin; a coherence
/// statistic that is large when a sinusoidal component is present and O(log N)
/// for pure noise.
double peak_to_average_power(const ComplexSignal& signal,
                             const PeriodogramOptions& options = {});

/// What one pass over the bin powers |X|^2 of a spectrum gives.
struct PowerScan {
  /// First bin of the largest power above zero (a strict > from 0, so NaN
  /// bins are skipped); the spectrum's size when no bin is above zero.
  std::size_t peak_bin = 0;
  double peak = 0.0;  ///< That bin's power; 0 when there is none.
  double sum = 0.0;   ///< Every bin's power added in bin order.
};

/// Computes each bin's power as std::norm does, the strongest bin and the
/// in-order sum, in one pass. Writes the powers to `power`
/// (spectrum.size() entries) unless it is null. Runs four bins per vector
/// when lanes::width() is 4 or 8 (the in-order sum reads every lane, which
/// costs more than eight lanes save), else two.
PowerScan scan_power(const SplitSpectrum& spectrum, double* power = nullptr);

/// The strongest bin alone, as PowerScan defines it.
struct PowerPeak {
  std::size_t peak_bin = 0;
  double peak = 0.0;
};

/// scan_power(spectrum)'s peak_bin and peak, bit for bit, without the sum:
/// the scan a single-tone pick runs, at lanes::width() bins per vector.
PowerPeak scan_peak(const SplitSpectrum& spectrum);

/// What the radar receiver reads from one segment's periodogram.
struct PeriodogramSummary {
  double peak_to_average = 0.0;
  std::optional<ToneEstimate> dominant_tone;
};

/// peak_to_average_power(signal, options) and
/// estimate_dominant_tone(signal, sample_rate_hz, options), bit for bit, from
/// one shared spectrum instead of two.
PeriodogramSummary summarize_periodogram(const ComplexSignal& signal,
                                         double sample_rate_hz,
                                         const PeriodogramOptions& options = {});

}  // namespace safe::dsp
