// Tests for FFT, windows, and the periodogram tone estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"

namespace safe::dsp {
namespace {

ComplexSignal make_tone(double freq_hz, double fs, std::size_t n,
                        double amplitude = 1.0, double phase = 0.0) {
  ComplexSignal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(amplitude, 2.0 * std::numbers::pi * freq_hz *
                                         static_cast<double>(i) / fs +
                                     phase);
  }
  return x;
}

void add_noise(ComplexSignal& x, double sigma, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, sigma / std::sqrt(2.0));
  for (auto& xi : x) xi += Complex{dist(rng), dist(rng)};
}

/// The transform loop the cached plan replaced, kept as the oracle: per
/// stage, twiddles from the recurrence w *= e^{-+2 pi i / len}.
void reference_fft_inplace(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1U;
    for (; j & bit; bit >>= 1U) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1U) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const Complex wlen = std::polar(1.0, angle);
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& xi : x) xi *= inv_n;
  }
}

/// What fft(x, min_size) returned before the plan: copy, pad, transform.
ComplexSignal reference_fft(const ComplexSignal& x, std::size_t min_size) {
  ComplexSignal padded = x;
  padded.resize(std::max(next_pow2(x.size()), next_pow2(min_size)));
  reference_fft_inplace(padded, /*inverse=*/false);
  return padded;
}

bool same_bits(const ComplexSignal& a, const ComplexSignal& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

/// Gaussian samples with signed zeros mixed in: the sign of a zero is where
/// a reordered butterfly would first show.
ComplexSignal random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(n);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  x[0] = Complex{-0.0, -0.0};
  if (n > 2) x[n / 2] = Complex{-0.0, 0.0};
  if (n > 4) x[n - 1] = Complex{0.0, -0.0};
  return x;
}

/// Zeros of random sign. Every output is then a zero whose sign records how
/// each butterfly combined zeros; any nonzero sample would spread to every
/// output and absorb those signs.
ComplexSignal signed_zero_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::bernoulli_distribution negative(0.5);
  ComplexSignal x(n);
  for (auto& xi : x) {
    xi = Complex{negative(rng) ? -0.0 : 0.0, negative(rng) ? -0.0 : 0.0};
  }
  return x;
}

TEST(FftPlan, MatchesReferenceLoopBitForBitAtEveryPowerOfTwo) {
  for (std::size_t n = 1; n <= 16384; n <<= 1U) {
    const auto seed = static_cast<unsigned>(n);
    for (const ComplexSignal& x :
         {random_signal(n, seed), signed_zero_signal(n, seed)}) {
      ComplexSignal expected = x;
      ComplexSignal actual = x;
      reference_fft_inplace(expected, /*inverse=*/false);
      fft_inplace(actual);
      EXPECT_TRUE(same_bits(actual, expected)) << "forward, n = " << n;

      expected = x;
      actual = x;
      reference_fft_inplace(expected, /*inverse=*/true);
      ifft_inplace(actual);
      EXPECT_TRUE(same_bits(actual, expected)) << "inverse, n = " << n;
    }
  }
}

TEST(FftPlan, ZeroPaddedTransformMatchesReferenceLoop) {
  // Non-power-of-two lengths and powers of two, padded by factors 1..8192.
  // Hann-windowed with negative end samples, index 0 (and the last index)
  // is exactly (-0, -0): the window's endpoints are +0.
  unsigned seed = 1;
  for (const std::size_t m : {1U, 2U, 3U, 5U, 7U, 100U, 255U, 257U, 500U, 511U,
                              512U, 513U, 1000U, 3000U}) {
    for (const std::size_t min_size : {0U, 1U, 64U, 1024U, 4096U, 8192U}) {
      ComplexSignal x = random_signal(m, ++seed);
      x.front() = Complex{-1.5, -0.25};
      x.back() = Complex{-0.5, -2.0};
      apply_window(x, make_window(WindowKind::kHann, m));
      if (m > 1) {
        ASSERT_TRUE(x[0].real() == 0.0 && std::signbit(x[0].real()));
        ASSERT_TRUE(x[0].imag() == 0.0 && std::signbit(x[0].imag()));
      }
      EXPECT_TRUE(same_bits(fft(x, min_size), reference_fft(x, min_size)))
          << "windowed, m = " << m << ", min_size = " << min_size;

      const ComplexSignal y = random_signal(m, ++seed);
      EXPECT_TRUE(same_bits(fft(y, min_size), reference_fft(y, min_size)))
          << "raw, m = " << m << ", min_size = " << min_size;
    }
  }
  EXPECT_TRUE(same_bits(fft(ComplexSignal{}, 16), reference_fft({}, 16)));
}

TEST(FftPlan, ConcurrentFirstUseOfUncachedSizes) {
  // No other test transforms these sizes, so their plans are built here by
  // several threads that ask for them at the same moment.
  const std::vector<std::size_t> sizes = {32768, 65536, 131072};
  const ComplexSignal short_input = random_signal(700, 3);
  std::vector<ComplexSignal> inputs, expected, expected_padded;
  for (const std::size_t n : sizes) {
    inputs.push_back(random_signal(n, static_cast<unsigned>(n) + 1));
    expected.push_back(inputs.back());
    reference_fft_inplace(expected.back(), /*inverse=*/false);
    expected_padded.push_back(reference_fft(short_input, n));
  }

  constexpr std::size_t kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t s = 0; s < sizes.size(); ++s) {
        ComplexSignal y = inputs[s];
        fft_inplace(y);
        if (!same_bits(y, expected[s])) ++mismatches[t];
        if (!same_bits(fft(short_input, sizes[s]), expected_padded[s])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Fft, RejectsNonPowerOfTwoInPlace) {
  ComplexSignal x(3);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
  ComplexSignal x(8);
  x[0] = Complex{1.0, 0.0};
  fft_inplace(x);
  for (const auto& bin : x) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-12);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDcBin) {
  ComplexSignal x(16, Complex{1.0, 0.0});
  fft_inplace(x);
  EXPECT_NEAR(std::abs(x[0]), 16.0, 1e-10);
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, SingleBinToneLandsOnBin) {
  const std::size_t n = 64;
  // Tone at exactly bin 5: f = 5 * fs / n.
  const ComplexSignal x = make_tone(5.0, static_cast<double>(n), n);
  ComplexSignal spec = x;
  fft_inplace(spec);
  EXPECT_NEAR(std::abs(spec[5]), static_cast<double>(n), 1e-9);
  EXPECT_NEAR(std::abs(spec[4]), 0.0, 1e-9);
}

TEST(Fft, RoundTripIdentity) {
  std::mt19937 rng(7);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(128);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  ComplexSignal y = x;
  fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalTheorem) {
  std::mt19937 rng(11);
  std::normal_distribution<double> dist(0.0, 1.0);
  ComplexSignal x(256);
  for (auto& xi : x) xi = Complex{dist(rng), dist(rng)};
  double time_energy = 0.0;
  for (const auto& xi : x) time_energy += std::norm(xi);
  ComplexSignal spec = x;
  fft_inplace(spec);
  double freq_energy = 0.0;
  for (const auto& si : spec) freq_energy += std::norm(si);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy, 1e-8);
}

TEST(Fft, LinearityProperty) {
  const ComplexSignal a = make_tone(3.0, 64.0, 64);
  const ComplexSignal b = make_tone(9.0, 64.0, 64, 0.5);
  ComplexSignal sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + b[i];
  ComplexSignal fa = a, fb = b, fsum = sum;
  fft_inplace(fa);
  fft_inplace(fb);
  fft_inplace(fsum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (2.0 * fa[i] + fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ZeroPaddingPreservesSpectralShape) {
  const ComplexSignal x = make_tone(100.0, 1000.0, 100);
  const ComplexSignal spec = fft(x, 1024);
  EXPECT_EQ(spec.size(), 1024u);
  // Peak should be near bin 1024 * 100/1000 = 102.4.
  std::size_t peak = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (std::abs(spec[i]) > best) {
      best = std::abs(spec[i]);
      peak = i;
    }
  }
  EXPECT_NEAR(static_cast<double>(peak), 102.4, 1.0);
}

TEST(Fft, RealSignalOverloadMatchesComplex) {
  RealSignal r{1.0, 2.0, 3.0, 4.0};
  ComplexSignal c{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}, {4.0, 0.0}};
  const auto fr = fft(r);
  const auto fc = fft(c);
  ASSERT_EQ(fr.size(), fc.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    EXPECT_NEAR(std::abs(fr[i] - fc[i]), 0.0, 1e-12);
  }
}

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowKind::kRectangular, 8);
  for (const double wi : w) EXPECT_EQ(wi, 1.0);
}

TEST(Window, HannEndpointsAreZero) {
  const auto w = make_window(WindowKind::kHann, 16);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[8], 1.0, 0.05);  // near-center near 1
}

TEST(Window, HammingEndpointsNonZero) {
  const auto w = make_window(WindowKind::kHamming, 16);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
}

TEST(Window, BlackmanIsSymmetric) {
  const auto w = make_window(WindowKind::kBlackman, 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST(Window, LengthOneIsUnity) {
  for (auto kind : {WindowKind::kRectangular, WindowKind::kHann,
                    WindowKind::kHamming, WindowKind::kBlackman}) {
    const auto w = make_window(kind, 1);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 1.0);
  }
}

TEST(Window, CoherentGainOfRectangularIsLength) {
  const auto w = make_window(WindowKind::kRectangular, 10);
  EXPECT_DOUBLE_EQ(window_coherent_gain(w), 10.0);
}

TEST(Window, ApplyWindowLengthMismatchThrows) {
  ComplexSignal x(4);
  EXPECT_THROW(apply_window(x, make_window(WindowKind::kHann, 5)),
               std::invalid_argument);
}

TEST(Periodogram, RecoversSingleToneFrequency) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(47'000.0, fs, 512);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, 47'000.0, 100.0);
}

TEST(Periodogram, RecoversNegativeFrequency) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(-123'456.0, fs, 512);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, -123'456.0, 200.0);
}

TEST(Periodogram, SeparatesTwoTones) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(50'000.0, fs, 1024);
  const ComplexSignal y = make_tone(200'000.0, fs, 1024, 0.8);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  const auto tones = estimate_tones_periodogram(x, fs, 2);
  ASSERT_EQ(tones.size(), 2u);
  // Strongest first.
  EXPECT_NEAR(tones[0].frequency_hz, 50'000.0, 300.0);
  EXPECT_NEAR(tones[1].frequency_hz, 200'000.0, 300.0);
}

TEST(Periodogram, ZeroSignalYieldsNoTone) {
  ComplexSignal x(256);
  EXPECT_FALSE(estimate_dominant_tone(x, 1.0e6).has_value());
}

TEST(Periodogram, EmptySignalYieldsNothing) {
  EXPECT_TRUE(estimate_tones_periodogram({}, 1.0e6, 3).empty());
}

TEST(Periodogram, InvalidSampleRateThrows) {
  ComplexSignal x(16, Complex{1.0, 0.0});
  EXPECT_THROW(estimate_tones_periodogram(x, 0.0, 1), std::invalid_argument);
}

TEST(Periodogram, ToleratesModerateNoise) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(75'000.0, fs, 1024);
  add_noise(x, 0.3, 99);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, 75'000.0, 500.0);
}

TEST(Periodogram, SummaryEqualsSeparateEstimatesBitForBit) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(61'000.0, fs, 512);
  add_noise(x, 0.5, 17);
  const PeriodogramOptions hamming{.window = WindowKind::kHamming};
  // A different window and length in between must not leak through the
  // per-thread window cache.
  const auto hamming_tone = estimate_dominant_tone(x, fs, hamming);
  (void)estimate_dominant_tone(make_tone(1'000.0, fs, 300), fs);

  const PeriodogramSummary summary = summarize_periodogram(x, fs);
  const double papr = peak_to_average_power(x);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  ASSERT_TRUE(summary.dominant_tone.has_value());
  EXPECT_EQ(std::memcmp(&summary.peak_to_average, &papr, sizeof papr), 0);
  EXPECT_EQ(std::memcmp(&summary.dominant_tone->frequency_hz,
                        &tone->frequency_hz, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&summary.dominant_tone->power, &tone->power,
                        sizeof(double)),
            0);

  // The shared spectrum is the one the pre-plan transform produced.
  ComplexSignal windowed = x;
  apply_window(windowed, make_window(WindowKind::kHann, x.size()));
  double peak = 0.0, sum = 0.0;
  for (const Complex& bin : reference_fft(windowed, 4096)) {
    peak = std::max(peak, std::norm(bin));
    sum += std::norm(bin);
  }
  const double expected_papr = peak / (sum / 4096.0);
  EXPECT_EQ(std::memcmp(&papr, &expected_papr, sizeof papr), 0);

  const auto hamming_again = estimate_dominant_tone(x, fs, hamming);
  ASSERT_TRUE(hamming_tone.has_value() && hamming_again.has_value());
  EXPECT_EQ(std::memcmp(&hamming_tone->frequency_hz,
                        &hamming_again->frequency_hz, sizeof(double)),
            0);
}

TEST(Periodogram, SummaryOfEmptyOrZeroSignal) {
  EXPECT_EQ(summarize_periodogram({}, 1.0e6).peak_to_average, 0.0);
  const PeriodogramSummary zero = summarize_periodogram(ComplexSignal(64), 1.0e6);
  EXPECT_EQ(zero.peak_to_average, 0.0);
  EXPECT_FALSE(zero.dominant_tone.has_value());
  EXPECT_THROW(summarize_periodogram(ComplexSignal(4), 0.0),
               std::invalid_argument);
}

class PeriodogramSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodogramSweep, FrequencyRecoveredAcrossBand) {
  const double fs = 1.0e6;
  const double f = GetParam();
  const ComplexSignal x = make_tone(f, fs, 1024);
  const auto tone = estimate_dominant_tone(x, fs);
  ASSERT_TRUE(tone.has_value());
  EXPECT_NEAR(tone->frequency_hz, f, 250.0);
}

INSTANTIATE_TEST_SUITE_P(Band, PeriodogramSweep,
                         ::testing::Values(-400'000.0, -250'000.0, -60'500.0,
                                           -5'000.0, 5'250.0, 33'333.0,
                                           120'000.0, 249'999.0, 333'221.0,
                                           450'000.0));

}  // namespace
}  // namespace safe::dsp
