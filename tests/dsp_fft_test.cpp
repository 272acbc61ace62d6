// Tests for FFT, windows, and the periodogram tone estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"
#include "oracles.hpp"

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

using oracles::at_width;
using oracles::same_value;

void every_power_of_two_matches_reference() {
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

TEST(FftPlan, MatchesReferenceLoopBitForBitAtEveryPowerOfTwo) {
  at_width(2, every_power_of_two_matches_reference);
}

TEST(FftPlanFourLanes, MatchesReferenceLoopBitForBitAtEveryPowerOfTwo) {
  at_width(4, every_power_of_two_matches_reference);
}

TEST(FftPlanEightLanes, MatchesReferenceLoopBitForBitAtEveryPowerOfTwo) {
  at_width(8, every_power_of_two_matches_reference);
}

void zero_padded_transforms_match_reference() {
  // Non-power-of-two lengths and powers of two, padded by factors 1..8192;
  // the minimum sizes 8, 16 and 32 pad short signals by r = 2, 4 and 8, so
  // the four- and eight-lane stages start partway through a small transform.
  // Hann-windowed with negative end samples, index 0 (and the last index)
  // is exactly (-0, -0): the window's endpoints are +0.
  unsigned seed = 1;
  for (const std::size_t m : {1U, 2U, 3U, 4U, 5U, 7U, 100U, 255U, 257U, 500U,
                              511U, 512U, 513U, 1000U, 3000U}) {
    for (const std::size_t min_size :
         {0U, 1U, 8U, 16U, 32U, 64U, 1024U, 4096U, 8192U}) {
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

TEST(FftPlan, ZeroPaddedTransformMatchesReferenceLoop) {
  at_width(2, zero_padded_transforms_match_reference);
}

TEST(FftPlanFourLanes, ZeroPaddedTransformMatchesReferenceLoop) {
  at_width(4, zero_padded_transforms_match_reference);
}

TEST(FftPlanEightLanes, ZeroPaddedTransformMatchesReferenceLoop) {
  at_width(8, zero_padded_transforms_match_reference);
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

// --- split-plane kernel: non-finite samples ---------------------------------

::testing::AssertionResult same_values(const ComplexSignal& actual,
                                       const ComplexSignal& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure() << "size " << actual.size()
                                         << " != " << expected.size();
  }
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (!same_value(actual[i].real(), expected[i].real()) ||
        !same_value(actual[i].imag(), expected[i].imag())) {
      return ::testing::AssertionFailure()
             << "bin " << i << ": " << actual[i] << " != " << expected[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks the forward, inverse and zero-padded transforms of x against the
/// reference loop.
void expect_transforms_match_reference(const ComplexSignal& x,
                                       const std::string& what) {
  ComplexSignal expected = x;
  ComplexSignal actual = x;
  reference_fft_inplace(expected, /*inverse=*/false);
  fft_inplace(actual);
  EXPECT_TRUE(same_values(actual, expected)) << "forward, " << what;

  expected = x;
  actual = x;
  reference_fft_inplace(expected, /*inverse=*/true);
  ifft_inplace(actual);
  EXPECT_TRUE(same_values(actual, expected)) << "inverse, " << what;

  for (const std::size_t min_size : {0U, 16U, 32U, 64U, 4096U}) {
    EXPECT_TRUE(same_values(fft(x, min_size), reference_fft(x, min_size)))
        << "padded to " << min_size << ", " << what;
    SplitSpectrum planes;
    fft_into(x, min_size, planes);
    ComplexSignal joined(planes.size());
    for (std::size_t i = 0; i < planes.size(); ++i) {
      joined[i] = Complex{planes.re()[i], planes.im()[i]};
    }
    EXPECT_TRUE(same_values(joined, reference_fft(x, min_size)))
        << "split planes padded to " << min_size << ", " << what;
  }
}

/// The sizes span each place the NaN check runs: n <= 2 (and one sample
/// padded) have no vector stage and take the separate check; from n = 4 the
/// last butterfly stage checks its own outputs, at 2048 after stages run
/// one L1 block at a time.
void non_finite_samples_match_reference() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  unsigned seed = 40;
  for (const std::size_t n : {1U, 2U, 4U, 8U, 16U, 32U, 64U, 512U, 2048U}) {
    for (const Complex bad : {Complex{kInf, 0.0}, Complex{-kInf, kInf},
                              Complex{0.0, -kInf}, Complex{nan, 0.0},
                              Complex{1.0, nan}, Complex{kInf, nan}}) {
      for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
        ComplexSignal x = random_signal(n, ++seed);
        x[at] = bad;
        expect_transforms_match_reference(
            x, "n = " + std::to_string(n) + ", bad sample at " +
                   std::to_string(at));
      }
    }
    // Every sample infinite: finite twiddles meet inf * 0 everywhere.
    ComplexSignal all_inf(n, Complex{kInf, -kInf});
    expect_transforms_match_reference(all_inf,
                                      "all infinite, n = " + std::to_string(n));
  }
}

TEST(SplitFft, InfiniteAndNanSamplesMatchReferenceLoop) {
  at_width(2, non_finite_samples_match_reference);
}

TEST(SplitFftFourLanes, InfiniteAndNanSamplesMatchReferenceLoop) {
  at_width(4, non_finite_samples_match_reference);
}

TEST(SplitFftEightLanes, InfiniteAndNanSamplesMatchReferenceLoop) {
  at_width(8, non_finite_samples_match_reference);
}

void overflowing_sums_match_reference() {
  // Finite samples near the top of the range: the first sums overflow to
  // infinity, and a later product of an infinite value with a twiddle that
  // has a zero part, (inf, inf) * (1, +0), comes out (NaN, NaN) inline.
  // std::complex hands that product to __muldc3, which returns (inf, inf),
  // so outputs hold infinities where the inline product leaves NaN.
  const Complex huge{1.0e308, 1.0e308};
  const Complex product = Complex{std::numeric_limits<double>::infinity(),
                                  std::numeric_limits<double>::infinity()} *
                          Complex{1.0, 0.0};
  ASSERT_TRUE(std::isinf(product.real()) && std::isinf(product.imag()));

  for (const std::size_t n : {4U, 8U, 16U, 32U, 512U, 2048U}) {
    expect_transforms_match_reference(
        ComplexSignal(n, huge), "constant 1e308, n = " + std::to_string(n));
    ComplexSignal x = random_signal(n, static_cast<unsigned>(n) + 5);
    for (auto& xi : x) xi *= 0.9e308;
    expect_transforms_match_reference(x, "random * 0.9e308, n = " +
                                             std::to_string(n));
  }
  // Bin 0 sums every sample; inline products alone would leave it NaN.
  ComplexSignal reference = ComplexSignal(8, huge);
  reference_fft_inplace(reference, /*inverse=*/false);
  EXPECT_TRUE(std::isinf(reference[0].real()) &&
              std::isinf(reference[0].imag()))
      << reference[0];
}

TEST(SplitFft, OverflowingSumsTakeTheLibraryProductPath) {
  at_width(2, overflowing_sums_match_reference);
}

TEST(SplitFftFourLanes, OverflowingSumsTakeTheLibraryProductPath) {
  at_width(4, overflowing_sums_match_reference);
}

TEST(SplitFftEightLanes, OverflowingSumsTakeTheLibraryProductPath) {
  at_width(8, overflowing_sums_match_reference);
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

// --- one-pass spectrum scan -------------------------------------------------

/// The statistics the scan replaced, each composed separately from a power
/// vector: std::norm per bin, the running std::max and in-order sum behind
/// the peak-to-average ratio, and the strict > argmax from 0.
struct ComposedStatistics {
  RealSignal power;
  double running_max = 0.0;
  double sum = 0.0;
  std::size_t argmax = 0;
  double argmax_power = 0.0;
};

ComposedStatistics compose(const SplitSpectrum& spectrum) {
  ComposedStatistics c;
  const std::size_t n = spectrum.size();
  for (std::size_t i = 0; i < n; ++i) {
    c.power.push_back(std::norm(Complex{spectrum.re()[i], spectrum.im()[i]}));
  }
  for (const double p : c.power) {
    c.running_max = std::max(c.running_max, p);
    c.sum += p;
  }
  c.argmax = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (c.power[i] > c.argmax_power) {
      c.argmax_power = c.power[i];
      c.argmax = i;
    }
  }
  return c;
}

SplitSpectrum split_spectrum(const std::vector<double>& re,
                             const std::vector<double>& im) {
  SplitSpectrum s;
  s.resize(re.size());
  std::copy(re.begin(), re.end(), s.re());
  std::copy(im.begin(), im.end(), s.im());
  return s;
}

/// Checks scan_power against the composed statistics, and the peak-only
/// scan_peak against scan_power's peak_bin and peak.
void expect_scan_matches_composed(const SplitSpectrum& spectrum,
                                  const std::string& what) {
  const ComposedStatistics c = compose(spectrum);
  RealSignal power(spectrum.size(), -1.0);
  const PowerScan scan = scan_power(spectrum, power.data());
  EXPECT_EQ(scan.peak_bin, c.argmax) << what;
  EXPECT_TRUE(same_value(scan.peak, c.argmax_power)) << what;
  EXPECT_TRUE(same_value(scan.peak, c.running_max)) << what;
  EXPECT_TRUE(same_value(scan.sum, c.sum)) << what;
  EXPECT_TRUE(same_value(scan_power(spectrum).sum, c.sum)) << what;
  for (std::size_t i = 0; i < power.size(); ++i) {
    EXPECT_TRUE(same_value(power[i], c.power[i])) << what << ", bin " << i;
  }
  const PowerPeak peak = scan_peak(spectrum);
  EXPECT_EQ(peak.peak_bin, scan.peak_bin) << what << ", peak-only scan";
  EXPECT_TRUE(same_value(peak.peak, scan.peak)) << what << ", peak-only scan";
}

// Each scan test runs at two lanes, and its twins at four and eight: the
// summing scan runs four lanes at either, the peak-only scan each width. The
// sizes include ones that are not a multiple of 16 (two vectors of eight
// lanes), so bins fall past the last whole step.

void tied_strongest_bins_keep_the_first() {
  // Every pair of tied bins, in every lane position of the scan.
  for (const std::size_t n : {2U, 3U, 4U, 8U, 16U, 17U, 33U}) {
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        std::vector<double> re(n, 0.5), im(n, -0.25);
        re[a] = 3.0;
        re[b] = -3.0;
        im[a] = im[b] = 4.0;
        expect_scan_matches_composed(
            split_spectrum(re, im),
            "n = " + std::to_string(n) + ", tie at " + std::to_string(a) +
                " and " + std::to_string(b));
        EXPECT_EQ(scan_power(split_spectrum(re, im)).peak_bin, a);
        EXPECT_EQ(scan_peak(split_spectrum(re, im)).peak_bin, a);
      }
    }
  }
  // A flat spectrum: bin 0 wins.
  std::vector<double> re(4096, 1.0), im(4096, 0.0);
  EXPECT_EQ(scan_power(split_spectrum(re, im)).peak_bin, 0U);
  EXPECT_EQ(scan_peak(split_spectrum(re, im)).peak_bin, 0U);
}

TEST(PowerScan, TiedStrongestBinsKeepTheFirst) {
  at_width(2, tied_strongest_bins_keep_the_first);
}

TEST(PowerScanFourLanes, TiedStrongestBinsKeepTheFirst) {
  at_width(4, tied_strongest_bins_keep_the_first);
}

TEST(PowerScanEightLanes, TiedStrongestBinsKeepTheFirst) {
  at_width(8, tied_strongest_bins_keep_the_first);
}

void nan_bins_are_skipped_but_poison_the_sum() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : {1U, 2U, 5U, 8U, 19U, 35U, 64U}) {
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<double> re(n), im(n);
      for (std::size_t i = 0; i < n; ++i) {
        re[i] = static_cast<double>((i * 7) % 5);
        im[i] = -static_cast<double>((i * 3) % 4);
      }
      re[at] = nan;
      expect_scan_matches_composed(split_spectrum(re, im),
                                   "n = " + std::to_string(n) + ", NaN at " +
                                       std::to_string(at));
      im[(at + 1) % n] = std::numeric_limits<double>::infinity();
      expect_scan_matches_composed(split_spectrum(re, im),
                                   "n = " + std::to_string(n) + ", NaN at " +
                                       std::to_string(at) + " and inf after");
    }
    std::vector<double> all_nan(n, nan), zeros(n, 0.0);
    expect_scan_matches_composed(split_spectrum(all_nan, zeros),
                                 "all NaN, n = " + std::to_string(n));
  }
}

TEST(PowerScan, NanBinsAreSkippedButPoisonTheSum) {
  at_width(2, nan_bins_are_skipped_but_poison_the_sum);
}

TEST(PowerScanFourLanes, NanBinsAreSkippedButPoisonTheSum) {
  at_width(4, nan_bins_are_skipped_but_poison_the_sum);
}

TEST(PowerScanEightLanes, NanBinsAreSkippedButPoisonTheSum) {
  at_width(8, nan_bins_are_skipped_but_poison_the_sum);
}

void zero_and_single_bin_spectra() {
  for (const std::size_t n : {1U, 2U, 4U, 23U, 4096U}) {
    std::vector<double> re(n, 0.0), im(n, -0.0);
    const SplitSpectrum zero = split_spectrum(re, im);
    expect_scan_matches_composed(zero, "zero, n = " + std::to_string(n));
    EXPECT_EQ(scan_power(zero).peak_bin, n);
    EXPECT_EQ(scan_power(zero).sum, 0.0);
    EXPECT_EQ(scan_peak(zero).peak_bin, n);
    EXPECT_EQ(scan_peak(zero).peak, 0.0);
  }
  expect_scan_matches_composed(split_spectrum({-2.5}, {1e-3}), "one bin");
  expect_scan_matches_composed(split_spectrum({1e200}, {1e200}),
                               "one overflowing bin");
  EXPECT_EQ(scan_power(split_spectrum({-2.5}, {1e-3})).peak_bin, 0U);
  EXPECT_EQ(scan_peak(split_spectrum({-2.5}, {1e-3})).peak_bin, 0U);
}

TEST(PowerScan, ZeroAndSingleBinSpectra) {
  at_width(2, zero_and_single_bin_spectra);
}

TEST(PowerScanFourLanes, ZeroAndSingleBinSpectra) {
  at_width(4, zero_and_single_bin_spectra);
}

TEST(PowerScanEightLanes, ZeroAndSingleBinSpectra) {
  at_width(8, zero_and_single_bin_spectra);
}

void random_spectra_match_composed_statistics() {
  std::mt19937 rng(12);
  std::normal_distribution<double> dist(0.0, 1.0);
  for (const std::size_t n :
       {1U, 2U, 3U, 4U, 6U, 7U, 15U, 17U, 32U, 33U, 47U, 4095U, 4096U}) {
    std::vector<double> re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = dist(rng);
      im[i] = dist(rng);
    }
    expect_scan_matches_composed(split_spectrum(re, im),
                                 "random, n = " + std::to_string(n));
  }
}

TEST(PowerScan, RandomSpectraMatchComposedStatistics) {
  at_width(2, random_spectra_match_composed_statistics);
}

TEST(PowerScanFourLanes, RandomSpectraMatchComposedStatistics) {
  at_width(4, random_spectra_match_composed_statistics);
}

TEST(PowerScanEightLanes, RandomSpectraMatchComposedStatistics) {
  at_width(8, random_spectra_match_composed_statistics);
}

void every_size_to_64_with_a_late_tie() {
  // Random powers with the strongest value repeated in the last bin: each
  // size puts the first peak and the tie in another lane or in the tail.
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n = 1; n <= 64; ++n) {
    std::vector<double> re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = dist(rng);
      im[i] = dist(rng);
    }
    const std::size_t strongest = n / 3;
    re[strongest] = 2.0;
    im[strongest] = -1.5;
    re[n - 1] = -2.0;
    im[n - 1] = 1.5;
    expect_scan_matches_composed(split_spectrum(re, im),
                                 "late tie, n = " + std::to_string(n));
    EXPECT_EQ(scan_peak(split_spectrum(re, im)).peak_bin, strongest);
  }
}

TEST(PowerScan, EverySizeToSixtyFourWithALateTie) {
  at_width(2, every_size_to_64_with_a_late_tie);
}

TEST(PowerScanFourLanes, EverySizeToSixtyFourWithALateTie) {
  at_width(4, every_size_to_64_with_a_late_tie);
}

TEST(PowerScanEightLanes, EverySizeToSixtyFourWithALateTie) {
  at_width(8, every_size_to_64_with_a_late_tie);
}

// --- periodogram functions against their composed reference -----------------

/// The greedy peak picker the one-pass scan replaced: a masked strict >
/// argmax per pick over a power vector.
std::vector<ToneEstimate> reference_pick_tones(
    const RealSignal& power, std::size_t signal_size, double fs,
    std::size_t count, const PeriodogramOptions& options) {
  const std::size_t n = power.size();
  const std::size_t pad_factor = std::max<std::size_t>(1, n / signal_size);
  const std::size_t guard = 2 * pad_factor;
  std::vector<bool> masked(n, false);
  std::vector<ToneEstimate> tones;
  for (std::size_t pick = 0; pick < count; ++pick) {
    std::size_t best = n;
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
      const double a =
          0.5 * std::log(std::max(power[(best + n - 1) % n], 1e-300));
      const double b = 0.5 * std::log(std::max(power[best], 1e-300));
      const double c =
          0.5 * std::log(std::max(power[(best + 1) % n], 1e-300));
      const double denom = a - 2.0 * b + c;
      if (std::abs(denom) > 1e-30) {
        const double delta = 0.5 * (a - c) / denom;
        if (std::abs(delta) <= 1.0) bin += delta;
      }
    }
    double f = bin / static_cast<double>(n);
    if (f > 0.5) f -= 1.0;
    tones.push_back(ToneEstimate{.frequency_hz = f * fs, .power = best_power});
    for (std::size_t off = 0; off <= guard; ++off) {
      masked[(best + off) % n] = true;
      masked[(best + n - off) % n] = true;
    }
  }
  return tones;
}

void expect_periodogram_matches_reference(const ComplexSignal& x,
                                          const PeriodogramOptions& options,
                                          const std::string& what) {
  const double fs = 1.0e6;
  ComplexSignal windowed = x;
  apply_window(windowed, make_window(options.window, x.size()));
  RealSignal power;
  for (const Complex& bin : reference_fft(windowed, options.min_fft_size)) {
    power.push_back(std::norm(bin));
  }
  double peak = 0.0, sum = 0.0;
  for (const double p : power) {
    peak = std::max(peak, p);
    sum += p;
  }
  const double papr =
      sum <= 0.0 ? 0.0 : peak / (sum / static_cast<double>(power.size()));

  EXPECT_TRUE(same_value(peak_to_average_power(x, options), papr)) << what;
  const PeriodogramSummary summary = summarize_periodogram(x, fs, options);
  EXPECT_TRUE(same_value(summary.peak_to_average, papr)) << what;
  for (const std::size_t count : {1U, 3U}) {
    const auto expected =
        reference_pick_tones(power, x.size(), fs, count, options);
    const auto actual = estimate_tones_periodogram(x, fs, count, options);
    ASSERT_EQ(actual.size(), expected.size()) << what << ", count " << count;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_TRUE(same_value(actual[i].frequency_hz, expected[i].frequency_hz))
          << what << ", count " << count << ", pick " << i;
      EXPECT_TRUE(same_value(actual[i].power, expected[i].power))
          << what << ", count " << count << ", pick " << i;
    }
    if (count == 1) {
      ASSERT_EQ(summary.dominant_tone.has_value(), !expected.empty()) << what;
      if (!expected.empty()) {
        EXPECT_TRUE(same_value(summary.dominant_tone->frequency_hz,
                               expected[0].frequency_hz))
            << what;
        EXPECT_TRUE(same_value(summary.dominant_tone->power, expected[0].power))
            << what;
      }
    }
  }
}

TEST(Periodogram, EveryStatisticMatchesTheComposedReference) {
  const PeriodogramOptions hann{};
  const PeriodogramOptions rect_unpadded{.window = WindowKind::kRectangular,
                                         .min_fft_size = 0};
  const PeriodogramOptions coarse{.window = WindowKind::kBlackman,
                                  .min_fft_size = 0,
                                  .parabolic_interpolation = false};
  for (const auto& [options, name] :
       {std::pair{hann, "hann/4096"}, std::pair{rect_unpadded, "rect"},
        std::pair{coarse, "blackman, no interpolation"}}) {
    const std::string label(name);
    // Two tones in noise, so count 3 picks past the first guard band.
    ComplexSignal two = make_tone(61'000.0, 1.0e6, 512);
    const ComplexSignal second = make_tone(-230'000.0, 1.0e6, 512, 0.6);
    for (std::size_t i = 0; i < two.size(); ++i) two[i] += second[i];
    add_noise(two, 0.3, 8);
    expect_periodogram_matches_reference(two, options, label + ", two tones");
    expect_periodogram_matches_reference(ComplexSignal(64), options,
                                         label + ", zeros");
    expect_periodogram_matches_reference(ComplexSignal{{0.7, -0.2}}, options,
                                         label + ", one sample");
    // An impulse: with a rectangular window and no padding every bin ties.
    ComplexSignal impulse(256);
    impulse[0] = Complex{1.0, 0.0};
    expect_periodogram_matches_reference(impulse, options, label + ", impulse");
    ComplexSignal with_nan = two;
    with_nan[100] = Complex{std::numeric_limits<double>::quiet_NaN(), 0.0};
    expect_periodogram_matches_reference(with_nan, options, label + ", NaN");
    ComplexSignal with_inf = two;
    with_inf[7] = Complex{0.0, std::numeric_limits<double>::infinity()};
    expect_periodogram_matches_reference(with_inf, options, label + ", inf");
  }
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
