// Tests for covariance estimation, MUSIC, root-MUSIC, and the PRBS.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <random>
#include <set>
#include <vector>

#include "dsp/covariance.hpp"
#include "dsp/music.hpp"
#include "dsp/prbs.hpp"
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

TEST(Covariance, RejectsZeroOrder) {
  EXPECT_THROW(sample_covariance(ComplexSignal(8), 0), std::invalid_argument);
}

TEST(Covariance, RejectsShortSignal) {
  EXPECT_THROW(sample_covariance(ComplexSignal(3), 4), std::invalid_argument);
}

TEST(Covariance, IsHermitian) {
  ComplexSignal x = make_tone(0.1, 1.0, 64);
  add_noise(x, 0.2, 5);
  const auto r = sample_covariance(x, 8);
  EXPECT_LT(linalg::max_abs(r - r.adjoint()), 1e-12);
}

TEST(Covariance, DiagonalIsSignalPower) {
  // Unit-amplitude tone: every diagonal entry approximates power 1.
  const ComplexSignal x = make_tone(0.11, 1.0, 512);
  const auto r = sample_covariance(x, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(std::real(r(i, i)), 1.0, 1e-9);
  }
}

TEST(Covariance, ForwardBackwardIsPersymmetricHermitian) {
  ComplexSignal x = make_tone(0.2, 1.0, 128, 1.0, 0.7);
  add_noise(x, 0.1, 17);
  const auto r = forward_backward_covariance(x, 8);
  EXPECT_LT(linalg::max_abs(r - r.adjoint()), 1e-12);
  // Persymmetry: J conj(R) J == R.
  EXPECT_LT(linalg::max_abs(exchange_conjugate(r) - r), 1e-12);
}

TEST(Covariance, ExchangeConjugateIsInvolution) {
  ComplexSignal x = make_tone(0.05, 1.0, 64);
  add_noise(x, 0.3, 23);
  const auto r = sample_covariance(x, 5);
  EXPECT_LT(linalg::max_abs(exchange_conjugate(exchange_conjugate(r)) - r),
            1e-14);
}

/// Both covariance forms against the oracle at every order that fits
/// (NaNs compare equal to each other). Orders 1-9 end the four-lane lag and
/// window loops partway through a vector.
void expect_covariance_matches_oracle(const ComplexSignal& x,
                                      const char* label) {
  for (const std::size_t order :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 17u, 24u}) {
    if (order > x.size()) continue;
    EXPECT_TRUE(oracles::same_values(
        sample_covariance(x, order),
        oracles::reference_sample_covariance(x, order)))
        << label << " n=" << x.size() << " order=" << order;
    EXPECT_TRUE(oracles::same_values(
        forward_backward_covariance(x, order),
        oracles::reference_forward_backward(x, order)))
        << label << " n=" << x.size() << " order=" << order;
  }
}

void noisy_tones_match_reference() {
  for (const std::size_t n : {9u, 13u, 24u, 25u, 31u, 37u, 64u, 127u, 512u}) {
    ComplexSignal x = make_tone(0.13, 1.0, n, 1.0, 0.4);
    add_noise(x, 0.3, static_cast<unsigned>(n));
    expect_covariance_matches_oracle(x, "noisy tone");
  }
}

TEST(CovarianceOracle, NoisyTonesMatchReferenceLoopBitForBit) {
  oracles::at_width(2, noisy_tones_match_reference);
}

TEST(CovarianceOracleFourLanes, NoisyTonesMatchReferenceLoopBitForBit) {
  oracles::at_width(4, noisy_tones_match_reference);
}

void signed_zero_signals_match_reference() {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  ComplexSignal real(97);
  for (auto& v : real) v = Complex{dist(rng), 0.0};
  expect_covariance_matches_oracle(real, "real-valued");
  expect_covariance_matches_oracle(ComplexSignal(40), "all-zero");
  // Products of signed zeros and exact cancellations decide the sign of
  // zero sums, which the upper and lower triangles must each reproduce.
  const double values[] = {0.0, -0.0, 1.0, -1.0, 0.5};
  std::uniform_int_distribution<int> pick(0, 4);
  ComplexSignal zeros(61);
  for (auto& v : zeros) v = Complex{values[pick(rng)], values[pick(rng)]};
  expect_covariance_matches_oracle(zeros, "signed zeros");
  ComplexSignal only_zeros(33);
  for (auto& v : only_zeros) {
    v = Complex{values[pick(rng) % 2], values[pick(rng) % 2]};
  }
  expect_covariance_matches_oracle(only_zeros, "only signed zeros");
}

TEST(CovarianceOracle, RealZeroAndSignedZeroSignals) {
  oracles::at_width(2, signed_zero_signals_match_reference);
}

TEST(CovarianceOracleFourLanes, RealZeroAndSignedZeroSignals) {
  oracles::at_width(4, signed_zero_signals_match_reference);
}

void overflowing_entries_match_reference() {
  // Entries near 1e160 overflow their products to infinities, sums of
  // opposite infinities turn NaN, and the forward-backward scaling by
  // (0.5, 0) then has both parts NaN and goes through __muldc3.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<int> sign(0, 1);
  ComplexSignal big(80);
  for (auto& v : big) {
    v = Complex{sign(rng) != 0 ? 1e160 : -1e160,
                sign(rng) != 0 ? 1e160 : -1e160};
  }
  big[7] = Complex{dist(rng), dist(rng)};
  expect_covariance_matches_oracle(big, "near 1e160");
  const linalg::CMatrix fb = forward_backward_covariance(big, 3);
  bool saw_nan = false;
  bool saw_inf = false;
  for (std::size_t i = 0; i < 9; ++i) {
    saw_nan = saw_nan || std::isnan(fb.data()[i].real());
    saw_inf = saw_inf || std::isinf(fb.data()[i].real());
  }
  EXPECT_TRUE(saw_nan || saw_inf);

  // Infinite samples make single lag products both-NaN as well.
  ComplexSignal inf = make_tone(0.2, 1.0, 48);
  inf[5] = Complex{INFINITY, INFINITY};
  inf[9] = Complex{INFINITY, 0.0};
  inf[20] = Complex{0.0, -INFINITY};
  expect_covariance_matches_oracle(inf, "infinite samples");
}

TEST(CovarianceOracle, OverflowingEntriesTakeTheLibraryProductPath) {
  oracles::at_width(2, overflowing_entries_match_reference);
}

TEST(CovarianceOracleFourLanes, OverflowingEntriesTakeTheLibraryProductPath) {
  oracles::at_width(4, overflowing_entries_match_reference);
}

/// root_music_frequencies against the composed reference loops: the
/// projector and the null-power ranking have no oracle of their own.
void expect_root_music_matches_oracle(const ComplexSignal& x,
                                      std::size_t sources, std::size_t order,
                                      const char* label) {
  const double fs = 1.0e6;
  for (const bool fb : {true, false}) {
    const std::vector<double> got = root_music_frequencies(
        x, fs, sources, {.covariance_order = order, .forward_backward = fb});
    const std::vector<double> want =
        oracles::reference_root_music_frequencies(x, fs, sources, order, fb);
    EXPECT_TRUE(oracles::same_values(got, want))
        << label << ", sources=" << sources << ", order=" << order
        << (fb ? ", forward-backward" : ", forward");
  }
}

void root_music_matches_reference() {
  const double fs = 1.0e6;
  for (const std::size_t order : {5u, 16u, 17u}) {
    ComplexSignal one = make_tone(47'000.0, fs, 129, 1.0, 0.3);
    add_noise(one, 0.1, static_cast<unsigned>(order));
    expect_root_music_matches_oracle(one, 1, order, "noisy tone");
    // Noise-free: a rank-one covariance whose roots pair up on the unit
    // circle, where rooting runs to its sweep cap.
    expect_root_music_matches_oracle(make_tone(-210'000.0, fs, 96), 1, order,
                                     "clean tone");

    ComplexSignal two = make_tone(100'000.0, fs, 255, 1.0, 0.3);
    const ComplexSignal second = make_tone(130'000.0, fs, 255, 0.5, 2.1);
    for (std::size_t i = 0; i < two.size(); ++i) two[i] += second[i];
    add_noise(two, 0.05, static_cast<unsigned>(order) + 40);
    expect_root_music_matches_oracle(two, 2, order, "two tones");

    // Non-finite samples reach every kernel's fallback.
    for (const Complex bad : {Complex{NAN, 0.0}, Complex{INFINITY, 0.0},
                              Complex{0.0, -INFINITY}}) {
      ComplexSignal x = one;
      x[x.size() / 2] = bad;
      expect_root_music_matches_oracle(x, 1, order, "non-finite sample");
      expect_root_music_matches_oracle(x, 2, order, "non-finite sample");
    }
  }
}

TEST(RootMusicOracle, MatchesReferenceLoopBitForBit) {
  oracles::at_width(2, root_music_matches_reference);
}

TEST(RootMusicOracleFourLanes, MatchesReferenceLoopBitForBit) {
  oracles::at_width(4, root_music_matches_reference);
}

/// root_music_frequencies_pair against the composed reference loops, one
/// signal at a time.
void expect_root_music_pair_matches_oracle(const ComplexSignal& first,
                                           const ComplexSignal& second,
                                           std::size_t sources,
                                           std::size_t order,
                                           const char* label) {
  const double fs = 1.0e6;
  for (const bool fb : {true, false}) {
    const auto got = root_music_frequencies_pair(
        first, second, fs, sources,
        {.covariance_order = order, .forward_backward = fb});
    const std::array<const ComplexSignal*, 2> signals = {&first, &second};
    for (std::size_t p = 0; p < 2; ++p) {
      const std::vector<double> want = oracles::reference_root_music_frequencies(
          *signals[p], fs, sources, order, fb);
      EXPECT_TRUE(oracles::same_values(got[p], want))
          << label << " (" << (p == 0 ? "first" : "second")
          << "), sources=" << sources << ", order=" << order
          << (fb ? ", forward-backward" : ", forward");
    }
  }
}

void root_music_pair_matches_reference() {
  const double fs = 1.0e6;
  for (const std::size_t order : {5u, 16u, 17u}) {
    ComplexSignal one = make_tone(47'000.0, fs, 129, 1.0, 0.3);
    add_noise(one, 0.1, static_cast<unsigned>(order));
    // Noise-free: rooting runs to its sweep cap, so the noisy signal's
    // problem settles first and the clean one runs on alone.
    const ComplexSignal clean = make_tone(-210'000.0, fs, 96);
    ComplexSignal two = make_tone(100'000.0, fs, 255, 1.0, 0.3);
    const ComplexSignal second = make_tone(130'000.0, fs, 255, 0.5, 2.1);
    for (std::size_t i = 0; i < two.size(); ++i) two[i] += second[i];
    add_noise(two, 0.05, static_cast<unsigned>(order) + 40);

    for (const std::size_t sources : {1u, 2u}) {
      expect_root_music_pair_matches_oracle(one, clean, sources, order,
                                            "noisy and clean tones");
      expect_root_music_pair_matches_oracle(clean, one, sources, order,
                                            "clean and noisy tones");
      expect_root_music_pair_matches_oracle(two, one, sources, order,
                                            "two tones and a noisy tone");
      // Non-finite samples in one signal of the pair.
      for (const Complex bad : {Complex{NAN, 0.0}, Complex{INFINITY, 0.0},
                                Complex{0.0, -INFINITY}}) {
        ComplexSignal x = one;
        x[x.size() / 2] = bad;
        expect_root_music_pair_matches_oracle(x, two, sources, order,
                                              "non-finite and finite");
        expect_root_music_pair_matches_oracle(two, x, sources, order,
                                              "finite and non-finite");
      }
    }
  }
}

TEST(RootMusicPairOracle, MatchesReferenceLoopBitForBit) {
  oracles::at_width(2, root_music_pair_matches_reference);
}

TEST(RootMusicPairOracleFourLanes, MatchesReferenceLoopBitForBit) {
  oracles::at_width(4, root_music_pair_matches_reference);
}

TEST(RootMusic, SingleCleanTone) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(47'000.0, fs, 256);
  const auto freqs = root_music_frequencies(x, fs, 1);
  ASSERT_EQ(freqs.size(), 1u);
  EXPECT_NEAR(freqs[0], 47'000.0, 50.0);
}

TEST(RootMusic, NegativeFrequencyTone) {
  const double fs = 1.0e6;
  const ComplexSignal x = make_tone(-210'000.0, fs, 256);
  const auto freqs = root_music_frequencies(x, fs, 1);
  ASSERT_EQ(freqs.size(), 1u);
  EXPECT_NEAR(freqs[0], -210'000.0, 50.0);
}

TEST(RootMusic, ResolvesCloselySpacedTones) {
  // Two tones 1.5 kHz apart with only 256 samples at 1 MHz: the raw FFT bin
  // width is ~3.9 kHz, so a periodogram cannot separate them. MUSIC can.
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(100'000.0, fs, 256, 1.0, 0.3);
  const ComplexSignal y = make_tone(101'500.0, fs, 256, 1.0, 2.1);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  add_noise(x, 0.05, 31);
  auto freqs = root_music_frequencies(x, fs, 2, {.covariance_order = 24});
  ASSERT_EQ(freqs.size(), 2u);
  std::sort(freqs.begin(), freqs.end());
  EXPECT_NEAR(freqs[0], 100'000.0, 300.0);
  EXPECT_NEAR(freqs[1], 101'500.0, 300.0);
}

TEST(RootMusic, ResolvesUnequalPowerTones) {
  // The platoon's multi-target echo scene: the direct predecessor plus a
  // second-ahead return at a quarter of the power (the default RCS scale).
  // Root-MUSIC must still report both components, strongest one accurately.
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(90'000.0, fs, 256, 1.0, 0.9);
  const ComplexSignal y = make_tone(94'000.0, fs, 256, 0.5, 1.7);  // -6 dB
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  add_noise(x, 0.05, 29);
  auto freqs = root_music_frequencies(x, fs, 2, {.covariance_order = 24});
  ASSERT_EQ(freqs.size(), 2u);
  std::sort(freqs.begin(), freqs.end());
  EXPECT_NEAR(freqs[0], 90'000.0, 300.0);
  EXPECT_NEAR(freqs[1], 94'000.0, 500.0);
}

TEST(RootMusic, ResolutionThresholdIsWellBelowTheFftLimit) {
  // Pins the super-resolution margin the multi-target scenes rely on: with
  // 256 samples at 1 MHz the FFT bin is fs/N ~ 3.9 kHz; root-MUSIC (order
  // 24, light noise) must still separate tones 1/5th of a bin apart. If a
  // covariance or eigensolver change degrades this, the platoon's
  // second-ahead echoes start fusing with the primary return.
  const double fs = 1.0e6;
  const double separation_hz = 800.0;  // ~0.2 FFT bins
  ComplexSignal x = make_tone(100'000.0, fs, 256, 1.0, 0.3);
  const ComplexSignal y =
      make_tone(100'000.0 + separation_hz, fs, 256, 1.0, 2.1);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
  add_noise(x, 0.01, 31);
  auto freqs = root_music_frequencies(x, fs, 2, {.covariance_order = 24});
  ASSERT_EQ(freqs.size(), 2u);
  std::sort(freqs.begin(), freqs.end());
  EXPECT_NEAR(freqs[0], 100'000.0, separation_hz / 3.0);
  EXPECT_NEAR(freqs[1], 100'000.0 + separation_hz, separation_hz / 3.0);
}

TEST(RootMusic, NoisyToneStillRecovered) {
  const double fs = 1.0e6;
  ComplexSignal x = make_tone(84'000.0, fs, 512);
  add_noise(x, 0.5, 47);  // SNR = 6 dB
  const auto freqs = root_music_frequencies(x, fs, 1);
  ASSERT_EQ(freqs.size(), 1u);
  EXPECT_NEAR(freqs[0], 84'000.0, 500.0);
}

TEST(RootMusic, ZeroSourcesReturnsEmpty) {
  const ComplexSignal x = make_tone(1000.0, 1.0e6, 64);
  EXPECT_TRUE(root_music_frequencies(x, 1.0e6, 0).empty());
}

TEST(RootMusic, TooManySourcesThrows) {
  const ComplexSignal x = make_tone(1000.0, 1.0e6, 64);
  EXPECT_THROW(
      root_music_frequencies(x, 1.0e6, 16, {.covariance_order = 16}),
      std::invalid_argument);
}

TEST(RootMusic, InvalidSampleRateThrows) {
  const ComplexSignal x = make_tone(1000.0, 1.0e6, 64);
  EXPECT_THROW(root_music_frequencies(x, -1.0, 1), std::invalid_argument);
}

TEST(MusicPseudospectrum, PeaksAtToneFrequency) {
  const double fs = 1.0e6;
  const double f = 125'000.0;  // omega = 2*pi*f/fs = pi/4
  ComplexSignal x = make_tone(f, fs, 512);
  add_noise(x, 0.1, 3);
  const std::size_t grid = 1024;
  const auto spec = music_pseudospectrum(x, 1, grid);
  ASSERT_EQ(spec.size(), grid);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < grid; ++i) {
    if (spec[i] > spec[peak]) peak = i;
  }
  const double omega = -std::numbers::pi +
                       2.0 * std::numbers::pi * static_cast<double>(peak) /
                           static_cast<double>(grid);
  EXPECT_NEAR(omega, 2.0 * std::numbers::pi * f / fs, 0.02);
}

TEST(MusicPseudospectrum, EmptyGridThrows) {
  const ComplexSignal x = make_tone(1000.0, 1.0e6, 64);
  EXPECT_THROW(music_pseudospectrum(x, 1, 0), std::invalid_argument);
}

class RootMusicSweep : public ::testing::TestWithParam<double> {};

TEST_P(RootMusicSweep, FrequencyRecoveredAcrossBand) {
  const double fs = 1.0e6;
  const double f = GetParam();
  ComplexSignal x = make_tone(f, fs, 384);
  add_noise(x, 0.1, static_cast<unsigned>(std::abs(f)));
  const auto freqs = root_music_frequencies(x, fs, 1);
  ASSERT_EQ(freqs.size(), 1u);
  EXPECT_NEAR(freqs[0], f, 300.0);
}

INSTANTIATE_TEST_SUITE_P(Band, RootMusicSweep,
                         ::testing::Values(-420'000.0, -111'000.0, -9'000.0,
                                           4'000.0, 36'000.0, 47'500.0,
                                           52'000.0, 149'000.0, 260'000.0,
                                           431'000.0));

TEST(Prbs, ZeroSeedRemapped) {
  Prbs p(0);
  EXPECT_NE(p.state(), 0);
}

TEST(Prbs, DeterministicForSameSeed) {
  EXPECT_EQ(prbs_sequence(0x1234, 256), prbs_sequence(0x1234, 256));
}

TEST(Prbs, DifferentSeedsDiffer) {
  EXPECT_NE(prbs_sequence(0x1234, 256), prbs_sequence(0x4321, 256));
}

TEST(Prbs, MaximalLengthPeriod) {
  // The 16-bit maximal LFSR revisits its seed state after exactly 65535
  // steps and not before half that (spot-check).
  Prbs p(0xACE1);
  const std::uint16_t start = p.state();
  std::uint32_t steps = 0;
  do {
    p.next_bit();
    ++steps;
  } while (p.state() != start && steps <= Prbs::kPeriod);
  EXPECT_EQ(steps, Prbs::kPeriod);
}

TEST(Prbs, BitBalanceIsNearHalf) {
  const auto bits = prbs_sequence(0xBEEF, 4096);
  std::size_t ones = 0;
  for (const bool b : bits) ones += b ? 1 : 0;
  const double ratio = static_cast<double>(ones) / 4096.0;
  EXPECT_NEAR(ratio, 0.5, 0.03);
}

TEST(Prbs, NextBitsRange) {
  Prbs p(0x5555);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(p.next_bits(4), 16u);
  }
  EXPECT_THROW(p.next_bits(0), std::invalid_argument);
  EXPECT_THROW(p.next_bits(33), std::invalid_argument);
}

TEST(Prbs, BernoulliFrequencyMatchesProbability) {
  Prbs p(0x2468);
  std::size_t hits = 0;
  const std::size_t trials = 8192;
  for (std::size_t i = 0; i < trials; ++i) {
    hits += p.bernoulli(1, 10) ? 1u : 0u;
  }
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(trials), 0.1,
              0.02);
}

TEST(Prbs, BernoulliEdgeCases) {
  Prbs p(0x1357);
  EXPECT_THROW(p.bernoulli(1, 0), std::invalid_argument);
  EXPECT_THROW(p.bernoulli(3, 2), std::invalid_argument);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(p.bernoulli(1, 1));
    EXPECT_FALSE(p.bernoulli(0, 1));
  }
}

}  // namespace
}  // namespace safe::dsp
