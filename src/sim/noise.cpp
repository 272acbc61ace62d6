#include "sim/noise.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace safe::sim {

namespace {

namespace lanes = linalg::lanes;

/// Two engine words, processed together (SSE2 on x86-64).
using U2 = std::uint64_t __attribute__((vector_size(16)));

U2 load2(const std::uint64_t* p) {
  U2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(std::uint64_t* p, U2 v) { std::memcpy(p, &v, sizeof v); }

/// One twisted state word: the top 33 bits of `cur` joined with the low 31
/// of `next`, shifted right once and xored with `far`, and with the matrix
/// constant A when the joined word is odd. The condition is a mask
/// (-(y & 1) & A), not a branch, so the same code runs on two words at once.
template <class T>
T twisted(T cur, T next, T far) {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const T y = (cur & kUpper) | (next & ~kUpper);
  return far ^ (y >> 1) ^ (-(y & std::uint64_t{1}) & 0xb5026f5aa96619e9ULL);
}

/// std::nextafter(1.0, 0.0): generate_canonical's bound when a draw rounds
/// up to 1.
constexpr double kBelowOne = 0x1.fffffffffffffp-1;

/// detail::canonical of two draws at once. Each 32-bit half is placed in the
/// mantissa of a double (2^84 + hi * 2^32 and 2^52 + lo, both exact); the
/// first subtraction is exact as well, so the final sum hi * 2^32 + lo is
/// the one rounding of u.
lanes::V2 canonical2(U2 u) {
  const U2 hi = (u >> 32) | 0x4530000000000000ULL;
  const U2 lo = (u & 0xffffffffULL) | 0x4330000000000000ULL;
  lanes::V2 hi_d{}, lo_d{};
  std::memcpy(&hi_d, &hi, sizeof hi_d);
  std::memcpy(&lo_d, &lo, sizeof lo_d);
  const lanes::V2 c =
      ((hi_d - lanes::splat(0x1p84 + 0x1p52)) + lo_d) * lanes::splat(0x1p-64);
  // Never NaN, so the comparison is the clamp.
  return c < lanes::splat(kBelowOne) ? c : lanes::splat(kBelowOne);
}

/// Candidate pairs drawn per step of GaussianNoise::draw_pairs (5 KB of
/// stack).
constexpr std::size_t kChunkPairs = 128;

}  // namespace

MersenneTwister64::MersenneTwister64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = (prev ^ (prev >> 62)) * 6364136223846793005ULL + i;
  }
}

void MersenneTwister64::twist() {
  // New word k = twisted(word k, word k + 1, word k + 156), indices modulo
  // 312, rewritten in increasing order: words 156 on read the new words
  // k - 156, and the last word reads the new word 0.
  constexpr std::size_t kShift = 156;
  std::uint64_t* x = state_.data();
  std::size_t k = 0;
  for (; k < kStateSize - kShift; k += 2) {
    store2(x + k, twisted(load2(x + k), load2(x + k + 1), load2(x + k + kShift)));
  }
  for (; k + 2 < kStateSize; k += 2) {
    store2(x + k, twisted(load2(x + k), load2(x + k + 1), load2(x + k - kShift)));
  }
  x[kStateSize - 2] =
      twisted(x[kStateSize - 2], x[kStateSize - 1], x[kStateSize - 2 - kShift]);
  x[kStateSize - 1] = twisted(x[kStateSize - 1], x[0], x[kStateSize - 1 - kShift]);
  next_ = 0;
}

void MersenneTwister64::generate(std::uint64_t* out, std::size_t n) {
  while (n > 0) {
    if (next_ == kStateSize) twist();
    const std::size_t count = std::min(n, kStateSize - next_);
    const std::uint64_t* words = state_.data() + next_;
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) store2(out + i, temper(load2(words + i)));
    for (; i < count; ++i) out[i] = temper(words[i]);
    next_ += count;
    out += count;
    n -= count;
  }
}

double detail::canonical(std::uint64_t u) { return canonical2(U2{u, u})[0]; }

GaussianNoise::GaussianNoise(double mean, double stddev, std::uint64_t seed)
    : mean_(mean), stddev_(stddev), engine_(seed) {
  if (stddev < 0.0) {
    throw std::invalid_argument("GaussianNoise: stddev must be >= 0");
  }
}

double GaussianNoise::sample() {
  double value = 0.0;
  fill(&value, 1);
  return value;
}

void GaussianNoise::fill(double* out, std::size_t n) {
  if (stddev_ == 0.0) {
    std::fill_n(out, n, mean_);
    return;
  }
  if (n > 0 && saved_available_) {
    saved_available_ = false;
    *out++ = saved_ * stddev_ + mean_;
    --n;
  }
  if (n > 0) draw_pairs(out, n);
}

// libstdc++'s normal_distribution (polar method): draw x, y = 2u - 1 until
// 0 < x^2 + y^2 <= 1, return y * mult and keep x * mult for the next call,
// mult = sqrt(-2 log(r2) / r2), each value scaled as value * stddev + mean.
void GaussianNoise::draw_pairs(double* out, std::size_t n) {
  std::size_t i = 0;
  const lanes::V2 scale = lanes::splat(stddev_);
  const lanes::V2 shift = lanes::splat(mean_);
  while (i < n) {
    // A candidate pair yields at most one pair of values, so drawing no
    // more candidates than the pairs still owed never moves the engine past
    // where the equivalent sample() calls leave it.
    const std::size_t pairs = std::min((n - i + 1) / 2, kChunkPairs);
    std::uint64_t draws[2 * kChunkPairs];
    engine_.generate(draws, 2 * pairs);

    // Accepted candidates, packed in draw order as (y, x) with their r2.
    lanes::V2 yx[kChunkPairs];
    double r2s[kChunkPairs];
    std::size_t accepted = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      const lanes::V2 xy =
          lanes::splat(2.0) * canonical2(load2(draws + 2 * p)) - lanes::splat(1.0);
      const lanes::V2 squares = xy * xy;
      const double r2 = squares[0] + squares[1];
      yx[accepted] = lanes::V2{xy[1], xy[0]};
      r2s[accepted] = r2;
      accepted += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
    }

    for (std::size_t j = 0; j < accepted; ++j) {
      const double mult = std::sqrt(-2.0 * std::log(r2s[j]) / r2s[j]);
      const lanes::V2 values = yx[j] * lanes::splat(mult);
      if (n - i >= 2) {
        lanes::store(out + i, values * scale + shift);
        i += 2;
      } else {
        out[i++] = values[0] * stddev_ + mean_;
        saved_ = values[1];
        saved_available_ = true;
      }
    }
  }
}

UniformNoise::UniformNoise(double lo, double hi, std::uint64_t seed)
    : lo_(lo), hi_(hi), engine_(seed) {
  if (!(lo < hi)) {
    throw std::invalid_argument("UniformNoise: need lo < hi");
  }
}

// libstdc++'s uniform_real_distribution: canonical * (hi - lo) + lo.
double UniformNoise::sample() {
  return detail::canonical(engine_()) * (hi_ - lo_) + lo_;
}

}  // namespace safe::sim
