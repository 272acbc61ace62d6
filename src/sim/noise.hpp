// Deterministic noise sources.
//
// Every stochastic component in the library draws from an explicitly seeded
// generator so that simulations, tests, and benches are reproducible.
//
// The streams are defined here rather than by <random>: the engine is
// MT19937-64 with std::mt19937_64's parameters and seeding, and the draws
// repeat, operation for operation, what libstdc++'s generate_canonical,
// polar-method normal_distribution and uniform_real_distribution compute on
// it. Every value therefore carries the bits that std::mt19937_64 with those
// distributions produces; the only outside dependency left is glibc's log.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace safe::sim {

/// MT19937-64 (Matsumoto & Nishimura), the engine std::mt19937_64 names,
/// seeded the same way. There is no default constructor: every stream states
/// the seed it comes from.
class MersenneTwister64 {
 public:
  explicit MersenneTwister64(std::uint64_t seed);

  /// Next raw draw.
  std::uint64_t operator()() {
    if (next_ == kStateSize) twist();
    return temper(state_[next_++]);
  }

  /// The next n raw draws, in order: the same values as n calls of
  /// operator().
  void generate(std::uint64_t* out, std::size_t n);

  /// Equal engines produce equal streams.
  bool operator==(const MersenneTwister64&) const = default;

 private:
  static constexpr std::size_t kStateSize = 312;

  /// The output transform of one state word (T is std::uint64_t, or a
  /// vector of them for two draws at once).
  template <class T>
  static T temper(T z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Regenerates all 312 state words.
  void twist();

  std::array<std::uint64_t, kStateSize> state_{};
  std::size_t next_ = kStateSize;
};

namespace detail {

/// std::generate_canonical<double, 53> of one raw draw: u / 2^64, clamped to
/// the largest double below 1 when it rounds up to 1. u converts to double
/// as the sum of its two exactly converted 32-bit halves, rounded once, which
/// gives the bits of the compiler's unsigned conversion without its branch.
double canonical(std::uint64_t u);

}  // namespace detail

/// Seeded Gaussian noise source, v_k ~ N(mean, sigma^2) (Eq. 2's v_k).
class GaussianNoise {
 public:
  GaussianNoise(double mean, double stddev, std::uint64_t seed);

  /// Next sample; exactly the mean when the source was built with zero
  /// standard deviation (avoids perturbing noise-free tests).
  double sample();

  /// Writes the next n samples to out: exactly the values n calls of
  /// sample() return, leaving the source where they would leave it. A
  /// zero-stddev source writes the mean and draws nothing.
  void fill(double* out, std::size_t n);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double stddev() const { return stddev_; }
  /// The engine as the draws so far have left it.
  [[nodiscard]] const MersenneTwister64& engine() const { return engine_; }

 private:
  /// The next n > 0 values with no saved value pending: whole polar-method
  /// pairs, the second value of an odd last one saved.
  void draw_pairs(double* out, std::size_t n);

  double mean_;
  double stddev_;
  MersenneTwister64 engine_;
  /// The polar method yields values in pairs; the second of a pair that a
  /// call did not consume waits here, unscaled, for the next one.
  double saved_ = 0.0;
  bool saved_available_ = false;
};

/// Seeded uniform source over [lo, hi).
class UniformNoise {
 public:
  UniformNoise(double lo, double hi, std::uint64_t seed);

  double sample();

 private:
  double lo_;
  double hi_;
  MersenneTwister64 engine_;
};

}  // namespace safe::sim
