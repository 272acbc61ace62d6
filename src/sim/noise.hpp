// Deterministic noise sources.
//
// Every stochastic component in the library draws from an explicitly seeded
// generator so that simulations, tests, and benches are reproducible.
#pragma once

#include <cstdint>
#include <random>

namespace safe::sim {

/// Seeded Gaussian noise source, v_k ~ N(mean, sigma^2) (Eq. 2's v_k).
class GaussianNoise {
 public:
  GaussianNoise(double mean, double stddev, std::uint64_t seed);

  /// Next sample; exactly the mean when the source was built with zero
  /// standard deviation (avoids perturbing noise-free tests).
  double sample();

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double stddev() const { return stddev_; }

 private:
  double mean_;
  double stddev_;
  std::mt19937_64 rng_;  // ctor-seeded; lint: allow(unseeded-engine)
  std::normal_distribution<double> dist_;
};

/// Seeded uniform source over [lo, hi).
class UniformNoise {
 public:
  UniformNoise(double lo, double hi, std::uint64_t seed);

  double sample();

 private:
  std::mt19937_64 rng_;  // ctor-seeded; lint: allow(unseeded-engine)
  std::uniform_real_distribution<double> dist_;
};

}  // namespace safe::sim
