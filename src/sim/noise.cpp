#include "sim/noise.hpp"

#include <stdexcept>

namespace safe::sim {

namespace {

/// The stddev handed to std::normal_distribution, which requires it to be
/// positive. A zero-stddev source never draws (sample() returns the mean),
/// so its distribution gets a placeholder 1.
double distribution_stddev(double stddev) {
  if (stddev < 0.0) {
    throw std::invalid_argument("GaussianNoise: stddev must be >= 0");
  }
  return stddev == 0.0 ? 1.0 : stddev;
}

}  // namespace

GaussianNoise::GaussianNoise(double mean, double stddev, std::uint64_t seed)
    : mean_(mean),
      stddev_(stddev),
      rng_(seed),
      dist_(mean, distribution_stddev(stddev)) {}

double GaussianNoise::sample() {
  if (stddev_ == 0.0) return mean_;
  return dist_(rng_);
}

UniformNoise::UniformNoise(double lo, double hi, std::uint64_t seed)
    : rng_(seed), dist_(lo, hi) {
  if (!(lo < hi)) {
    throw std::invalid_argument("UniformNoise: need lo < hi");
  }
}

double UniformNoise::sample() { return dist_(rng_); }

}  // namespace safe::sim
