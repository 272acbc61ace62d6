#include "estimation/innovation_gate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace safe::estimation {

InnovationGate::InnovationGate(const Options& options) : options_(options) {
  if (!(options_.variance_forgetting > 0.0) ||
      options_.variance_forgetting > 1.0) {
    throw std::invalid_argument(
        "InnovationGate: variance_forgetting must be in (0, 1]");
  }
  if (!(options_.variance_floor > 0.0)) {
    throw std::invalid_argument("InnovationGate: variance_floor must be > 0");
  }
}

bool InnovationGate::observe(double innovation) {
  if (!std::isfinite(innovation)) {
    ++rejections_;
    return true;
  }
  const double e2 = innovation * innovation;
  const bool warmed = samples_ >= options_.min_samples;
  const bool outlier = warmed && options_.threshold > 0.0 &&
                       e2 > options_.threshold * variance();
  if (outlier) {
    ++rejections_;
    return true;
  }
  const double lambda = options_.variance_forgetting;
  if (lambda >= 1.0) {
    // No forgetting: plain cumulative mean of e^2.
    raw_variance_ += (e2 - raw_variance_) / static_cast<double>(samples_ + 1);
    weight_ = 0.0;
  } else {
    raw_variance_ = lambda * raw_variance_ + (1.0 - lambda) * e2;
    weight_ *= lambda;
  }
  ++samples_;
  return false;
}

double InnovationGate::variance() const {
  if (samples_ == 0 || weight_ >= 1.0) return options_.variance_floor;
  return std::max(raw_variance_ / (1.0 - weight_), options_.variance_floor);
}

void InnovationGate::reset() {
  raw_variance_ = 0.0;
  weight_ = 1.0;
  samples_ = 0;
  rejections_ = 0;
}

}  // namespace safe::estimation
