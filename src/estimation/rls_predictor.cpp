#include "estimation/rls_predictor.hpp"

#include <cmath>
#include <stdexcept>

namespace safe::estimation {

using linalg::RVector;

RlsArPredictor::RlsArPredictor(const RlsArOptions& options)
    : options_(options),
      filter_(std::max<std::size_t>(options.order, 1) + 1, options.rls) {
  if (options_.order == 0) {
    throw std::invalid_argument("RlsArPredictor: order must be >= 1");
  }
}

RVector RlsArPredictor::regressor() const {
  // A constant 1 leads the regressor: with differencing it anchors the
  // free-run steady-state increment at the learned mean slope instead of
  // letting it decay toward zero on noisy data.
  RVector h(options_.order + 1);
  h[0] = 1.0;
  for (std::size_t i = 0; i < options_.order; ++i) {
    // Pad with the oldest available value during warm-up.
    h[i + 1] =
        series_.empty() ? 0.0 : series_[std::min(i, series_.size() - 1)];
  }
  return h;
}

void RlsArPredictor::ingest(double value, bool train) {
  if (train && series_.size() >= options_.order) {
    filter_.update(regressor(), value);
  }
  series_.push_front(value);
  if (series_.size() > options_.order) series_.pop_back();
}

void RlsArPredictor::observe(double y) {
  if (!std::isfinite(y)) {
    // A NaN/Inf sample would corrupt the undifferencing anchor and the
    // regressor history; drop it and let the divergence counter report.
    ++rejected_inputs_;
    return;
  }
  if (options_.difference) {
    if (has_last_) ingest(y - last_value_, /*train=*/true);
  } else {
    ingest(y, /*train=*/true);
  }
  last_value_ = y;
  has_last_ = true;
}

double RlsArPredictor::predict_next() {
  if (!has_last_) return 0.0;

  double increment_or_value;
  if (series_.empty()) {
    // Differencing mode with a single raw sample: hold.
    increment_or_value = options_.difference ? 0.0 : last_value_;
  } else if (filter_.updates() == 0) {
    // Not enough training data: repeat the latest modeled value (this makes
    // the raw mode hold the level and the differenced mode hold the slope).
    increment_or_value = series_.front();
  } else {
    increment_or_value = filter_.predict(regressor());
    if (!std::isfinite(increment_or_value)) {
      // The free-run went non-finite despite finite weights (overflow):
      // re-train and degrade to a hold for this step.
      filter_.reset();
      ++rejected_inputs_;
      increment_or_value = series_.front();
    }
  }

  // The weights stay frozen while free-running: adapting against its own
  // predictions would make the filter self-confirming.
  ingest(increment_or_value, /*train=*/false);

  const double y_hat = options_.difference
                           ? last_value_ + increment_or_value
                           : increment_or_value;
  last_value_ = y_hat;
  return y_hat;
}

void RlsArPredictor::reset() {
  filter_.reset();
  series_.clear();
  last_value_ = 0.0;
  has_last_ = false;
}

RlsPolyPredictor::RlsPolyPredictor(const RlsPolyOptions& options)
    : options_(options), filter_(options.degree + 1, options.rls) {
  if (options_.time_scale <= safe::units::Seconds{0.0}) {
    throw std::invalid_argument("RlsPolyPredictor: time scale must be > 0");
  }
}

RVector RlsPolyPredictor::regressor(double t) const {
  RVector h(options_.degree + 1);
  const double ts = t / options_.time_scale.value();
  double power = 1.0;
  for (std::size_t i = 0; i <= options_.degree; ++i) {
    h[i] = power;
    power *= ts;
  }
  return h;
}

void RlsPolyPredictor::observe(double y) {
  filter_.update(regressor(next_time_), y);
  next_time_ += 1.0;
}

double RlsPolyPredictor::predict_next() {
  const double y_hat = filter_.predict(regressor(next_time_));
  next_time_ += 1.0;
  return y_hat;
}

void RlsPolyPredictor::reset() {
  filter_.reset();
  next_time_ = 0.0;
}

}  // namespace safe::estimation
