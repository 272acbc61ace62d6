#include "estimation/baselines.hpp"

#include <cmath>
#include <stdexcept>

namespace safe::estimation {

LinearExtrapolator::LinearExtrapolator(std::size_t window) : window_(window) {
  if (window_ < 2) {
    throw std::invalid_argument("LinearExtrapolator: window must be >= 2");
  }
}

void LinearExtrapolator::observe(double y) {
  history_.push_back(y);
  if (history_.size() > window_) history_.pop_front();
  steps_ahead_ = 0.0;
}

double LinearExtrapolator::predict_next() {
  if (history_.empty()) return 0.0;
  steps_ahead_ += 1.0;
  const std::size_t n = history_.size();
  if (n == 1) return history_.front();

  // Least-squares line through (i, y_i), i = 0..n-1.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    sx += x;
    sy += history_[i];
    sxx += x * x;
    sxy += x * history_[i];
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  const double slope = denom == 0.0 ? 0.0 : (dn * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / dn;
  const double t = static_cast<double>(n - 1) + steps_ahead_;
  return intercept + slope * t;
}

void LinearExtrapolator::reset() {
  history_.clear();
  steps_ahead_ = 0.0;
}

LmsArPredictor::LmsArPredictor(std::size_t order, double step_size)
    : order_(order), step_size_(step_size), weights_(order, 0.0) {
  if (order_ == 0) {
    throw std::invalid_argument("LmsArPredictor: order must be >= 1");
  }
  if (!(step_size_ > 0.0) || step_size_ > 2.0) {
    throw std::invalid_argument("LmsArPredictor: step size must be in (0, 2]");
  }
}

double LmsArPredictor::predict_from_history() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < order_; ++i) {
    const double h = history_.empty()
                         ? 0.0
                         : history_[std::min(i, history_.size() - 1)];
    acc += weights_[i] * h;
  }
  return acc;
}

void LmsArPredictor::push(double y) {
  history_.push_front(y);
  if (history_.size() > order_) history_.pop_back();
}

void LmsArPredictor::observe(double y) {
  if (history_.size() >= order_) {
    // Normalized LMS: w += mu * e * h / (eps + ||h||^2).
    const double prediction = predict_from_history();
    const double error = y - prediction;
    double norm2 = 1e-9;
    for (std::size_t i = 0; i < order_; ++i) {
      norm2 += history_[i] * history_[i];
    }
    for (std::size_t i = 0; i < order_; ++i) {
      weights_[i] += step_size_ * error * history_[i] / norm2;
    }
    ++updates_;
  }
  push(y);
}

double LmsArPredictor::predict_next() {
  if (history_.empty()) return 0.0;
  const double y_hat =
      updates_ == 0 ? history_.front() : predict_from_history();
  push(y_hat);
  return y_hat;
}

void LmsArPredictor::reset() {
  weights_.assign(order_, 0.0);
  history_.clear();
  updates_ = 0;
}

}  // namespace safe::estimation
