// Baseline predictors the ablation benches compare against RLS.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "estimation/series_predictor.hpp"

namespace safe::estimation {

/// Holds the last trusted measurement (zero-order hold).
class HoldLastPredictor final : public SeriesPredictor {
 public:
  void observe(double y) override { last_ = y; }
  double predict_next() override { return last_; }
  void reset() override { last_ = 0.0; }
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<HoldLastPredictor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "hold-last"; }

 private:
  double last_ = 0.0;
};

/// Extrapolates the least-squares line through the last `window` trusted
/// measurements (first-order hold).
class LinearExtrapolator final : public SeriesPredictor {
 public:
  explicit LinearExtrapolator(std::size_t window = 8);

  void observe(double y) override;
  double predict_next() override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<LinearExtrapolator>(*this);
  }
  [[nodiscard]] std::string name() const override { return "linear-extrap"; }

 private:
  std::size_t window_;
  std::deque<double> history_;  ///< Oldest first.
  double steps_ahead_ = 0.0;
};

/// Normalized LMS adaptive filter over an AR(p) regressor: the cheap
/// gradient-descent cousin of RLS.
class LmsArPredictor final : public SeriesPredictor {
 public:
  explicit LmsArPredictor(std::size_t order = 4, double step_size = 0.5);

  void observe(double y) override;
  double predict_next() override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<LmsArPredictor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "lms-ar"; }

 private:
  [[nodiscard]] double predict_from_history() const;
  void push(double y);

  std::size_t order_;
  double step_size_;
  std::vector<double> weights_;
  std::deque<double> history_;  ///< Most recent first.
  std::size_t updates_ = 0;
};

}  // namespace safe::estimation
