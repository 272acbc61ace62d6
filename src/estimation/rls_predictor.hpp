// RLS-based time-series predictors (the paper's estimator, Section 5.3).
//
// Two regressor choices are provided:
//  * AR(p): h_k is a constant 1 and the last p samples. By default the filter
//    models first differences (ARIMA-style d = 1): ramps become stationary,
//    so a long free-run through an attack window integrates the learned
//    slope instead of accumulating drift. `difference = false` gives the
//    textbook raw-value AR filter.
//  * Polynomial-in-time: h_k = [1, t, t^2, ...]. RLS fits a trend curve;
//    prediction evaluates the curve at future instants.
#pragma once

#include <cstddef>
#include <deque>

#include "estimation/rls.hpp"
#include "estimation/series_predictor.hpp"
#include "units/units.hpp"

namespace safe::estimation {

struct RlsArOptions {
  std::size_t order = 4;  ///< p: number of past samples in h.
  RlsOptions rls{};       ///< Forgetting factor / initial covariance.
  /// Model first differences of the series instead of raw values.
  bool difference = true;
};

class RlsArPredictor final : public SeriesPredictor {
 public:
  explicit RlsArPredictor(const RlsArOptions& options = {});

  void observe(double y) override;
  double predict_next() override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<RlsArPredictor>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return options_.difference ? "rls-ar-d1" : "rls-ar";
  }

  [[nodiscard]] const RlsFilter& filter() const { return filter_; }

  /// Non-finite observations ignored plus filter-level divergences: when
  /// this grows, upstream data was corrupt and the filter protected itself.
  [[nodiscard]] std::size_t divergences() const {
    return rejected_inputs_ + filter_.divergences();
  }

 private:
  /// Regressor over the modeled series (raw values or differences),
  /// most-recent-first with warm-up padding.
  [[nodiscard]] linalg::RVector regressor() const;

  /// Pushes a value of the modeled series (and trains when ready).
  void ingest(double value, bool train);

  RlsArOptions options_;
  RlsFilter filter_;
  std::deque<double> series_;  ///< Modeled series, most recent first.
  double last_value_ = 0.0;    ///< Last raw value (for undifferencing).
  bool has_last_ = false;
  std::size_t rejected_inputs_ = 0;  ///< Non-finite observations dropped.
};

struct RlsPolyOptions {
  std::size_t degree = 1;  ///< Trend polynomial degree (1 = linear).
  RlsOptions rls{.forgetting_factor = 0.9, .initial_covariance = 100.0};
  /// Time scale for numerical conditioning of t^n terms.
  units::Seconds time_scale{100.0};
};

class RlsPolyPredictor final : public SeriesPredictor {
 public:
  explicit RlsPolyPredictor(const RlsPolyOptions& options = {});

  void observe(double y) override;
  double predict_next() override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<SeriesPredictor> clone() const override {
    return std::make_unique<RlsPolyPredictor>(*this);
  }
  [[nodiscard]] std::string name() const override { return "rls-poly"; }

 private:
  [[nodiscard]] linalg::RVector regressor(double t) const;

  RlsPolyOptions options_;
  RlsFilter filter_;
  double next_time_ = 0.0;
};

}  // namespace safe::estimation
