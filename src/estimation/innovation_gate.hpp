// Scalar chi-square innovation gate (the PyCRA-adjacent baseline's test).
//
// Shoukry et al. detect spoofing by thresholding the normalized innovation.
// Unlike CRA it needs no transmitter modification, but it is
// threshold-tuned: measurement noise causes false positives and stealthy
// offsets (e.g. a slowly ramped +6 m) can stay under the threshold. The
// pipeline's health monitor and the chi2/ar detector backends run this
// statistic on scalar innovation streams.
#pragma once

#include <cstddef>

namespace safe::estimation {

/// Scalar chi-square innovation gate for a one-dimensional series
/// (measurement minus predictor output). The gate keeps an
/// exponentially-forgotten innovation variance and flags samples whose
/// normalized squared innovation e^2 / var exceeds the chi^2_1 threshold.
/// Flagged samples are NOT absorbed into the variance, so an attacker (or a
/// diverging fault) cannot widen the gate by feeding it garbage.
struct InnovationGateOptions {
  /// chi^2_1 quantile (6.63 = 99%). The pipeline treats <= 0 as "gate off".
  double threshold = 6.63;
  /// Samples absorbed before the gate starts rejecting (variance warm-up).
  std::size_t min_samples = 8;
  /// Forgetting factor for the running innovation variance.
  double variance_forgetting = 0.98;
  /// Variance floor: keeps the statistic finite on noiseless series.
  double variance_floor = 1e-6;
};

class InnovationGate {
 public:
  using Options = InnovationGateOptions;

  explicit InnovationGate(const Options& options = {});

  /// Feeds innovation e_k; returns true when the sample is an outlier.
  bool observe(double innovation);

  /// Bias-corrected innovation variance estimate (floored). The raw EWMA
  /// starts at zero and needs ~1/(1-lambda) samples to warm up; dividing by
  /// 1 - lambda^n makes the estimate unbiased from the first sample, so the
  /// gate cannot latch closed right after min_samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] std::size_t rejections() const { return rejections_; }

  void reset();

 private:
  Options options_;
  double raw_variance_ = 0.0;  ///< Uncorrected EWMA of e^2.
  double weight_ = 1.0;        ///< lambda^samples (bias-correction term).
  std::size_t samples_ = 0;
  std::size_t rejections_ = 0;
};

}  // namespace safe::estimation
