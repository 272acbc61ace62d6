// Tests for the RLS filter (Algorithm 1) and the RLS-based predictors.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "estimation/innovation_gate.hpp"
#include "estimation/rls.hpp"
#include "estimation/rls_predictor.hpp"
#include "linalg/qr.hpp"

namespace safe::estimation {
namespace {

using linalg::RMatrix;
using linalg::RVector;

TEST(RlsFilter, ConstructionValidation) {
  EXPECT_THROW(RlsFilter(0), std::invalid_argument);
  EXPECT_THROW(RlsFilter(2, {.forgetting_factor = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(RlsFilter(2, {.forgetting_factor = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(RlsFilter(2, {.initial_covariance = 0.0}),
               std::invalid_argument);
}

TEST(RlsFilter, InitialStateMatchesAlgorithmOne) {
  const RlsFilter f(3, {.forgetting_factor = 1.0, .initial_covariance = 1.0});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(f.weights()[i], 0.0);
  EXPECT_EQ(f.covariance()(0, 0), 1.0);
  EXPECT_EQ(f.covariance()(0, 1), 0.0);
  EXPECT_EQ(f.updates(), 0u);
}

TEST(RlsFilter, DimensionMismatchThrows) {
  RlsFilter f(2);
  EXPECT_THROW(f.update(RVector{1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(f.predict(RVector{1.0, 2.0, 3.0})),
               std::invalid_argument);
}

TEST(RlsFilter, ConvergesToStaticLinearModel) {
  // y = 3 x1 - 2 x2: RLS with lambda = 1 must recover the coefficients
  // (large delta keeps the P_0 regularization bias negligible).
  RlsFilter f(2, {.forgetting_factor = 1.0, .initial_covariance = 1e6});
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int k = 0; k < 200; ++k) {
    const RVector h{dist(rng), dist(rng)};
    f.update(h, 3.0 * h[0] - 2.0 * h[1]);
  }
  EXPECT_NEAR(f.weights()[0], 3.0, 1e-5);
  EXPECT_NEAR(f.weights()[1], -2.0, 1e-5);
}

TEST(RlsFilter, MatchesBatchLeastSquaresWithUnitLambda) {
  // With lambda = 1 and large delta, RLS equals batch least squares.
  std::mt19937 rng(17);
  std::normal_distribution<double> dist(0.0, 1.0);
  const std::size_t n = 40, dim = 3;
  RMatrix a(n, dim);
  RVector y(n);
  RlsFilter f(dim, {.forgetting_factor = 1.0, .initial_covariance = 1e8});
  for (std::size_t k = 0; k < n; ++k) {
    RVector h(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      h[j] = dist(rng);
      a(k, j) = h[j];
    }
    y[k] = dist(rng);
    f.update(h, y[k]);
  }
  const RVector batch = linalg::least_squares(a, y);
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(f.weights()[j], batch[j], 1e-4);
  }
}

TEST(RlsFilter, ForgettingFactorTracksDrift) {
  // Coefficient flips mid-stream; lambda < 1 must re-converge, lambda = 1
  // stays anchored to the stale average.
  auto run = [](double lambda) {
    RlsFilter f(1, {.forgetting_factor = lambda, .initial_covariance = 100.0});
    for (int k = 0; k < 150; ++k) f.update(RVector{1.0}, 5.0);
    for (int k = 0; k < 150; ++k) f.update(RVector{1.0}, -5.0);
    return f.weights()[0];
  };
  EXPECT_NEAR(run(0.9), -5.0, 0.01);
  EXPECT_GT(run(1.0), -3.5);  // stale data still weighs heavily
}

TEST(RlsFilter, ErrorShrinksOverRun) {
  RlsFilter f(2, {.forgetting_factor = 0.99, .initial_covariance = 10.0});
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double early = 0.0, late = 0.0;
  for (int k = 0; k < 100; ++k) {
    const RVector h{dist(rng), dist(rng)};
    const auto u = f.update(h, 1.5 * h[0] + 0.5 * h[1]);
    if (k < 10) early += std::abs(u.error);
    if (k >= 90) late += std::abs(u.error);
  }
  EXPECT_LT(late, early * 0.01);
}

TEST(RlsFilter, GammaIsLambdaPlusQuadraticForm) {
  RlsFilter f(2, {.forgetting_factor = 0.95, .initial_covariance = 2.0});
  const RVector h{1.0, 2.0};
  // First update: P = 2I, g = h^T P = 2h, gamma = 0.95 + 2*|h|^2 = 10.95.
  const auto u = f.update(h, 1.0);
  EXPECT_NEAR(u.gamma, 0.95 + 2.0 * 5.0, 1e-12);
}

TEST(RlsFilter, CovarianceStaysSymmetric) {
  RlsFilter f(3, {.forgetting_factor = 0.9, .initial_covariance = 50.0});
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (int k = 0; k < 500; ++k) {
    const RVector h{dist(rng), dist(rng), dist(rng)};
    f.update(h, dist(rng));
  }
  const RMatrix& p = f.covariance();
  EXPECT_LT(linalg::max_abs(p - p.transpose()), 1e-12);
}

TEST(RlsFilter, ResetRestoresInitialState) {
  RlsFilter f(2);
  f.update(RVector{1.0, 1.0}, 3.0);
  f.reset();
  EXPECT_EQ(f.weights()[0], 0.0);
  EXPECT_EQ(f.updates(), 0u);
  EXPECT_EQ(f.covariance()(1, 1), 1.0);
}

TEST(RlsArPredictor, OrderValidation) {
  EXPECT_THROW(RlsArPredictor({.order = 0}), std::invalid_argument);
}

TEST(RlsArPredictor, EmptyHistoryPredictsZero) {
  RlsArPredictor p;
  EXPECT_EQ(p.predict_next(), 0.0);
}

TEST(RlsArPredictor, WarmupFallsBackToHold) {
  RlsArPredictor p({.order = 4});
  p.observe(7.0);
  EXPECT_EQ(p.predict_next(), 7.0);
}

TEST(RlsArPredictor, LearnsConstantSeries) {
  RlsArPredictor p({.order = 3});
  for (int k = 0; k < 50; ++k) p.observe(42.0);
  for (int k = 0; k < 20; ++k) {
    EXPECT_NEAR(p.predict_next(), 42.0, 0.05);
  }
}

TEST(RlsArPredictor, ExtrapolatesLinearRamp) {
  // The car-following distance series is near-linear; an AR predictor that
  // learned the ramp must continue it through a 30-step free run.
  RlsArPredictor p({.order = 4});
  for (int k = 0; k < 120; ++k) p.observe(100.0 - 0.5 * k);
  double y = 0.0;
  for (int k = 0; k < 30; ++k) y = p.predict_next();
  EXPECT_NEAR(y, 100.0 - 0.5 * 149.0, 0.5);
}

TEST(RlsArPredictor, DifferencingModeHoldsSlopeDuringWarmup) {
  // Two observations define a slope; before the filter has trained, the
  // differenced predictor free-runs that slope (first-order hold).
  RlsArPredictor p({.order = 4});
  p.observe(10.0);
  p.observe(12.0);
  EXPECT_NEAR(p.predict_next(), 14.0, 1e-12);
  EXPECT_NEAR(p.predict_next(), 16.0, 1e-12);
}

TEST(RlsArPredictor, NamesReflectMode) {
  EXPECT_EQ(RlsArPredictor({.difference = true}).name(), "rls-ar-d1");
  EXPECT_EQ(RlsArPredictor({.difference = false}).name(), "rls-ar");
}

TEST(RlsArPredictor, RawModeStillLearnsConstant) {
  RlsArPredictor p({.order = 3, .difference = false});
  for (int k = 0; k < 80; ++k) p.observe(42.0);
  EXPECT_NEAR(p.predict_next(), 42.0, 0.5);
}

TEST(RlsArPredictor, FreeRunDoesNotDiverge) {
  // 118-step holdover (the paper's attack window) on a noisy ramp: the
  // prediction must stay bounded and directionally correct.
  RlsArPredictor p({.order = 4});
  std::mt19937 rng(31);
  std::normal_distribution<double> noise(0.0, 0.05);
  for (int k = 0; k < 180; ++k) p.observe(100.0 - 0.3 * k + noise(rng));
  double y = 0.0;
  for (int k = 0; k < 118; ++k) y = p.predict_next();
  const double expected = 100.0 - 0.3 * 297.0;
  EXPECT_NEAR(y, expected, 5.0);
}

TEST(RlsArPredictor, ResetForgetsHistory) {
  RlsArPredictor p;
  for (int k = 0; k < 20; ++k) p.observe(5.0);
  p.reset();
  EXPECT_EQ(p.predict_next(), 0.0);
}

TEST(RlsPolyPredictor, ValidatesTimeScale) {
  EXPECT_THROW(RlsPolyPredictor({.time_scale = safe::units::Seconds{0.0}}),
               std::invalid_argument);
}

TEST(RlsPolyPredictor, FitsLinearTrendExactly) {
  RlsPolyPredictor p({.degree = 1});
  for (int k = 0; k < 100; ++k) p.observe(10.0 + 2.0 * k);
  EXPECT_NEAR(p.predict_next(), 10.0 + 2.0 * 100.0, 0.5);
  EXPECT_NEAR(p.predict_next(), 10.0 + 2.0 * 101.0, 0.5);
}

TEST(RlsPolyPredictor, QuadraticDegreeTracksCurvature) {
  RlsPolyPredictor p({.degree = 2});
  for (int k = 0; k < 150; ++k) {
    const double t = k;
    p.observe(1.0 + 0.5 * t + 0.01 * t * t);
  }
  const double t = 150.0;
  EXPECT_NEAR(p.predict_next(), 1.0 + 0.5 * t + 0.01 * t * t, 2.0);
}

TEST(RlsPolyPredictor, ResetRestartsClock) {
  RlsPolyPredictor p({.degree = 1});
  for (int k = 0; k < 10; ++k) p.observe(k);
  p.reset();
  for (int k = 0; k < 10; ++k) p.observe(5.0);
  EXPECT_NEAR(p.predict_next(), 5.0, 0.5);
}

// Property: RLS-AR one-step prediction error on a noiseless AR(2) process
// goes to ~zero for any stable coefficient pair.
class RlsArRecoversProcess
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(RlsArRecoversProcess, OneStepErrorVanishes) {
  const auto [a1, a2] = GetParam();
  RlsArPredictor p({.order = 2,
                    .rls = {.forgetting_factor = 1.0,
                            .initial_covariance = 100.0},
                    .difference = false});
  double y1 = 1.0, y2 = 0.5;
  for (int k = 0; k < 300; ++k) {
    const double y = a1 * y1 + a2 * y2;
    p.observe(y);
    y2 = y1;
    y1 = y;
  }
  // Next true value vs prediction.
  const double y_true = a1 * y1 + a2 * y2;
  EXPECT_NEAR(p.predict_next(), y_true, 1e-3 + 1e-2 * std::abs(y_true));
}

INSTANTIATE_TEST_SUITE_P(
    StablePairs, RlsArRecoversProcess,
    ::testing::Values(std::pair{1.6, -0.64}, std::pair{0.5, 0.3},
                      std::pair{1.2, -0.36}, std::pair{0.9, 0.0},
                      std::pair{1.9, -0.9025}, std::pair{-0.5, 0.2}));

TEST(RlsFilter, RejectsNonFiniteInputsWithoutTouchingState) {
  RlsFilter f(2);
  f.update(linalg::RVector{1.0, 0.5}, 2.0);
  const auto w_before = f.weights();
  const auto p_before = f.covariance();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto r1 = f.update(linalg::RVector{1.0, 0.5}, nan);
  const auto r2 = f.update(linalg::RVector{nan, 0.5}, 2.0);
  EXPECT_TRUE(r1.rejected);
  EXPECT_TRUE(r2.rejected);
  EXPECT_EQ(f.divergences(), 2u);
  EXPECT_EQ(f.updates(), 1u);
  EXPECT_EQ(f.weights(), w_before);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(f.covariance()(i, j), p_before(i, j));
    }
  }
  // Finite updates keep working afterwards.
  const auto r3 = f.update(linalg::RVector{1.0, 0.5}, 2.0);
  EXPECT_FALSE(r3.rejected);
}

TEST(RlsFilter, NumericalDivergenceReinitializesCovariance) {
  // Huge regressors with lambda near zero overflow P within a few updates;
  // the filter must detect the non-finite state and reinitialize to
  // P = delta I rather than free-running on garbage.
  RlsFilter f(2, {.forgetting_factor = 1e-3, .initial_covariance = 1.0});
  for (int k = 0; k < 400 && f.divergences() == 0; ++k) {
    f.update(linalg::RVector{1e150, 1e150}, 1e150);
  }
  EXPECT_GE(f.divergences(), 1u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(std::isfinite(f.weights()[i]));
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_TRUE(std::isfinite(f.covariance()(i, j)));
    }
  }
}

TEST(RlsFilter, ResetClearsDivergenceCounter) {
  RlsFilter f(1);
  f.update(linalg::RVector{1.0}, std::numeric_limits<double>::infinity());
  EXPECT_EQ(f.divergences(), 1u);
  f.reset();
  EXPECT_EQ(f.divergences(), 0u);
}

TEST(RlsArPredictor, IgnoresNonFiniteObservations) {
  RlsArPredictor clean;
  RlsArPredictor poisoned;
  for (int k = 0; k < 30; ++k) {
    const double y = 100.0 - 0.5 * k;
    clean.observe(y);
    poisoned.observe(y);
    if (k % 7 == 0) {
      poisoned.observe(std::numeric_limits<double>::quiet_NaN());
      poisoned.observe(std::numeric_limits<double>::infinity());
    }
  }
  EXPECT_GE(poisoned.divergences(), 2u);
  // The NaNs left no trace: both predictors free-run identically and stay
  // finite.
  for (int k = 0; k < 10; ++k) {
    const double a = clean.predict_next();
    const double b = poisoned.predict_next();
    EXPECT_TRUE(std::isfinite(b));
    EXPECT_DOUBLE_EQ(a, b) << "k=" << k;
  }
}

TEST(InnovationGate, WarmsUpBeforeRejecting) {
  InnovationGate gate({.threshold = 6.63, .min_samples = 4});
  // Giant first sample: still within warm-up, must not reject.
  EXPECT_FALSE(gate.observe(100.0));
  EXPECT_FALSE(gate.observe(1.0));
  EXPECT_FALSE(gate.observe(-1.0));
  EXPECT_FALSE(gate.observe(1.0));
  EXPECT_EQ(gate.samples(), 4u);
}

TEST(InnovationGate, FlagsOutliersWithoutAbsorbingThem) {
  InnovationGate gate({.threshold = 9.0, .min_samples = 4});
  for (int k = 0; k < 50; ++k) {
    EXPECT_FALSE(gate.observe(k % 2 == 0 ? 1.0 : -1.0));
  }
  const double var_before = gate.variance();
  EXPECT_TRUE(gate.observe(50.0));
  EXPECT_EQ(gate.rejections(), 1u);
  // The outlier was quarantined, not absorbed: the gate stays tight, so a
  // repeat of the same outlier is rejected again.
  EXPECT_EQ(gate.variance(), var_before);
  EXPECT_TRUE(gate.observe(50.0));
}

TEST(InnovationGate, NonFiniteInnovationIsAlwaysRejected) {
  InnovationGate gate({.min_samples = 0});
  EXPECT_TRUE(gate.observe(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(gate.observe(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(gate.rejections(), 2u);
  EXPECT_TRUE(std::isfinite(gate.variance()));
}

}  // namespace
}  // namespace safe::estimation
