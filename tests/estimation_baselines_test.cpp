// Tests for the Kalman filter and the baseline predictors.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "estimation/baselines.hpp"
#include "estimation/kalman.hpp"

namespace safe::estimation {
namespace {

using linalg::RMatrix;
using linalg::RVector;

KalmanModel cv_model(double q = 1e-3, double r = 0.25) {
  return KalmanModel{
      .a = RMatrix{{1.0, 1.0}, {0.0, 1.0}},
      .c = RMatrix{{1.0, 0.0}},
      .q = RMatrix{{0.25 * q, 0.5 * q}, {0.5 * q, q}},
      .r = RMatrix{{r}},
  };
}

TEST(KalmanFilter, ShapeValidation) {
  KalmanModel m = cv_model();
  EXPECT_NO_THROW(KalmanFilter(m, RVector{0.0, 0.0},
                               RMatrix::scaled_identity(2, 1.0)));
  KalmanModel bad = cv_model();
  bad.c = RMatrix{{1.0, 0.0, 0.0}};
  EXPECT_THROW(KalmanFilter(bad, RVector{0.0, 0.0},
                            RMatrix::scaled_identity(2, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(KalmanFilter(cv_model(), RVector{0.0},
                            RMatrix::scaled_identity(2, 1.0)),
               std::invalid_argument);
}

TEST(KalmanFilter, TracksConstantVelocityTrack) {
  KalmanFilter f(cv_model(), RVector{0.0, 0.0},
                 RMatrix::scaled_identity(2, 100.0));
  std::mt19937 rng(5);
  std::normal_distribution<double> noise(0.0, 0.5);
  for (int k = 0; k < 200; ++k) {
    const double truth = 10.0 + 2.0 * k;
    if (k > 0) f.predict();
    f.correct(RVector{truth + noise(rng)});
  }
  EXPECT_NEAR(f.state()[0], 10.0 + 2.0 * 199, 1.0);
  EXPECT_NEAR(f.state()[1], 2.0, 0.3);
}

TEST(KalmanFilter, CovarianceContractsWithMeasurements) {
  KalmanFilter f(cv_model(), RVector{0.0, 0.0},
                 RMatrix::scaled_identity(2, 100.0));
  const double before = f.covariance()(0, 0);
  f.correct(RVector{0.0});
  EXPECT_LT(f.covariance()(0, 0), before);
}

TEST(KalmanFilter, InnovationStatisticSmallOnConsistentData) {
  KalmanFilter f(cv_model(), RVector{0.0, 1.0},
                 RMatrix::scaled_identity(2, 1.0));
  for (int k = 1; k <= 50; ++k) {
    f.predict();
    f.correct(RVector{static_cast<double>(k)});
  }
  f.predict();
  EXPECT_LT(f.innovation_statistic(RVector{51.0}), 1.0);
  EXPECT_GT(f.innovation_statistic(RVector{70.0}), 50.0);
}

TEST(KalmanFilter, CorrectRejectsWrongDimension) {
  KalmanFilter f(cv_model(), RVector{0.0, 0.0},
                 RMatrix::scaled_identity(2, 1.0));
  EXPECT_THROW(f.correct(RVector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(f.innovation_statistic(RVector{1.0, 2.0})),
               std::invalid_argument);
}

TEST(HoldLast, RepeatsLastObservation) {
  HoldLastPredictor p;
  p.observe(3.0);
  p.observe(9.0);
  EXPECT_EQ(p.predict_next(), 9.0);
  EXPECT_EQ(p.predict_next(), 9.0);
  p.reset();
  EXPECT_EQ(p.predict_next(), 0.0);
}

TEST(LinearExtrapolator, WindowValidation) {
  EXPECT_THROW(LinearExtrapolator(1), std::invalid_argument);
}

TEST(LinearExtrapolator, ContinuesALine) {
  LinearExtrapolator p(8);
  for (int k = 0; k < 20; ++k) p.observe(4.0 + 3.0 * k);
  EXPECT_NEAR(p.predict_next(), 4.0 + 3.0 * 20, 1e-9);
  EXPECT_NEAR(p.predict_next(), 4.0 + 3.0 * 21, 1e-9);
}

TEST(LinearExtrapolator, SingleObservationHolds) {
  LinearExtrapolator p(4);
  p.observe(5.0);
  EXPECT_EQ(p.predict_next(), 5.0);
}

TEST(LinearExtrapolator, EmptyPredictsZero) {
  LinearExtrapolator p(4);
  EXPECT_EQ(p.predict_next(), 0.0);
}

TEST(LmsAr, Validation) {
  EXPECT_THROW(LmsArPredictor(0), std::invalid_argument);
  EXPECT_THROW(LmsArPredictor(2, 0.0), std::invalid_argument);
  EXPECT_THROW(LmsArPredictor(2, 3.0), std::invalid_argument);
}

TEST(LmsAr, LearnsConstantSeries) {
  LmsArPredictor p(3, 0.5);
  for (int k = 0; k < 200; ++k) p.observe(10.0);
  EXPECT_NEAR(p.predict_next(), 10.0, 0.2);
}

TEST(LmsAr, ConvergesSlowerThanRlsOnRamp) {
  // Structural expectation: after the same short training, LMS's one-step
  // error on a ramp exceeds RLS's (motivates the paper's choice of RLS).
  LmsArPredictor lms(4, 0.5);
  for (int k = 0; k < 60; ++k) lms.observe(100.0 - 0.5 * k);
  const double lms_pred = lms.predict_next();
  const double truth = 100.0 - 0.5 * 60;
  EXPECT_GT(std::abs(lms_pred - truth), 1e-4);
}

TEST(KalmanCv, Validation) {
  EXPECT_THROW(KalmanCvPredictor(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(KalmanCvPredictor(1.0, 0.0), std::invalid_argument);
}

TEST(KalmanCv, HoldoverContinuesTrend) {
  KalmanCvPredictor p;
  for (int k = 0; k < 100; ++k) p.observe(50.0 - 0.4 * k);
  double y = 0.0;
  for (int k = 0; k < 20; ++k) y = p.predict_next();
  EXPECT_NEAR(y, 50.0 - 0.4 * 119.0, 1.0);
}

TEST(KalmanCv, ResetForgets) {
  KalmanCvPredictor p;
  for (int k = 0; k < 50; ++k) p.observe(100.0);
  p.reset();
  for (int k = 0; k < 50; ++k) p.observe(1.0);
  EXPECT_NEAR(p.predict_next(), 1.0, 0.1);
}

}  // namespace
}  // namespace safe::estimation
