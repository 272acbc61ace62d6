// Tests for the baseline predictors.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "estimation/baselines.hpp"

namespace safe::estimation {
namespace {

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

}  // namespace
}  // namespace safe::estimation
