// Unit tests for core::Holdover, the one copy of Algorithm 1's holdover and
// its snapshot rollback (the scenes that run it are pinned in
// core_scene_golden_test.cpp and core_pipeline_test.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/holdover.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {
namespace {

Holdover rls_holdover(std::vector<bool> clamped,
                      std::vector<double> initial = {}) {
  std::vector<estimation::SeriesPredictorPtr> predictors(clamped.size());
  for (auto& p : predictors) {
    p = std::make_unique<estimation::RlsArPredictor>();
  }
  return Holdover(std::move(predictors), std::move(clamped),
                  std::move(initial));
}

TEST(Holdover, RejectsNullPredictorAndSizeMismatch) {
  std::vector<estimation::SeriesPredictorPtr> null_channel(1);
  EXPECT_THROW(Holdover(std::move(null_channel), {false}),
               std::invalid_argument);
  EXPECT_THROW(rls_holdover({false}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Holdover, RollbackReplaysClampedRangeAndRestoresACopy) {
  // Range channel 0 ramps 10 -> 1 m, channel 1 holds -1 m/s: the replayed
  // free-run crosses zero on the range channel only.
  Holdover h = rls_holdover({true, false});
  for (int k = 0; k < 10; ++k) {
    const double sample[] = {10.0 - k, -1.0};
    h.trust(sample);
  }
  h.hold(8);  // the challenge slot's own free-run step
  h.snapshot(10);
  const double poison[] = {60.0, 5.0};
  for (int k = 11; k < 14; ++k) h.trust(poison);
  EXPECT_EQ(h.rollback(16), 5u);  // steps 11..15
  const double first[] = {h.last(0), h.last(1)};
  EXPECT_EQ(first[0], 0.0);
  EXPECT_NEAR(first[1], -1.0, 1e-6);

  // A second rollback to the same snapshot replays the same bits.
  for (int k = 16; k < 20; ++k) h.trust(poison);
  EXPECT_EQ(h.rollback(16), 5u);
  EXPECT_EQ(h.last(0), first[0]);
  EXPECT_EQ(h.last(1), first[1]);
}

TEST(Holdover, RollbackRestoresTrainingCountAndTargetFlag) {
  Holdover h = rls_holdover({false}, {7.0});
  EXPECT_EQ(h.rollback(3), 0u);  // no snapshot yet: nothing changes
  h.snapshot(0);                 // untrained, no target
  for (int k = 0; k < 10; ++k) {
    const double sample[] = {20.0 + k};
    h.trust(sample);
  }
  EXPECT_TRUE(h.ready(8));
  EXPECT_EQ(h.rollback(1), 0u);
  EXPECT_FALSE(h.trusted());
  EXPECT_FALSE(h.ready(0));
  h.hold(0);
  EXPECT_EQ(h.last(0), 7.0);  // nothing trusted: the seed stands
}

}  // namespace
}  // namespace safe::core
