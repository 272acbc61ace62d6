// Unit tests for core::Holdover, the one copy of Algorithm 1's holdover and
// its snapshot rollback, driven through its verdict entry (the scenes that
// run it are pinned in core_scene_golden_test.cpp and
// core_pipeline_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/holdover.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {
namespace {

constexpr std::size_t kMinSamples = 8;

// The verdicts a detector backend's debounce can produce.
constexpr detect::Verdict kClean{};
constexpr detect::Verdict kCleanChallenge{.challenge_slot = true};
constexpr detect::Verdict kAttacked{.under_attack = true};
constexpr detect::Verdict kAttackedChallenge{.challenge_slot = true,
                                             .under_attack = true};
constexpr detect::Verdict kDetection{.under_attack = true,
                                     .attack_started = true};
constexpr detect::Verdict kCleared{.attack_cleared = true};

Holdover rls_holdover(std::vector<bool> clamped,
                      std::vector<double> initial = {}) {
  std::vector<estimation::SeriesPredictorPtr> predictors(clamped.size());
  for (auto& p : predictors) {
    p = std::make_unique<estimation::RlsArPredictor>();
  }
  return Holdover(std::move(predictors), std::move(clamped), kMinSamples,
                  std::move(initial));
}

/// Trusts a ramp of `n` samples 10, 9, 8, ... on one channel.
void trust_ramp(Holdover& h, int n) {
  for (int k = 0; k < n; ++k) {
    const double sample[] = {10.0 - k};
    h.trust(sample);
  }
}

TEST(Holdover, RejectsNullPredictorAndSizeMismatch) {
  std::vector<estimation::SeriesPredictorPtr> null_channel(1);
  EXPECT_THROW(Holdover(std::move(null_channel), {false}, kMinSamples),
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
  EXPECT_TRUE(h.defend(10, kCleanChallenge));  // holds, then snapshots
  const double poison[] = {60.0, 5.0};
  for (std::int64_t k = 11; k < 14; ++k) {
    EXPECT_FALSE(h.defend(k, kClean));
    h.trust(poison);
  }
  EXPECT_TRUE(h.defend(16, kDetection));  // replays 11..15, holds 16
  const double first[] = {h.last(0), h.last(1)};
  EXPECT_EQ(first[0], 0.0);
  EXPECT_NEAR(first[1], -1.0, 1e-6);

  // A second detection restores the same snapshot and lands on the same
  // bits.
  for (std::int64_t k = 17; k < 20; ++k) {
    EXPECT_FALSE(h.defend(k, kClean));
    h.trust(poison);
  }
  EXPECT_TRUE(h.defend(16, kDetection));
  EXPECT_EQ(h.last(0), first[0]);
  EXPECT_EQ(h.last(1), first[1]);
}

TEST(Holdover, RollbackRestoresTrainingCountAndTargetFlag) {
  Holdover h = rls_holdover({false}, {7.0});
  EXPECT_TRUE(h.defend(0, kDetection));  // no snapshot yet: nothing changes
  EXPECT_FALSE(h.trusted());
  EXPECT_EQ(h.last(0), 7.0);
  EXPECT_TRUE(h.defend(1, kCleanChallenge));  // untrained, no target
  trust_ramp(h, 10);
  EXPECT_TRUE(h.defend(2, kDetection));  // nothing to replay
  EXPECT_FALSE(h.trusted());
  EXPECT_EQ(h.last(0), 7.0);  // nothing trusted: the seed stands

  // The training count is back at zero: seven samples are too few to
  // free-run, and the last one stands; the eighth trains it.
  trust_ramp(h, 7);
  EXPECT_TRUE(h.defend(3, kAttacked));
  EXPECT_EQ(h.last(0), 4.0);
  const double eighth[] = {3.0};
  h.trust(eighth);
  EXPECT_TRUE(h.defend(4, kAttacked));
  EXPECT_NE(h.last(0), 3.0);
}

TEST(Holdover, DetectingStepReplaysThenHolds) {
  // Snapshot at the clean challenge 10, poison trusted at 11-13, detection
  // at 14: the estimate at 14 is that of a holdover that free-ran from 10
  // without interruption (replay 11-13, then hold 14).
  Holdover attacked = rls_holdover({false});
  Holdover reference = rls_holdover({false});
  trust_ramp(attacked, 10);
  trust_ramp(reference, 10);
  EXPECT_TRUE(attacked.defend(10, kCleanChallenge));
  EXPECT_TRUE(reference.defend(10, kCleanChallenge));
  const double poison[] = {60.0};
  for (std::int64_t k = 11; k < 14; ++k) {
    EXPECT_FALSE(attacked.defend(k, kClean));
    attacked.trust(poison);
    EXPECT_TRUE(reference.defend(k, kAttacked));
  }
  EXPECT_TRUE(attacked.defend(14, kDetection));
  EXPECT_TRUE(reference.defend(14, kAttacked));
  EXPECT_EQ(attacked.last(0), reference.last(0));
}

TEST(Holdover, ChallengeUnderAttackHoldsWithoutSnapshot) {
  // No clean challenge ever: a detection has nothing to restore. A
  // challenge slot while the attack is declared holds like any attacked
  // step; had it snapshotted, the second detection would restore it and
  // replay over the samples trusted after the clear.
  Holdover challenged = rls_holdover({false});
  Holdover reference = rls_holdover({false});
  for (Holdover* h : {&challenged, &reference}) {
    trust_ramp(*h, 10);
    EXPECT_TRUE(h->defend(10, kDetection));
  }
  EXPECT_TRUE(challenged.defend(11, kAttackedChallenge));
  EXPECT_TRUE(reference.defend(11, kAttacked));
  EXPECT_EQ(challenged.last(0), reference.last(0));
  for (Holdover* h : {&challenged, &reference}) {
    EXPECT_FALSE(h->defend(12, kCleared));
    for (int k = 0; k < 4; ++k) {
      const double sample[] = {20.0 + k};
      h->trust(sample);
    }
    EXPECT_TRUE(h->defend(16, kDetection));
  }
  EXPECT_EQ(challenged.last(0), reference.last(0));
}

TEST(Holdover, ReplayFromAnUntrainedSnapshotKeepsTheSeed) {
  // The snapshot at 0 precedes every trusted sample. The rollback restores
  // the seed and replays nothing over 1-10: the untrained predictor would
  // free-run to zero. The detecting step then holds the seed.
  Holdover h = rls_holdover({false}, {7.0});
  EXPECT_TRUE(h.defend(0, kCleanChallenge));
  trust_ramp(h, 10);
  EXPECT_TRUE(h.defend(11, kDetection));
  EXPECT_FALSE(h.trusted());
  EXPECT_EQ(h.last(0), 7.0);
}

TEST(Holdover, ReplayFromARestartedSnapshotKeepsTheLastValues) {
  // A rejected free-run restarts the predictor (training count 0, a target
  // still trusted), and the clean challenge at 21 snapshots that state.
  // The detection at 30 restores it: the restarted predictor would
  // free-run the range to zero over 22-29, so nothing is replayed and the
  // last trusted range, 24, stands, as it does at the detecting step.
  Holdover h = rls_holdover({true});
  for (int k = 5; k <= 24; ++k) {
    const double sample[] = {static_cast<double>(k)};
    h.trust(sample);
  }
  h.hold([](std::span<const double>) { return false; });
  EXPECT_TRUE(h.defend(21, kCleanChallenge));
  const double poison[] = {60.0};
  for (int k = 0; k < 8; ++k) h.trust(poison);
  EXPECT_TRUE(h.defend(30, kDetection));
  EXPECT_EQ(h.last(0), 24.0);
  EXPECT_TRUE(h.trusted());
}

}  // namespace
}  // namespace safe::core
