// Tests for challenge schedules, the probe modulator, and the CRA detector.
#include <gtest/gtest.h>

#include <memory>

#include "cra/challenge.hpp"
#include "cra/modulator.hpp"
#include "detect/backends.hpp"

namespace safe::cra {
namespace {

TEST(FixedChallengeSchedule, MembershipMatchesList) {
  const FixedChallengeSchedule s({15, 50, 175});
  EXPECT_TRUE(s.is_challenge(15));
  EXPECT_TRUE(s.is_challenge(50));
  EXPECT_TRUE(s.is_challenge(175));
  EXPECT_FALSE(s.is_challenge(14));
  EXPECT_FALSE(s.is_challenge(0));
  EXPECT_FALSE(s.is_challenge(182));
}

TEST(FixedChallengeSchedule, RejectsNegativeSteps) {
  EXPECT_THROW(FixedChallengeSchedule({-1}), std::invalid_argument);
}

TEST(FixedChallengeSchedule, ChallengeStepsEnumeration) {
  const FixedChallengeSchedule s({3, 7, 100});
  const auto steps = s.challenge_steps(50);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0], 3);
  EXPECT_EQ(steps[1], 7);
}

TEST(PaperChallengeSchedule, MatchesFigureSpikesAndDetectionInstant) {
  const auto s = paper_challenge_schedule(300);
  EXPECT_TRUE(s.is_challenge(15));
  EXPECT_TRUE(s.is_challenge(50));
  EXPECT_TRUE(s.is_challenge(175));
  EXPECT_TRUE(s.is_challenge(182));  // the detection instant in Section 6.2
  EXPECT_FALSE(s.is_challenge(180));
  EXPECT_FALSE(s.is_challenge(181));
}

TEST(PaperChallengeSchedule, TailHasRequestedPeriod) {
  const auto s = paper_challenge_schedule(300, 7);
  EXPECT_TRUE(s.is_challenge(189));
  EXPECT_TRUE(s.is_challenge(196));
  EXPECT_FALSE(s.is_challenge(190));
  EXPECT_THROW(paper_challenge_schedule(300, 0), std::invalid_argument);
}

TEST(PrbsChallengeSchedule, RateTracksRequestedProbability) {
  const PrbsChallengeSchedule s(0xBEEF, 1, 10, 5000);
  EXPECT_NEAR(s.challenge_rate(), 0.1, 0.02);
}

TEST(PrbsChallengeSchedule, DeterministicPerKey) {
  const PrbsChallengeSchedule a(0x1111, 1, 4, 512);
  const PrbsChallengeSchedule b(0x1111, 1, 4, 512);
  const PrbsChallengeSchedule c(0x2222, 1, 4, 512);
  int diff_ab = 0, diff_ac = 0;
  for (std::int64_t k = 0; k < 512; ++k) {
    diff_ab += a.is_challenge(k) != b.is_challenge(k) ? 1 : 0;
    diff_ac += a.is_challenge(k) != c.is_challenge(k) ? 1 : 0;
  }
  EXPECT_EQ(diff_ab, 0);
  EXPECT_GT(diff_ac, 0);
}

TEST(PrbsChallengeSchedule, OutOfHorizonIsNotChallenge) {
  const PrbsChallengeSchedule s(0x1234, 1, 2, 16);
  EXPECT_FALSE(s.is_challenge(-1));
  EXPECT_FALSE(s.is_challenge(16));
  EXPECT_THROW(PrbsChallengeSchedule(1, 1, 2, 0), std::invalid_argument);
}

TEST(ProbeModulator, GatesTransmitterOnSchedule) {
  const auto schedule =
      std::make_shared<FixedChallengeSchedule>(std::vector<std::int64_t>{5});
  const ProbeModulator mod(schedule);
  EXPECT_EQ(mod.modulation(5), 0);
  EXPECT_EQ(mod.modulation(4), 1);
  EXPECT_FALSE(mod.tx_enabled(5));
  EXPECT_TRUE(mod.tx_enabled(6));
}

TEST(ProbeModulator, NullScheduleThrows) {
  EXPECT_THROW(ProbeModulator(nullptr), std::invalid_argument);
}

// The CRA detector backend (Algorithm 2, lines 7-9), driven through the
// observations the pipeline builds.
detect::Observation at(std::int64_t step, bool challenge, bool nonzero) {
  detect::Observation obs;
  obs.step = step;
  obs.challenge_slot = challenge;
  obs.receiver_nonzero = nonzero;
  return obs;
}

TEST(Detector, SilentChallengeKeepsClean) {
  detect::CraBackend det;
  const auto d = det.observe(at(15, /*challenge=*/true, /*nonzero=*/false));
  EXPECT_FALSE(d.under_attack);
  EXPECT_FALSE(d.attack_started);
  EXPECT_FALSE(det.detection_step().has_value());
}

TEST(Detector, NonZeroChallengeOutputDetectsAttack) {
  detect::CraBackend det;
  det.observe(at(15, true, false));
  const auto d = det.observe(at(182, true, true));
  EXPECT_TRUE(d.attack_started);
  EXPECT_TRUE(d.under_attack);
  ASSERT_TRUE(det.detection_step().has_value());
  EXPECT_EQ(*det.detection_step(), 182);
}

TEST(Detector, NonChallengeStepsNeverChangeState) {
  detect::CraBackend det;
  // Nonzero outputs at normal steps are expected (real echoes) and must not
  // trigger: this is what makes CRA false-positive-free.
  for (std::int64_t k = 0; k < 100; ++k) {
    const auto d = det.observe(at(k, false, true));
    EXPECT_FALSE(d.under_attack);
  }
  EXPECT_FALSE(det.detection_step().has_value());
}

TEST(Detector, SilentChallengeWhileUnderAttackClears) {
  detect::CraBackend det;
  det.observe(at(182, true, true));
  EXPECT_TRUE(det.under_attack());
  const auto d = det.observe(at(305, true, false));
  EXPECT_TRUE(d.attack_cleared);
  EXPECT_FALSE(det.under_attack());
  // Detection step of the past attack is retained for reporting.
  ASSERT_TRUE(det.detection_step().has_value());
  EXPECT_EQ(*det.detection_step(), 182);
}

TEST(Detector, RedetectsAfterClear) {
  detect::CraBackend det;
  det.observe(at(10, true, true));
  det.observe(at(20, true, false));
  const auto d = det.observe(at(30, true, true));
  EXPECT_TRUE(d.attack_started);
  EXPECT_EQ(*det.detection_step(), 30);
}

TEST(Detector, ScoredStatsCountConfusionMatrix) {
  detect::CraBackend det;
  det.observe_scored(at(1, true, false), false);   // TN
  det.observe_scored(at(2, true, true), true);     // TP
  det.observe_scored(at(3, false, true), true);    // not a challenge: unscored
  det.observe_scored(at(4, true, false), true);    // FN
  det.observe_scored(at(5, true, true), false);    // FP (after clear attempt)
  const DetectionStats& s = det.stats();
  EXPECT_EQ(s.challenges, 4u);
  EXPECT_EQ(s.true_negatives, 1u);
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_EQ(s.false_positives, 1u);
}

TEST(Detector, ResetClearsEverything) {
  detect::CraBackend det;
  det.observe_scored(at(182, true, true), true);
  det.reset();
  EXPECT_FALSE(det.under_attack());
  EXPECT_FALSE(det.detection_step().has_value());
  EXPECT_EQ(det.stats().challenges, 0u);
}

}  // namespace
}  // namespace safe::cra
