// SessionManager lifecycle tests: deterministic token derivation, the hard
// session cap, idle-timeout eviction on a fake clock, and the guarantee
// that an evicted session's pipeline state never leaks into a new session
// opened under the same client id.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/seed.hpp"
#include "serve/session.hpp"
#include "serve/trace_source.hpp"

namespace {

using namespace safe;
using namespace safe::serve;

HelloFrame small_hello(const std::string& client_id,
                       std::uint64_t seed = 7) {
  TraceSpec spec;
  spec.seed = seed;
  spec.horizon_steps = 40;
  spec.attack = core::AttackKind::kDosJammer;
  spec.attack_start_s = units::Seconds{10.0};
  spec.attack_end_s = units::Seconds{40.0};
  return hello_from(spec, client_id);
}

TEST(ServeSession, TokensAreDeterministicPerMasterSeed) {
  SessionManager a(SessionLimits{}, 1234);
  SessionManager b(SessionLimits{}, 1234);
  SessionManager c(SessionLimits{}, 999);
  std::vector<std::uint64_t> tokens_a, tokens_b, tokens_c;
  for (int i = 0; i < 3; ++i) {
    tokens_a.push_back(a.open(small_hello("x"), 0).session->token());
    tokens_b.push_back(b.open(small_hello("x"), 0).session->token());
    tokens_c.push_back(c.open(small_hello("x"), 0).session->token());
  }
  EXPECT_EQ(tokens_a, tokens_b);
  EXPECT_NE(tokens_a, tokens_c);
  // And the sequence matches the documented derivation.
  EXPECT_EQ(tokens_a[0],
            runtime::derive_seed(1234, runtime::SeedStream::kSession, 0));
  EXPECT_EQ(tokens_a[1],
            runtime::derive_seed(1234, runtime::SeedStream::kSession, 1));
}

TEST(ServeSession, RejectsBeyondSessionCap) {
  SessionLimits limits;
  limits.max_sessions = 2;
  SessionManager manager(limits, 1);
  const auto first = manager.open(small_hello("a"), 0);
  const auto second = manager.open(small_hello("b"), 0);
  ASSERT_TRUE(first.session);
  ASSERT_TRUE(second.session);

  const auto third = manager.open(small_hello("c"), 0);
  EXPECT_FALSE(third.session);
  EXPECT_EQ(third.error_code, ErrorCode::kSessionLimit);
  EXPECT_EQ(manager.size(), 2u);
  EXPECT_EQ(manager.counters().rejected, 1u);

  // Closing one frees a slot.
  EXPECT_TRUE(manager.close(first.session->token(), 0));
  EXPECT_TRUE(manager.open(small_hello("c"), 0).session);
}

TEST(ServeSession, RejectsBadVersionAndHorizon) {
  SessionManager manager(SessionLimits{}, 1);
  HelloFrame bad_version = small_hello("v");
  bad_version.protocol_version = 99;
  const auto version_result = manager.open(bad_version, 0);
  EXPECT_FALSE(version_result.session);
  EXPECT_EQ(version_result.error_code, ErrorCode::kUnsupportedVersion);

  HelloFrame bad_horizon = small_hello("h");
  bad_horizon.horizon_steps = 0;
  EXPECT_FALSE(manager.open(bad_horizon, 0).session);

  HelloFrame huge_horizon = small_hello("h2");
  huge_horizon.horizon_steps = SessionLimits{}.max_horizon_steps + 1;
  EXPECT_FALSE(manager.open(huge_horizon, 0).session);
  EXPECT_EQ(manager.size(), 0u);
}

TEST(ServeSession, IdleTimeoutEvictsOnFakeClock) {
  SessionLimits limits;
  limits.idle_timeout_ns = 1000;
  SessionManager manager(limits, 1);
  const auto idle = manager.open(small_hello("idle"), /*now_ns=*/0);
  const auto busy = manager.open(small_hello("busy"), /*now_ns=*/0);
  ASSERT_TRUE(idle.session);
  ASSERT_TRUE(busy.session);

  // Nothing is idle yet.
  EXPECT_TRUE(manager.evict_idle(500).empty());

  // The busy session processes a frame at t=900; the idle one does not.
  const std::vector<MeasurementFrame> trace =
      make_measurement_trace(busy.session->spec());
  busy.session->process(trace[0], /*now_ns=*/900);

  const auto evicted = manager.evict_idle(/*now_ns=*/1500);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].token, idle.session->token());
  EXPECT_EQ(evicted[0].client_id, "idle");
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.counters().evicted, 1u);
  EXPECT_FALSE(manager.find(idle.session->token()));
  EXPECT_TRUE(manager.find(busy.session->token()));
}

TEST(ServeSession, ActivityStampedAfterTheSweepClockIsNotIdle) {
  // A pool worker can stamp a session with a clock reading taken after the
  // one the eviction sweep holds; the session is active, not idle for ~2^64 ns.
  SessionLimits limits;
  limits.idle_timeout_ns = 1000;
  SessionManager manager(limits, 1);
  const auto opened = manager.open(small_hello("ahead"), /*now_ns=*/0);
  ASSERT_TRUE(opened.session);

  const std::uint64_t now_ns = 5000;
  opened.session->touch(now_ns + 7);
  EXPECT_TRUE(manager.evict_idle(now_ns).empty());
  opened.session->touch(now_ns);
  EXPECT_TRUE(manager.evict_idle(now_ns).empty());
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.counters().evicted, 0u);

  // Past the timeout from its last stamp it is idle as before.
  EXPECT_EQ(manager.evict_idle(now_ns + limits.idle_timeout_ns + 1).size(), 1u);
}

TEST(ServeSession, EvictedStateDoesNotLeakIntoReopenedSession) {
  SessionLimits limits;
  limits.idle_timeout_ns = 1000;
  SessionManager manager(limits, 1);

  // First session under client id "replay" processes half its trace — the
  // DoS window drives its detector and predictors into a non-trivial state.
  const HelloFrame hello = small_hello("replay");
  const auto first = manager.open(hello, 0);
  ASSERT_TRUE(first.session);
  const TraceSpec spec = first.session->spec();
  const std::vector<MeasurementFrame> trace = make_measurement_trace(spec);
  for (std::size_t i = 0; i < trace.size() / 2; ++i) {
    (void)first.session->process(trace[i], 0);
  }
  ASSERT_EQ(manager.evict_idle(2000).size(), 1u);

  // A new session with the same client id must behave as a fresh pipeline:
  // identical, frame for frame, to the offline reference from step 0.
  const auto second = manager.open(hello, 3000);
  ASSERT_TRUE(second.session);
  EXPECT_NE(second.session->token(), first.session->token());
  const std::vector<EstimateFrame> reference = run_offline(spec, trace);
  ASSERT_EQ(reference.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Session::StepOutput out = second.session->process(trace[i], 3000);
    EXPECT_EQ(encode(out.estimate), encode(reference[i])) << "step " << i;
  }
}

TEST(ServeSession, ChallengeSlotsEmitChallengeResults) {
  SessionManager manager(SessionLimits{}, 1);
  const auto result = manager.open(small_hello("challenge"), 0);
  ASSERT_TRUE(result.session);
  const std::vector<MeasurementFrame> trace =
      make_measurement_trace(result.session->spec());
  std::size_t challenge_frames = 0;
  for (const MeasurementFrame& m : trace) {
    const Session::StepOutput out = result.session->process(m, 0);
    if (out.estimate.safe.challenge_slot) {
      ASSERT_TRUE(out.challenge.has_value());
      EXPECT_EQ(out.challenge->step, m.step);
      ++challenge_frames;
    } else {
      EXPECT_FALSE(out.challenge.has_value());
    }
  }
  EXPECT_GT(challenge_frames, 0u);
}

}  // namespace
