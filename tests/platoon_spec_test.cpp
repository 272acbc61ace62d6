// Platoon spec mini-language: grammar acceptance/rejection and the
// checker/builder contract (check_platoon_spec and parse_platoon_spec share
// one implementation and must always agree).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "platoon/spec.hpp"

namespace safe::platoon {
namespace {

TEST(PlatoonSpec, EmptySpecIsThePairDefaults) {
  const PlatoonOptions o = parse_platoon_spec("");
  EXPECT_EQ(o.size, 2u);
  EXPECT_EQ(o.attacked, 1u);
  EXPECT_EQ(o.controller, core::FollowerController::kAccHierarchy);
  EXPECT_TRUE(o.detector_spec.empty());
  EXPECT_TRUE(o.fault_spec.empty());
  EXPECT_EQ(o.initial_gap_m, units::Meters{100.0});
  EXPECT_TRUE(o.multi_target);
  EXPECT_FALSE(o.cutin.enabled());
}

TEST(PlatoonSpec, ParsesEveryKey) {
  const PlatoonOptions o = parse_platoon_spec(
      "n=8,attacked=3,controller=idm,gap=80,multi_target=off,rcs_scale=0.5");
  EXPECT_EQ(o.size, 8u);
  EXPECT_EQ(o.attacked, 3u);
  EXPECT_EQ(o.controller, core::FollowerController::kIdm);
  EXPECT_EQ(o.initial_gap_m, units::Meters{80.0});
  EXPECT_FALSE(o.multi_target);
  EXPECT_DOUBLE_EQ(o.second_target_rcs_scale, 0.5);
}

TEST(PlatoonSpec, QuotedSubSpecsKeepTheirCommas) {
  const PlatoonOptions o = parse_platoon_spec(
      "n=4,detector=\"chi2:threshold=9.21,window=16\","
      "fault=\"dropout:start=60,len=12\"");
  EXPECT_EQ(o.detector_spec, "chi2:threshold=9.21,window=16");
  EXPECT_EQ(o.fault_spec, "dropout:start=60,len=12");
}

TEST(PlatoonSpec, NoneSubSpecsMeanInherit) {
  const PlatoonOptions o = parse_platoon_spec("n=4,detector=none,fault=none");
  EXPECT_TRUE(o.detector_spec.empty());
  EXPECT_TRUE(o.fault_spec.empty());
}

TEST(PlatoonSpec, CutInEventParses) {
  const PlatoonOptions o = parse_platoon_spec(
      "n=6,cutin_into=3,cutin_start=120,cutin_len=30,cutin_frac=0.4");
  ASSERT_TRUE(o.cutin.enabled());
  EXPECT_EQ(o.cutin.into, 3u);
  EXPECT_EQ(o.cutin.start_s, units::Seconds{120.0});
  EXPECT_EQ(o.cutin.duration_s, units::Seconds{30.0});
  EXPECT_DOUBLE_EQ(o.cutin.gap_fraction, 0.4);
}

TEST(PlatoonSpec, RejectsMalformedSpecs) {
  const char* const kBad[] = {
      "n",                        // no '='
      "n=",                       // empty value
      "=2",                       // empty key
      "n=2,n=4",                  // duplicate key
      "warp=9",                   // unknown key
      "n=1",                      // below minimum size
      "n=65",                     // above maximum size
      "n=two",                    // not a number
      "n=-3",                     // negative count
      "n=4,attacked=0",           // leader cannot be attacked
      "n=4,attacked=4",           // index past the last follower
      "controller=plaid",         // unknown controller
      "gap=0",                    // non-positive gap
      "gap=-5",                   //
      "gap=nan",                  // NaN guard
      "gap=1e9",                  // beyond the sane ceiling
      "rcs_scale=0",              // (0, 1] violated
      "rcs_scale=1.5",            //
      "multi_target=maybe",       // not a bool
      "n=4,detector=warpdrive",   // invalid detect sub-spec
      "n=4,fault=warp:x=1",       // invalid fault sub-spec
      "cutin_start=10",           // cutin_* without cutin_into
      "n=4,cutin_into=2",         // cutin_into without start/len
      "n=4,cutin_into=9,cutin_start=1,cutin_len=1",  // into out of range
      "n=4,cutin_into=2,cutin_start=-1,cutin_len=1",
      "n=4,cutin_into=2,cutin_start=1,cutin_len=0",
      "n=4,cutin_into=2,cutin_start=inf,cutin_len=1",  // must be finite
      "n=4,cutin_into=2,cutin_start=1,cutin_len=inf",
      "n=4,cutin_into=2,cutin_start=1,cutin_len=1,cutin_frac=1",
      "n=\"2",                    // unterminated quote
  };
  for (const char* spec : kBad) {
    EXPECT_THROW((void)parse_platoon_spec(spec), std::invalid_argument)
        << "accepted: " << spec;
    EXPECT_FALSE(check_platoon_spec(spec).ok()) << "checker accepted: " << spec;
    EXPECT_FALSE(check_platoon_spec(spec).message.empty()) << spec;
  }
}

TEST(PlatoonSpec, CheckerAndBuilderAgree) {
  const char* const kSpecs[] = {
      "",
      "n=2",
      "n=8,attacked=3",
      "n=4,attacked=1,controller=idm,gap=80",
      "n=64,attacked=63",
      "n=6,cutin_into=3,cutin_start=120,cutin_len=30",
      "n=4,detector=\"fusion:members=cra+chi2,quorum=1\"",
      "bogus",
      "n=4,attacked=7",
      "n=4,,attacked=2",
      "n=0x8",
      " n=4",
  };
  for (const char* spec : kSpecs) {
    const spec::Check check = check_platoon_spec(spec);
    bool threw = false;
    try {
      (void)parse_platoon_spec(spec);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    EXPECT_EQ(check.ok(), !threw) << "disagree on: " << spec;
  }
}

TEST(PlatoonSpec, HelpMentionsEveryKey) {
  const std::string help = platoon_spec_help();
  for (const char* key : {"n", "attacked", "controller", "detector", "fault",
                          "gap", "multi_target", "rcs_scale", "cutin_into",
                          "cutin_start", "cutin_len", "cutin_frac"}) {
    EXPECT_NE(help.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace safe::platoon
