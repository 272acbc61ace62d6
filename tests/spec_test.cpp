// Tests for the spec-language kernel (src/spec) and for the classification
// of every checked-in spec corpus file by the six languages built on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/spec.hpp"
#include "detect/spec.hpp"
#include "fault/schedule.hpp"
#include "platoon/spec.hpp"
#include "runtime/spec.hpp"
#include "serve/chaos.hpp"
#include "spec/spec.hpp"

namespace safe::spec {
namespace {

TEST(SpecKernel, SplitRespectsQuotesAndReportsAnOpenOne) {
  using Tokens = std::vector<std::string>;
  EXPECT_EQ(split("a,\"b,c\",,d", ","), (Tokens{"a", "\"b,c\"", "", "d"}));
  EXPECT_EQ(split("", ";+"), (Tokens{""}));
  EXPECT_EQ(split("x;y+z", ";+"), (Tokens{"x", "y", "z"}));
  EXPECT_FALSE(split("a,\"b", ",").has_value());
  EXPECT_EQ(unquote("\"a,b\""), "a,b");
  EXPECT_EQ(unquote("\""), "\"");
  EXPECT_EQ(trim(" \t a b \n"), "a b");
}

TEST(SpecKernel, ConvertersTakeTheWholeTokenAndNeverWrap) {
  EXPECT_EQ(to_double("-2.5e3"), -2500.0);
  for (const char* bad : {"", "inf", "-inf", "nan", "1e309", "60abc", " 1",
                          "+1", "0x10"}) {
    EXPECT_FALSE(to_double(bad).has_value()) << bad;
  }
  EXPECT_EQ(to_uint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(to_uint("64", 64), 64U);
  for (const char* bad :
       {"", "-1", "+1", " 1", "1.5", "1e3", "18446744073709551616", "65"}) {
    EXPECT_FALSE(to_uint(bad, 64).has_value()) << bad;
  }
  for (const char* yes : {"on", "true", "1"}) EXPECT_EQ(to_bool(yes), true);
  for (const char* no : {"off", "false", "0"}) EXPECT_EQ(to_bool(no), false);
  EXPECT_FALSE(to_bool("yes").has_value());
}

TEST(SpecKernel, FlagConvertersNameTheFlagInTheirError) {
  EXPECT_EQ(flag_uint("--port", "65535", 65535), 65535U);
  EXPECT_EQ(flag_double("--onset", "182.5"), 182.5);
  const auto message = [](auto&& parse) {
    try {
      parse();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([] { (void)flag_uint("--port", "70000", 65535); }),
            "--port expects an integer in [0, 65535], got `70000`");
  EXPECT_EQ(message([] { (void)flag_uint("--jobs", "-3"); }),
            "--jobs expects a non-negative integer, got `-3`");
  EXPECT_EQ(message([] { (void)flag_double("--onset", "nan"); }),
            "--onset expects a finite number, got `nan`");
}

TEST(SpecKernel, ParamsTakeTypedValuesAndKeepTheFirstError) {
  Params params = Params::named("demo spec", "k:a=1.5,b=7,c=off,d=\"x,y\"");
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params.name(), "k");
  double a = 0.0;
  std::size_t b = 0;
  bool c = true;
  std::string d;
  params.number("a", a);
  params.integer("b", b, 1, 8);
  params.flag("c", c);
  EXPECT_TRUE(params.take("d", d));
  EXPECT_TRUE(params.finish().ok());
  EXPECT_EQ(a, 1.5);
  EXPECT_EQ(b, 7U);
  EXPECT_FALSE(c);
  EXPECT_EQ(d, "x,y");

  Params bad = Params::pairs("demo spec", "a=x,b=2");
  double unused = 0.0;
  bad.number("a", unused);
  bad.fail("second error");
  const Check check = bad.finish();
  EXPECT_EQ(check.status, Status::kMalformed);
  EXPECT_EQ(check.message.rfind("demo spec: `a`", 0), 0U) << check.message;

  Params leftover = Params::named("demo spec", "k:zz=1");
  EXPECT_NE(leftover.finish().message.find("unknown key `zz` for `k`"),
            std::string::npos);
}

TEST(SpecKernel, GrammarErrorsAreMalformed) {
  for (const char* text : {"", "b d", "k:a", "k:=1", "k:a=", "k:a b=1",
                           "k:a=1,a=2", "k:a=\"1"}) {
    EXPECT_EQ(Params::named("demo spec", text).finish().status,
              Status::kMalformed)
        << text;
  }
  EXPECT_TRUE(Params::named("demo spec", "k:").finish().ok());
  EXPECT_TRUE(Params::pairs("demo spec", "").finish().ok());
  EXPECT_TRUE(Params::pairs("demo spec", ",,").finish().ok());
}

// --- corpus classification ---------------------------------------------------

/// What a language makes of one input: ok, malformed or unknown for the
/// checker languages (attack, detect, platoon); ok or rejected for the
/// throwing ones (fault, chaos, campaign).
std::string classify(const std::string& language, const std::string& text) {
  const auto outcome = [](const Check& check) -> std::string {
    switch (check.status) {
      case Status::kOk:
        return "ok";
      case Status::kMalformed:
        return "malformed";
      case Status::kUnknown:
        return "unknown";
    }
    return "?";
  };
  if (language == "attack_spec") {
    return outcome(attack::check_attack_spec(text));
  }
  if (language == "detector_spec") {
    return outcome(detect::check_detector_spec(text));
  }
  if (language == "platoon_spec") {
    return outcome(platoon::check_platoon_spec(text));
  }
  try {
    if (language == "fault_schedule") {
      (void)fault::parse_fault_spec(text);
    } else if (language == "chaos_spec") {
      (void)serve::parse_chaos_spec(text);
    } else {
      (void)runtime::parse_campaign_spec(text);
    }
  } catch (const std::invalid_argument&) {
    return "rejected";
  }
  return "ok";
}

/// Every spec corpus file and the outcome it must keep.
const std::map<std::string, std::string>& expected_outcomes() {
  static const std::map<std::string, std::string> kOutcomes = {
      {"attack_spec/chirp_mismatch", "ok"},
      {"attack_spec/delay_evade", "ok"},
      {"attack_spec/delay_full", "ok"},
      {"attack_spec/dos_bare", "ok"},
      {"attack_spec/dos_dup_key", "malformed"},
      {"attack_spec/dos_full", "ok"},
      {"attack_spec/dos_inf", "malformed"},
      {"attack_spec/entrain_full", "ok"},
      {"attack_spec/entrain_replay_leak", "ok"},
      {"attack_spec/entrain_replay_oob", "malformed"},
      {"attack_spec/none", "ok"},
      {"attack_spec/none_with_params", "malformed"},
      {"attack_spec/spoof_bad_coherence", "malformed"},
      {"attack_spec/spoof_coherence", "ok"},
      {"attack_spec/spoof_full", "ok"},
      {"attack_spec/unknown_kind", "unknown"},
      {"detector_spec/ar_order", "ok"},
      {"detector_spec/bad_backend_name", "malformed"},
      {"detector_spec/chi2_full", "ok"},
      {"detector_spec/cra", "ok"},
      {"detector_spec/cra_clear", "ok"},
      {"detector_spec/duplicate_key", "malformed"},
      {"detector_spec/empty", "ok"},
      {"detector_spec/empty_members", "malformed"},
      {"detector_spec/empty_value", "malformed"},
      {"detector_spec/fraction_out_of_range", "malformed"},
      {"detector_spec/fusion_three", "ok"},
      {"detector_spec/fusion_unknown_member", "unknown"},
      {"detector_spec/negative_count", "malformed"},
      {"detector_spec/nested_fusion", "malformed"},
      {"detector_spec/order_overflow", "malformed"},
      {"detector_spec/threshold_inf", "malformed"},
      {"detector_spec/threshold_inf_literal", "malformed"},
      {"detector_spec/unknown_backend", "unknown"},
      {"platoon_spec/bad_attacked", "malformed"},
      {"platoon_spec/bad_gap", "malformed"},
      {"platoon_spec/bad_key", "malformed"},
      {"platoon_spec/cutin", "ok"},
      {"platoon_spec/cutin_inf", "malformed"},
      {"platoon_spec/duplicate_key", "malformed"},
      {"platoon_spec/empty", "ok"},
      {"platoon_spec/fusion_detector", "ok"},
      {"platoon_spec/idm_gap", "ok"},
      {"platoon_spec/max_size", "ok"},
      {"platoon_spec/mid_attack", "ok"},
      {"platoon_spec/minimal", "ok"},
      {"platoon_spec/none_subspecs", "ok"},
      {"platoon_spec/quoted_detector", "ok"},
      {"platoon_spec/quoted_fault", "ok"},
      {"platoon_spec/rcs", "ok"},
      {"platoon_spec/single_target", "ok"},
      {"platoon_spec/unterminated_quote", "malformed"},
      {"fault_schedule/bias_flap", "ok"},
      {"fault_schedule/dropout", "ok"},
      {"fault_schedule/dup_key", "rejected"},
      {"fault_schedule/empty", "ok"},
      {"fault_schedule/missing_value", "rejected"},
      {"fault_schedule/nan_periodic", "ok"},
      {"fault_schedule/nan_start", "rejected"},
      {"fault_schedule/none", "ok"},
      {"fault_schedule/out_of_range_prob", "rejected"},
      {"fault_schedule/overflow", "rejected"},
      {"fault_schedule/plus_separator", "ok"},
      {"fault_schedule/trailing_junk", "rejected"},
      {"fault_schedule/unbounded_prob", "ok"},
      {"fault_schedule/unknown_injector", "rejected"},
      {"chaos_spec/combined", "ok"},
      {"chaos_spec/corrupt", "ok"},
      {"chaos_spec/disconnect_after", "ok"},
      {"chaos_spec/disconnect_prob", "ok"},
      {"chaos_spec/dup_key", "rejected"},
      {"chaos_spec/empty", "ok"},
      {"chaos_spec/halfclose", "ok"},
      {"chaos_spec/inverted_split", "rejected"},
      {"chaos_spec/latency", "ok"},
      {"chaos_spec/missing_value", "rejected"},
      {"chaos_spec/negative_ms", "rejected"},
      {"chaos_spec/none", "ok"},
      {"chaos_spec/out_of_range_prob", "rejected"},
      {"chaos_spec/overflow_u64", "rejected"},
      {"chaos_spec/split", "ok"},
      {"chaos_spec/throttle", "ok"},
      {"chaos_spec/unknown_directive", "rejected"},
      {"chaos_spec/zero_throttle", "rejected"},
      {"campaign_spec/comment_only", "ok"},
      {"campaign_spec/grid_random", "ok"},
      {"campaign_spec/huge_number", "rejected"},
      {"campaign_spec/inverted_uniform", "rejected"},
      {"campaign_spec/loguniform", "ok"},
      {"campaign_spec/minimal", "ok"},
      {"campaign_spec/missing_value", "rejected"},
      {"campaign_spec/nan_onset", "rejected"},
      {"campaign_spec/negative_trials", "rejected"},
      {"campaign_spec/quoted_fault", "ok"},
      {"campaign_spec/semicolons", "ok"},
      {"campaign_spec/unknown_key", "rejected"},
  };
  return kOutcomes;
}

TEST(SpecCorpus, EveryFileKeepsItsClassification) {
  const std::filesystem::path root(SAFE_SPEC_CORPUS_DIR);
  std::map<std::string, std::string> seen;
  for (const char* language : {"attack_spec", "detector_spec", "platoon_spec",
                               "fault_schedule", "chaos_spec",
                               "campaign_spec"}) {
    for (const auto& entry :
         std::filesystem::directory_iterator(root / language)) {
      std::ifstream in(entry.path(), std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      seen[std::string(language) + "/" + entry.path().filename().string()] =
          classify(language, text);
    }
  }
  for (const auto& [file, outcome] : expected_outcomes()) {
    const auto it = seen.find(file);
    if (it == seen.end()) {
      ADD_FAILURE() << "no corpus file " << file;
    } else {
      EXPECT_EQ(it->second, outcome) << file;
    }
  }
  for (const auto& [file, outcome] : seen) {
    EXPECT_EQ(expected_outcomes().count(file), 1U)
        << file << " (" << outcome << ") has no expected outcome";
  }
}

}  // namespace
}  // namespace safe::spec
