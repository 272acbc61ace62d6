// Unit tests for the pluggable detection subsystem: the detector_spec
// mini-language, every DetectorBackend, the CRA-backend equivalence
// guarantee, and the pipeline/HealthMonitor behaviour when the active
// detector flaps around the clearance debounce window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "cra/challenge.hpp"
#include "detect/backends.hpp"
#include "detect/spec.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::detect {
namespace {

// --- spec mini-language ----------------------------------------------------

TEST(DetectorSpec, EmptyAndBareNamesAreOk) {
  EXPECT_EQ(check_detector_spec("").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("cra").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("chi2").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("ar").status, spec::Status::kOk);
}

TEST(DetectorSpec, ParameterizedSpecsAreOk) {
  EXPECT_EQ(check_detector_spec("cra:clear=2").status, spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("chi2:threshold=9.21,window=16").status,
            spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("ar:order=6,consecutive=2").status,
            spec::Status::kOk);
  EXPECT_EQ(
      check_detector_spec("fusion:members=cra+chi2,quorum=1").status,
      spec::Status::kOk);
  EXPECT_EQ(check_detector_spec("fusion:members=cra+chi2+ar").status,
            spec::Status::kOk);
}

TEST(DetectorSpec, UnknownBackendIsDistinctFromMalformed) {
  const spec::Check unknown = check_detector_spec("lstm");
  EXPECT_EQ(unknown.status, spec::Status::kUnknown);
  EXPECT_NE(unknown.message.find("lstm"), std::string::npos);

  // A fusion member that names no backend is also kUnknown.
  EXPECT_EQ(check_detector_spec("fusion:members=cra+lstm").status,
            spec::Status::kUnknown);

  EXPECT_EQ(check_detector_spec("chi2:threshold=").status,
            spec::Status::kMalformed);
}

TEST(DetectorSpec, MalformedSpecsAreRejected) {
  const char* const bad[] = {
      "chi2:threshold",                    // no '='
      "chi2:=5",                           // empty key
      "chi2:threshold=5,threshold=6",      // duplicate key
      "chi2:bogus=1",                      // unknown key
      "chi2:threshold=abc",                // not a number
      "chi2:threshold=-1",                 // must be > 0
      "chi2:threshold=inf",                // must be finite
      "ar:threshold=inf",                  //
      "chi2:window=0",                     // counts are positive
      "chi2:window=-3",                    // negative count
      "chi2:forgetting=1.5",               // not in (0, 1)
      "chi2:power=2",                      // flag is 0 or 1
      "ar:order=17",                       // order capped at 16
      "fusion",                            // members required
      "fusion:members=+",                  // empty member list
      "fusion:members=cra+chi2,quorum=3",  // quorum > members
      "fusion:members=fusion",             // no nesting
      "bad name:x=1",                      // invalid backend name
  };
  for (const char* spec : bad) {
    EXPECT_EQ(check_detector_spec(spec).status, spec::Status::kMalformed)
        << spec;
    EXPECT_THROW(static_cast<void>(make_detector(spec)),
                 std::invalid_argument)
        << spec;
  }
}

TEST(DetectorSpec, MakeDetectorBuildsTheNamedBackend) {
  EXPECT_EQ(make_detector("")->name(), "cra");
  EXPECT_EQ(make_detector("cra")->name(), "cra");
  EXPECT_EQ(make_detector("chi2")->name(), "chi2");
  EXPECT_EQ(make_detector("ar")->name(), "ar");
  EXPECT_EQ(make_detector("fusion:members=cra+chi2")->name(),
            "fusion(cra+chi2)");
  EXPECT_THROW(static_cast<void>(make_detector("lstm")),
               std::invalid_argument);
}

TEST(DetectorSpec, EmptySpecInheritsCraDefaults) {
  cra::DetectorOptions defaults;
  defaults.clear_after_silent_challenges = 3;
  auto detector = make_detector("", defaults);

  // Jam the first challenge, then require three silent ones to clear.
  Observation jammed;
  jammed.challenge_slot = true;
  jammed.receiver_nonzero = true;
  ASSERT_TRUE(detector->observe(jammed).under_attack);

  Observation silent;
  silent.challenge_slot = true;
  silent.step = 1;
  EXPECT_FALSE(detector->observe(silent).attack_cleared);
  silent.step = 2;
  EXPECT_FALSE(detector->observe(silent).attack_cleared);
  silent.step = 3;
  EXPECT_TRUE(detector->observe(silent).attack_cleared);
}

// --- backend behaviour -----------------------------------------------------

Observation echo(std::int64_t step, double d, double dv) {
  Observation obs;
  obs.step = step;
  obs.receiver_nonzero = true;
  obs.coherent_echo = true;
  obs.distance = units::Meters{d};
  obs.relative_velocity = units::MetersPerSecond{dv};
  return obs;
}

TEST(ChiSquareBackend, DetectsAJumpAndClearsAfterQuiet) {
  ResidualOptions options =
      ResidualBackend::defaults(ResidualBackend::Model::kFirstDifference);
  options.required_consecutive = 1;
  options.clear_after_quiet = 2;
  ResidualBackend detector(ResidualBackend::Model::kFirstDifference, options);
  EXPECT_EQ(detector.name(), "chi2");

  // Smooth approach: constant first difference, tiny residual variance.
  std::int64_t k = 0;
  for (; k < 20; ++k) {
    const auto v =
        detector.observe(echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(v.under_attack) << "step " << k;
  }

  // A counterfeit +30 m offset is one huge first-difference outlier.
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  const auto started = detector.observe(echo(k, base + 30.0, -0.5));
  EXPECT_TRUE(started.under_attack);
  EXPECT_TRUE(started.attack_started);
  ASSERT_TRUE(detector.detection_step().has_value());
  EXPECT_EQ(*detector.detection_step(), k);

  // The offset stream is self-consistent from here on: residuals quiet
  // down and the attack clears after the debounce count (2 quiet samples).
  EXPECT_FALSE(
      detector.observe(echo(k + 1, base + 29.5, -0.5)).attack_cleared);
  EXPECT_TRUE(
      detector.observe(echo(k + 2, base + 29.0, -0.5)).attack_cleared);
  EXPECT_FALSE(detector.under_attack());
}

TEST(ResidualBackend, DefaultsStayPerModelAndCountsArePositive) {
  using Model = ResidualBackend::Model;
  const ResidualOptions chi2 =
      ResidualBackend::defaults(Model::kFirstDifference);
  const ResidualOptions ar = ResidualBackend::defaults(Model::kAutoregressive);
  EXPECT_EQ(chi2.threshold, 6.63);
  EXPECT_EQ(chi2.required_consecutive, 2u);
  EXPECT_EQ(ar.threshold, 9.21);
  EXPECT_EQ(ar.required_consecutive, 3u);
  EXPECT_EQ(ar.order, 4u);
  for (const ResidualOptions& o : {chi2, ar}) {
    EXPECT_EQ(o.window, 8u);
    EXPECT_EQ(o.clear_after_quiet, 2u);
    EXPECT_EQ(o.variance_forgetting, 0.98);
    EXPECT_TRUE(o.alarm_on_power);
  }
  EXPECT_EQ(make_detector("ar")->name(), "ar");

  ResidualOptions bad = chi2;
  bad.threshold = 0.0;
  EXPECT_THROW(ResidualBackend(Model::kFirstDifference, bad),
               std::invalid_argument);
  bad = ar;
  bad.required_consecutive = 0;
  EXPECT_THROW(ResidualBackend(Model::kAutoregressive, bad),
               std::invalid_argument);
  bad = ar;
  bad.clear_after_quiet = 0;
  EXPECT_THROW(ResidualBackend(Model::kAutoregressive, bad),
               std::invalid_argument);
  EXPECT_THROW(CraBackend(cra::DetectorOptions{0}), std::invalid_argument);
}

TEST(ChiSquareBackend, PowerAlarmWithoutEchoIsJamming) {
  auto detector = make_detector("chi2");  // required_consecutive = 2
  Observation jam;
  jam.receiver_nonzero = true;
  jam.coherent_echo = false;  // wideband power, no resolvable echo
  EXPECT_FALSE(detector->observe(jam).under_attack);
  jam.step = 1;
  EXPECT_TRUE(detector->observe(jam).under_attack);
}

TEST(ChiSquareBackend, ChallengeSlotsMakeNoClaim) {
  auto detector = make_detector("chi2");
  Observation slot;
  slot.challenge_slot = true;
  slot.receiver_nonzero = true;
  for (std::int64_t k = 0; k < 10; ++k) {
    slot.step = k;
    EXPECT_FALSE(detector->observe(slot).under_attack);
  }
}

TEST(ArResidualBackend, DetectsAJumpAgainstTheTrustedModel) {
  auto detector = make_detector("ar:consecutive=2");

  // Long clean run: the residual variance must forget the untrained-model
  // warm-up transients before a jump is a statistical outlier.
  std::int64_t k = 0;
  for (; k < 200; ++k) {
    const auto v = detector->observe(
        echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(v.under_attack) << "step " << k;
  }
  // The trusted AR model quarantines alarmed samples, so a held +40 m
  // offset keeps scoring against the clean-trajectory prediction: two
  // consecutive alarms declare the attack.
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  static_cast<void>(detector->observe(echo(k, base + 40.0, -0.5)));
  const auto started = detector->observe(echo(k + 1, base + 39.5, -0.5));
  EXPECT_TRUE(started.under_attack);
  EXPECT_TRUE(started.attack_started);
}

TEST(ArResidualBackend, AttackDeclaredBeforeWarmUpClearsOnACleanRamp) {
  // Jammed probe epochs at steps 0-2, before any echo, declare at step 2
  // while the gates have absorbed nothing. Like chi2, a clearance evaluation
  // before warm-up counts as quiet, so the clean ramp clears the attack
  // within `clear` (2) evaluations instead of alarming against the gates'
  // variance floor for the rest of the stream.
  auto detector = make_detector("ar");
  Observation jam;
  jam.receiver_nonzero = true;
  for (std::int64_t k = 0; k < 3; ++k) {
    jam.step = k;
    static_cast<void>(detector->observe_scored(jam, true));
  }
  ASSERT_TRUE(detector->under_attack());
  EXPECT_EQ(detector->detection_step(), std::optional<std::int64_t>{2});

  // The clean ramp of mixed_stream(), with its deterministic wiggle.
  const auto ramp = [](std::int64_t k, double offset = 0.0) {
    return echo(k,
                150.0 - 0.25 * static_cast<double>(k) + offset +
                    static_cast<double>((k * 37) % 11 - 5) * 0.02,
                -0.25 + static_cast<double>((k * 53) % 7 - 3) * 0.01);
  };
  std::int64_t k = 3;
  bool cleared = false;
  for (; k < 5; ++k) {
    cleared = detector->observe_scored(ramp(k), false).attack_cleared;
  }
  EXPECT_TRUE(cleared);
  const std::size_t false_positives = detector->stats().false_positives;
  for (; k < 200; ++k) {
    EXPECT_FALSE(detector->observe_scored(ramp(k), false).under_attack)
        << "step " << k;
  }
  EXPECT_EQ(detector->stats().false_positives, false_positives);

  // A held +30 m jump is still declared.
  bool declared = false;
  for (const std::int64_t end = k + 3; k < end; ++k) {
    declared = declared ||
               detector->observe_scored(ramp(k, 30.0), true).attack_started;
  }
  EXPECT_TRUE(declared);
}

TEST(FusionBackend, RequiresQuorumAndValidatesConstruction) {
  std::vector<DetectorBackendPtr> children;
  children.push_back(make_detector("chi2"));
  children.push_back(std::make_unique<CraBackend>());
  EXPECT_THROW(FusionBackend(std::move(children), 3), std::invalid_argument);
  EXPECT_THROW(FusionBackend({}, 1), std::invalid_argument);

  // quorum=1: either child's alarm trips the fusion. The CRA child alarms
  // on a non-silent challenge; the chi-square child stays quiet there.
  auto fusion = make_detector("fusion:members=cra+chi2,quorum=1");
  Observation jammed_challenge;
  jammed_challenge.challenge_slot = true;
  jammed_challenge.receiver_nonzero = true;
  const auto v = fusion->observe(jammed_challenge);
  EXPECT_TRUE(v.under_attack);
  EXPECT_TRUE(v.attack_started);

  // quorum=2: one vote is not enough.
  auto strict = make_detector("fusion:members=cra+chi2,quorum=2");
  EXPECT_FALSE(strict->observe(jammed_challenge).under_attack);
}

TEST(DetectorBackend, ScoringPopulatesStats) {
  auto detector = make_detector("chi2:consecutive=1,window=4");
  std::int64_t k = 0;
  for (; k < 12; ++k) {
    static_cast<void>(detector->observe_scored(
        echo(k, 100.0 - 0.5 * static_cast<double>(k), -0.5), false));
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  static_cast<void>(
      detector->observe_scored(echo(k, base + 30.0, -0.5), true));
  const cra::DetectionStats& stats = detector->stats();
  EXPECT_GT(stats.true_negatives, 0u);
  EXPECT_EQ(stats.true_positives, 1u);
  EXPECT_EQ(stats.false_positives, 0u);
}

// The stealth finding of DESIGN §15: a 0.05 m/step ramp to +6 m walks under
// the first-difference gate (every ramp step is a 5 cm residual against a
// 1 m/step approach), while the same +6 m as one step is declared at once.
TEST(ChiSquare, MissesStealthyOffsetRampedIn) {
  const auto run = [](auto offset_at) {
    auto detector = make_detector("chi2:consecutive=1");
    std::vector<std::int64_t> declared;
    for (std::int64_t k = 1; k <= 300; ++k) {
      const double y = static_cast<double>(k) + offset_at(k);
      if (detector->observe(echo(k, y, 1.0)).attack_started) {
        declared.push_back(k);
      }
    }
    return declared;
  };
  EXPECT_TRUE(run([](std::int64_t k) {
                return k > 150 ? std::min(6.0, 0.05 * static_cast<double>(
                                                          k - 150))
                               : 0.0;
              }).empty());
  EXPECT_EQ(run([](std::int64_t k) { return k > 150 ? 6.0 : 0.0; }),
            std::vector<std::int64_t>{151});
}

// --- one stream through every backend ---------------------------------------

struct Instant {
  Observation obs;
  bool attack_active = false;
};

// A fixed stream that reaches every path of every backend: clean echoes with
// a small deterministic wiggle, silent and radiating challenges (one of
// each scored against the opposite truth), a held +30 m jump, jammed probe
// epochs (power without a coherent echo: two before the first echo, so
// an attack is declared on power alone, and three later), a NaN range and
// a dropout.
std::vector<Instant> mixed_stream() {
  std::vector<Instant> stream;
  for (std::int64_t k = 0; k < 220; ++k) {
    const double wiggle_d = static_cast<double>((k * 37) % 11 - 5) * 0.02;
    const double wiggle_v = static_cast<double>((k * 53) % 7 - 3) * 0.01;
    const bool jumped = k >= 100 && k < 130;
    Instant in;
    in.obs = echo(k, 150.0 - 0.25 * static_cast<double>(k) + wiggle_d +
                         (jumped ? 30.0 : 0.0),
                  -0.25 + wiggle_v);
    in.attack_active = jumped;
    if (k == 15 || k == 50 || k == 90 || k == 125 || k == 140 || k == 175 ||
        k == 200) {
      in.obs.challenge_slot = true;
      in.obs.coherent_echo = false;
      // Radiating: the jump's spoofer at 125, a jammer at 175, and a
      // stray emitter at 90 with no attack behind it; 50 is silent while
      // the truth says attacked.
      in.obs.receiver_nonzero = k == 90 || k == 125 || k == 175;
      in.attack_active = k == 50 || k == 125 || k == 175;
    } else if (k < 2 || (k >= 150 && k < 153)) {
      in.obs.coherent_echo = false;  // jammed probe epoch
      in.attack_active = true;
    } else if (k == 70) {
      in.obs.distance = units::Meters{std::nan("")};
    } else if (k >= 160 && k < 163) {
      in.obs.receiver_nonzero = false;  // dropout
      in.obs.coherent_echo = false;
    }
    stream.push_back(in);
  }
  return stream;
}

const char* const kStreamSpecs[] = {"cra", "cra:clear=2", "chi2", "ar",
                                    "fusion:members=cra+chi2,quorum=1"};

std::string describe(const cra::DetectionStats& s) {
  std::ostringstream out;
  out << "n=" << s.challenges << " tp=" << s.true_positives
      << " fp=" << s.false_positives << " tn=" << s.true_negatives
      << " fn=" << s.false_negatives;
  return out.str();
}

TEST(DetectorBackend, ObserveAndObserveScoredAgreeOnOneStream) {
  struct Expected {
    const char* edges;
    const char* stats;
  };
  const Expected expected[] = {
      {" +90 -140 +175 -200", "n=7 tp=2 fp=1 tn=3 fn=1"},
      {" +90", "n=7 tp=2 fp=1 tn=3 fn=1"},
      {" +1 -4 +71 -73 +151 -155", "n=204 tp=3 fp=6 tn=164 fn=31"},
      {" +102 -106 +132 -134 +152 -154", "n=202 tp=5 fp=3 tn=165 fn=29"},
      {" +1 -4 +71 -73 +90 -140 +151 -155 +175 -200",
       "n=220 tp=34 fp=50 tn=133 fn=3"},
  };
  const std::vector<Instant> stream = mixed_stream();
  for (std::size_t s = 0; s < std::size(kStreamSpecs); ++s) {
    const char* spec = kStreamSpecs[s];
    auto plain = make_detector(spec);
    auto scored = make_detector(spec);
    std::string edges;
    for (const Instant& in : stream) {
      const Verdict a = plain->observe(in.obs);
      const Verdict b = scored->observe_scored(in.obs, in.attack_active);
      const std::int64_t k = in.obs.step;
      EXPECT_EQ(a.challenge_slot, b.challenge_slot) << spec << " step " << k;
      EXPECT_EQ(a.under_attack, b.under_attack) << spec << " step " << k;
      EXPECT_EQ(a.attack_started, b.attack_started) << spec << " step " << k;
      EXPECT_EQ(a.attack_cleared, b.attack_cleared) << spec << " step " << k;
      EXPECT_STREQ(a.cause, b.cause) << spec << " step " << k;
      EXPECT_EQ(plain->detection_step(), scored->detection_step())
          << spec << " step " << k;
      EXPECT_EQ(b.challenge_slot, in.obs.challenge_slot);
      EXPECT_EQ(b.under_attack, scored->under_attack());
      if (b.attack_started) edges += " +" + std::to_string(k);
      if (b.attack_cleared) edges += " -" + std::to_string(k);
    }
    EXPECT_EQ(edges, expected[s].edges) << spec;
    EXPECT_EQ(describe(scored->stats()), expected[s].stats) << spec;
    EXPECT_EQ(describe(plain->stats()), describe(cra::DetectionStats{}))
        << spec << ": observe() scores nothing";
  }
}

// Metrics and trace instants of the same stream, scored, one backend after
// another: the cra.* series come from the CRA backend alone (fusion's
// children observe unscored, so only their edges are counted), the detect.*
// series from the residual backends and the vote.
class DetectorTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset_for_testing();
    telemetry::set_metrics_enabled(true);
    telemetry::set_tracing_enabled(true);
  }
  void TearDown() override {
    telemetry::set_metrics_enabled(false);
    telemetry::set_tracing_enabled(false);
    telemetry::reset_for_testing();
  }
};

TEST_F(DetectorTelemetry, OneStreamPinsTheDetectorSeries) {
  const std::vector<Instant> stream = mixed_stream();
  for (const char* spec : kStreamSpecs) {
    auto detector = make_detector(spec);
    for (const Instant& in : stream) {
      static_cast<void>(detector->observe_scored(in.obs, in.attack_active));
    }
  }

  std::string counters;
  const telemetry::MetricsSnapshot snapshot = telemetry::collect_metrics();
  for (const char* name :
       {"cra.challenges", "cra.detections", "cra.clears",
        "cra.false_positives", "cra.false_negatives", "detect.detections",
        "detect.clears", "detect.evaluated"}) {
    std::uint64_t value = 0;
    for (const telemetry::MetricSnapshot& m : snapshot.metrics) {
      if (m.name == name) value = m.value;
    }
    counters += std::string(name) + "=" + std::to_string(value) + " ";
  }
  EXPECT_EQ(counters,
            "cra.challenges=14 cra.detections=5 cra.clears=4 "
            "cra.false_positives=2 cra.false_negatives=2 "
            "detect.detections=14 detect.clears=14 detect.evaluated=608 ");

  // Every instant as name + args, in emission order.
  std::ostringstream trace;
  telemetry::write_chrome_trace(trace);
  std::string instants;
  std::istringstream lines(trace.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"i\"") == std::string::npos) continue;
    const std::size_t name = line.find("\"name\":");
    const std::size_t cat = line.find(",\"cat\":");
    const std::size_t args = line.find("\"args\":");
    ASSERT_NE(name, std::string::npos) << line;
    ASSERT_NE(cat, std::string::npos) << line;
    instants += line.substr(name + 7, cat - name - 7);
    if (args != std::string::npos) {
      instants += line.substr(args + 7, line.rfind('}') - args - 7);
    }
    instants += '\n';
  }
  EXPECT_EQ(instants, R"("cra.attack_detected"{"step":90}
"cra.attack_cleared"{"step":140}
"cra.attack_detected"{"step":175}
"cra.attack_cleared"{"step":200}
"cra.attack_detected"{"step":90}
"detect.attack_detected"{"backend":"chi2","step":1}
"detect.attack_cleared"{"backend":"chi2","step":4}
"detect.attack_detected"{"backend":"chi2","step":71}
"detect.attack_cleared"{"backend":"chi2","step":73}
"detect.attack_detected"{"backend":"chi2","step":151}
"detect.attack_cleared"{"backend":"chi2","step":155}
"detect.attack_detected"{"backend":"ar","step":102}
"detect.attack_cleared"{"backend":"ar","step":106}
"detect.attack_detected"{"backend":"ar","step":132}
"detect.attack_cleared"{"backend":"ar","step":134}
"detect.attack_detected"{"backend":"ar","step":152}
"detect.attack_cleared"{"backend":"ar","step":154}
"detect.attack_detected"{"backend":"chi2","step":1}
"detect.attack_detected"{"backend":"fusion","step":1}
"detect.attack_cleared"{"backend":"chi2","step":4}
"detect.attack_cleared"{"backend":"fusion","step":4}
"detect.attack_detected"{"backend":"chi2","step":71}
"detect.attack_detected"{"backend":"fusion","step":71}
"detect.attack_cleared"{"backend":"chi2","step":73}
"detect.attack_cleared"{"backend":"fusion","step":73}
"cra.attack_detected"{"step":90}
"detect.attack_detected"{"backend":"fusion","step":90}
"cra.attack_cleared"{"step":140}
"detect.attack_cleared"{"backend":"fusion","step":140}
"detect.attack_detected"{"backend":"chi2","step":151}
"detect.attack_detected"{"backend":"fusion","step":151}
"detect.attack_cleared"{"backend":"chi2","step":155}
"detect.attack_cleared"{"backend":"fusion","step":155}
"cra.attack_detected"{"step":175}
"detect.attack_detected"{"backend":"fusion","step":175}
"cra.attack_cleared"{"step":200}
"detect.attack_cleared"{"backend":"fusion","step":200}
)");
}

// --- pipeline integration --------------------------------------------------

std::shared_ptr<const cra::ChallengeSchedule> schedule_with(
    std::vector<std::int64_t> steps) {
  return std::make_shared<cra::FixedChallengeSchedule>(std::move(steps));
}

radar::RadarMeasurement radar_echo(double d, double dv) {
  radar::RadarMeasurement m;
  m.estimate = radar::RangeRate{.distance_m = units::Meters{d},
                                .range_rate_mps = units::MetersPerSecond{dv}};
  m.coherent_echo = true;
  m.peak_to_average = 500.0;
  return m;
}

radar::RadarMeasurement radar_jam() {
  radar::RadarMeasurement m;
  m.coherent_echo = false;
  m.power_alarm = true;
  return m;
}

TEST(PipelineDetector, CraSpecIsIdenticalToDefault) {
  core::PipelineOptions spec_options;
  spec_options.detector_spec = "cra";
  auto with_spec =
      core::make_default_pipeline(schedule_with({5, 10, 15}), spec_options);
  auto with_default = core::make_default_pipeline(schedule_with({5, 10, 15}));
  EXPECT_EQ(with_spec.detector_name(), "cra");

  // Clean stream, a jammed challenge, holdover, then silent clearance: the
  // two pipelines must agree field for field at every step.
  for (std::int64_t k = 0; k < 20; ++k) {
    radar::RadarMeasurement m;
    if (k == 5) {
      m = radar_jam();  // challenge slot violated: detection
    } else if (k == 10 || k == 15) {
      m = radar::RadarMeasurement{};  // silent challenge: clearance path
    } else {
      m = radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5);
    }
    const auto a = with_spec.process(k, m);
    const auto b = with_default.process(k, m);
    EXPECT_EQ(a.under_attack, b.under_attack) << "step " << k;
    EXPECT_EQ(a.attack_started, b.attack_started) << "step " << k;
    EXPECT_EQ(a.attack_cleared, b.attack_cleared) << "step " << k;
    EXPECT_EQ(a.estimated, b.estimated) << "step " << k;
    EXPECT_EQ(a.degradation, b.degradation) << "step " << k;
    EXPECT_EQ(a.distance_m.value(), b.distance_m.value()) << "step " << k;
    EXPECT_EQ(a.relative_velocity_mps.value(),
              b.relative_velocity_mps.value())
        << "step " << k;
  }
}

TEST(PipelineDetector, BadSpecThrowsAtConstruction) {
  core::PipelineOptions options;
  options.detector_spec = "lstm";
  EXPECT_THROW(static_cast<void>(core::make_default_pipeline(
                   schedule_with({5}), options)),
               std::invalid_argument);
}

TEST(PipelineDetector, ChiSquareBackendDrivesTheDegradationMachine) {
  core::PipelineOptions options;
  options.detector_spec = "chi2:consecutive=1,window=4,clear=2";
  // No challenge slots in range: chi2 needs no challenge hardware.
  auto p = core::make_default_pipeline(schedule_with({1000}), options);
  EXPECT_EQ(p.detector_name(), "chi2");

  std::int64_t k = 0;
  for (; k < 12; ++k) {
    const auto safe =
        p.process(k, radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5));
    EXPECT_FALSE(safe.under_attack);
    EXPECT_EQ(safe.degradation, core::DegradationState::kClean);
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);
  const auto attacked = p.process(k, radar_echo(base + 30.0, -0.5));
  EXPECT_TRUE(attacked.under_attack);
  EXPECT_TRUE(attacked.attack_started);
  EXPECT_TRUE(attacked.estimated);  // holdover substitutes immediately
  EXPECT_EQ(attacked.degradation, core::DegradationState::kUnderAttack);
}

// The satellite regression: a detector that flaps attack -> quiet -> attack
// inside the clearance debounce window must restart the quiet count without
// clear/start churn, keep the holdover budget counting across the flap, and
// only release the latched safe stop once a trusted sample lands after
// genuine clearance.
TEST(PipelineDetector, FlappingDetectorRespectsClearanceDebounce) {
  core::PipelineOptions options;
  options.detector_spec = "chi2:consecutive=1,window=4,clear=3";
  options.health.max_holdover_steps = 4;
  auto p = core::make_default_pipeline(schedule_with({1000}), options);

  std::int64_t k = 0;
  for (; k < 12; ++k) {
    static_cast<void>(
        p.process(k, radar_echo(100.0 - 0.5 * static_cast<double>(k), -0.5)));
  }
  const double base = 100.0 - 0.5 * static_cast<double>(k);

  // Attack: one outlier declares it (consecutive=1).
  ASSERT_TRUE(p.process(k, radar_echo(base + 30.0, -0.5)).under_attack);

  // One quiet sample is NOT enough to clear (clear=3 debounce)...
  const auto quiet1 = p.process(k + 1, radar_echo(base + 29.5, -0.5));
  EXPECT_FALSE(quiet1.attack_cleared);
  EXPECT_TRUE(quiet1.under_attack);

  // ...and a fresh outlier inside the window restarts the quiet count
  // without ever leaving the attacked state (no clear/start churn).
  const auto flap = p.process(k + 2, radar_echo(base - 10.0, -0.5));
  EXPECT_TRUE(flap.under_attack);
  EXPECT_FALSE(flap.attack_started) << "still the same attack";
  EXPECT_FALSE(flap.attack_cleared);

  // The holdover budget keeps counting across the flap: with
  // max_holdover_steps=4 the degraded safe stop latches before the clear=3
  // debounce can possibly be satisfied.
  const auto quiet2 = p.process(k + 3, radar_echo(base - 10.0, -0.5));
  EXPECT_FALSE(quiet2.attack_cleared);
  const auto quiet3 = p.process(k + 4, radar_echo(base - 10.5, -0.5));
  EXPECT_FALSE(quiet3.attack_cleared);
  EXPECT_TRUE(quiet2.safe_stop || quiet3.safe_stop);
  EXPECT_GE(p.health_stats().safe_stop_entries, 1u);

  // Clearance lands on the third consecutive quiet sample; from the next
  // trusted sample on, the attack and the latched safe stop are both gone.
  const auto cleared = p.process(k + 5, radar_echo(base - 11.0, -0.5));
  EXPECT_TRUE(cleared.attack_cleared);
  const auto released = p.process(k + 6, radar_echo(base - 11.5, -0.5));
  EXPECT_FALSE(released.under_attack);
  EXPECT_FALSE(released.safe_stop);
  EXPECT_EQ(released.degradation, core::DegradationState::kClean);
}

}  // namespace
}  // namespace safe::detect
