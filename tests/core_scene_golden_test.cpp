// Byte gate on the two defended scenes that are not the radar pair: the
// park-assist study (ultrasonic and lidar) and the Section 3 LTI case (DC
// motor and double integrator), each run defended and undefended on the
// PRBS schedules of their unit tests. Per run the table pins an FNV-1a hash
// over the bits of every trace value (row by row), the detection step (-1
// for none) and the false-positive and false-negative counts.
//
// Only a change that means to move these runs re-baselines the table; a
// failing run prints the line it produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/lti_case.hpp"
#include "core/parking.hpp"

namespace safe::core {
namespace {

struct Outcome {
  std::uint64_t hash = 0;
  std::int64_t detected = -1;
  std::size_t fp = 0;
  std::size_t fn = 0;

  bool operator==(const Outcome&) const = default;
};

struct Pin {
  const char* name;
  Outcome want;
};

Outcome outcome_of(const sim::Trace& trace,
                   const std::optional<std::int64_t>& detected,
                   const cra::DetectionStats& stats) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t r = 0; r < trace.num_rows(); ++r) {
    for (std::size_t c = 0; c < trace.num_columns(); ++c) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &trace.column(c)[r], sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return {h, detected.value_or(-1), stats.false_positives,
          stats.false_negatives};
}

void expect_pins(const std::vector<std::pair<std::string, Outcome>>& got,
                 const std::vector<Pin>& pins) {
  EXPECT_EQ(got.size(), pins.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Outcome& o = got[i].second;
    EXPECT_TRUE(i < pins.size() && got[i].first == pins[i].name &&
                o == pins[i].want)
        << "    {\"" << got[i].first << "\", {0x" << std::hex << o.hash
        << std::dec << "ULL, " << o.detected << ", " << o.fp << ", " << o.fn
        << "}},";
  }
}

// --- Park-assist ------------------------------------------------------------

ParkingAttack spoof(double start, double end, double offset) {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kSpoof;
  a.window = attack::AttackWindow{units::Seconds{start}, units::Seconds{end}};
  a.spoof_offset_m = units::Meters{offset};
  return a;
}

ParkingAttack blinder(double start, double end, double power) {
  ParkingAttack a;
  a.kind = ParkingAttack::Kind::kDos;
  a.window = attack::AttackWindow{units::Seconds{start}, units::Seconds{end}};
  a.blinder_power_w = power;
  return a;
}

ParkingConfig lidar_config() {
  ParkingConfig cfg;
  cfg.sensor = sensors::lidar_parameters();
  cfg.initial_clearance_m = units::Meters{8.0};
  cfg.stop_distance_m = units::Meters{0.6};
  return cfg;
}

const std::vector<Pin> kParkingPins = {
    {"ultrasonic/clean/on", {0x7c9ad1b270124c88ULL, -1, 0, 0}},
    {"ultrasonic/clean/off", {0x639d01e076aa4581ULL, -1, 0, 0}},
    {"ultrasonic/spoof@40-200/on", {0x4bbf16ad9f4eadd0ULL, 40, 0, 0}},
    {"ultrasonic/spoof@40-200/off", {0xa3bdc8d4f7d615b4ULL, 40, 0, 0}},
    {"ultrasonic/spoof@40-80/on", {0x2b198e2f5c92ee01ULL, 40, 0, 0}},
    {"ultrasonic/spoof@40-80/off", {0xa3bdc8d4f7d615b4ULL, 40, 0, 0}},
    {"ultrasonic/spoof@17-60/on", {0x6eb1b960fc4e019ULL, 18, 0, 0}},
    {"ultrasonic/spoof@17-60/off", {0x8c0402a83ed0e959ULL, 18, 0, 0}},
    {"ultrasonic/blinder@40-200/on", {0x5c36cb9336c018a7ULL, 40, 0, 0}},
    {"ultrasonic/blinder@40-200/off", {0xbfe3cda2be334e59ULL, 40, 0, 0}},
    {"ultrasonic/blinder@40-80/on", {0xe5014653163e83efULL, 40, 0, 0}},
    {"ultrasonic/blinder@40-80/off", {0xbfe3cda2be334e59ULL, 40, 0, 0}},
    {"ultrasonic/blinder@13-70/on", {0x6f2c62135de02556ULL, 18, 0, 0}},
    {"ultrasonic/blinder@13-70/off", {0x7008cc07b971b324ULL, 18, 0, 0}},
    {"ultrasonic/weak-blinder@40-200/on", {0x90e6587f19940ff6ULL, 40, 0, 0}},
    {"ultrasonic/weak-blinder@40-200/off", {0x469a4fe086aea50aULL, 40, 0, 0}},
    {"lidar/clean/on", {0x30534ea2b58dd590ULL, -1, 0, 0}},
    {"lidar/clean/off", {0x935d7c04aade7bc1ULL, -1, 0, 0}},
    {"lidar/spoof+1@40-200/on", {0x584c8b48cd67a836ULL, 40, 0, 0}},
    {"lidar/spoof+1@40-200/off", {0x72327b4b3d5d003ULL, 40, 0, 0}},
    {"lidar/spoof+2@40-200/on", {0x48733274703a9af8ULL, 40, 0, 0}},
    {"lidar/spoof+2@40-200/off", {0x9009772521c01d3ULL, 40, 0, 0}},
    {"lidar/blinder@40-90/on", {0x35ae7cbdfba23134ULL, 40, 0, 0}},
    {"lidar/blinder@40-90/off", {0x4926af92edf07116ULL, 40, 0, 0}},
};

TEST(SceneTraceGolden, ParkAssistRunsKeepTheirBits) {
  const auto schedule =
      std::make_shared<cra::PrbsChallengeSchedule>(0x0B5E, 1, 5, 200);
  struct Case {
    const char* name;
    ParkingConfig config;
    std::optional<ParkingAttack> attack;
  };
  const Case cases[] = {
      {"ultrasonic/clean", ParkingConfig{}, std::nullopt},
      {"ultrasonic/spoof@40-200", ParkingConfig{}, spoof(40, 200, 1.0)},
      {"ultrasonic/spoof@40-80", ParkingConfig{}, spoof(40, 80, 1.0)},
      {"ultrasonic/spoof@17-60", ParkingConfig{}, spoof(17, 60, 1.0)},
      {"ultrasonic/blinder@40-200", ParkingConfig{}, blinder(40, 200, 1e-3)},
      {"ultrasonic/blinder@40-80", ParkingConfig{}, blinder(40, 80, 1e-3)},
      {"ultrasonic/blinder@13-70", ParkingConfig{}, blinder(13, 70, 1e-3)},
      {"ultrasonic/weak-blinder@40-200", ParkingConfig{},
       blinder(40, 200, 1e-6)},
      {"lidar/clean", lidar_config(), std::nullopt},
      {"lidar/spoof+1@40-200", lidar_config(), spoof(40, 200, 1.0)},
      {"lidar/spoof+2@40-200", lidar_config(), spoof(40, 200, 2.0)},
      {"lidar/blinder@40-90", lidar_config(), blinder(40, 90, 1e-3)},
  };
  std::vector<std::pair<std::string, Outcome>> got;
  for (const Case& c : cases) {
    for (const bool defended : {true, false}) {
      ParkingConfig cfg = c.config;
      cfg.defense_enabled = defended;
      const ParkingResult r =
          ParkingSimulation(cfg, schedule, c.attack).run();
      got.emplace_back(std::string(c.name) + (defended ? "/on" : "/off"),
                       outcome_of(r.trace, r.detection_step,
                                  r.detection_stats));
    }
  }
  expect_pins(got, kParkingPins);
}

// --- Section 3 LTI case -----------------------------------------------------

LtiOutputAttack lti_attack(LtiOutputAttack::Kind kind, std::size_t outputs,
                           std::int64_t start, std::int64_t end,
                           double value) {
  LtiOutputAttack a;
  a.kind = kind;
  a.window = attack::AttackWindow{units::Seconds{static_cast<double>(start)},
                                  units::Seconds{static_cast<double>(end)}};
  a.value = linalg::RVector(outputs, value);
  return a;
}

const std::vector<Pin> kLtiPins = {
    {"dc-motor/clean/on", {0x45a485df20b4b231ULL, -1, 0, 0}},
    {"dc-motor/clean/off", {0xcf707cbaf6743de0ULL, -1, 0, 0}},
    {"dc-motor/bias@150-300/on", {0x879e6a33578849b9ULL, 154, 0, 0}},
    {"dc-motor/bias@150-300/off", {0xa42969dfcab94e6ULL, 154, 0, 0}},
    {"dc-motor/bias@100-160/on", {0x814af7e619f4875ULL, 104, 0, 0}},
    {"dc-motor/bias@100-160/off", {0x210407f678d4a62aULL, 104, 0, 0}},
    {"dc-motor/dos@100-160/on", {0x2d6f767bcb33652aULL, 104, 0, 0}},
    {"dc-motor/dos@100-160/off", {0x659afbc417cf53e9ULL, 104, 0, 0}},
    {"double-integrator/clean/on", {0xed5ae93d6aa5291fULL, -1, 0, 0}},
    {"double-integrator/clean/off", {0xbc35c5d9a5a089cbULL, -1, 0, 0}},
    {"double-integrator/dos@challenge+20/on",
     {0xb4383da733585867ULL, 154, 0, 0}},
    {"double-integrator/dos@challenge+20/off",
     {0x58a3e99c20af45f0ULL, 154, 0, 0}},
    {"double-integrator/dos@150-300/on", {0x4b1462c28af2c344ULL, 154, 0, 0}},
    {"double-integrator/dos@150-300/off", {0xa943c363e094486aULL, 154, 0, 0}},
    {"double-integrator/dos25@100-200/on", {0xc8f09c980052bfffULL, 104, 0, 0}},
    {"double-integrator/dos25@100-200/off", {0xef0f6a6ea2d2c72ULL, 104, 0, 0}},
    {"double-integrator/bias@120-170/on", {0x31e17c9eb56b3114ULL, 121, 0, 0}},
    {"double-integrator/bias@120-170/off", {0x29077f3445d0bb5bULL, 121, 0, 0}},
};

TEST(SceneTraceGolden, LtiRunsKeepTheirBits) {
  const auto schedule =
      std::make_shared<cra::PrbsChallengeSchedule>(0x5151, 1, 5, 300);
  std::int64_t onset = 150;
  while (!schedule->is_challenge(onset)) ++onset;
  constexpr auto kBias = LtiOutputAttack::Kind::kBias;
  constexpr auto kDos = LtiOutputAttack::Kind::kDos;
  struct Case {
    const char* name;
    LtiCaseConfig config;
    std::optional<LtiOutputAttack> attack;
  };
  const Case cases[] = {
      {"dc-motor/clean", make_dc_motor_case(), std::nullopt},
      {"dc-motor/bias@150-300", make_dc_motor_case(),
       lti_attack(kBias, 1, 150, 300, 0.5)},
      {"dc-motor/bias@100-160", make_dc_motor_case(),
       lti_attack(kBias, 1, 100, 160, 0.5)},
      {"dc-motor/dos@100-160", make_dc_motor_case(),
       lti_attack(kDos, 1, 100, 160, 3.0)},
      {"double-integrator/clean", make_double_integrator_case(),
       std::nullopt},
      {"double-integrator/dos@challenge+20", make_double_integrator_case(),
       lti_attack(kDos, 2, onset, onset + 20, 50.0)},
      {"double-integrator/dos@150-300", make_double_integrator_case(),
       lti_attack(kDos, 2, 150, 300, 50.0)},
      {"double-integrator/dos25@100-200", make_double_integrator_case(),
       lti_attack(kDos, 2, 100, 200, 25.0)},
      {"double-integrator/bias@120-170", make_double_integrator_case(),
       lti_attack(kBias, 2, 120, 170, 1.0)},
  };
  std::vector<std::pair<std::string, Outcome>> got;
  for (const Case& c : cases) {
    for (const bool defended : {true, false}) {
      LtiCaseConfig cfg = c.config;
      cfg.defense_enabled = defended;
      const LtiCaseResult r = LtiSecureCase(cfg, schedule, c.attack).run();
      got.emplace_back(std::string(c.name) + (defended ? "/on" : "/off"),
                       outcome_of(r.trace, r.detection_step,
                                  r.detection_stats));
    }
  }
  expect_pins(got, kLtiPins);
}

}  // namespace
}  // namespace safe::core
