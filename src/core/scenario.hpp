// Canonical paper scenarios (Section 6.2) ready to run.
#pragma once

#include <memory>
#include <string>

#include "attack/attack.hpp"
#include "core/car_following.hpp"
#include "cra/challenge.hpp"
#include "radar/link_budget.hpp"
#include "vehicle/leader_profile.hpp"

namespace safe::core {

enum class LeaderScenario {
  kConstantDecel,  ///< Scenario (i): -0.1082 m/s^2 throughout.
  kDecelThenAccel, ///< Scenario (ii): -0.1082 then +0.012 m/s^2.
};

enum class AttackKind {
  kNone,
  kDosJammer,       ///< Section 6.2 jammer: 100 mW, 10 dBi, 155 MHz.
  kDelayInjection,  ///< +6 m counterfeit echo.
};

struct ScenarioOptions {
  LeaderScenario leader = LeaderScenario::kConstantDecel;
  AttackKind attack = AttackKind::kNone;
  /// Paper timings: DoS begins at k = 182, delay injection at k = 180; both
  /// persist to the end of the 300 s horizon.
  units::Seconds attack_start_s{182.0};
  units::Seconds attack_end_s{300.0};
  bool defense_enabled = true;
  /// A periodogram epoch costs about 1/7 of a root-MUSIC epoch (radar
  /// receiver, 512-sample segments, model order 16; ~0.12 against ~0.82 ms
  /// traced on a 4-vCPU AVX2 VM, GCC 12.2) with nearly identical
  /// closed-loop behaviour; tests use it, benches reproduce the paper with
  /// root-MUSIC.
  radar::BeatEstimator estimator = radar::BeatEstimator::kRootMusic;
  std::uint64_t seed = 1;
  std::int64_t horizon_steps = 300;
  /// Safe-measurement pipeline configuration (paper defaults).
  PipelineOptions pipeline{};
  /// Sensor-fault schedule in the `--fault` spec language (see
  /// fault/schedule.hpp); empty or "none" = no injected faults.
  std::string fault_spec{};
  /// DoS jammer link-budget parameters (paper Section 6.2 defaults); only
  /// consulted when `attack == kDosJammer`. Campaign sweeps vary
  /// `peak_power_w` to map the jamming-effectiveness boundary.
  radar::JammerParameters jammer{};
  /// Platoon spec in the `--platoon` mini-language (see platoon/spec.hpp).
  /// Empty or "none" = the single leader-follower pair. core:: itself never
  /// parses this; platoon::make_paper_platoon and the campaign engine do.
  std::string platoon_spec{};
  /// Attack in the `--attack` mini-language (see attack/spec.hpp). When it
  /// names an attack it wins over the legacy `attack` enum; a bare "dos"
  /// spec inherits this scenario's `jammer` link budget, and the entrainment
  /// attacker's jitter stream derives from `seed`. Empty or "none" = fall
  /// back to the enum.
  std::string attack_spec{};
};

/// Rejects impossible option combinations with std::invalid_argument:
/// an attack window that ends before it starts, or a non-positive horizon
/// (both would otherwise silently simulate nothing). Called by
/// make_paper_scenario; exposed for CLIs that assemble options piecemeal.
void validate(const ScenarioOptions& options);

/// Assembled simulation pieces for one run.
struct Scenario {
  CarFollowingConfig config;
  std::shared_ptr<const vehicle::LeaderProfile> leader;
  std::shared_ptr<const attack::AttackModel> attack;  ///< may be null
  std::shared_ptr<const cra::ChallengeSchedule> schedule;

  [[nodiscard]] CarFollowingResult run() const {
    return CarFollowingSimulation(config, leader, attack, schedule).run();
  }
};

/// Builds the paper's case study: 65 mph leader, 67 mph set-speed follower,
/// 100 m initial gap, Bosch-LRR2 radar with CRA modulation, challenges at
/// {15, 50, 175, 182, 189, ...}.
Scenario make_paper_scenario(const ScenarioOptions& options = {});

}  // namespace safe::core
