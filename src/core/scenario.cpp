#include "core/scenario.hpp"

#include <stdexcept>
#include <string>

#include "attack/spec.hpp"
#include "attack/window.hpp"
#include "radar/link_budget.hpp"
#include "units/units.hpp"

namespace safe::core {

namespace units = safe::units;

void validate(const ScenarioOptions& options) {
  if (options.horizon_steps <= 0) {
    throw std::invalid_argument(
        "ScenarioOptions: horizon_steps must be positive, got " +
        std::to_string(options.horizon_steps));
  }
  if (attack::attack_spec_enabled(options.attack_spec)) {
    const spec::Check check = attack::check_attack_spec(options.attack_spec);
    if (!check.ok()) {
      throw std::invalid_argument("ScenarioOptions: " + check.message);
    }
  }
  if ((options.attack != AttackKind::kNone ||
       attack::attack_spec_enabled(options.attack_spec)) &&
      options.attack_end_s < options.attack_start_s) {
    throw std::invalid_argument(
        "ScenarioOptions: attack_end_s (" +
        std::to_string(options.attack_end_s.value()) +
        " s) precedes attack_start_s (" +
        std::to_string(options.attack_start_s.value()) +
        " s); the attack window would be empty");
  }
}

Scenario make_paper_scenario(const ScenarioOptions& options) {
  validate(options);
  Scenario s;

  s.config.leader_speed_mps = units::from_mph(65.0);
  s.config.follower_speed_mps = units::from_mph(65.0);
  s.config.initial_gap_m = units::Meters{100.0};
  s.config.horizon_steps = options.horizon_steps;
  s.config.sample_time_s = units::Seconds{1.0};
  s.config.seed = options.seed;
  s.config.defense_enabled = options.defense_enabled;
  s.config.pipeline = options.pipeline;
  if (!options.fault_spec.empty() && options.fault_spec != "none") {
    s.config.faults = std::make_shared<fault::FaultSchedule>(
        fault::parse_fault_spec(options.fault_spec, options.seed));
  }

  s.config.acc.set_speed_mps = units::from_mph(67.0);
  // A bounded holdover budget is the graceful-degradation opt-in; pair it
  // with the conservative controller policy so a drifting free-run (or a
  // dead sensor reporting "no target") cannot command acceleration.
  s.config.acc.hold_speed_on_degraded_holdover =
      options.pipeline.health.max_holdover_steps > 0;
  if (options.pipeline.health.max_holdover_steps > 0) {
    s.config.acc.emergency_headway_s = units::Seconds{0.5};
  }

  s.config.radar.waveform = radar::bosch_lrr2_parameters();
  s.config.radar.estimator = options.estimator;
  s.config.radar.noise_floor_w =
      radar::thermal_noise_power_w(s.config.radar.waveform);

  switch (options.leader) {
    case LeaderScenario::kConstantDecel:
      s.leader = std::make_shared<vehicle::ConstantDecelProfile>();
      break;
    case LeaderScenario::kDecelThenAccel:
      s.leader = std::make_shared<vehicle::DecelThenAccelProfile>();
      break;
  }

  // The spec language wins over the legacy enum, which names its bare
  // spec; a bare "dos" inherits the scenario's jammer link budget so the
  // campaign power axis composes.
  std::string attack_spec = options.attack_spec;
  if (!attack::attack_spec_enabled(attack_spec)) {
    attack_spec = options.attack == AttackKind::kDosJammer        ? "dos"
                  : options.attack == AttackKind::kDelayInjection ? "delay"
                                                                  : "";
  }
  std::shared_ptr<attack::AttackModel> inner =
      attack::make_attack(attack_spec, options.jammer, options.seed);
  if (inner) {
    s.attack = std::make_shared<attack::ScheduledAttack>(
        std::move(inner), attack::AttackWindow{options.attack_start_s,
                                               options.attack_end_s});
  }

  s.schedule = std::make_shared<cra::FixedChallengeSchedule>(
      cra::paper_challenge_schedule(options.horizon_steps));
  return s;
}

}  // namespace safe::core
