#include "platoon/platoon.hpp"

#include <array>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/spec.hpp"
#include "attack/window.hpp"
#include "core/follower.hpp"
#include "fault/schedule.hpp"
#include "runtime/seed.hpp"  // header-only: no platoon -> runtime link dep
#include "telemetry/telemetry.hpp"
#include "vehicle/longitudinal.hpp"

namespace safe::platoon {

namespace units = safe::units;

namespace {

/// Radar seed for follower `index`: follower 1 keeps the base seed so a
/// 2-vehicle platoon replays the pair scene bit-for-bit; deeper followers
/// get counter-derived streams that never collide with it.
std::uint64_t follower_seed(std::uint64_t base_seed, std::size_t index) {
  if (index == 1) return base_seed;
  return runtime::derive_seed(base_seed, runtime::SeedStream::kVehicle,
                              static_cast<std::uint64_t>(index));
}

}  // namespace

std::vector<std::string> PlatoonResult::columns(std::size_t size) {
  std::vector<std::string> names{"time_s", "leader_v_mps"};
  for (std::size_t i = 1; i < size; ++i) {
    const std::string s = std::to_string(i);
    names.push_back("true_gap" + s + "_m");
    names.push_back("safe_gap" + s + "_m");
    names.push_back("v" + s + "_mps");
    names.push_back("a" + s + "_mps2");
    names.push_back("attack" + s);
    names.push_back("degradation" + s);
  }
  return names;
}

PlatoonSimulation::PlatoonSimulation(
    PlatoonConfig config,
    std::shared_ptr<const vehicle::LeaderProfile> leader,
    std::shared_ptr<const attack::AttackModel> attack,
    std::shared_ptr<const cra::ChallengeSchedule> schedule)
    : config_(std::move(config)),
      leader_profile_(std::move(leader)),
      attack_(std::move(attack)),
      schedule_(std::move(schedule)) {
  if (!leader_profile_) {
    throw std::invalid_argument("PlatoonSimulation: null leader profile");
  }
  if (!schedule_) {
    throw std::invalid_argument("PlatoonSimulation: null schedule");
  }
  if (config_.base.horizon_steps <= 0 ||
      config_.base.sample_time_s <= units::Seconds{0.0}) {
    throw std::invalid_argument("PlatoonSimulation: bad horizon/T");
  }
  const PlatoonOptions& po = config_.platoon;
  if (po.size < 2) {
    throw std::invalid_argument("PlatoonSimulation: need >= 2 vehicles");
  }
  if (po.attacked < 1 || po.attacked >= po.size) {
    throw std::invalid_argument(
        "PlatoonSimulation: attacked index out of range");
  }
  if (po.cutin.enabled() && po.cutin.into >= po.size) {
    throw std::invalid_argument(
        "PlatoonSimulation: cut-in index out of range");
  }
  if (po.initial_gap_m <= units::Meters{0.0}) {
    throw std::invalid_argument("PlatoonSimulation: bad initial gap");
  }
  // The platoon options own the controller and the gap (platoon.hpp).
  config_.base.controller = po.controller;
  config_.base.initial_gap_m = po.initial_gap_m;
}

PlatoonResult PlatoonSimulation::run() {
  telemetry::ScopedTimer run_span("platoon.run", "platoon");

  const core::CarFollowingConfig& base = config_.base;
  const units::Seconds t_sample = base.sample_time_s;
  const PlatoonOptions& po = config_.platoon;
  const units::Meters initial_gap = base.initial_gap_m;
  const std::size_t n_followers = po.size - 1;

  // Per-run clone of the attack model (pair-scene idiom): stateful attacks
  // restart their lock-on machines on every run().
  std::unique_ptr<attack::AttackModel> attack =
      attack_ ? attack_->clone() : nullptr;
  if (attack) attack->reset();

  // Vehicle j starts at (size-1-j) * gap so every adjacent gap is the
  // configured initial gap (the pair scene's layout for size 2).
  vehicle::VehicleState leader{
      .position_m = units::Meters{static_cast<double>(n_followers) *
                                  initial_gap.value()},
      .velocity_mps = base.leader_speed_mps};

  PlatoonResult result(po.size);
  // Reserved up front, so a follower built from its predecessor's state
  // never moves that predecessor.
  std::vector<core::Follower> followers;
  followers.reserve(n_followers);
  for (std::size_t i = 1; i <= n_followers; ++i) {
    // Only the attacked follower's stream carries the scheduled faults.
    followers.emplace_back(
        base, follower_seed(base.seed, i), schedule_,
        i == po.attacked ? base.faults.get() : nullptr,
        i == 1 ? leader : followers[i - 2].state(),
        vehicle::VehicleState{
            .position_m = units::Meters{static_cast<double>(n_followers - i) *
                                        initial_gap.value()},
            .velocity_mps = base.follower_speed_mps});
  }

  for (std::int64_t k = 0; k < base.horizon_steps; ++k) {
    const units::Seconds t = static_cast<double>(k) * t_sample;

    // --- Leader dynamics (Eq. 15).
    if (!result.collided) {
      leader =
          vehicle::step(leader, leader_profile_->acceleration(t), t_sample);
    }

    std::vector<double> row;
    row.reserve(2 + 6 * n_followers);
    row.push_back(t.value());
    row.push_back(leader.velocity_mps.value());

    // Followers in string order: vehicle i measures a predecessor that has
    // already stepped this sample — exactly the pair scene's sequencing.
    for (std::size_t i = 1; i <= n_followers; ++i) {
      core::Follower& f = followers[i - 1];
      const vehicle::VehicleState& pred =
          i == 1 ? leader : followers[i - 2].state();

      // Echoes beyond the predecessor's, in the order synthesis sums them.
      std::array<core::ExtraEcho, 2> extra;
      std::size_t n_extra = 0;
      // --- Multi-target scene: the vehicle two ahead reflects too (RCS
      // attenuated by the direct predecessor's occlusion). Only followers
      // with two vehicles ahead have one, so follower 1's scene — and with
      // it the 2-vehicle degeneracy — is untouched.
      if (po.multi_target && i >= 2) {
        const vehicle::VehicleState& two_ahead =
            i == 2 ? leader : followers[i - 3].state();
        extra[n_extra++] = core::ExtraEcho{
            .distance_m = vehicle::gap(two_ahead, f.state()),
            .range_rate_mps = vehicle::relative_velocity(two_ahead, f.state()),
            .rcs_m2 = base.target_rcs_m2 * po.second_target_rcs_scale,
        };
      }
      // --- Cut-in ghost: for the event window a vehicle merges in at a
      // fraction of the true gap. Nearer means ~R^-4 stronger, so the
      // receiver locks onto it and the controller brakes for it.
      if (po.cutin.enabled() && po.cutin.into == i &&
          t >= po.cutin.start_s &&
          t < po.cutin.start_s + po.cutin.duration_s) {
        extra[n_extra++] = core::ExtraEcho{
            .distance_m = units::Meters{po.cutin.gap_fraction *
                                        vehicle::gap(pred, f.state()).value()},
            .range_rate_mps = vehicle::relative_velocity(pred, f.state()),
            .rcs_m2 = base.target_rcs_m2,
        };
      }

      const core::FollowerStep s =
          f.step(k, t, pred, result.collided,
                 std::span<const core::ExtraEcho>(extra.data(), n_extra),
                 i == po.attacked ? attack.get() : nullptr);

      if (!result.collided && s.gap_after_m <= units::Meters{0.0}) {
        result.collided = true;
        result.collision_step = k;
        result.collision_index = i;
      }

      row.push_back(s.true_gap_m.value());
      row.push_back(s.safe.distance_m.value());
      row.push_back(f.state().velocity_mps.value());
      row.push_back(f.state().acceleration_mps2.value());
      row.push_back(s.attack_active ? 1.0 : 0.0);
      row.push_back(static_cast<double>(s.safe.degradation));
    }

    result.trace.append_row(row);
  }

  result.followers.reserve(n_followers);
  for (std::size_t i = 1; i <= n_followers; ++i) {
    result.followers.push_back(VehicleOutcome{followers[i - 1].outcome(), i});
  }
  const units::Meters standstill =
      base.controller == core::FollowerController::kIdm
          ? base.idm.min_gap_m
          : base.acc.min_gap_m;
  result.metrics = compute_propagation_metrics(
      result.followers, po.attacked, units::Meters{0.5 * standstill.value()});
  return result;
}

PlatoonScenario make_paper_platoon(const core::ScenarioOptions& options) {
  const std::string& spec = options.platoon_spec;
  PlatoonOptions po = parse_platoon_spec(spec == "none" ? "" : spec);

  // The pair factory assembles everything the followers share: speeds,
  // Bosch-LRR2 radar, ACC/pipeline profiles, the attack window, and the
  // paper's challenge schedule.
  core::Scenario pair = core::make_paper_scenario(options);

  PlatoonScenario s;
  s.config.base = pair.config;
  s.config.platoon = po;
  if (!po.detector_spec.empty()) {
    s.config.base.pipeline.detector_spec = po.detector_spec;
  }
  if (!po.fault_spec.empty()) {
    s.config.base.faults = std::make_shared<fault::FaultSchedule>(
        fault::parse_fault_spec(po.fault_spec, options.seed));
  }
  s.leader = pair.leader;
  s.attack = pair.attack;
  if (!po.attack_spec.empty()) {
    // Per-string override: the spec's attack replaces whatever the base
    // options selected, inside the same scenario attack window.
    s.attack = std::make_shared<attack::ScheduledAttack>(
        attack::make_attack(po.attack_spec, options.jammer, options.seed),
        attack::AttackWindow{options.attack_start_s, options.attack_end_s});
  }
  s.schedule = pair.schedule;
  return s;
}

}  // namespace safe::platoon
