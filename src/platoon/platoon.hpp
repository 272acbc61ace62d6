// N-vehicle platoon simulation: the pair case study generalized to a string.
//
// Vehicle 0 is the leader driving a LeaderProfile; every follower i in
// [1, n-1] runs the complete sensing stack of the pair scene — radar echo
// scene -> RadarProcessor -> fault schedule -> SafeMeasurementPipeline with
// its own detector backend -> ACC hierarchy (or IDM) — against the vehicle
// directly ahead. The coupling is physical: follower i's controller output
// moves follower i's plant, which is follower i+1's radar target, so an
// attack on one vehicle's sensor stream propagates down the string through
// the gaps.
//
// Every follower is a core::Follower, the chain the pair scene runs, and
// the per-step order is the pair simulation's (leader steps, then each
// follower measures its already-stepped predecessor and steps), so a
// 2-vehicle platoon with default options is bit-identical to
// core::CarFollowingSimulation by construction; the regression tests pin
// it.
//
// Beyond the pair scene, followers with two vehicles ahead get a
// multi-target echo scene (the second-ahead return, RCS-attenuated), and an
// optional cut-in event injects a nearer ghost echo into one follower's
// scene for a time window — both exercise root-MUSIC's multi-component
// resolution and the detectors' nuisance rejection.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "attack/attack.hpp"
#include "core/car_following.hpp"
#include "core/scenario.hpp"
#include "cra/challenge.hpp"
#include "platoon/metrics.hpp"
#include "platoon/spec.hpp"
#include "sim/trace.hpp"
#include "vehicle/leader_profile.hpp"

namespace safe::platoon {

struct PlatoonConfig {
  /// Template for every follower's sensing/control stack (radar, pipeline,
  /// ACC parameters, speeds, horizon). `base.seed` seeds follower 1; deeper
  /// followers derive their radar seeds from it. `base.initial_gap_m` and
  /// `base.controller` are overridden by the platoon options below.
  core::CarFollowingConfig base{};
  PlatoonOptions platoon{};
};

/// Everything recorded about one platoon run.
struct PlatoonResult {
  /// Columns: time_s, leader_v_mps, then per follower i: true_gap<i>_m,
  /// safe_gap<i>_m, v<i>_mps, a<i>_mps2, attack<i>, degradation<i>.
  sim::Trace trace;
  bool collided = false;
  std::optional<std::int64_t> collision_step;
  /// Follower whose gap closed first (meaningful when `collided`).
  std::size_t collision_index = 0;
  std::vector<VehicleOutcome> followers;
  PropagationMetrics metrics;

  explicit PlatoonResult(std::size_t size) : trace(columns(size)) {}

  /// Trace column names for a platoon of `size` vehicles, in order.
  static std::vector<std::string> columns(std::size_t size);
};

class PlatoonSimulation {
 public:
  /// `attack` may be nullptr (clean run); it targets follower
  /// `config.platoon.attacked` only. `schedule` is shared by every
  /// follower's modulator and detector (a fleet-synchronized CRA).
  PlatoonSimulation(PlatoonConfig config,
                    std::shared_ptr<const vehicle::LeaderProfile> leader,
                    std::shared_ptr<const attack::AttackModel> attack,
                    std::shared_ptr<const cra::ChallengeSchedule> schedule);

  /// Runs the full horizon. Stops stepping every vehicle once any gap
  /// closes (the pair scene's post-collision freeze, string-wide) but keeps
  /// recording rows so all traces have `horizon_steps` rows.
  PlatoonResult run();

 private:
  PlatoonConfig config_;
  std::shared_ptr<const vehicle::LeaderProfile> leader_profile_;
  std::shared_ptr<const attack::AttackModel> attack_;
  std::shared_ptr<const cra::ChallengeSchedule> schedule_;
};

/// Assembled simulation pieces for one platoon run.
struct PlatoonScenario {
  PlatoonConfig config;
  std::shared_ptr<const vehicle::LeaderProfile> leader;
  std::shared_ptr<const attack::AttackModel> attack;  ///< may be null
  std::shared_ptr<const cra::ChallengeSchedule> schedule;

  [[nodiscard]] PlatoonResult run() const {
    return PlatoonSimulation(config, leader, attack, schedule).run();
  }
};

/// Builds the paper's case study as a platoon: every follower gets the pair
/// scene's radar, pipeline, and ACC configuration; `options.platoon_spec`
/// (the platoon mini-language) sets the string length, the attacked index,
/// and the per-vehicle detector. Throws std::invalid_argument on a bad
/// spec. With `platoon_spec` empty or "n=2" the attacked follower's run is
/// bit-identical to core::make_paper_scenario(options).run().
[[nodiscard]] PlatoonScenario make_paper_platoon(
    const core::ScenarioOptions& options);

}  // namespace safe::platoon
