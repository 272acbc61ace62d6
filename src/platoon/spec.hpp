// The `--platoon <spec>` mini-language (DESIGN.md §16).
//
// Grammar: the spec kernel's bare `k=v,...` form (spec/spec.hpp).
//
// Keys:
//   n            vehicles including the leader (2..64; default 2)
//   attacked     follower index whose sensor stream the attack/fault
//                schedule targets (1..n-1; default 1)
//   controller   acc | idm (default acc: the paper's hierarchy)
//   detector     per-vehicle detection backend (detect mini-language);
//                quote values containing commas
//   fault        fault schedule for the attacked vehicle (fault
//                mini-language); quote values containing commas
//   attack       attack on the attacked vehicle's stream (attack
//                mini-language); quote values containing commas;
//                "" = inherit the base scenario's attack
//   gap          initial inter-vehicle gap in meters (default 100)
//   multi_target on | off: second-ahead echoes in each follower's scene
//                (default on; follower 1 never has one, so a 2-vehicle
//                platoon degenerates to the pair scene either way)
//   rcs_scale    RCS attenuation of the second-ahead echo, (0, 1]
//   cutin_into   follower index that sees a cut-in ghost vehicle
//   cutin_start  cut-in start time [s] (required with cutin_into)
//   cutin_len    cut-in duration [s] (required with cutin_into)
//   cutin_frac   cut-in range as a fraction of the true gap, (0, 1)
//
// Examples:
//   "n=8,attacked=3"
//   "n=4,attacked=1,controller=idm,gap=80"
//   "n=8,attacked=4,detector=\"chi2:threshold=9.21,window=16\""
//   "n=6,attacked=1,cutin_into=3,cutin_start=120,cutin_len=30"
//
// An empty spec selects the 2-vehicle defaults (== the pair case study).
// Parsing throws std::invalid_argument only; check_platoon_spec() offers
// the non-throwing form. Both share one implementation, so the checker and
// the builder always agree (the fuzz harness cross-checks them).
#pragma once

#include <cstddef>
#include <string>

#include "core/car_following.hpp"
#include "spec/spec.hpp"
#include "units/units.hpp"

namespace safe::platoon {

/// A ghost vehicle cutting into one follower's lane: for the event window
/// its echo appears at `gap_fraction` of the true gap, so the radar locks
/// onto the nearer return and the controller brakes for a car that is not
/// its predecessor.
struct CutInEvent {
  std::size_t into = 0;  ///< Follower index seeing the ghost; 0 = disabled.
  units::Seconds start_s{0.0};
  units::Seconds duration_s{0.0};
  // Dimensionless ratio of the true gap, not a distance; must sit in (0, 1).
  double gap_fraction = 0.5;  // lint: allow(raw-double-name)

  [[nodiscard]] bool enabled() const { return into > 0; }
};

/// Everything the platoon spec mini-language configures. Empty sub-spec
/// strings mean "inherit from the base ScenarioOptions".
struct PlatoonOptions {
  std::size_t size = 2;      ///< Vehicles including the leader.
  std::size_t attacked = 1;  ///< Follower index under attack (1-based).
  core::FollowerController controller =
      core::FollowerController::kAccHierarchy;
  std::string detector_spec;  ///< detect mini-language; "" = inherit.
  std::string fault_spec;     ///< fault mini-language; "" = inherit.
  std::string attack_spec;    ///< attack mini-language; "" = inherit.
  units::Meters initial_gap_m{100.0};
  bool multi_target = true;
  /// Power scale applied to the second-ahead echo's RCS (partial occlusion
  /// by the direct predecessor).
  double second_target_rcs_scale = 0.25;
  CutInEvent cutin{};
};

/// Validates a spec without building anything (and without throwing).
[[nodiscard]] spec::Check check_platoon_spec(const std::string& spec);

/// Parses a spec into options. Throws std::invalid_argument on any spec
/// check_platoon_spec() would reject.
[[nodiscard]] PlatoonOptions parse_platoon_spec(const std::string& spec);

/// One-line usage string for CLIs exposing `--platoon`.
[[nodiscard]] std::string platoon_spec_help();

}  // namespace safe::platoon
