// Attack-propagation metrics over a finished platoon run.
//
// The single-pair case study asks "did the attacked follower crash"; a
// platoon asks how far the disturbance travels. The metrics here quantify
// that: how deep into the string the gap collapse reaches (shock depth),
// whether the string amplifies or attenuates the disturbance (L-infinity
// amplification, the classic string-stability criterion evaluated on peak
// gap deviations), and how the defense reacts along the string (per-vehicle
// detections, safe-stop cascades).
#pragma once

#include <cstddef>
#include <vector>

#include "core/car_following.hpp"
#include "units/units.hpp"

namespace safe::platoon {

/// One follower's outcome over a platoon run, with its place in the string.
struct VehicleOutcome : core::FollowerOutcome {
  std::size_t index = 0;  ///< 1-based follower index (0 is the leader).
};

/// What the string's merged outcome (string_outcome) cannot say: how the
/// disturbance and the defense's reaction spread along the string.
struct PropagationMetrics {
  /// How deep the gap collapse reaches: the largest (j - attacked + 1) over
  /// followers j >= attacked whose min gap fell below the near-collision
  /// threshold (half the controller's standstill spacing d_0 — a margin the
  /// string never crosses in a clean run, even when the leader brakes to a
  /// stop). 0 when no follower at or behind the attacked one did.
  std::size_t shock_depth = 0;
  /// String-stability L-infinity amplification: max over followers behind
  /// the attacked vehicle of peak_gap_deviation[j] / peak_gap_deviation
  /// [attacked]. > 1 means the string amplifies the disturbance as it
  /// travels upstream; 0 when the attacked vehicle saw no deviation or
  /// nobody follows it.
  double linf_amplification = 0.0;
  std::size_t safe_stop_vehicles = 0;  ///< Followers that entered safe-stop.
  std::size_t detected_vehicles = 0;   ///< Followers whose detector fired.
};

/// Every follower's outcome merged (core::FollowerOutcome::merge, in string
/// order): the string's smallest gap, its summed counts and detection and
/// health stats, its worst degradation. Empty input gives the default.
[[nodiscard]] core::FollowerOutcome string_outcome(
    const std::vector<VehicleOutcome>& followers);

/// Pure reduction of the per-follower outcomes; `attacked` is the 1-based
/// follower index the attack targeted and `shock_threshold_m` the
/// near-collision gap below which a follower counts toward shock_depth
/// (callers pass half the controller's standstill spacing).
[[nodiscard]] PropagationMetrics compute_propagation_metrics(
    const std::vector<VehicleOutcome>& followers, std::size_t attacked,
    units::Meters shock_threshold_m);

}  // namespace safe::platoon
