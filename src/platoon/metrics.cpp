#include "platoon/metrics.hpp"

#include <algorithm>

namespace safe::platoon {

core::FollowerOutcome string_outcome(
    const std::vector<VehicleOutcome>& followers) {
  if (followers.empty()) return {};
  core::FollowerOutcome merged = followers.front();
  for (std::size_t i = 1; i < followers.size(); ++i) {
    merged.merge(followers[i]);
  }
  return merged;
}

PropagationMetrics compute_propagation_metrics(
    const std::vector<VehicleOutcome>& followers, std::size_t attacked,
    units::Meters shock_threshold_m) {
  PropagationMetrics m;
  units::Meters attacked_peak{0.0};

  for (const VehicleOutcome& f : followers) {
    if (f.index >= attacked && f.min_gap_m < shock_threshold_m) {
      m.shock_depth = std::max(m.shock_depth, f.index - attacked + 1);
    }
    if (f.index == attacked) attacked_peak = f.peak_gap_deviation_m;
    if (f.safe_stop_steps > 0) ++m.safe_stop_vehicles;
    if (f.detection_step) ++m.detected_vehicles;
  }

  // Deviation ratios are only meaningful against a non-degenerate reference:
  // a clean run's numerical residue must not masquerade as amplification.
  if (attacked_peak.value() > 1.0e-9) {
    for (const VehicleOutcome& f : followers) {
      if (f.index <= attacked) continue;
      m.linf_amplification =
          std::max(m.linf_amplification,
                   f.peak_gap_deviation_m.value() / attacked_peak.value());
    }
  }
  return m;
}

}  // namespace safe::platoon
