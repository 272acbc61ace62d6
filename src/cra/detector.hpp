// Challenge-response attack detection (Algorithm 2, lines 7-9): its option
// and the detection statistics every detector backend keeps.
//
// At every challenge slot the detector compares the receiver's output with
// the expected silence: a non-zero output means an attacker (jammer or
// replayer) is radiating. Attack *clearance* is the dual check: once under
// attack, a challenge slot that comes back silent means the attacker has
// stopped, ending the estimation holdover. The state machine is the `cra`
// detector backend (detect::CraBackend).
#pragma once

#include <cstddef>

namespace safe::cra {

/// Cumulative detector statistics (ground truth supplied by the caller).
struct DetectionStats {
  std::size_t challenges = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t true_negatives = 0;
  std::size_t false_negatives = 0;
};

struct DetectorOptions {
  /// Consecutive silent challenges required before an attack is declared
  /// over. The paper clears on the first silent challenge (M = 1); a jammer
  /// that flaps between radiating and silent then bounces the pipeline
  /// between measured and estimated inputs every challenge. M >= 2 debounces
  /// that oscillation at the cost of M-1 extra holdover challenges.
  std::size_t clear_after_silent_challenges = 1;
};

}  // namespace safe::cra
