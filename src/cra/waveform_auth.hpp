// Signal-level challenge-response authentication (Section 5.2, literal
// form): the probe waveform itself is gated per sample, p'(t) = m(t) p(t),
// by a keyed PRBS, and the detector checks that suppressed sub-slots of the
// *received* baseband are silent.
//
// This is finer-grained than the epoch-level CRA (the `cra` detector
// backend in src/detect): a replay attacker with reaction latency L samples
// keeps radiating for L samples into every suppressed sub-slot, so
// detection probability is governed by the attacker's sampling speed —
// which makes the paper's Section 7 limitation ("detection fails when an
// adversary can sample faster than the defender") directly measurable.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/prbs.hpp"

namespace safe::cra {

struct WaveformAuthOptions {
  /// Samples per modulation chip (one m(t) value spans this many samples).
  std::size_t chip_length = 16;
  /// Probability (numer/denom) that a chip is suppressed.
  std::uint32_t suppress_numer = 1;
  std::uint32_t suppress_denom = 4;
  /// Energy ratio (suppressed-slot power / noise floor) above which a
  /// suppressed chip counts as violated.
  double violation_factor = 6.0;
  /// Fraction of suppressed chips that must be violated to declare attack
  /// (robustness against single-chip noise flukes).
  double violated_chip_fraction = 0.25;
};

/// Per-epoch modulation pattern m(t), one flag per sample (true = radiate).
class WaveformModulator {
 public:
  WaveformModulator(std::uint16_t key, const WaveformAuthOptions& options);

  /// Generates the modulation mask for the next epoch of `num_samples`.
  /// Consecutive calls advance the keyed PRBS, so masks never repeat.
  std::vector<bool> next_mask(std::size_t num_samples);

  [[nodiscard]] const WaveformAuthOptions& options() const { return options_; }

 private:
  WaveformAuthOptions options_;
  dsp::Prbs prbs_;
};

/// Applies a mask to a transmitted baseband segment: suppressed samples are
/// zeroed (the probe does not radiate there).
void apply_mask(dsp::ComplexSignal& signal, const std::vector<bool>& mask);

/// Simulates what the receiver sees when a replay attacker with
/// `attacker_latency_samples` of reaction time replays the (masked) probe:
/// the attacker's transmission follows the true mask, delayed by the
/// latency, so energy leaks into the first `latency` samples of every
/// suppressed run.
dsp::ComplexSignal replay_with_latency(const dsp::ComplexSignal& clean_echo,
                                       const std::vector<bool>& mask,
                                       std::size_t attacker_latency_samples);

/// Verdict of the per-chip energy check.
struct WaveformAuthResult {
  std::size_t suppressed_chips = 0;
  std::size_t violated_chips = 0;
  bool attack_detected = false;
};

/// Checks the received segment against the mask: measures mean power inside
/// each fully suppressed chip and flags chips whose power exceeds
/// violation_factor * noise_floor.
WaveformAuthResult verify_epoch(const dsp::ComplexSignal& received,
                                const std::vector<bool>& mask,
                                double noise_floor_w,
                                const WaveformAuthOptions& options);

}  // namespace safe::cra
