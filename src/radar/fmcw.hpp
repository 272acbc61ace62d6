// FMCW (frequency-modulated continuous wave) radar waveform model.
//
// Implements the triangular-chirp beat-frequency relations of Section 4.1:
//
//   f_b+ = (2 d / c) (B_s / T_s) - 2 dv / lambda          (Eq. 5)
//   f_b- = (2 d / c) (B_s / T_s) + 2 dv / lambda          (Eq. 6)
//   d    = c T_s (f_b+ + f_b-) / (4 B_s)                  (Eq. 7)
//   dv   = (lambda / 4) (f_b- - f_b+)                     (Eq. 8)
//
// where dv is the range rate (positive = target receding).
#pragma once

#include <stdexcept>

#include "units/units.hpp"

namespace safe::radar {

using units::Decibels;
using units::Hertz;
using units::Meters;
using units::MetersPerSecond;
using units::Seconds;

/// Waveform and antenna parameters of a 77 GHz automotive FMCW radar.
struct FmcwParameters {
  Hertz carrier_frequency_hz{77.0e9};
  Hertz sweep_bandwidth_hz{150.0e6};     ///< B_s
  Seconds sweep_time_s{2.0e-3};          ///< T_s (full triangle)
  Meters wavelength_m{3.89e-3};          ///< lambda
  double tx_power_w = 10.0e-3;           ///< P_t (10 mW)
  Decibels antenna_gain_dbi{28.0};       ///< G
  Decibels system_loss_db{0.10};         ///< L
  Hertz receiver_bandwidth_hz{150.0e6};  ///< B (RF band, for jammer coupling)
  /// Post-dechirp anti-alias bandwidth: thermal noise integrates over this
  /// narrow beat-frequency band, not the RF sweep bandwidth.
  Hertz baseband_bandwidth_hz{1.0e6};
  Meters min_range_m{2.0};
  Meters max_range_m{200.0};
};

/// Bosch LRR2-class long-range radar profile used by the paper's case study.
FmcwParameters bosch_lrr2_parameters();

/// Throws std::invalid_argument when a parameter set is physically
/// meaningless (non-positive bandwidth/time/power or inverted range limits).
void validate_parameters(const FmcwParameters& params);

/// Beat-frequency pair extracted from the triangular sweep.
struct BeatFrequencies {
  Hertz up_hz{0.0};    ///< f_b+ (positive-slope segment)
  Hertz down_hz{0.0};  ///< f_b- (negative-slope segment)
};

/// Forward map (Eqs. 5-6): target range and range rate to beat frequencies.
/// `range_rate` is d(dv)/dt positive when the gap is opening.
BeatFrequencies beat_frequencies(const FmcwParameters& params, Meters distance,
                                 MetersPerSecond range_rate);

/// Measured range/range-rate pair.
struct RangeRate {
  Meters distance_m{0.0};
  MetersPerSecond range_rate_mps{0.0};
};

/// Inverse map (Eqs. 7-8): beat frequencies to range and range rate.
RangeRate range_rate_from_beats(const FmcwParameters& params,
                                const BeatFrequencies& beats);

/// Extra distance conjured by a delay-injection attack that adds
/// `extra_delay` of round-trip delay (c * tau / 2).
Meters spoofed_range_offset(Seconds extra_delay);

/// Round-trip delay an attacker must inject to fake `extra_distance` of
/// additional range.
Seconds injection_delay_for_offset(Meters extra_distance);

}  // namespace safe::radar
