// MUSIC and root-MUSIC super-resolution frequency estimation.
//
// The paper extracts FMCW beat frequencies with MATLAB's root-MUSIC; this is
// the equivalent implementation built on our own eigensolver and polynomial
// rooting (see DESIGN.md, substitution table).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "dsp/fft.hpp"
#include "linalg/matrix.hpp"

namespace safe::dsp {

struct MusicOptions {
  std::size_t covariance_order = 16;  ///< Snapshot dimension M (> sources).
  bool forward_backward = true;       ///< FB-average the covariance.
};

/// MUSIC pseudospectrum 1 / (a^H En En^H a) evaluated on a uniform grid of
/// `grid_size` normalized frequencies omega in [-pi, pi).
///
/// Returned values are the pseudospectrum heights; grid point i corresponds
/// to omega_i = -pi + 2*pi*i/grid_size.
std::vector<double> music_pseudospectrum(const ComplexSignal& signal,
                                         std::size_t num_sources,
                                         std::size_t grid_size,
                                         const MusicOptions& options = {});

/// root-MUSIC estimate of `num_sources` complex-exponential frequencies.
///
/// Returns signed frequencies in Hz in (-fs/2, fs/2] from the roots with
/// 0.2 <= |z| <= 1.05, sorted by their MUSIC null-spectrum power
/// a(omega)^H En En^H a(omega), lowest (best) first, near-duplicate
/// frequencies dropped. Throws std::invalid_argument when the signal is too
/// short for the covariance order or when num_sources >= covariance_order.
std::vector<double> root_music_frequencies(const ComplexSignal& signal,
                                           double sample_rate_hz,
                                           std::size_t num_sources,
                                           const MusicOptions& options = {});

/// {root_music_frequencies(first, ...), root_music_frequencies(second, ...)},
/// bit for bit, with both null-spectrum polynomials rooted as one
/// linalg::find_roots_pair: the up and down segments of one FMCW epoch.
/// Throws what root_music_frequencies throws for either signal.
std::array<std::vector<double>, 2> root_music_frequencies_pair(
    const ComplexSignal& first, const ComplexSignal& second,
    double sample_rate_hz, std::size_t num_sources,
    const MusicOptions& options = {});

}  // namespace safe::dsp
