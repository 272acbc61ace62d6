#include "dsp/music.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dsp/covariance.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "linalg/lanes.hpp"
#include "linalg/polynomial.hpp"

namespace safe::dsp {

using linalg::CMatrix;
using linalg::CVector;

namespace {

namespace lanes = linalg::lanes;

/// Entry (i, j) of the noise projector En En^H: v(i, k) conj(v(j, k))
/// added to +0 in k order, the order that fixes its rounding (and so the
/// roots and the figures). The scalar form of ProjectNoise, which redoes
/// the entries it flags.
Complex projector_entry(const CMatrix& v, std::size_t noise_dim,
                        std::size_t i, std::size_t j) {
  Complex acc{};
  for (std::size_t k = 0; k < noise_dim; ++k) {
    acc += v(i, k) * std::conj(v(j, k));
  }
  return acc;
}

/// The projector from the first noise_dim columns of v, L entries (i, j)
/// of a row per vector. Column k of v is copied to split planes at k * ld
/// (ld a multiple of L), so a vector holds v(j, k) for L rows j. Each lane
/// runs projector_entry's operations in its order; entries whose sum may
/// hold a NaN are redone by projector_entry.
struct ProjectNoise {
  template <std::size_t L>
  [[gnu::always_inline]] static void run(const CMatrix& v,
                                         std::size_t noise_dim,
                                         CMatrix& projector) {
    const std::size_t m = projector.rows();
    const std::size_t ld = (m + L - 1) / L * L;
    std::vector<double> v_re(noise_dim * ld, 0.0);
    std::vector<double> v_im(noise_dim * ld, 0.0);
    for (std::size_t k = 0; k < noise_dim; ++k) {
      for (std::size_t j = 0; j < m; ++j) {
        v_re[k * ld + j] = v(j, k).real();
        v_im[k * ld + j] = v(j, k).imag();
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; j += L) {
        lanes::SplitN<L> acc = lanes::splat<L>(0.0, 0.0);
        for (std::size_t k = 0; k < noise_dim; ++k) {
          const lanes::SplitN<L> vik =
              lanes::splat<L>(v(i, k).real(), v(i, k).imag());
          const lanes::SplitN<L> vjk =
              lanes::load<L>(&v_re[k * ld + j], &v_im[k * ld + j]);
          acc = acc + lanes::mul(vik, {vjk.re, -vjk.im});
        }
        const bool redo = lanes::maybe_nan(acc);
        for (std::size_t e = 0; e < L && j + e < m; ++e) {
          projector(i, j + e) = redo ? projector_entry(v, noise_dim, i, j + e)
                                     : Complex{acc.re[e], acc.im[e]};
        }
      }
    }
  }
};

/// MUSIC null spectrum a(omega)^H C a(omega) with a(omega)_i = e^{j omega i},
/// evaluated as dot(a, C * a). The scalar form of NullPowers, which redoes
/// the lanes it flags.
double null_power(const CMatrix& c, double omega) {
  const std::size_t m = c.rows();
  CVector a(m);
  CVector ca(m);
  for (std::size_t i = 0; i < m; ++i) {
    a[i] = std::polar(1.0, omega * static_cast<double>(i));
  }
  for (std::size_t i = 0; i < m; ++i) {
    Complex acc{};
    for (std::size_t j = 0; j < m; ++j) acc += c(i, j) * a[j];
    ca[i] = acc;
  }
  Complex power{};
  for (std::size_t i = 0; i < m; ++i) power += std::conj(a[i]) * ca[i];
  return std::real(power);
}

/// powers[n] = null_power(c, omegas[n]) for every candidate, L candidates
/// per vector. Lane l builds the steering vector of its own candidate
/// (std::polar, as null_power calls it) into split planes of m rows of L,
/// and runs null_power's operations in its order; only the real part of
/// the power is formed, since any product that __muldc3 would have redone
/// leaves a NaN there. A lane that may hold a NaN is redone by null_power.
struct NullPowers {
  template <std::size_t L>
  [[gnu::always_inline]] static void run(const CMatrix& c,
                                         const std::vector<double>& omegas,
                                         std::vector<double>& powers) {
    const std::size_t m = c.rows();
    std::vector<double> steer_re(m * L);
    std::vector<double> steer_im(m * L);
    for (std::size_t first = 0; first < omegas.size(); first += L) {
      const std::size_t count = std::min(L, omegas.size() - first);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t l = 0; l < L; ++l) {
          const double omega = l < count ? omegas[first + l] : 0.0;
          const Complex ai = std::polar(1.0, omega * static_cast<double>(i));
          steer_re[i * L + l] = ai.real();
          steer_im[i * L + l] = ai.imag();
        }
      }
      lanes::V<L> power{};
      for (std::size_t i = 0; i < m; ++i) {
        lanes::SplitN<L> cai = lanes::splat<L>(0.0, 0.0);
        for (std::size_t j = 0; j < m; ++j) {
          cai = cai +
                lanes::mul(lanes::splat<L>(c(i, j).real(), c(i, j).imag()),
                           lanes::load<L>(&steer_re[j * L], &steer_im[j * L]));
        }
        // Re(conj(a_i) * ca_i) = a_i.re ca_i.re - (-a_i.im) ca_i.im.
        const lanes::SplitN<L> ai =
            lanes::load<L>(&steer_re[i * L], &steer_im[i * L]);
        power = power + (ai.re * cai.re - (-ai.im) * cai.im);
      }
      for (std::size_t l = 0; l < count; ++l) {
        powers[first + l] = std::isnan(power[l])
                                ? null_power(c, omegas[first + l])
                                : power[l];
      }
    }
  }
};

/// Noise-subspace projector En En^H from the covariance of `signal`.
CMatrix noise_projector(const ComplexSignal& signal, std::size_t num_sources,
                        const MusicOptions& options) {
  const std::size_t m = options.covariance_order;
  if (num_sources >= m) {
    throw std::invalid_argument(
        "music: num_sources must be < covariance_order");
  }
  CMatrix r = options.forward_backward
                  ? forward_backward_covariance(signal, m)
                  : sample_covariance(signal, m);
  const auto eig = linalg::eigen_hermitian(std::move(r));
  // Eigenvalues ascending: the first m - num_sources eigenvectors span the
  // noise subspace.
  const std::size_t noise_dim = m - num_sources;
  CMatrix projector(m, m);
  lanes::dispatch<ProjectNoise, lanes::kMaxMusicWidth>(eig.eigenvectors,
                                                       noise_dim, projector);
  return projector;
}

/// D(z) = a^T(1/z) C a(z): coefficient of z^(l + m - 1) is the sum of the
/// l-th diagonal of C, l in [-(m-1), m-1].
linalg::Polynomial null_polynomial(const CMatrix& c) {
  const std::size_t m = c.rows();
  std::vector<Complex> coeffs(2 * m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      // Entry C(i, j) contributes to power (j - i) + (m - 1).
      const std::size_t power = j + (m - 1) - i;
      coeffs[power] += c(i, j);
    }
  }
  return linalg::Polynomial{std::move(coeffs)};
}

/// The num_sources frequencies root_music_frequencies returns, from the
/// roots of null_polynomial(c).
std::vector<double> pick_frequencies(const CMatrix& c,
                                     const std::vector<Complex>& roots,
                                     double sample_rate_hz,
                                     std::size_t num_sources) {
  // Keep roots inside or on the unit circle and rank them by the MUSIC
  // null-spectrum value a(omega)^H C a(omega): signal roots project onto
  // the noise subspace least. Circle-closeness alone is fooled when the
  // noise subspace is (near-)degenerate, e.g. at very high SNR.
  struct Candidate {
    Complex z;
    double null_power;
  };
  std::vector<Candidate> candidates;
  std::vector<double> omegas;
  candidates.reserve(roots.size());
  omegas.reserve(roots.size());
  for (const Complex& z : roots) {
    const double mag = std::abs(z);
    // Signal roots sit ON the circle (double roots at high SNR), and the
    // finite-precision split can land both of the pair slightly outside;
    // keep a generous band since ranking is by null power, not radius.
    if (mag > 1.05 || mag < 0.2) continue;
    candidates.push_back({z, 0.0});
    omegas.push_back(std::arg(z));
  }
  std::vector<double> powers(omegas.size());
  lanes::dispatch<NullPowers, lanes::kMaxMusicWidth>(c, omegas, powers);
  for (std::size_t n = 0; n < candidates.size(); ++n) {
    candidates[n].null_power = powers[n];
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.null_power < b.null_power;
            });

  // Adjacent roots of a conjugate-reciprocal pair map to the same omega;
  // suppress near-duplicate frequencies while picking the best.
  std::vector<double> freqs;
  freqs.reserve(num_sources);
  const double dup_tol = 1e-4;  // rad/sample
  for (const auto& cand : candidates) {
    if (freqs.size() == num_sources) break;
    const double omega = std::arg(cand.z);
    const double f = omega * sample_rate_hz / (2.0 * std::numbers::pi);
    bool duplicate = false;
    for (const double existing : freqs) {
      const double w_existing =
          existing * 2.0 * std::numbers::pi / sample_rate_hz;
      if (std::abs(w_existing - omega) < dup_tol) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) freqs.push_back(f);
  }
  return freqs;
}

}  // namespace

std::vector<double> music_pseudospectrum(const ComplexSignal& signal,
                                         std::size_t num_sources,
                                         std::size_t grid_size,
                                         const MusicOptions& options) {
  if (grid_size == 0) {
    throw std::invalid_argument("music_pseudospectrum: empty grid");
  }
  const CMatrix c = noise_projector(signal, num_sources, options);
  const std::size_t m = options.covariance_order;

  std::vector<double> spectrum(grid_size);
  for (std::size_t g = 0; g < grid_size; ++g) {
    const double omega = -std::numbers::pi +
                         2.0 * std::numbers::pi * static_cast<double>(g) /
                             static_cast<double>(grid_size);
    CVector a(m);
    for (std::size_t i = 0; i < m; ++i) {
      a[i] = std::polar(1.0, omega * static_cast<double>(i));
    }
    // a^H C a is real and >= 0 for a projector C.
    const CVector ca = c * a;
    const double denom = std::max(std::real(linalg::dot(a, ca)), 1e-300);
    spectrum[g] = 1.0 / denom;
  }
  return spectrum;
}

std::vector<double> root_music_frequencies(const ComplexSignal& signal,
                                           double sample_rate_hz,
                                           std::size_t num_sources,
                                           const MusicOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("root_music: sample rate must be > 0");
  }
  if (num_sources == 0) return {};
  const CMatrix c = noise_projector(signal, num_sources, options);
  return pick_frequencies(c, linalg::find_roots(null_polynomial(c)),
                          sample_rate_hz, num_sources);
}

std::array<std::vector<double>, 2> root_music_frequencies_pair(
    const ComplexSignal& first, const ComplexSignal& second,
    double sample_rate_hz, std::size_t num_sources,
    const MusicOptions& options) {
  if (sample_rate_hz <= 0.0) {
    throw std::invalid_argument("root_music: sample rate must be > 0");
  }
  if (num_sources == 0) return {};
  const CMatrix c_first = noise_projector(first, num_sources, options);
  const CMatrix c_second = noise_projector(second, num_sources, options);
  const auto roots = linalg::find_roots_pair(null_polynomial(c_first),
                                             null_polynomial(c_second));
  return {pick_frequencies(c_first, roots[0], sample_rate_hz, num_sources),
          pick_frequencies(c_second, roots[1], sample_rate_hz, num_sources)};
}

}  // namespace safe::dsp
