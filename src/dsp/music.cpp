#include "dsp/music.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/covariance.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "linalg/polynomial.hpp"

namespace safe::dsp {

using linalg::CMatrix;
using linalg::CVector;

namespace {

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
  // noise subspace. Each entry sums v_k(i) conj(v_k(j)) in k order, the
  // order that fixes its rounding (and so the roots and the figures).
  const std::size_t noise_dim = m - num_sources;
  const CMatrix& v = eig.eigenvectors;
  CMatrix projector(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      Complex acc{};
      for (std::size_t k = 0; k < noise_dim; ++k) {
        acc += v(i, k) * std::conj(v(j, k));
      }
      projector(i, j) = acc;
    }
  }
  return projector;
}

/// MUSIC null spectrum a(omega)^H C a(omega) with a(omega)_i = e^{j omega i},
/// evaluated as dot(a, C * a) into caller-owned buffers.
double null_power(const CMatrix& c, double omega, CVector& a, CVector& ca) {
  const std::size_t m = c.rows();
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
  const std::size_t m = options.covariance_order;

  // D(z) = a^T(1/z) C a(z): coefficient of z^(l + m - 1) is the sum of the
  // l-th diagonal of C, l in [-(m-1), m-1].
  std::vector<Complex> coeffs(2 * m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      // Entry C(i, j) contributes to power (j - i) + (m - 1).
      const std::size_t power = j + (m - 1) - i;
      coeffs[power] += c(i, j);
    }
  }
  const linalg::Polynomial d{std::move(coeffs)};
  const auto roots = linalg::find_roots(d);

  // Keep roots inside or on the unit circle and rank them by the MUSIC
  // null-spectrum value a(omega)^H C a(omega): signal roots project onto
  // the noise subspace least. Circle-closeness alone is fooled when the
  // noise subspace is (near-)degenerate, e.g. at very high SNR.
  struct Candidate {
    Complex z;
    double null_power;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(roots.size());
  CVector steer(m);
  CVector c_steer(m);
  for (const Complex& z : roots) {
    const double mag = std::abs(z);
    // Signal roots sit ON the circle (double roots at high SNR), and the
    // finite-precision split can land both of the pair slightly outside;
    // keep a generous band since ranking is by null power, not radius.
    if (mag > 1.05 || mag < 0.2) continue;
    candidates.push_back({z, null_power(c, std::arg(z), steer, c_steer)});
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

}  // namespace safe::dsp
