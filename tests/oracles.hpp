// Oracles for the split-plane kernels: the scalar loops the root-MUSIC
// kernels replaced, kept as the reference they must match bit for bit, and
// the helpers that run a check at one lane width and compare its results.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <numeric>
#include <vector>

#include "dsp/covariance.hpp"
#include "dsp/fft.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "linalg/lanes.hpp"
#include "linalg/matrix.hpp"
#include "linalg/polynomial.hpp"

namespace safe::oracles {

using Complex = std::complex<double>;

/// Runs `body` with the split-plane kernels at `lanes` doubles per vector,
/// or skips the test on a CPU that cannot run that width.
inline void at_width(std::size_t lanes, const std::function<void()>& body) {
  if (!linalg::lanes::width_supported(lanes)) {
    GTEST_SKIP() << lanes << " lanes need an extension this CPU lacks "
                 << "(AVX2 for four, AVX-512F for eight)";
  }
  const linalg::lanes::detail::ScopedWidth width(lanes);
  body();
}

/// Bits equal, or both NaN. NaN payloads are not pinned: which operand's
/// NaN an a + b returns depends on how the compiler orders the operands,
/// which differs between the two- and four-lane builds of a fallback and
/// under sanitizer instrumentation.
inline bool same_value(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::memcmp(&a, &b, sizeof a) == 0;
}

inline bool same_value(const Complex& a, const Complex& b) {
  return same_value(a.real(), b.real()) && same_value(a.imag(), b.imag());
}

/// same_value over n entries.
template <typename T>
bool same_values(const T* a, const T* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_value(a[i], b[i])) return false;
  }
  return true;
}

inline bool same_values(const linalg::CMatrix& a, const linalg::CMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same_values(a.data(), b.data(), a.rows() * a.cols());
}

inline bool same_values(const std::vector<double>& a,
                        const std::vector<double>& b) {
  return a.size() == b.size() && same_values(a.data(), b.data(), a.size());
}

// --- covariance ---------------------------------------------------------------

/// The snapshot triple loop the lag-product kernel replaced.
inline linalg::CMatrix reference_sample_covariance(
    const dsp::ComplexSignal& signal, std::size_t order) {
  const std::size_t snapshots = signal.size() - order + 1;
  linalg::CMatrix r(order, order);
  for (std::size_t n = 0; n < snapshots; ++n) {
    for (std::size_t i = 0; i < order; ++i) {
      const Complex yi = signal[n + i];
      for (std::size_t j = 0; j < order; ++j) {
        r(i, j) += yi * std::conj(signal[n + j]);
      }
    }
  }
  const double scale = 1.0 / static_cast<double>(snapshots);
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t j = 0; j < order; ++j) r(i, j) *= scale;
  }
  return r;
}

inline linalg::CMatrix reference_forward_backward(
    const dsp::ComplexSignal& signal, std::size_t order) {
  const linalg::CMatrix fwd = reference_sample_covariance(signal, order);
  linalg::CMatrix avg = fwd;
  avg += dsp::exchange_conjugate(fwd);
  avg *= Complex{0.5, 0.0};
  return avg;
}

// --- Jacobi eigensolver -------------------------------------------------------

/// The cyclic Jacobi loop the split-plane kernel replaced: rotations applied
/// to columns and rows of the full matrix with std::complex arithmetic.
template <typename T>
linalg::HermitianEigenResult<T> reference_eigen_hermitian(
    linalg::Matrix<T> a, linalg::real_of_t<T> tol = 1e-13,
    std::size_t max_sweeps = 64) {
  using R = linalg::real_of_t<T>;
  using linalg::conj_scalar;
  const std::size_t n = a.rows();
  linalg::Matrix<T> v = linalg::Matrix<T>::identity(n);
  const auto off_diagonal_norm2 = [&] {
    R acc{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += std::norm(std::complex<R>(a(i, j)));
      }
    }
    return acc;
  };

  linalg::HermitianEigenResult<T> result;
  const R scale = linalg::frobenius_norm(a);
  const R threshold2 = (scale == R{} ? R{1} : scale * scale) * tol * tol;

  std::size_t sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm2() <= threshold2) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const T apq = a(p, q);
        const R alpha = std::abs(apq);
        if (alpha <= tol * scale / static_cast<R>(n * n) || alpha == R{}) {
          continue;
        }
        const R app = std::real(std::complex<R>(a(p, p)));
        const R aqq = std::real(std::complex<R>(a(q, q)));
        const T phase = apq / static_cast<T>(alpha);

        const R tau = (aqq - app) / (R{2} * alpha);
        R t;
        if (tau >= R{}) {
          t = R{1} / (tau + std::sqrt(R{1} + tau * tau));
        } else {
          t = R{-1} / (-tau + std::sqrt(R{1} + tau * tau));
        }
        const R c = R{1} / std::sqrt(R{1} + t * t);
        const R s = t * c;

        const R app_new = c * c * app - R{2} * c * s * alpha + s * s * aqq;
        const R aqq_new = s * s * app + R{2} * c * s * alpha + c * c * aqq;

        for (std::size_t i = 0; i < n; ++i) {
          if (i == p || i == q) continue;
          const T aip = a(i, p);
          const T aiq = a(i, q);
          const T new_ip = aip * static_cast<T>(c) -
                           aiq * static_cast<T>(s) * conj_scalar(phase);
          const T new_iq = aip * static_cast<T>(s) * phase +
                           aiq * static_cast<T>(c);
          a(i, p) = new_ip;
          a(p, i) = conj_scalar(new_ip);
          a(i, q) = new_iq;
          a(q, i) = conj_scalar(new_iq);
        }
        a(p, p) = static_cast<T>(app_new);
        a(q, q) = static_cast<T>(aqq_new);
        a(p, q) = T{};
        a(q, p) = T{};

        for (std::size_t i = 0; i < n; ++i) {
          const T vip = v(i, p);
          const T viq = v(i, q);
          v(i, p) = vip * static_cast<T>(c) -
                    viq * static_cast<T>(s) * conj_scalar(phase);
          v(i, q) = vip * static_cast<T>(s) * phase + viq * static_cast<T>(c);
        }
      }
    }
  }
  result.sweeps = sweep;
  result.converged = off_diagonal_norm2() <= threshold2;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  linalg::Vector<R> raw(n);
  for (std::size_t i = 0; i < n; ++i) {
    raw[i] = std::real(std::complex<R>(a(i, i)));
  }
  std::sort(order.begin(), order.end(),
            [&raw](std::size_t x, std::size_t y) { return raw[x] < raw[y]; });
  result.eigenvalues = linalg::Vector<R>(n);
  result.eigenvectors = linalg::Matrix<T>(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = raw[order[k]];
    result.eigenvectors.set_col(k, v.col(order[k]));
  }
  return result;
}

// --- Durand-Kerner ------------------------------------------------------------

/// What the Durand-Kerner loop the pipelined kernel replaced did on one call.
struct ReferenceTrace {
  std::size_t sweeps = 0;  ///< Sweeps run, counting the converged one.
  std::size_t nudges = 0;  ///< Collision nudges taken.
  std::vector<double> max_steps;  ///< Largest |step| of each sweep.
};

/// The Durand-Kerner loop the pipelined kernel replaced: per root, the full
/// product over the other roots, Horner, and std::abs (hypot) for both the
/// collision and the convergence test.
inline std::vector<Complex> reference_find_roots(
    const linalg::Polynomial& p, ReferenceTrace& trace,
    const linalg::RootFindingOptions& options = {}) {
  const std::size_t n = p.degree();
  const linalg::Polynomial q = p.monic();
  const auto& c = q.coefficients();
  if (n == 1) return {-c[0]};

  double cauchy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cauchy = std::max(cauchy, std::abs(c[i]));
  }
  cauchy += 1.0;
  const double c0 = std::abs(c[0]);
  double radius = c0 > 0.0
                      ? std::exp(std::log(c0) / static_cast<double>(n))
                      : 0.5;
  radius = std::clamp(radius, 1e-3, cauchy);

  std::vector<Complex> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = (2.0 * std::numbers::pi * static_cast<double>(i)) /
                             static_cast<double>(n) +
                         0.3979;
    const double r = radius * (0.8 + 0.4 * (static_cast<double>(i) + 1.0) /
                                         static_cast<double>(n));
    z[i] = std::polar(r, angle);
  }

  const std::size_t iterations = std::max(options.max_iterations, 30 * n);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    ++trace.sweeps;
    double max_step = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Complex denom{1.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        denom *= (z[i] - z[j]);
      }
      if (std::abs(denom) == 0.0) {
        z[i] += Complex(1e-6 * (static_cast<double>(i) + 1.0), 1e-6);
        max_step = std::numeric_limits<double>::infinity();
        ++trace.nudges;
        continue;
      }
      const Complex step = q.evaluate(z[i]) / denom;
      z[i] -= step;
      max_step = std::max(max_step, std::abs(step));
    }
    trace.max_steps.push_back(max_step);
    if (max_step < options.tolerance) break;
  }

  const linalg::Polynomial dq = q.derivative();
  for (auto& zi : z) {
    for (int step = 0; step < 3; ++step) {
      const Complex d = dq.evaluate(zi);
      if (std::abs(d) == 0.0) break;
      zi -= q.evaluate(zi) / d;
    }
  }
  return z;
}

// --- root-MUSIC ---------------------------------------------------------------

/// The noise projector loop the lane kernel replaced: entry (i, j) sums
/// v(i, k) conj(v(j, k)) from +0 in k order over the first noise_dim
/// eigenvectors.
inline linalg::CMatrix reference_noise_projector(const linalg::CMatrix& v,
                                                 std::size_t noise_dim) {
  const std::size_t m = v.rows();
  linalg::CMatrix projector(m, m);
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

/// The null-power loop the lane kernel replaced: a(omega)^H C a(omega) as
/// dot(a, C * a), a(omega)_i = e^{j omega i}.
inline double reference_null_power(const linalg::CMatrix& c, double omega) {
  const std::size_t m = c.rows();
  std::vector<Complex> a(m);
  std::vector<Complex> ca(m);
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

/// root_music_frequencies composed from the reference loops: covariance,
/// Jacobi, projector, Durand-Kerner and null-power ranking, with the
/// library's polynomial, root band, ranking and duplicate rules.
inline std::vector<double> reference_root_music_frequencies(
    const dsp::ComplexSignal& signal, double sample_rate_hz,
    std::size_t num_sources, std::size_t order, bool forward_backward) {
  const linalg::CMatrix r = forward_backward
                                ? reference_forward_backward(signal, order)
                                : reference_sample_covariance(signal, order);
  const auto eig = reference_eigen_hermitian(r);
  const linalg::CMatrix c =
      reference_noise_projector(eig.eigenvectors, order - num_sources);

  std::vector<Complex> coeffs(2 * order - 1);
  for (std::size_t j = 0; j < order; ++j) {
    for (std::size_t i = 0; i < order; ++i) {
      coeffs[j + (order - 1) - i] += c(i, j);
    }
  }
  ReferenceTrace trace;
  const auto roots =
      reference_find_roots(linalg::Polynomial{std::move(coeffs)}, trace);

  struct Candidate {
    Complex z;
    double null_power;
  };
  std::vector<Candidate> candidates;
  for (const Complex& z : roots) {
    const double mag = std::abs(z);
    if (mag > 1.05 || mag < 0.2) continue;
    candidates.push_back({z, reference_null_power(c, std::arg(z))});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.null_power < b.null_power;
            });
  std::vector<double> freqs;
  for (const auto& cand : candidates) {
    if (freqs.size() == num_sources) break;
    const double omega = std::arg(cand.z);
    bool duplicate = false;
    for (const double existing : freqs) {
      const double w_existing =
          existing * 2.0 * std::numbers::pi / sample_rate_hz;
      if (std::abs(w_existing - omega) < 1e-4) duplicate = true;
    }
    if (!duplicate) {
      freqs.push_back(omega * sample_rate_hz / (2.0 * std::numbers::pi));
    }
  }
  return freqs;
}

}  // namespace safe::oracles
