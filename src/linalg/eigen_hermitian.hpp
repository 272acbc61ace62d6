// Cyclic Jacobi eigensolver for Hermitian (or real symmetric) matrices.
//
// MUSIC operates on forward-backward sample covariance matrices of modest
// order (<= a few dozen), for which Jacobi iteration is simple, numerically
// robust, and produces the full orthonormal eigenbasis the noise-subspace
// projection requires.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "linalg/lanes.hpp"
#include "linalg/matrix.hpp"

namespace safe::linalg {

/// Eigen-decomposition A = V diag(w) V^H with real eigenvalues `w` sorted
/// ascending and orthonormal eigenvector columns in `v`.
template <typename T>
struct HermitianEigenResult {
  Vector<real_of_t<T>> eigenvalues;
  Matrix<T> eigenvectors;
  std::size_t sweeps = 0;   ///< Jacobi sweeps used.
  bool converged = false;   ///< Off-diagonal norm fell below tolerance.
};

namespace detail {

/// One entry of the rotation x <- x c - y s conj(phase),
/// y <- x s phase + y c, evaluated as std::complex (or real) arithmetic.
template <typename T>
void rotate_entry(T& x, T& y, real_of_t<T> c, real_of_t<T> s, T phase) {
  const T x0 = x;
  const T y0 = y;
  x = x0 * static_cast<T>(c) - y0 * static_cast<T>(s) * conj_scalar(phase);
  y = x0 * static_cast<T>(s) * phase + y0 * static_cast<T>(c);
}

/// rotate_entry over two split columns of `ld` entries (a multiple of L),
/// L entries per vector. Scaling by c or s is a full complex product with
/// (c, 0.0), ×0.0 terms included; entries whose result may hold a NaN (the
/// only way a product can have needed __muldc3) are redone by rotate_entry.
template <std::size_t L>
[[gnu::always_inline]] inline void rotate_columns(
    double* x_re, double* x_im, double* y_re, double* y_im, std::size_t ld,
    double c, double s, std::complex<double> phase) {
  using Split = lanes::SplitN<L>;
  const Split cs = lanes::splat<L>(c, 0.0);
  const Split sn = lanes::splat<L>(s, 0.0);
  const Split ph = lanes::splat<L>(phase.real(), phase.imag());
  const Split ph_conj{ph.re, -ph.im};
  for (std::size_t i = 0; i < ld; i += L) {
    const Split x = lanes::load<L>(x_re + i, x_im + i);
    const Split y = lanes::load<L>(y_re + i, y_im + i);
    const Split nx = lanes::mul(x, cs) - lanes::mul(lanes::mul(y, sn), ph_conj);
    const Split ny = lanes::mul(lanes::mul(x, sn), ph) + lanes::mul(y, cs);
    if (!lanes::maybe_nan(nx + ny)) {
      lanes::store(x_re + i, x_im + i, nx);
      lanes::store(y_re + i, y_im + i, ny);
      continue;
    }
    for (std::size_t e = i; e < i + L; ++e) {
      std::complex<double> xe{x_re[e], x_im[e]};
      std::complex<double> ye{y_re[e], y_im[e]};
      rotate_entry(xe, ye, c, s, phase);
      x_re[e] = xe.real();
      x_im[e] = xe.imag();
      y_re[e] = ye.real();
      y_im[e] = ye.imag();
    }
  }
}

/// Real-symmetric rotate_columns (no imaginary plane, no fallback).
template <std::size_t L>
[[gnu::always_inline]] inline void rotate_columns(double* x, double* y,
                                                  std::size_t ld, double c,
                                                  double s, double phase) {
  for (std::size_t i = 0; i < ld; i += L) {
    lanes::V<L> xv;
    lanes::V<L> yv;
    lanes::load_plane<L>(xv, x + i);
    lanes::load_plane<L>(yv, y + i);
    lanes::store_plane<L>(x + i, xv * c - yv * s * phase);
    lanes::store_plane<L>(y + i, xv * s * phase + yv * c);
  }
}

/// A and V as split real/imaginary planes of contiguous columns: column c
/// starts at offset c * ld, with ld = n rounded up to a multiple of
/// lanes::kMaxMusicWidth, so a rotation runs whole vectors of either width.
/// The imaginary planes are empty for a real matrix.
template <typename T>
struct JacobiPlanes {
  static constexpr bool kComplex = !std::is_same_v<T, double>;

  explicit JacobiPlanes(const Matrix<T>& a)
      : n(a.rows()),
        ld((n + lanes::kMaxMusicWidth - 1) / lanes::kMaxMusicWidth *
           lanes::kMaxMusicWidth),
        a_re(n * ld, 0.0),
        a_im(kComplex ? n * ld : 0, 0.0),
        v_re(n * ld, 0.0),
        v_im(kComplex ? n * ld : 0, 0.0) {
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        a_re[c * ld + r] = std::real(std::complex<double>(a(r, c)));
        if constexpr (kComplex) a_im[c * ld + r] = a(r, c).imag();
      }
      v_re[c * ld + c] = 1.0;
    }
  }

  [[nodiscard]] static T entry(const std::vector<double>& re,
                               const std::vector<double>& im, std::size_t ld,
                               std::size_t r, std::size_t c) {
    if constexpr (kComplex) {
      return T{re[c * ld + r], im[c * ld + r]};
    } else {
      return re[c * ld + r];
    }
  }
  [[nodiscard]] T a(std::size_t r, std::size_t c) const {
    return entry(a_re, a_im, ld, r, c);
  }
  [[nodiscard]] T v(std::size_t r, std::size_t c) const {
    return entry(v_re, v_im, ld, r, c);
  }

  /// Sum of squared magnitudes of strictly-off-diagonal entries of A,
  /// row-major.
  [[nodiscard]] double off_diagonal_norm2() const {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += std::norm(std::complex<double>(a(i, j)));
      }
    }
    return acc;
  }

  /// Sets a real entry of A.
  void set(std::size_t r, std::size_t c, double value) {
    a_re[c * ld + r] = value;
    if constexpr (kComplex) a_im[c * ld + r] = 0.0;
  }

  std::size_t n;
  std::size_t ld;
  std::vector<double> a_re;
  std::vector<double> a_im;
  std::vector<double> v_re;
  std::vector<double> v_im;
};

/// The cyclic sweeps: until the off-diagonal norm falls to threshold2 or
/// max_sweeps have run, one rotation per pair p < q whose |a_pq| exceeds
/// `negligible`, its columns rotated L entries per vector. Returns the
/// sweeps run. The whole loop runs at one width, rotations and the scalar
/// work between them alike, so a rotation costs no call across targets.
struct JacobiSweeps {
  template <std::size_t L, typename T>
  [[gnu::always_inline]] static std::size_t run(JacobiPlanes<T>& m,
                                                double threshold2,
                                                double negligible,
                                                std::size_t max_sweeps) {
    const std::size_t n = m.n;
    const std::size_t ld = m.ld;
    std::size_t sweep = 0;
    for (; sweep < max_sweeps; ++sweep) {
      if (m.off_diagonal_norm2() <= threshold2) break;
      for (std::size_t p = 0; p + 1 < n; ++p) {
        for (std::size_t q = p + 1; q < n; ++q) {
          const T apq = m.a(p, q);
          const double alpha = std::abs(apq);
          if (alpha <= negligible || alpha == 0.0) continue;
          const double app = m.a_re[p * ld + p];
          const double aqq = m.a_re[q * ld + q];
          // Unit phase so that apq * conj(phase) is the real number alpha.
          const T phase = apq / static_cast<T>(alpha);

          const double tau = (aqq - app) / (2.0 * alpha);
          double t;
          if (tau >= 0.0) {
            t = 1.0 / (tau + std::sqrt(1.0 + tau * tau));
          } else {
            t = -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
          }
          const double c = 1.0 / std::sqrt(1.0 + t * t);
          const double s = t * c;

          // New diagonal entries (exactly real).
          const double app_new =
              c * c * app - 2.0 * c * s * alpha + s * s * aqq;
          const double aqq_new =
              s * s * app + 2.0 * c * s * alpha + c * c * aqq;

          // Rotate columns p and q of A: A <- U^H A U with
          //   U(p,p)=c, U(p,q)=s*phase, U(q,p)=-s*conj(phase), U(q,q)=c.
          // Entries p and q of both columns are garbage until set below.
          if constexpr (JacobiPlanes<T>::kComplex) {
            rotate_columns<L>(&m.a_re[p * ld], &m.a_im[p * ld], &m.a_re[q * ld],
                              &m.a_im[q * ld], ld, c, s, phase);
          } else {
            rotate_columns<L>(&m.a_re[p * ld], &m.a_re[q * ld], ld, c, s,
                              phase);
          }
          // Rows p and q are the conjugates of the new columns (the four
          // entries where rows and columns p, q cross are set just below).
          for (std::size_t i = 0; i < n; ++i) {
            m.a_re[i * ld + p] = m.a_re[p * ld + i];
            m.a_re[i * ld + q] = m.a_re[q * ld + i];
            if constexpr (JacobiPlanes<T>::kComplex) {
              m.a_im[i * ld + p] = -m.a_im[p * ld + i];
              m.a_im[i * ld + q] = -m.a_im[q * ld + i];
            }
          }
          m.set(p, p, app_new);
          m.set(q, q, aqq_new);
          m.set(p, q, 0.0);
          m.set(q, p, 0.0);

          // Accumulate eigenvectors: V <- V U.
          if constexpr (JacobiPlanes<T>::kComplex) {
            rotate_columns<L>(&m.v_re[p * ld], &m.v_im[p * ld], &m.v_re[q * ld],
                              &m.v_im[q * ld], ld, c, s, phase);
          } else {
            rotate_columns<L>(&m.v_re[p * ld], &m.v_re[q * ld], ld, c, s,
                              phase);
          }
        }
      }
    }
    return sweep;
  }
};

}  // namespace detail

/// Computes the eigen-decomposition of a Hermitian matrix.
///
/// Preconditions: `a` square and Hermitian to roundoff (the routine uses only
/// the upper triangle's values via the Hermitian symmetry of its updates).
/// Throws std::invalid_argument on a non-square input.
///
/// A and V are held as split real/imaginary planes of contiguous columns,
/// so a rotation updates columns p and q of A and of V two or four entries
/// per vector (JacobiSweeps); the rows p and q of A it also writes are
/// their conjugates, scattered afterwards. Every entry goes through the
/// operations of the textbook cyclic sweep in the same order, so results
/// are bit-identical to it at either width (tests/oracles.hpp keeps that
/// loop as the oracle).
template <typename T>
HermitianEigenResult<T> eigen_hermitian(Matrix<T> a,
                                        real_of_t<T> tol = 1e-13,
                                        std::size_t max_sweeps = 64) {
  using R = real_of_t<T>;
  static_assert(std::is_same_v<R, double>,
                "eigen_hermitian: entries must be double or complex<double>");
  if (!a.is_square()) {
    throw std::invalid_argument("eigen_hermitian: matrix must be square");
  }
  const std::size_t n = a.rows();

  HermitianEigenResult<T> result;
  const R scale = frobenius_norm(a);
  const R threshold2 = (scale == R{} ? R{1} : scale * scale) * tol * tol;
  const R negligible = tol * scale / static_cast<R>(n * n);

  detail::JacobiPlanes<T> m(a);
  result.sweeps = lanes::dispatch<detail::JacobiSweeps, lanes::kMaxMusicWidth>(
      m, threshold2, negligible, max_sweeps);
  result.converged = m.off_diagonal_norm2() <= threshold2;

  // Extract and sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector<R> raw(n);
  for (std::size_t i = 0; i < n; ++i) raw[i] = m.a_re[i * m.ld + i];
  std::sort(order.begin(), order.end(),
            [&raw](std::size_t x, std::size_t y) { return raw[x] < raw[y]; });

  result.eigenvalues = Vector<R>(n);
  result.eigenvectors = Matrix<T>(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = raw[order[k]];
    for (std::size_t r = 0; r < n; ++r) {
      result.eigenvectors(r, k) = m.v(r, order[k]);
    }
  }
  return result;
}

}  // namespace safe::linalg
