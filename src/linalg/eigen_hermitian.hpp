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

/// rotate_entry over two split columns of even length `ld`, two entries
/// per vector. Scaling by c or s is a full complex product with (c, 0.0),
/// ×0.0 terms included; entries whose result may hold a NaN (the only way a
/// product can have needed __muldc3) are redone by rotate_entry.
inline void rotate_columns(double* x_re, double* x_im, double* y_re,
                           double* y_im, std::size_t ld, double c, double s,
                           std::complex<double> phase) {
  using lanes::Split;
  const Split cs{lanes::splat(c), lanes::splat(0.0)};
  const Split sn{lanes::splat(s), lanes::splat(0.0)};
  const Split ph{lanes::splat(phase.real()), lanes::splat(phase.imag())};
  const Split ph_conj{ph.re, -ph.im};
  for (std::size_t i = 0; i < ld; i += 2) {
    const Split x{lanes::load(x_re + i), lanes::load(x_im + i)};
    const Split y{lanes::load(y_re + i), lanes::load(y_im + i)};
    const Split nx = lanes::mul(x, cs) - lanes::mul(lanes::mul(y, sn), ph_conj);
    const Split ny = lanes::mul(lanes::mul(x, sn), ph) + lanes::mul(y, cs);
    if (!lanes::maybe_nan(nx + ny)) {
      lanes::store(x_re + i, nx.re);
      lanes::store(x_im + i, nx.im);
      lanes::store(y_re + i, ny.re);
      lanes::store(y_im + i, ny.im);
      continue;
    }
    for (std::size_t e = i; e < i + 2; ++e) {
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
inline void rotate_columns(double* x, double* y, std::size_t ld, double c,
                           double s, double phase) {
  const lanes::V2 cs = lanes::splat(c);
  const lanes::V2 sn = lanes::splat(s);
  const lanes::V2 ph = lanes::splat(phase);
  for (std::size_t i = 0; i < ld; i += 2) {
    const lanes::V2 xv = lanes::load(x + i);
    const lanes::V2 yv = lanes::load(y + i);
    lanes::store(x + i, xv * cs - yv * sn * ph);
    lanes::store(y + i, xv * sn * ph + yv * cs);
  }
}

}  // namespace detail

/// Computes the eigen-decomposition of a Hermitian matrix.
///
/// Preconditions: `a` square and Hermitian to roundoff (the routine uses only
/// the upper triangle's values via the Hermitian symmetry of its updates).
/// Throws std::invalid_argument on a non-square input.
///
/// A and V are held as split real/imaginary planes of contiguous columns,
/// so a rotation updates columns p and q of A and of V two entries per
/// vector; the rows p and q of A it also writes are their conjugates,
/// scattered afterwards. Every entry goes through the operations of the
/// textbook cyclic sweep in the same order, so results are bit-identical to
/// it (tests/linalg_eigen_test.cpp keeps that loop as the oracle).
template <typename T>
HermitianEigenResult<T> eigen_hermitian(Matrix<T> a,
                                        real_of_t<T> tol = 1e-13,
                                        std::size_t max_sweeps = 64) {
  using R = real_of_t<T>;
  static_assert(std::is_same_v<R, double>,
                "eigen_hermitian: entries must be double or complex<double>");
  constexpr bool kComplex = !std::is_same_v<T, R>;
  if (!a.is_square()) {
    throw std::invalid_argument("eigen_hermitian: matrix must be square");
  }
  const std::size_t n = a.rows();

  HermitianEigenResult<T> result;
  const R scale = frobenius_norm(a);
  const R threshold2 = (scale == R{} ? R{1} : scale * scale) * tol * tol;
  const R negligible = tol * scale / static_cast<R>(n * n);

  // Column c of A (and of V) starts at offset c * ld of its planes.
  const std::size_t ld = n + n % 2;
  std::vector<R> a_re(n * ld, R{});
  std::vector<R> a_im(kComplex ? n * ld : 0, R{});
  std::vector<R> v_re(n * ld, R{});
  std::vector<R> v_im(kComplex ? n * ld : 0, R{});
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      a_re[c * ld + r] = std::real(std::complex<R>(a(r, c)));
      if constexpr (kComplex) a_im[c * ld + r] = a(r, c).imag();
    }
    v_re[c * ld + c] = R{1};
  }
  const auto entry = [&](const std::vector<R>& re, const std::vector<R>& im,
                         std::size_t r, std::size_t c) -> T {
    if constexpr (kComplex) {
      return T{re[c * ld + r], im[c * ld + r]};
    } else {
      return re[c * ld + r];
    }
  };
  // Sum of squared magnitudes of strictly-off-diagonal entries, row-major.
  const auto off_diagonal_norm2 = [&] {
    R acc{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += std::norm(std::complex<R>(entry(a_re, a_im, i, j)));
      }
    }
    return acc;
  };
  const auto set = [&](std::size_t r, std::size_t c, R value) {
    a_re[c * ld + r] = value;
    if constexpr (kComplex) a_im[c * ld + r] = R{};
  };
  const auto rotate = [&](std::vector<R>& re, std::vector<R>& im,
                          std::size_t p, std::size_t q, R c, R s, T phase) {
    if constexpr (kComplex) {
      detail::rotate_columns(&re[p * ld], &im[p * ld], &re[q * ld],
                             &im[q * ld], ld, c, s, phase);
    } else {
      detail::rotate_columns(&re[p * ld], &re[q * ld], ld, c, s, phase);
    }
  };

  std::size_t sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm2() <= threshold2) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const T apq = entry(a_re, a_im, p, q);
        const R alpha = std::abs(apq);
        if (alpha <= negligible || alpha == R{}) continue;
        const R app = a_re[p * ld + p];
        const R aqq = a_re[q * ld + q];
        // Unit phase so that apq * conj(phase) is the real number alpha.
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

        // New diagonal entries (exactly real).
        const R app_new = c * c * app - R{2} * c * s * alpha + s * s * aqq;
        const R aqq_new = s * s * app + R{2} * c * s * alpha + c * c * aqq;

        // Rotate columns p and q of A: A <- U^H A U with
        //   U(p,p)=c, U(p,q)=s*phase, U(q,p)=-s*conj(phase), U(q,q)=c.
        // Entries p and q of both columns are garbage until set below.
        rotate(a_re, a_im, p, q, c, s, phase);
        // Rows p and q are the conjugates of the new columns (the four
        // entries where rows and columns p, q cross are set just below).
        for (std::size_t i = 0; i < n; ++i) {
          a_re[i * ld + p] = a_re[p * ld + i];
          a_re[i * ld + q] = a_re[q * ld + i];
          if constexpr (kComplex) {
            a_im[i * ld + p] = -a_im[p * ld + i];
            a_im[i * ld + q] = -a_im[q * ld + i];
          }
        }
        set(p, p, app_new);
        set(q, q, aqq_new);
        set(p, q, R{});
        set(q, p, R{});

        // Accumulate eigenvectors: V <- V U.
        rotate(v_re, v_im, p, q, c, s, phase);
      }
    }
  }
  result.sweeps = sweep;
  result.converged = off_diagonal_norm2() <= threshold2;

  // Extract and sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Vector<R> raw(n);
  for (std::size_t i = 0; i < n; ++i) raw[i] = a_re[i * ld + i];
  std::sort(order.begin(), order.end(),
            [&raw](std::size_t x, std::size_t y) { return raw[x] < raw[y]; });

  result.eigenvalues = Vector<R>(n);
  result.eigenvectors = Matrix<T>(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = raw[order[k]];
    for (std::size_t r = 0; r < n; ++r) {
      result.eigenvectors(r, k) = entry(v_re, v_im, r, order[k]);
    }
  }
  return result;
}

}  // namespace safe::linalg
