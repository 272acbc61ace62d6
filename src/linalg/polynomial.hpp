// Complex polynomials and root finding.
//
// root-MUSIC forms a conjugate-symmetric polynomial from the noise-subspace
// projector and needs all of its roots. We use the Durand-Kerner
// (Weierstrass) simultaneous iteration, which is dependency-free and robust
// for the moderate degrees (< 64) that arise here.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <vector>

namespace safe::linalg {

using Complex = std::complex<double>;

/// Polynomial with coefficients in ascending-power order:
/// p(z) = c[0] + c[1] z + ... + c[n] z^n.
class Polynomial {
 public:
  Polynomial() = default;

  /// Coefficients in ascending powers; trailing (near-)zero leading
  /// coefficients are trimmed so degree() is meaningful.
  explicit Polynomial(std::vector<Complex> ascending_coeffs);

  /// Degree of the zero polynomial is reported as 0.
  [[nodiscard]] std::size_t degree() const;

  [[nodiscard]] const std::vector<Complex>& coefficients() const {
    return coeffs_;
  }

  /// Horner evaluation.
  [[nodiscard]] Complex evaluate(Complex z) const;

  /// Derivative polynomial.
  [[nodiscard]] Polynomial derivative() const;

  /// Monic copy (divides by the leading coefficient).
  [[nodiscard]] Polynomial monic() const;

  /// Builds the monic polynomial with the given roots.
  static Polynomial from_roots(const std::vector<Complex>& roots);

 private:
  std::vector<Complex> coeffs_{Complex{}};
};

/// Options controlling the Durand-Kerner iteration.
struct RootFindingOptions {
  /// Sweep cap. The effective cap is max(max_iterations, 30 * degree):
  /// high-degree polynomials always get at least 30 sweeps per root.
  std::size_t max_iterations = 400;
  double tolerance = 1e-12;  ///< max per-root displacement for convergence
};

/// All complex roots of `p` (degree >= 1) via Durand-Kerner iteration.
///
/// Deterministic: the initial guesses lie on a fixed spiral. Throws
/// std::invalid_argument for (near-)zero polynomials of degree 0.
std::vector<Complex> find_roots(const Polynomial& p,
                                const RootFindingOptions& options = {});

/// {find_roots(a, options), find_roots(b, options)}, bit for bit, from one
/// iteration over both problems: polynomials of one degree >= 2 run their
/// Gauss-Seidel sweeps side by side, a problem per vector lane, and once one
/// settles the other runs on alone. Other pairs take two find_roots calls.
std::array<std::vector<Complex>, 2> find_roots_pair(
    const Polynomial& a, const Polynomial& b,
    const RootFindingOptions& options = {});

}  // namespace safe::linalg
