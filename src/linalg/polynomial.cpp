#include "linalg/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "linalg/lanes.hpp"

namespace safe::linalg {

namespace {

constexpr double kLeadingTrimTol = 1e-300;

using lanes::Split;

/// Horner chains run interleaved, lanes::width() per vector.
constexpr std::size_t kChainVectors = 4;

/// Durand-Kerner iterates as split planes, padded past the degree so the
/// loops below may run whole vectors of either width over the end (the
/// padding stays finite and is never returned).
class RootPlanes {
 public:
  explicit RootPlanes(std::size_t n)
      : n_(n),
        re_(n + lanes::kMaxWidth * kChainVectors, 0.0),
        im_(n + lanes::kMaxWidth * kChainVectors, 0.0) {}

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] std::size_t size() const { return re_.size(); }
  [[nodiscard]] Complex get(std::size_t i) const { return {re_[i], im_[i]}; }
  void set(std::size_t i, Complex z) {
    re_[i] = z.real();
    im_[i] = z.imag();
  }
  template <std::size_t L = 2>
  [[nodiscard]] lanes::SplitN<L> lanes_at(std::size_t i) const {
    return lanes::load<L>(&re_[i], &im_[i]);
  }

 private:
  std::size_t n_;
  std::vector<double> re_;
  std::vector<double> im_;
};

/// A polynomial and its coefficients as split planes.
struct Coefficients {
  explicit Coefficients(const Polynomial& poly) : p(poly) {
    for (const Complex& ci : poly.coefficients()) {
      re.push_back(ci.real());
      im.push_back(ci.imag());
    }
  }

  const Polynomial& p;
  std::vector<double> re;
  std::vector<double> im;
};

/// out[i] = p(z_i) for every root, each chain exactly as
/// Polynomial::evaluate runs it (acc = acc * z + c from the top),
/// L * kChainVectors chains interleaved. Values that may hold a NaN are
/// recomputed by Polynomial::evaluate itself.
template <std::size_t L>
[[gnu::always_inline]] inline void horner_chains(const Coefficients& c,
                                                 const RootPlanes& z,
                                                 double* out_re,
                                                 double* out_im) {
  constexpr std::size_t kChains = L * kChainVectors;
  for (std::size_t i = 0; i < z.count(); i += kChains) {
    lanes::SplitN<L> zv[kChainVectors] = {};
    lanes::SplitN<L> acc[kChainVectors] = {};
    for (std::size_t v = 0; v < kChainVectors; ++v) {
      zv[v] = z.lanes_at<L>(i + L * v);
      acc[v] = lanes::splat<L>(0.0, 0.0);
    }
    for (std::size_t k = c.re.size(); k > 0; --k) {
      const lanes::SplitN<L> ck = lanes::splat<L>(c.re[k - 1], c.im[k - 1]);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kChainVectors; ++v) {
        acc[v] = lanes::mul(acc[v], zv[v]) + ck;
      }
    }
    lanes::SplitN<L> any = lanes::splat<L>(0.0, 0.0);
    for (std::size_t v = 0; v < kChainVectors; ++v) {
      lanes::store(out_re + i + L * v, out_im + i + L * v, acc[v]);
      any = any + acc[v];
    }
    if (!lanes::maybe_nan(any)) continue;
    for (std::size_t e = i; e < i + kChains && e < z.count(); ++e) {
      const Complex v = c.p.evaluate(z.get(e));
      out_re[e] = v.real();
      out_im[e] = v.imag();
    }
  }
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void four_lane_horner_chains(const Coefficients& c,
                                                     const RootPlanes& z,
                                                     double* out_re,
                                                     double* out_im) {
  horner_chains<4>(c, z, out_re, out_im);
}
#endif

/// horner_chains at lanes::width(): the one AVX2 call of a Durand-Kerner
/// sweep. The serial loop between the calls stays in code built without
/// AVX2, where it measured faster.
void evaluate_all(const Coefficients& c, const RootPlanes& z, double* out_re,
                  double* out_im) {
#if defined(__x86_64__)
  if (lanes::width() == 4) {
    four_lane_horner_chains(c, z, out_re, out_im);
    return;
  }
#endif
  horner_chains<2>(c, z, out_re, out_im);
}

/// Once root i has moved, multiplies the running product of every later
/// root j by (z_j - z_i), two roots per vector.
void extend_products(const RootPlanes& z, std::size_t i, double* d_re,
                     double* d_im) {
  const Complex zi = z.get(i);
  const Split zi2{lanes::splat(zi.real()), lanes::splat(zi.imag())};
  for (std::size_t j = i + 1; j < z.count(); j += 2) {
    const Split d{lanes::load(d_re + j), lanes::load(d_im + j)};
    const Split next = lanes::mul(d, z.lanes_at(j) - zi2);
    if (!lanes::maybe_nan(next)) {
      lanes::store(d_re + j, next.re);
      lanes::store(d_im + j, next.im);
      continue;
    }
    for (std::size_t e = j; e < j + 2 && e < z.count(); ++e) {
      const Complex v = Complex{d_re[e], d_im[e]} * (z.get(e) - zi);
      d_re[e] = v.real();
      d_im[e] = v.imag();
    }
  }
}

/// Whether std::abs(step) >= tol, decided from |step|^2 = re^2 + im^2
/// where it clears tol^2 by a relative margin of 1e-9: the rounding of
/// either form is below 1e-15 relative, so the answer is the one hypot
/// would give. Near the threshold, on NaN or infinity, and for a tol so
/// small or large that squares could leave the normal range, std::abs
/// decides.
class StepTest {
 public:
  explicit StepTest(double tol)
      : tol_(tol),
        squares_(tol > 1e-100 && tol < 1e100),
        below_(tol * tol * (1.0 - 1e-9)),
        above_(tol * tol * (1.0 + 1e-9)) {}

  [[nodiscard]] bool at_least(Complex step) const {
    if (squares_) {
      const double norm2 =
          step.real() * step.real() + step.imag() * step.imag();
      if (norm2 < below_) return false;
      if (norm2 > above_) return true;
    }
    return std::abs(step) >= tol_;
  }

 private:
  double tol_;
  bool squares_;
  double below_;
  double above_;
};

}  // namespace

Polynomial::Polynomial(std::vector<Complex> ascending_coeffs)
    : coeffs_(std::move(ascending_coeffs)) {
  while (coeffs_.size() > 1 && std::abs(coeffs_.back()) < kLeadingTrimTol) {
    coeffs_.pop_back();
  }
  if (coeffs_.empty()) coeffs_.push_back(Complex{});
}

std::size_t Polynomial::degree() const { return coeffs_.size() - 1; }

Complex Polynomial::evaluate(Complex z) const {
  Complex acc{};
  for (std::size_t ip1 = coeffs_.size(); ip1 > 0; --ip1) {
    acc = acc * z + coeffs_[ip1 - 1];
  }
  return acc;
}

Polynomial Polynomial::derivative() const {
  if (degree() == 0) return Polynomial({Complex{}});
  std::vector<Complex> d(degree());
  for (std::size_t i = 1; i < coeffs_.size(); ++i) {
    d[i - 1] = coeffs_[i] * static_cast<double>(i);
  }
  return Polynomial(std::move(d));
}

Polynomial Polynomial::monic() const {
  const Complex lead = coeffs_.back();
  if (std::abs(lead) == 0.0) {
    throw std::domain_error("Polynomial::monic: zero polynomial");
  }
  std::vector<Complex> c = coeffs_;
  for (auto& ci : c) ci /= lead;
  return Polynomial(std::move(c));
}

Polynomial Polynomial::from_roots(const std::vector<Complex>& roots) {
  std::vector<Complex> c{Complex{1.0, 0.0}};
  for (const Complex& r : roots) {
    // Multiply the running polynomial by (z - r).
    std::vector<Complex> next(c.size() + 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      next[i + 1] += c[i];
      next[i] -= c[i] * r;
    }
    c = std::move(next);
  }
  return Polynomial(std::move(c));
}

std::vector<Complex> find_roots(const Polynomial& p,
                                const RootFindingOptions& options) {
  const std::size_t n = p.degree();
  if (n == 0) {
    throw std::invalid_argument("find_roots: polynomial has no roots");
  }
  const Polynomial q = p.monic();
  const auto& c = q.coefficients();

  if (n == 1) {
    return {-c[0]};
  }

  // Initial radius: the geometric mean of the root magnitudes is
  // |c0|^(1/n) for a monic polynomial, which puts the start ring through
  // the root cluster (the Cauchy bound can overshoot by orders of
  // magnitude, stalling convergence at high degree). Clamp against the
  // Cauchy bound for safety.
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

  // Deterministic non-symmetric initial spiral (a symmetric start can put
  // Durand-Kerner on an invariant subspace and stall).
  RootPlanes z(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = (2.0 * std::numbers::pi * static_cast<double>(i)) /
                             static_cast<double>(n) +
                         0.3979;
    const double r = radius * (0.8 + 0.4 * (static_cast<double>(i) + 1.0) /
                                         static_cast<double>(n));
    z.set(i, std::polar(r, angle));
  }

  // Each sweep updates the roots in turn (Gauss-Seidel): root i divides
  // q(z_i) by prod_{j != i} (z_i - z_j), multiplied in increasing j, where
  // roots before i already moved this sweep. q(z_i) reads only z_i, which
  // changes at root i's own turn, so every Horner chain runs up front; and
  // each root's product over the roots before it is extended as those roots
  // finish, which leaves only the factors of later roots on the serial path.
  const Coefficients qc(q);
  const StepTest step_test(options.tolerance);
  std::vector<double> h_re(z.size());
  std::vector<double> h_im(z.size());
  std::vector<double> d_re(z.size());
  std::vector<double> d_im(z.size());
  // High-degree polynomials need proportionally more sweeps.
  const std::size_t iterations =
      std::max(options.max_iterations, 30 * n);
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    evaluate_all(qc, z, h_re.data(), h_im.data());
    std::fill(d_re.begin(), d_re.end(), 1.0);
    std::fill(d_im.begin(), d_im.end(), 0.0);
    bool settled = true;  // no nudge and every |step| < tol (NaN ignored)
    for (std::size_t i = 0; i < n; ++i) {
      const Complex zi = z.get(i);
      Complex denom{d_re[i], d_im[i]};
      for (std::size_t j = i + 1; j < n; ++j) denom *= (zi - z.get(j));
      // |denom| (hypot) is zero exactly when both parts are.
      if (denom.real() == 0.0 && denom.imag() == 0.0) {
        // Collision between iterates: nudge deterministically and retry.
        z.set(i, zi + Complex(1e-6 * (static_cast<double>(i) + 1.0), 1e-6));
        settled = false;
      } else {
        const Complex step = Complex{h_re[i], h_im[i]} / denom;
        z.set(i, zi - step);
        if (settled && step_test.at_least(step)) settled = false;
      }
      extend_products(z, i, d_re.data(), d_im.data());
    }
    // The largest |step| (NaN ignored, a nudge counting as infinite, 0 when
    // no step counted) is below tolerance.
    if (settled && 0.0 < options.tolerance) break;
  }

  // A few polishing Newton steps per root (cheap, tightens clusters). The
  // roots polish independently, so the steps run root-parallel.
  const Polynomial dq = q.derivative();
  const Coefficients dqc(dq);
  std::vector<bool> polishing(n, true);
  for (int step = 0; step < 3; ++step) {
    evaluate_all(dqc, z, d_re.data(), d_im.data());
    evaluate_all(qc, z, h_re.data(), h_im.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (!polishing[i]) continue;
      const Complex d{d_re[i], d_im[i]};
      if (d.real() == 0.0 && d.imag() == 0.0) {
        polishing[i] = false;
        continue;
      }
      z.set(i, z.get(i) - Complex{h_re[i], h_im[i]} / d);
    }
  }
  std::vector<Complex> roots(n);
  for (std::size_t i = 0; i < n; ++i) roots[i] = z.get(i);
  return roots;
}

CMatrix companion_matrix(const Polynomial& p) {
  const std::size_t n = p.degree();
  if (n == 0) {
    throw std::invalid_argument("companion_matrix: degree must be >= 1");
  }
  const Polynomial q = p.monic();
  const auto& c = q.coefficients();
  CMatrix m(n, n);
  for (std::size_t i = 1; i < n; ++i) m(i, i - 1) = Complex{1.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) m(i, n - 1) = -c[i];
  return m;
}

}  // namespace safe::linalg
