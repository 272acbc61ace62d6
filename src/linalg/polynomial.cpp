#include "linalg/polynomial.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/lanes.hpp"

namespace safe::linalg {

namespace {

constexpr double kLeadingTrimTol = 1e-300;

using lanes::Split;

/// Horner chains run interleaved, two or four per vector.
constexpr std::size_t kChainVectors = 4;

/// Durand-Kerner iterates as split planes, padded past the degree so the
/// loops below may run whole vectors of either width over the end (the
/// padding stays finite and is never returned).
class RootPlanes {
 public:
  explicit RootPlanes(std::size_t n)
      : n_(n),
        re_(n + lanes::kMaxMusicWidth * kChainVectors, 0.0),
        im_(n + lanes::kMaxMusicWidth * kChainVectors, 0.0) {}

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] std::size_t size() const { return re_.size(); }
  [[nodiscard]] Complex get(std::size_t i) const { return {re_[i], im_[i]}; }
  void set(std::size_t i, Complex z) {
    re_[i] = z.real();
    im_[i] = z.imag();
  }
  template <std::size_t L>
  [[nodiscard]] lanes::SplitN<L> lanes_at(std::size_t i) const {
    return lanes::load<L>(&re_[i], &im_[i]);
  }
  [[nodiscard]] double* re() { return re_.data(); }
  [[nodiscard]] double* im() { return im_.data(); }

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
struct HornerChains {
  template <std::size_t L>
  [[gnu::always_inline]] static void run(const Coefficients& c,
                                         const RootPlanes& z, double* out_re,
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
};

/// HornerChains, the one AVX2 call of a Durand-Kerner sweep. The product
/// loop of a sweep stays in code built without AVX2, where it measured
/// faster.
void evaluate_all(const Coefficients& c, const RootPlanes& z, double* out_re,
                  double* out_im) {
  lanes::dispatch<HornerChains, lanes::kMaxMusicWidth>(c, z, out_re, out_im);
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

/// One polynomial's Durand-Kerner state: the monic polynomial and its
/// coefficient planes, the iterates, and one sweep's Horner values h and
/// running products d (d also holds q' during the Newton polish).
class Problem {
 public:
  /// Starts from a deterministic non-symmetric spiral (a symmetric start
  /// can put Durand-Kerner on an invariant subspace and stall). Its radius
  /// is the geometric mean of the root magnitudes, |c0|^(1/n) for a monic
  /// polynomial, which puts the start ring through the root cluster (the
  /// Cauchy bound can overshoot by orders of magnitude, stalling
  /// convergence at high degree), clamped against the Cauchy bound.
  explicit Problem(Polynomial monic)
      : q(std::move(monic)),
        qc(q),
        z(q.degree()),
        h_re(z.size()),
        h_im(z.size()),
        d_re(z.size()),
        d_im(z.size()) {
    const std::size_t n = q.degree();
    const auto& c = q.coefficients();
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
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = (2.0 * std::numbers::pi * static_cast<double>(i)) /
                               static_cast<double>(n) +
                           0.3979;
      const double r = radius * (0.8 + 0.4 * (static_cast<double>(i) + 1.0) /
                                           static_cast<double>(n));
      z.set(i, std::polar(r, angle));
    }
  }
  Problem(const Problem&) = delete;
  Problem& operator=(const Problem&) = delete;

  const Polynomial q;
  const Coefficients qc;  // refers to q
  RootPlanes z;
  std::vector<double> h_re;
  std::vector<double> h_im;
  std::vector<double> d_re;
  std::vector<double> d_im;
};

/// The sweep cap: high-degree polynomials need proportionally more sweeps.
std::size_t sweep_cap(std::size_t n, const RootFindingOptions& options) {
  return std::max(options.max_iterations, 30 * n);
}

/// How a sweep holds P problems' values of one root: one problem as a
/// std::complex, whose products take the library's __muldc3 fallback
/// themselves; two problems as the lanes of a lanes::Split, whose products
/// are checked with maybe_nan and redone per lane with std::complex.
template <std::size_t P>
struct Pack;

template <>
struct Pack<1> {
  using T = Complex;
  static T load(const double* re, const double* im) { return {*re, *im}; }
  static void store(double* re, double* im, const T& v) {
    *re = v.real();
    *im = v.imag();
  }
  static Complex lane(const T& v, std::size_t /*p*/) { return v; }
  static void set_lane(T& v, std::size_t /*p*/, Complex x) { v = x; }
  static T mul(const T& a, const T& b) { return a * b; }
  static bool maybe_nan(const T& /*v*/) { return false; }
};

template <>
struct Pack<2> {
  using T = Split;
  static T load(const double* re, const double* im) {
    return {lanes::load(re), lanes::load(im)};
  }
  static void store(double* re, double* im, const T& v) {
    lanes::store(re, v.re);
    lanes::store(im, v.im);
  }
  static Complex lane(const T& v, std::size_t p) { return {v.re[p], v.im[p]}; }
  static void set_lane(T& v, std::size_t p, Complex x) {
    v.re[p] = x.real();
    v.im[p] = x.imag();
  }
  static T mul(const T& a, const T& b) { return lanes::mul(a, b); }
  static bool maybe_nan(const T& v) { return lanes::maybe_nan(v); }
};

/// The iterates and running products a sweep reads: P problems' values of
/// root j side by side at P * j.
struct SweepPlanes {
  double* z_re;
  double* z_im;
  double* d_re;
  double* d_im;
};

/// d_j * (z_j - prev) per problem with std::complex: the exact path of
/// extended(). Out of line and rereading the planes, so that the sweep loop
/// keeps nothing live across its __muldc3 calls.
template <std::size_t P>
[[gnu::noinline, gnu::cold]] typename Pack<P>::T exact_extended(
    const SweepPlanes& planes, std::size_t j, const typename Pack<P>::T& prev) {
  using K = Pack<P>;
  typename K::T next{};
  for (std::size_t p = 0; p < P; ++p) {
    const Complex d{planes.d_re[P * j + p], planes.d_im[P * j + p]};
    const Complex z{planes.z_re[P * j + p], planes.z_im[P * j + p]};
    K::set_lane(next, p, d * (z - K::lane(prev, p)));
  }
  return next;
}

/// Root j's running product extended by (z_j - prev), exactly as
/// std::complex computes it.
template <std::size_t P>
[[gnu::always_inline]] inline typename Pack<P>::T extended(
    const SweepPlanes& planes, std::size_t j, const typename Pack<P>::T& prev) {
  using K = Pack<P>;
  const typename K::T z = K::load(planes.z_re + P * j, planes.z_im + P * j);
  const typename K::T d = K::load(planes.d_re + P * j, planes.d_im + P * j);
  const typename K::T next = K::mul(d, z - prev);
  if (K::maybe_nan(next)) [[unlikely]] {
    return exact_extended<P>(planes, j, prev);
  }
  return next;
}

/// Root i's move, from its iterate zi, its product over the other roots
/// and q(zi): the collision nudge when the product is exactly zero, else
/// the Durand-Kerner step. Clears `settled` on a nudge or on a step of at
/// least the tolerance.
Complex finish_root(std::size_t i, Complex zi, Complex denom, Complex h,
                    const StepTest& step_test, bool& settled) {
  // |denom| (hypot) is zero exactly when both parts are.
  if (denom.real() == 0.0 && denom.imag() == 0.0) {
    // Collision between iterates: nudge deterministically and retry.
    settled = false;
    return zi + Complex(1e-6 * (static_cast<double>(i) + 1.0), 1e-6);
  }
  const Complex step = h / denom;
  if (settled && step_test.at_least(step)) settled = false;
  return zi - step;
}

/// One Gauss-Seidel sweep of P problems of one degree, problem p in lane p.
/// Root i divides q(z_i) by prod_{j != i} (z_i - z_j), multiplied in
/// increasing j, where roots before i already moved this sweep. q(z_i)
/// reads only z_i, which changes at root i's own turn, so every Horner
/// chain runs up front. The factors of the roots before i form a running
/// product d_i, extended by each root once it moves; root i's chain over
/// the later roots and root i - 1's extension of their products share one
/// j loop, two independent dependency chains. settled[p] ends true when
/// problem p took no nudge and every |step| < tol (NaN ignored).
template <std::size_t P>
void sweep(Problem* const (&problems)[P], const SweepPlanes& planes,
           const StepTest& step_test, bool (&settled)[P]) {
  using K = Pack<P>;
  using T = typename K::T;
  const std::size_t n = problems[0]->z.count();
  for (std::size_t p = 0; p < P; ++p) {
    Problem& s = *problems[p];
    evaluate_all(s.qc, s.z, s.h_re.data(), s.h_im.data());
    settled[p] = true;
  }
  std::fill_n(planes.d_re, P * n, 1.0);
  std::fill_n(planes.d_im, P * n, 0.0);
  const auto z_at = [&planes](std::size_t j) {
    return K::load(planes.z_re + P * j, planes.z_im + P * j);
  };
  T prev{};  // every problem's root i - 1, moved
  for (std::size_t i = 0; i < n; ++i) {
    const T zi = z_at(i);
    // d_i = 1 for root 0, else extended by root i - 1.
    const T di = i == 0 ? K::load(planes.d_re, planes.d_im)
                        : extended<P>(planes, i, prev);
    T c = di;
    if (i == 0) {
      for (std::size_t j = 1; j < n; ++j) c = K::mul(c, zi - z_at(j));
    } else {
      for (std::size_t j = i + 1; j < n; ++j) {
        c = K::mul(c, zi - z_at(j));
        K::store(planes.d_re + P * j, planes.d_im + P * j,
                 extended<P>(planes, j, prev));
      }
    }
    if (K::maybe_nan(c)) [[unlikely]] {
      for (std::size_t p = 0; p < P; ++p) {
        Complex exact = K::lane(di, p);
        const Complex zip = K::lane(zi, p);
        for (std::size_t j = i + 1; j < n; ++j) {
          exact *= zip - Complex{planes.z_re[P * j + p],
                                 planes.z_im[P * j + p]};
        }
        K::set_lane(c, p, exact);
      }
    }
    for (std::size_t p = 0; p < P; ++p) {
      Problem& s = *problems[p];
      const Complex next =
          finish_root(i, K::lane(zi, p), K::lane(c, p),
                      Complex{s.h_re[i], s.h_im[i]}, step_test, settled[p]);
      planes.z_re[P * i + p] = next.real();
      planes.z_im[P * i + p] = next.imag();
      if constexpr (P > 1) s.z.set(i, next);
      K::set_lane(prev, p, next);
    }
  }
}

/// Sweeps s on its own planes, from sweep `first` until it settles or
/// reaches the cap.
void sweep_alone(Problem& s, std::size_t first, std::size_t cap,
                 const StepTest& step_test, double tolerance) {
  Problem* const problems[1] = {&s};
  const SweepPlanes planes{s.z.re(), s.z.im(), s.d_re.data(), s.d_im.data()};
  for (std::size_t iter = first; iter < cap; ++iter) {
    bool settled[1];
    sweep<1>(problems, planes, step_test, settled);
    // The largest |step| (NaN ignored, a nudge counting as infinite, 0 when
    // no step counted) is below tolerance.
    if (settled[0] && 0.0 < tolerance) return;
  }
}

/// The iterates after a few polishing Newton steps per root (cheap,
/// tightens clusters). The roots polish independently, so the steps run
/// root-parallel.
std::vector<Complex> polished_roots(Problem& s) {
  const std::size_t n = s.z.count();
  const Polynomial dq = s.q.derivative();
  const Coefficients dqc(dq);
  std::vector<bool> polishing(n, true);
  for (int step = 0; step < 3; ++step) {
    evaluate_all(dqc, s.z, s.d_re.data(), s.d_im.data());
    evaluate_all(s.qc, s.z, s.h_re.data(), s.h_im.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (!polishing[i]) continue;
      const Complex d{s.d_re[i], s.d_im[i]};
      if (d.real() == 0.0 && d.imag() == 0.0) {
        polishing[i] = false;
        continue;
      }
      s.z.set(i, s.z.get(i) - Complex{s.h_re[i], s.h_im[i]} / d);
    }
  }
  std::vector<Complex> roots(n);
  for (std::size_t i = 0; i < n; ++i) roots[i] = s.z.get(i);
  return roots;
}

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
  Polynomial q = p.monic();
  if (n == 1) {
    return {-q.coefficients()[0]};
  }
  Problem s(std::move(q));
  sweep_alone(s, 0, sweep_cap(n, options), StepTest(options.tolerance),
              options.tolerance);
  return polished_roots(s);
}

std::array<std::vector<Complex>, 2> find_roots_pair(
    const Polynomial& a, const Polynomial& b,
    const RootFindingOptions& options) {
  const std::size_t n = a.degree();
  if (n < 2 || b.degree() != n) {
    return {find_roots(a, options), find_roots(b, options)};
  }
  Problem first(a.monic());
  Problem second(b.monic());
  Problem* const problems[2] = {&first, &second};
  // Both problems' iterates and running products, pair-interleaved; each
  // problem's own iterate planes follow along for its Horner chains.
  std::vector<double> z_re(2 * n);
  std::vector<double> z_im(2 * n);
  std::vector<double> d_re(2 * n);
  std::vector<double> d_im(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < 2; ++p) {
      z_re[2 * j + p] = problems[p]->z.get(j).real();
      z_im[2 * j + p] = problems[p]->z.get(j).imag();
    }
  }
  const SweepPlanes planes{z_re.data(), z_im.data(), d_re.data(), d_im.data()};
  const StepTest step_test(options.tolerance);
  const std::size_t cap = sweep_cap(n, options);
  std::size_t iter = 0;
  bool done[2] = {false, false};
  while (iter < cap && !done[0] && !done[1]) {
    bool settled[2];
    sweep<2>(problems, planes, step_test, settled);
    ++iter;
    for (std::size_t p = 0; p < 2; ++p) {
      done[p] = settled[p] && 0.0 < options.tolerance;
    }
  }
  // Once one problem settles, the other runs on alone.
  for (std::size_t p = 0; p < 2; ++p) {
    if (!done[p]) {
      sweep_alone(*problems[p], iter, cap, step_test, options.tolerance);
    }
  }
  return {polished_roots(first), polished_roots(second)};
}

}  // namespace safe::linalg
