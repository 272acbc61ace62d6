// Tests for polynomials and Durand-Kerner root finding.
#include "linalg/polynomial.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <random>
#include <vector>

#include "oracles.hpp"

namespace safe::linalg {
namespace {

// For each expected root, require a found root within tol.
void expect_roots_match(const std::vector<Complex>& expected,
                        std::vector<Complex> found, double tol = 1e-8) {
  ASSERT_EQ(expected.size(), found.size());
  for (const Complex& e : expected) {
    auto best = std::min_element(
        found.begin(), found.end(), [&e](const Complex& a, const Complex& b) {
          return std::abs(a - e) < std::abs(b - e);
        });
    ASSERT_NE(best, found.end());
    EXPECT_LT(std::abs(*best - e), tol)
        << "missing root near (" << e.real() << ", " << e.imag() << ")";
    found.erase(best);
  }
}

using oracles::ReferenceTrace;
using oracles::reference_find_roots;

ReferenceTrace expect_roots_match_oracle(
    const Polynomial& p, const RootFindingOptions& options = {}) {
  ReferenceTrace trace;
  const std::vector<Complex> want = reference_find_roots(p, trace, options);
  const std::vector<Complex> got = find_roots(p, options);
  EXPECT_EQ(got.size(), want.size());
  if (got.size() == want.size()) {
    EXPECT_TRUE(oracles::same_values(got.data(), want.data(), got.size()))
        << "degree " << p.degree();
  }
  return trace;
}

std::vector<Complex> random_coefficients(std::size_t degree, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<Complex> c(degree + 1);
  for (auto& ci : c) ci = Complex{dist(rng), dist(rng)};
  return c;
}

void degrees_one_to_forty_match_reference() {
  for (std::size_t degree = 1; degree <= 40; ++degree) {
    const auto seed = static_cast<unsigned>(degree);
    expect_roots_match_oracle(Polynomial(random_coefficients(degree, seed)));
    // A conjugate-reciprocal root set, the structure root-MUSIC roots.
    std::mt19937 rng(seed + 100);
    std::uniform_real_distribution<double> mag(0.3, 0.95);
    std::uniform_real_distribution<double> ang(-3.0, 3.0);
    std::vector<Complex> roots;
    while (roots.size() + 2 <= degree) {
      const Complex z = std::polar(mag(rng), ang(rng));
      roots.push_back(z);
      roots.push_back(1.0 / std::conj(z));
    }
    if (roots.size() < degree) roots.push_back(std::polar(1.0, ang(rng)));
    expect_roots_match_oracle(Polynomial::from_roots(roots));
  }
  // Options: a loose tolerance, a tolerance outside the squared-norm range,
  // and a sweep cap above 30 * degree.
  const Polynomial p(random_coefficients(12, 3));
  expect_roots_match_oracle(p, {.max_iterations = 400, .tolerance = 1e-6});
  expect_roots_match_oracle(p, {.max_iterations = 400, .tolerance = 1e-120});
  expect_roots_match_oracle(p, {.max_iterations = 400, .tolerance = 0.0});
  expect_roots_match_oracle(p, {.max_iterations = 1000, .tolerance = 1e-300});
}

TEST(FindRootsOracle, DegreesOneToFortyMatchReferenceLoopBitForBit) {
  oracles::at_width(2, degrees_one_to_forty_match_reference);
}

TEST(FindRootsOracleFourLanes, DegreesOneToFortyMatchReferenceLoopBitForBit) {
  oracles::at_width(4, degrees_one_to_forty_match_reference);
}

void tolerance_at_a_sweeps_largest_step() {
  // A tolerance equal to some sweep's largest |step|, or one ulp either
  // side, puts the convergence decision exactly on the threshold, where
  // |step|^2 against tol^2 could round the other way than hypot.
  for (const std::size_t degree : {12u, 30u}) {
    const Polynomial p(random_coefficients(degree, 77));
    ReferenceTrace trace;
    reference_find_roots(p, trace);
    ASSERT_GT(trace.max_steps.size(), 3u);
    for (const double m : trace.max_steps) {
      for (const double tol :
           {m, std::nextafter(m, 0.0), std::nextafter(m, 1.0)}) {
        expect_roots_match_oracle(p, {.max_iterations = 400, .tolerance = tol});
      }
    }
  }
}

TEST(FindRootsOracle, ToleranceAtASweepsLargestStep) {
  oracles::at_width(2, tolerance_at_a_sweeps_largest_step);
}

TEST(FindRootsOracleFourLanes, ToleranceAtASweepsLargestStep) {
  oracles::at_width(4, tolerance_at_a_sweeps_largest_step);
}

void collision_nudge_path() {
  // z^2 + b z + 1 starts from radius 1 on the spiral find_roots builds.
  // Choose b, to the ulp, so that root 0's first step lands exactly on z1:
  // root 1's product is then exactly zero and it is nudged.
  const Complex z0 = std::polar(0.8 + 0.4 * 1.0 / 2.0, 0.3979);
  const Complex z1 =
      std::polar(0.8 + 0.4 * 2.0 / 2.0, 2.0 * std::numbers::pi / 2.0 + 0.3979);
  const Complex guess = ((z0 - z1) * (z0 - z1) - z0 * z0 - Complex{1.0}) / z0;
  bool found = false;
  for (int dr = -8; dr <= 8 && !found; ++dr) {
    for (int di = -8; di <= 8 && !found; ++di) {
      double br = guess.real();
      double bi = guess.imag();
      for (int k = 0; k < std::abs(dr); ++k) {
        br = std::nextafter(br, dr * 1e300);
      }
      for (int k = 0; k < std::abs(di); ++k) {
        bi = std::nextafter(bi, di * 1e300);
      }
      const Polynomial p({Complex{1.0}, Complex{br, bi}, Complex{1.0}});
      if (z0 - p.evaluate(z0) / (Complex{1.0, 0.0} * (z0 - z1)) != z1) continue;
      found = true;
      EXPECT_GT(expect_roots_match_oracle(p).nudges, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FindRootsOracle, CollisionNudgePath) {
  oracles::at_width(2, collision_nudge_path);
}

TEST(FindRootsOracleFourLanes, CollisionNudgePath) {
  oracles::at_width(4, collision_nudge_path);
}

void repeated_root_runs_to_the_sweep_cap() {
  // A double root on the unit circle, as root-MUSIC sees at high SNR: the
  // pair never settles below the tolerance, so the loop runs 30 * n sweeps.
  std::vector<Complex> roots{std::polar(1.0, 0.7), std::polar(1.0, 0.7)};
  std::mt19937 rng(41);
  std::uniform_real_distribution<double> ang(-3.0, 3.0);
  while (roots.size() < 30) roots.push_back(std::polar(0.6, ang(rng)));
  const ReferenceTrace trace =
      expect_roots_match_oracle(Polynomial::from_roots(roots));
  EXPECT_EQ(trace.sweeps, 30u * 30u);
}

TEST(FindRootsOracle, RepeatedRootRunsToTheSweepCap) {
  oracles::at_width(2, repeated_root_runs_to_the_sweep_cap);
}

TEST(FindRootsOracleFourLanes, RepeatedRootRunsToTheSweepCap) {
  oracles::at_width(4, repeated_root_runs_to_the_sweep_cap);
}

void non_finite_coefficients() {
  for (const double bad : {NAN, INFINITY}) {
    for (std::size_t degree : {2u, 5u, 16u, 30u}) {
      auto c = random_coefficients(degree, static_cast<unsigned>(degree) + 7);
      c[degree / 2] = Complex{bad, 0.25};
      expect_roots_match_oracle(Polynomial(c));
    }
  }
}

TEST(FindRootsOracle, NonFiniteCoefficients) {
  oracles::at_width(2, non_finite_coefficients);
}

TEST(FindRootsOracleFourLanes, NonFiniteCoefficients) {
  oracles::at_width(4, non_finite_coefficients);
}

TEST(Polynomial, DegreeTrimsLeadingZeros) {
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{0.0}});
  EXPECT_EQ(p.degree(), 1u);
}

TEST(Polynomial, ZeroPolynomialHasDegreeZero) {
  Polynomial p({Complex{}});
  EXPECT_EQ(p.degree(), 0u);
}

TEST(Polynomial, HornerEvaluation) {
  // p(z) = 1 + 2z + 3z^2 at z=2 -> 1 + 4 + 12 = 17.
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{3.0}});
  EXPECT_NEAR(std::abs(p.evaluate(Complex{2.0}) - Complex{17.0}), 0.0, 1e-12);
}

TEST(Polynomial, DerivativeOfQuadratic) {
  Polynomial p({Complex{1.0}, Complex{2.0}, Complex{3.0}});
  const Polynomial d = p.derivative();
  EXPECT_EQ(d.degree(), 1u);
  EXPECT_NEAR(std::abs(d.evaluate(Complex{1.0}) - Complex{8.0}), 0.0, 1e-12);
}

TEST(Polynomial, DerivativeOfConstantIsZero) {
  Polynomial p({Complex{5.0}});
  EXPECT_EQ(p.derivative().degree(), 0u);
  EXPECT_EQ(p.derivative().evaluate(Complex{3.0}), Complex{});
}

TEST(Polynomial, MonicDividesByLeading) {
  Polynomial p({Complex{2.0}, Complex{4.0}});
  const Polynomial m = p.monic();
  EXPECT_NEAR(std::abs(m.coefficients().back() - Complex{1.0}), 0.0, 1e-15);
}

TEST(Polynomial, MonicOfZeroThrows) {
  EXPECT_THROW(Polynomial({Complex{}}).monic(), std::domain_error);
}

TEST(Polynomial, FromRootsRoundTrip) {
  const std::vector<Complex> roots{Complex{1.0}, Complex{-2.0},
                                   Complex{0.0, 3.0}};
  const Polynomial p = Polynomial::from_roots(roots);
  EXPECT_EQ(p.degree(), 3u);
  for (const Complex& r : roots) {
    EXPECT_LT(std::abs(p.evaluate(r)), 1e-12);
  }
}

TEST(FindRoots, LinearPolynomial) {
  // 3z - 6 = 0 -> z = 2.
  Polynomial p({Complex{-6.0}, Complex{3.0}});
  const auto roots = find_roots(p);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_LT(std::abs(roots[0] - Complex{2.0}), 1e-12);
}

TEST(FindRoots, QuadraticWithComplexRoots) {
  // z^2 + 1 = 0 -> +/- i.
  Polynomial p({Complex{1.0}, Complex{0.0}, Complex{1.0}});
  expect_roots_match({Complex{0.0, 1.0}, Complex{0.0, -1.0}}, find_roots(p));
}

TEST(FindRoots, DegreeZeroThrows) {
  EXPECT_THROW(find_roots(Polynomial({Complex{1.0}})), std::invalid_argument);
}

TEST(FindRoots, UnitCircleRootsOfUnity) {
  // z^8 - 1: the 8 roots of unity -- the exact structure root-MUSIC sees.
  std::vector<Complex> c(9, Complex{});
  c[0] = Complex{-1.0};
  c[8] = Complex{1.0};
  std::vector<Complex> expected;
  for (int k = 0; k < 8; ++k) {
    expected.push_back(std::polar(1.0, 2.0 * std::numbers::pi * k / 8.0));
  }
  expect_roots_match(expected, find_roots(Polynomial(c)), 1e-7);
}

TEST(FindRoots, RepeatedRoot) {
  // (z-1)^2 = z^2 - 2z + 1.
  Polynomial p({Complex{1.0}, Complex{-2.0}, Complex{1.0}});
  const auto roots = find_roots(p);
  for (const auto& r : roots) {
    EXPECT_LT(std::abs(r - Complex{1.0}), 1e-5);  // double roots: sqrt(tol)
  }
}

TEST(FindRoots, WideMagnitudeSpread) {
  const std::vector<Complex> expected{Complex{0.01}, Complex{1.0},
                                      Complex{100.0}};
  expect_roots_match(expected, find_roots(Polynomial::from_roots(expected)),
                     1e-5);
}

TEST(CompanionMatrix, StructureMatchesDefinition) {
  // z^3 + 2z^2 + 3z + 4.
  Polynomial p({Complex{4.0}, Complex{3.0}, Complex{2.0}, Complex{1.0}});
  const CMatrix m = companion_matrix(p);
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m(1, 0), Complex(1.0, 0.0));
  EXPECT_EQ(m(2, 1), Complex(1.0, 0.0));
  EXPECT_EQ(m(0, 2), Complex(-4.0, 0.0));
  EXPECT_EQ(m(1, 2), Complex(-3.0, 0.0));
  EXPECT_EQ(m(2, 2), Complex(-2.0, 0.0));
}

TEST(CompanionMatrix, DegreeZeroThrows) {
  EXPECT_THROW(companion_matrix(Polynomial({Complex{2.0}})),
               std::invalid_argument);
}

TEST(CompanionMatrix, CharacteristicPolynomialProperty) {
  // For this companion layout (ones on the subdiagonal, -coeffs in the last
  // column), the Vandermonde vector [1, r, ...]^T is an eigenvector of C^T
  // with eigenvalue r; C and C^T share eigenvalues.
  const std::vector<Complex> roots{Complex{2.0}, Complex{-1.0, 1.0}};
  const Polynomial p = Polynomial::from_roots(roots);
  const CMatrix ct = companion_matrix(p).transpose();
  for (const Complex& r : roots) {
    CVector v{Complex{1.0}, r};
    const CVector cv = ct * v;
    EXPECT_LT(norm2(cv - r * v), 1e-10);
  }
}

class RootFindingProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RootFindingProperty, RandomRootsRecovered) {
  std::mt19937 rng(GetParam() + 1000);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  const std::size_t degree = 2 + GetParam() % 10;
  std::vector<Complex> expected;
  for (std::size_t i = 0; i < degree; ++i) {
    expected.emplace_back(dist(rng), dist(rng));
  }
  const Polynomial p = Polynomial::from_roots(expected);
  expect_roots_match(expected, find_roots(p), 1e-5);
}

TEST_P(RootFindingProperty, ResidualsAreSmall) {
  std::mt19937 rng(GetParam() + 5000);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t degree = 3 + GetParam() % 12;
  std::vector<Complex> coeffs(degree + 1);
  for (auto& ci : coeffs) ci = Complex{dist(rng), dist(rng)};
  coeffs.back() = Complex{1.0};  // monic, well-conditioned leading term
  const Polynomial p(coeffs);
  for (const Complex& r : find_roots(p)) {
    EXPECT_LT(std::abs(p.evaluate(r)), 1e-6);
  }
}

TEST_P(RootFindingProperty, ConjugateSymmetricPolynomialsHaveReciprocalRoots) {
  // root-MUSIC polynomials satisfy p(z) = conj-reflection; their roots come
  // in (z, 1/conj(z)) pairs. Build such a polynomial and verify the pairing.
  std::mt19937 rng(GetParam() + 9000);
  std::uniform_real_distribution<double> mag(0.3, 0.9);
  std::uniform_real_distribution<double> ang(0.0, 2.0 * std::numbers::pi);
  std::vector<Complex> inside;
  const std::size_t pairs = 2 + GetParam() % 3;
  for (std::size_t i = 0; i < pairs; ++i) {
    inside.push_back(std::polar(mag(rng), ang(rng)));
  }
  std::vector<Complex> all = inside;
  for (const Complex& z : inside) all.push_back(1.0 / std::conj(z));
  const Polynomial p = Polynomial::from_roots(all);
  const auto found = find_roots(p);
  expect_roots_match(all, found, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RootFindingProperty,
                         ::testing::Range(0u, 10u));

}  // namespace
}  // namespace safe::linalg
