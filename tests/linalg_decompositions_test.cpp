// Unit + property tests for LU and QR decompositions.
#include <gtest/gtest.h>

#include <complex>
#include <random>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace safe::linalg {
namespace {

RMatrix random_matrix(std::size_t n, unsigned seed, double lo = -1.0,
                      double hi = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  RMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = dist(rng);
  return m;
}

TEST(Lu, SolvesKnownSystem) {
  RMatrix a{{2.0, 1.0}, {1.0, 3.0}};
  const RVector x = solve(a, RVector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW(LuDecomposition<double>(RMatrix(2, 3)), std::invalid_argument);
}

TEST(Lu, DetectsSingularMatrix) {
  RMatrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition<double> lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_THROW(lu.solve(RVector{1.0, 1.0}), std::domain_error);
  EXPECT_EQ(lu.determinant(), 0.0);
}

TEST(Lu, DeterminantOfTriangularMatrix) {
  RMatrix a{{2.0, 5.0, 1.0}, {0.0, 3.0, 7.0}, {0.0, 0.0, -4.0}};
  EXPECT_NEAR(determinant(a), -24.0, 1e-10);
}

TEST(Lu, DeterminantSignTracksRowSwaps) {
  // Permutation matrix with a single swap has determinant -1.
  RMatrix p{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(determinant(p), -1.0, 1e-14);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  const RMatrix a = random_matrix(5, 42);
  const RMatrix inv = inverse(a);
  EXPECT_LT(max_abs(a * inv - RMatrix::identity(5)), 1e-10);
}

TEST(Lu, SolveSizeMismatchThrows) {
  LuDecomposition<double> lu(RMatrix::identity(3));
  EXPECT_THROW(lu.solve(RVector(2)), std::invalid_argument);
}

TEST(Lu, MatrixRhsSolve) {
  const RMatrix a = random_matrix(4, 7);
  const RMatrix b = random_matrix(4, 8);
  LuDecomposition<double> lu(a);
  const RMatrix x = lu.solve(b);
  EXPECT_LT(max_abs(a * x - b), 1e-10);
}

TEST(Lu, ComplexSystemSolve) {
  using C = std::complex<double>;
  CMatrix a{{C{2.0, 1.0}, C{0.0, -1.0}}, {C{1.0, 0.0}, C{3.0, 2.0}}};
  CVector b{C{1.0, 0.0}, C{0.0, 1.0}};
  const CVector x = solve(a, b);
  const CVector r = a * x - b;
  EXPECT_LT(norm2(r), 1e-12);
}

TEST(Qr, FactorsTallMatrix) {
  RMatrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}};
  QrDecomposition<double> qr(a);
  // Q orthonormal.
  EXPECT_LT(max_abs(qr.q().adjoint() * qr.q() - RMatrix::identity(3)), 1e-12);
  // Reconstruction.
  EXPECT_LT(max_abs(qr.q() * qr.r() - a), 1e-12);
  // R upper triangular below diagonal.
  EXPECT_NEAR(qr.r()(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(qr.r()(2, 0), 0.0, 1e-12);
  EXPECT_NEAR(qr.r()(2, 1), 0.0, 1e-12);
}

TEST(Qr, RejectsWideMatrix) {
  EXPECT_THROW(QrDecomposition<double>(RMatrix(2, 3)), std::invalid_argument);
}

TEST(Qr, LeastSquaresLineFit) {
  // Fit y = 2x + 1 exactly.
  RMatrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  RVector y{1.0, 3.0, 5.0, 7.0};
  const RVector beta = least_squares(a, y);
  EXPECT_NEAR(beta[0], 1.0, 1e-12);
  EXPECT_NEAR(beta[1], 2.0, 1e-12);
}

TEST(Qr, LeastSquaresMinimizesResidualAgainstPerturbations) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  RMatrix a(8, 3);
  RVector y(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = dist(rng);
    y[i] = dist(rng);
  }
  const RVector beta = least_squares(a, y);
  const double base = norm2(a * beta - y);
  for (std::size_t j = 0; j < 3; ++j) {
    RVector perturbed = beta;
    perturbed[j] += 1e-3;
    EXPECT_GE(norm2(a * perturbed - y) + 1e-12, base);
  }
}

TEST(Qr, RankOfRankDeficientMatrix) {
  RMatrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  EXPECT_EQ(QrDecomposition<double>(a).rank(), 1u);
}

TEST(Qr, SolveRankDeficientThrows) {
  RMatrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  QrDecomposition<double> qr(a);
  EXPECT_THROW(qr.solve_least_squares(RVector{1.0, 1.0, 1.0}),
               std::domain_error);
}

// Property sweeps over random seeds.
class DecompositionProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DecompositionProperty, LuSolveResidualIsSmall) {
  const std::size_t n = 3 + GetParam() % 6;
  const RMatrix a = random_matrix(n, GetParam() + 100);
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  RVector b(n);
  for (auto& bi : b) bi = dist(rng);
  const RVector x = solve(a, b);
  EXPECT_LT(norm2(a * x - b), 1e-9 * (1.0 + norm2(b)));
}

TEST_P(DecompositionProperty, QrReconstructionAndOrthogonality) {
  const std::size_t m = 4 + GetParam() % 5;
  const std::size_t n = 2 + GetParam() % 3;
  std::mt19937 rng(GetParam() + 900);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  RMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
  QrDecomposition<double> qr(a);
  EXPECT_LT(max_abs(qr.q() * qr.r() - a), 1e-11);
  EXPECT_LT(max_abs(qr.q().adjoint() * qr.q() - RMatrix::identity(m)), 1e-11);
}

TEST_P(DecompositionProperty, DeterminantIsMultiplicative) {
  const std::size_t n = 2 + GetParam() % 4;
  const RMatrix a = random_matrix(n, GetParam() + 1300);
  const RMatrix b = random_matrix(n, GetParam() + 1400);
  const double lhs = determinant(a * b);
  const double rhs = determinant(a) * determinant(b);
  EXPECT_NEAR(lhs, rhs, 1e-8 * (1.0 + std::abs(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionProperty,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace safe::linalg
