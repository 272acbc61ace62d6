// Unit tests for the dense matrix/vector core and the lane width.
#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <random>
#include <sstream>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace safe::linalg {
namespace {

TEST(Vector, DefaultConstructedIsEmpty) {
  RVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
}

TEST(Vector, SizedConstructorZeroInitializes) {
  RVector v(4);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vector, InitializerListPreservesOrder) {
  RVector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1.0);
  EXPECT_EQ(v[2], 3.0);
}

TEST(Vector, AtThrowsOutOfRange) {
  RVector v(2);
  EXPECT_THROW(v.at(2), std::out_of_range);
}

TEST(Vector, ElementwiseArithmetic) {
  RVector a{1.0, 2.0};
  RVector b{3.0, 5.0};
  const RVector sum = a + b;
  const RVector diff = b - a;
  EXPECT_EQ(sum[0], 4.0);
  EXPECT_EQ(sum[1], 7.0);
  EXPECT_EQ(diff[0], 2.0);
  EXPECT_EQ(diff[1], 3.0);
}

TEST(Vector, ScalarScaling) {
  RVector a{1.0, -2.0};
  const RVector twice = 2.0 * a;
  const RVector half = a / 2.0;
  EXPECT_EQ(twice[1], -4.0);
  EXPECT_EQ(half[0], 0.5);
}

TEST(Vector, MismatchedSizesThrow) {
  RVector a(2), b(3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
}

TEST(Vector, DotRealIsBilinear) {
  RVector a{1.0, 2.0, 3.0};
  RVector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(Vector, DotComplexConjugatesFirstArgument) {
  CVector a{{0.0, 1.0}};  // i
  CVector b{{0.0, 1.0}};  // i
  const auto d = dot(a, b);
  EXPECT_DOUBLE_EQ(d.real(), 1.0);  // conj(i)*i = 1
  EXPECT_DOUBLE_EQ(d.imag(), 0.0);
}

TEST(Vector, Norm2MatchesHandComputation) {
  RVector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
}

TEST(Vector, NormInfPicksLargestMagnitude) {
  RVector v{3.0, -7.0, 4.0};
  EXPECT_DOUBLE_EQ(norm_inf(v), 7.0);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const auto eye = RMatrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW(RMatrix({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, ScaledIdentity) {
  const auto m = RMatrix::scaled_identity(2, 5.0);
  EXPECT_EQ(m(0, 0), 5.0);
  EXPECT_EQ(m(1, 1), 5.0);
  EXPECT_EQ(m(0, 1), 0.0);
}

TEST(Matrix, FromDiagonal) {
  const auto m = RMatrix::from_diagonal(RVector{1.0, 2.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 1), 2.0);
  EXPECT_EQ(m(1, 0), 0.0);
}

TEST(Matrix, RowColRoundTrip) {
  RMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  const RVector r1 = m.row(1);
  const RVector c0 = m.col(0);
  EXPECT_EQ(r1[0], 3.0);
  EXPECT_EQ(r1[1], 4.0);
  EXPECT_EQ(c0[1], 3.0);
  m.set_row(0, RVector{9.0, 8.0});
  EXPECT_EQ(m(0, 1), 8.0);
  m.set_col(1, RVector{7.0, 6.0});
  EXPECT_EQ(m(1, 1), 6.0);
}

TEST(Matrix, SetRowSizeMismatchThrows) {
  RMatrix m(2, 2);
  EXPECT_THROW(m.set_row(0, RVector(3)), std::invalid_argument);
  EXPECT_THROW(m.set_col(0, RVector(3)), std::invalid_argument);
}

TEST(Matrix, TransposeInvolution) {
  RMatrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto mt = m.transpose();
  EXPECT_EQ(mt.rows(), 3u);
  EXPECT_EQ(mt.cols(), 2u);
  EXPECT_EQ(mt(2, 1), 6.0);
  EXPECT_EQ(mt.transpose(), m);
}

TEST(Matrix, AdjointConjugates) {
  CMatrix m{{{1.0, 2.0}}};
  const auto a = m.adjoint();
  EXPECT_EQ(a(0, 0), std::complex<double>(1.0, -2.0));
}

TEST(Matrix, MultiplyMatchesHandComputation) {
  RMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  RMatrix b{{5.0, 6.0}, {7.0, 8.0}};
  const RMatrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  RMatrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a * RVector(2), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  RMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const RVector y = a * RVector{1.0, 1.0};
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], 7.0);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  RMatrix a{{1.5, -2.0}, {0.25, 4.0}};
  const auto eye = RMatrix::identity(2);
  EXPECT_EQ(a * eye, a);
  EXPECT_EQ(eye * a, a);
}

TEST(Matrix, OuterProductRankOne) {
  const RMatrix m = outer(RVector{1.0, 2.0}, RVector{3.0, 4.0});
  EXPECT_EQ(m(0, 0), 3.0);
  EXPECT_EQ(m(1, 1), 8.0);
}

TEST(Matrix, ComplexOuterConjugatesSecondArgument) {
  const CMatrix m =
      outer(CVector{{0.0, 1.0}}, CVector{{0.0, 1.0}});
  EXPECT_EQ(m(0, 0), std::complex<double>(1.0, 0.0));
}

TEST(Matrix, FrobeniusNorm) {
  RMatrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
}

TEST(Matrix, MaxAbs) {
  RMatrix m{{-9.0, 1.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(max_abs(m), 9.0);
}

TEST(Matrix, DiagonalExtraction) {
  RMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  const RVector d = m.diagonal();
  EXPECT_EQ(d[0], 1.0);
  EXPECT_EQ(d[1], 4.0);
}

TEST(Matrix, StreamOutputContainsEntries) {
  RMatrix m{{1.0, 2.0}};
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find('1'), std::string::npos);
  EXPECT_NE(os.str().find('2'), std::string::npos);
}

// Property sweep: (A B)^T == B^T A^T over random matrices.
class MatrixAlgebraProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(MatrixAlgebraProperty, TransposeOfProduct) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 3 + GetParam() % 4;
  RMatrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = dist(rng);
      b(i, j) = dist(rng);
    }
  }
  const RMatrix lhs = (a * b).transpose();
  const RMatrix rhs = b.transpose() * a.transpose();
  EXPECT_LT(max_abs(lhs - rhs), 1e-12);
}

TEST_P(MatrixAlgebraProperty, DistributiveLaw) {
  std::mt19937 rng(GetParam() * 7919u + 13u);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  const std::size_t n = 2 + GetParam() % 5;
  RMatrix a(n, n), b(n, n), c(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = dist(rng);
      b(i, j) = dist(rng);
      c(i, j) = dist(rng);
    }
  }
  EXPECT_LT(max_abs(a * (b + c) - (a * b + a * c)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixAlgebraProperty,
                         ::testing::Range(0u, 12u));

TEST(Lanes, ScopedWidthForcesOnlyWidthsThisCpuRuns) {
  // Unforced, width() is the widest width this CPU runs.
  const std::size_t detected = lanes::width();
  EXPECT_EQ(detected, lanes::width_supported(8)   ? 8U
                      : lanes::width_supported(4) ? 4U
                                                  : 2U);
  for (const std::size_t lanes_wanted : {2U, 4U, 8U}) {
    if (lanes::width_supported(lanes_wanted)) {
      const lanes::detail::ScopedWidth forced(lanes_wanted);
      EXPECT_EQ(lanes::width(), lanes_wanted);
    } else {
      EXPECT_THROW(lanes::detail::ScopedWidth{lanes_wanted},
                   std::invalid_argument)
          << lanes_wanted << " lanes";
    }
    EXPECT_EQ(lanes::width(), detected);
  }
  for (const std::size_t bad : {0U, 1U, 3U, 16U}) {
    EXPECT_THROW(lanes::detail::ScopedWidth{bad}, std::invalid_argument)
        << bad << " lanes";
  }
}

}  // namespace
}  // namespace safe::linalg
