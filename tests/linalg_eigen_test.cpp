// Tests for the Jacobi Hermitian eigensolver.
#include "linalg/eigen_hermitian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "linalg/matrix.hpp"
#include "oracles.hpp"

namespace safe::linalg {
namespace {

using C = std::complex<double>;

RMatrix random_symmetric(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  RMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = dist(rng);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

CMatrix random_hermitian(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  CMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = C{dist(rng), 0.0};
    for (std::size_t j = i + 1; j < n; ++j) {
      const C v{dist(rng), dist(rng)};
      m(i, j) = v;
      m(j, i) = std::conj(v);
    }
  }
  return m;
}

/// Eigenvalues, eigenvectors, sweeps and convergence flag, bit for bit
/// (NaNs compare equal to each other).
template <typename T>
void expect_matches_oracle(const Matrix<T>& a, const char* label) {
  const auto got = eigen_hermitian(a);
  const auto want = oracles::reference_eigen_hermitian(a);
  const std::size_t n = a.rows();
  EXPECT_EQ(got.sweeps, want.sweeps) << label << " n=" << n;
  EXPECT_EQ(got.converged, want.converged) << label << " n=" << n;
  ASSERT_EQ(got.eigenvalues.size(), n);
  ASSERT_EQ(got.eigenvectors.rows(), n);
  ASSERT_EQ(got.eigenvectors.cols(), n);
  EXPECT_TRUE(oracles::same_values(got.eigenvalues.data(),
                                   want.eigenvalues.data(), n))
      << label << " n=" << n;
  EXPECT_TRUE(oracles::same_values(got.eigenvectors.data(),
                                   want.eigenvectors.data(), n * n))
      << label << " n=" << n;
}

void hermitian_matches_reference() {
  for (std::size_t n = 1; n <= 17; ++n) {
    expect_matches_oracle(random_hermitian(n, static_cast<unsigned>(n) + 500),
                          "hermitian");
  }
  expect_matches_oracle(random_hermitian(24, 77), "hermitian");
}

TEST(EigenOracle, HermitianMatchesReferenceLoopBitForBit) {
  oracles::at_width(2, hermitian_matches_reference);
}

TEST(EigenOracleFourLanes, HermitianMatchesReferenceLoopBitForBit) {
  oracles::at_width(4, hermitian_matches_reference);
}

void real_symmetric_matches_reference() {
  for (std::size_t n = 1; n <= 15; ++n) {
    const RMatrix a = random_symmetric(n, static_cast<unsigned>(n) + 900);
    expect_matches_oracle(a, "real");
    // The same matrix as complex entries with zero imaginary parts.
    CMatrix c(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) c(i, j) = C{a(i, j), 0.0};
    }
    expect_matches_oracle(c, "complex with zero imaginary parts");
  }
}

TEST(EigenOracle, RealSymmetricMatchesReferenceLoopBitForBit) {
  oracles::at_width(2, real_symmetric_matches_reference);
}

TEST(EigenOracleFourLanes, RealSymmetricMatchesReferenceLoopBitForBit) {
  oracles::at_width(4, real_symmetric_matches_reference);
}

void triangle_mismatches_match_reference() {
  // The lower triangle is read from the input until a rotation rewrites it,
  // so a matrix Hermitian only to roundoff (or with +0 where the conjugate
  // has -0) must see exactly those lower entries. Sizes 5-7 and 13-15 end
  // the four-lane column loops partway through a vector.
  for (std::size_t n : {2u, 5u, 6u, 7u, 8u, 13u, 14u, 15u, 16u}) {
    CMatrix a = random_hermitian(n, static_cast<unsigned>(n) + 1300);
    for (std::size_t i = 1; i < n; ++i) a(i, 0) += C{1e-15, -2e-15};
    // +0 imaginary parts on both sides of the diagonal: the conjugate of
    // the upper entry would carry -0.
    for (std::size_t i = 0; i + 2 < n; ++i) {
      a(i, i + 2) = C{a(i, i + 2).real(), 0.0};
      a(i + 2, i) = a(i, i + 2);
    }
    expect_matches_oracle(a, "roundoff-hermitian");
  }
  // Sparse, purely imaginary off-diagonals with -0.0 real parts: with
  // exact zeros all around, the ×0.0 terms of each scaling by (c, 0)
  // decide the signs of zero results.
  for (std::size_t n : {3u, 5u, 6u, 7u, 9u, 13u, 15u}) {
    CMatrix a = random_hermitian(n, static_cast<unsigned>(n) + 1500);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        a(i, j) = j == i + 1 ? C{-0.0, a(i, j).imag()} : C{};
        a(j, i) = std::conj(a(i, j));
      }
    }
    expect_matches_oracle(a, "sparse imaginary off-diagonal");
  }
  // Diagonal and block-diagonal inputs skip most rotations.
  CMatrix d(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    d(i, i) = C{6.0 - static_cast<double>(i), 0.0};
  }
  expect_matches_oracle(d, "diagonal");
  d(1, 2) = C{0.5, -0.25};
  d(2, 1) = std::conj(d(1, 2));
  expect_matches_oracle(d, "one off-diagonal pair");
  expect_matches_oracle(CMatrix(5, 5), "zero");
}

TEST(EigenOracle, TriangleMismatchesAndSkippedRotations) {
  oracles::at_width(2, triangle_mismatches_match_reference);
}

TEST(EigenOracleFourLanes, TriangleMismatchesAndSkippedRotations) {
  oracles::at_width(4, triangle_mismatches_match_reference);
}

void non_finite_entries_match_reference() {
  // One non-finite pair at every off-diagonal position: some rotations then
  // have a finite pivot but a non-finite entry in the columns they rotate.
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      for (const C bad : {C{INFINITY, 0.5}, C{0.5, -INFINITY}, C{NAN, 0.0}}) {
        CMatrix a = random_hermitian(4, 2100);
        a(i, j) = bad;
        a(j, i) = std::conj(bad);
        expect_matches_oracle(a, "non-finite pair");
      }
    }
  }
  for (const double bad : {NAN, INFINITY, -INFINITY}) {
    for (std::size_t n : {1u, 2u, 3u, 5u, 6u, 7u, 13u, 15u}) {
      CMatrix a = random_hermitian(n, static_cast<unsigned>(n) + 1700);
      a(n / 2, n - 1) = C{bad, 0.5};
      if (n / 2 != n - 1) a(n - 1, n / 2) = std::conj(a(n / 2, n - 1));
      expect_matches_oracle(a, "non-finite");
      RMatrix r = random_symmetric(n, static_cast<unsigned>(n) + 1900);
      r(0, n - 1) = bad;
      r(n - 1, 0) = bad;
      expect_matches_oracle(r, "non-finite real");
    }
  }
}

TEST(EigenOracle, NonFiniteEntries) {
  oracles::at_width(2, non_finite_entries_match_reference);
}

TEST(EigenOracleFourLanes, NonFiniteEntries) {
  oracles::at_width(4, non_finite_entries_match_reference);
}

TEST(EigenHermitian, DiagonalMatrixEigenvaluesSorted) {
  RMatrix a{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0, 1e-12);
}

TEST(EigenHermitian, Known2x2Symmetric) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  RMatrix a{{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenHermitian, Known2x2Hermitian) {
  // [[2, i],[-i, 2]] has eigenvalues 1 and 3.
  CMatrix a{{C{2.0, 0.0}, C{0.0, 1.0}}, {C{0.0, -1.0}, C{2.0, 0.0}}};
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenHermitian, RejectsNonSquare) {
  EXPECT_THROW(eigen_hermitian(RMatrix(2, 3)), std::invalid_argument);
}

TEST(EigenHermitian, ZeroMatrixConvergesTrivially) {
  const auto eig = eigen_hermitian(RMatrix(4, 4));
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(eig.sweeps, 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(eig.eigenvalues[i], 0.0);
}

TEST(EigenHermitian, TraceEqualsEigenvalueSum) {
  const RMatrix a = random_symmetric(7, 21);
  const auto eig = eigen_hermitian(a);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 7; ++i) {
    trace += a(i, i);
    sum += eig.eigenvalues[i];
  }
  EXPECT_NEAR(trace, sum, 1e-10);
}

class EigenProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(EigenProperty, RealSymmetricReconstruction) {
  const std::size_t n = 2 + GetParam() % 9;
  const RMatrix a = random_symmetric(n, GetParam() + 37);
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  const RMatrix d = RMatrix::from_diagonal(eig.eigenvalues);
  const RMatrix recon =
      eig.eigenvectors * d * eig.eigenvectors.adjoint();
  EXPECT_LT(max_abs(recon - a), 1e-10 * (1.0 + max_abs(a)));
}

TEST_P(EigenProperty, ComplexHermitianReconstruction) {
  const std::size_t n = 2 + GetParam() % 9;
  const CMatrix a = random_hermitian(n, GetParam() + 91);
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  CMatrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = C{eig.eigenvalues[i], 0.0};
  const CMatrix recon = eig.eigenvectors * d * eig.eigenvectors.adjoint();
  EXPECT_LT(max_abs(recon - a), 1e-10 * (1.0 + max_abs(a)));
}

TEST_P(EigenProperty, EigenvectorsOrthonormal) {
  const std::size_t n = 2 + GetParam() % 9;
  const CMatrix a = random_hermitian(n, GetParam() + 173);
  const auto eig = eigen_hermitian(a);
  ASSERT_TRUE(eig.converged);
  const CMatrix gram = eig.eigenvectors.adjoint() * eig.eigenvectors;
  EXPECT_LT(max_abs(gram - CMatrix::identity(n)), 1e-11);
}

TEST_P(EigenProperty, EigenvaluesSortedAscending) {
  const std::size_t n = 3 + GetParam() % 8;
  const CMatrix a = random_hermitian(n, GetParam() + 211);
  const auto eig = eigen_hermitian(a);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_LE(eig.eigenvalues[i], eig.eigenvalues[i + 1] + 1e-12);
  }
}

TEST_P(EigenProperty, ResidualPerEigenpairIsSmall) {
  const std::size_t n = 2 + GetParam() % 6;
  const CMatrix a = random_hermitian(n, GetParam() + 311);
  const auto eig = eigen_hermitian(a);
  for (std::size_t k = 0; k < n; ++k) {
    const CVector v = eig.eigenvectors.col(k);
    const CVector r = a * v - C{eig.eigenvalues[k], 0.0} * v;
    EXPECT_LT(norm2(r), 1e-10 * (1.0 + std::abs(eig.eigenvalues[k])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenProperty, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace safe::linalg
