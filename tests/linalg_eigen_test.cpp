// Tests for the Jacobi Hermitian eigensolver.
#include "linalg/eigen_hermitian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numeric>
#include <random>

#include "linalg/matrix.hpp"

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

/// The cyclic Jacobi loop the split-plane kernel replaced, kept as the
/// oracle: rotations applied to columns and rows of the full matrix with
/// std::complex arithmetic.
template <typename T>
HermitianEigenResult<T> reference_eigen_hermitian(Matrix<T> a,
                                                  real_of_t<T> tol = 1e-13,
                                                  std::size_t max_sweeps = 64) {
  using R = real_of_t<T>;
  const std::size_t n = a.rows();
  Matrix<T> v = Matrix<T>::identity(n);
  const auto off_diagonal_norm2 = [&] {
    R acc{};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) acc += std::norm(std::complex<R>(a(i, j)));
      }
    }
    return acc;
  };

  HermitianEigenResult<T> result;
  const R scale = frobenius_norm(a);
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
  Vector<R> raw(n);
  for (std::size_t i = 0; i < n; ++i) {
    raw[i] = std::real(std::complex<R>(a(i, i)));
  }
  std::sort(order.begin(), order.end(),
            [&raw](std::size_t x, std::size_t y) { return raw[x] < raw[y]; });
  result.eigenvalues = Vector<R>(n);
  result.eigenvectors = Matrix<T>(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = raw[order[k]];
    result.eigenvectors.set_col(k, v.col(order[k]));
  }
  return result;
}

/// Eigenvalues, eigenvectors, sweeps and convergence flag, bit for bit.
template <typename T>
void expect_matches_oracle(const Matrix<T>& a, const char* label) {
  const auto got = eigen_hermitian(a);
  const auto want = reference_eigen_hermitian(a);
  const std::size_t n = a.rows();
  EXPECT_EQ(got.sweeps, want.sweeps) << label << " n=" << n;
  EXPECT_EQ(got.converged, want.converged) << label << " n=" << n;
  ASSERT_EQ(got.eigenvalues.size(), n);
  ASSERT_EQ(got.eigenvectors.rows(), n);
  ASSERT_EQ(got.eigenvectors.cols(), n);
  EXPECT_EQ(std::memcmp(got.eigenvalues.data(), want.eigenvalues.data(),
                        n * sizeof(real_of_t<T>)),
            0)
      << label << " n=" << n;
  EXPECT_EQ(std::memcmp(got.eigenvectors.data(), want.eigenvectors.data(),
                        n * n * sizeof(T)),
            0)
      << label << " n=" << n;
}

TEST(EigenOracle, HermitianMatchesReferenceLoopBitForBit) {
  for (std::size_t n = 1; n <= 17; ++n) {
    expect_matches_oracle(random_hermitian(n, static_cast<unsigned>(n) + 500),
                          "hermitian");
  }
  expect_matches_oracle(random_hermitian(24, 77), "hermitian");
}

TEST(EigenOracle, RealSymmetricMatchesReferenceLoopBitForBit) {
  for (std::size_t n = 1; n <= 12; ++n) {
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

TEST(EigenOracle, TriangleMismatchesAndSkippedRotations) {
  // The lower triangle is read from the input until a rotation rewrites it,
  // so a matrix Hermitian only to roundoff (or with +0 where the conjugate
  // has -0) must see exactly those lower entries.
  for (std::size_t n : {2u, 5u, 8u, 16u}) {
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
  for (std::size_t n : {3u, 6u, 9u}) {
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

TEST(EigenOracle, NonFiniteEntries) {
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
    for (std::size_t n : {1u, 2u, 3u, 6u}) {
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
