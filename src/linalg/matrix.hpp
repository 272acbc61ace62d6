// Dense row-major matrix and vector types used throughout the library.
//
// The reproduction deliberately avoids external linear-algebra dependencies:
// everything downstream (RLS, root-MUSIC) operates on small dense matrices
// (n <= a few hundred), for which a straightforward, carefully tested
// implementation is both fast enough and easy to audit.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace safe::linalg {

/// Trait: the real scalar type underlying T (double for std::complex<double>).
template <typename T>
struct real_of {
  using type = T;
};
template <typename T>
struct real_of<std::complex<T>> {
  using type = T;
};
template <typename T>
using real_of_t = typename real_of<T>::type;

/// Complex conjugate that is the identity for real scalars.
template <typename T>
constexpr T conj_scalar(const T& v) {
  if constexpr (std::is_same_v<T, std::complex<real_of_t<T>>>) {
    return std::conj(v);
  } else {
    return v;
  }
}

/// Dense column vector with value semantics.
template <typename T>
class Vector {
 public:
  Vector() = default;

  explicit Vector(std::size_t n, T init = T{}) : data_(n, init) {}

  Vector(std::initializer_list<T> values) : data_(values) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access; throws std::out_of_range on violation.
  T& at(std::size_t i) { return data_.at(i); }
  const T& at(std::size_t i) const { return data_.at(i); }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  Vector& operator+=(const Vector& rhs) {
    require_same_size(rhs, "+=");
    for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs[i];
    return *this;
  }

  Vector& operator-=(const Vector& rhs) {
    require_same_size(rhs, "-=");
    for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs[i];
    return *this;
  }

  Vector& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  Vector& operator/=(T scalar) {
    for (auto& v : data_) v /= scalar;
    return *this;
  }

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, T scalar) { return lhs *= scalar; }
  friend Vector operator*(T scalar, Vector rhs) { return rhs *= scalar; }
  friend Vector operator/(Vector lhs, T scalar) { return lhs /= scalar; }

  friend bool operator==(const Vector& a, const Vector& b) {
    return a.data_ == b.data_;
  }

 private:
  void require_same_size(const Vector& rhs, const char* op) const {
    if (size() != rhs.size()) {
      throw std::invalid_argument(std::string("Vector") + op +
                                  ": size mismatch");
    }
  }

  std::vector<T> data_;
};

/// Hermitian inner product <a, b> = sum conj(a_i) * b_i (plain dot for reals).
template <typename T>
T dot(const Vector<T>& a, const Vector<T>& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: size mismatch");
  }
  T acc{};
  for (std::size_t i = 0; i < a.size(); ++i) acc += conj_scalar(a[i]) * b[i];
  return acc;
}

/// Euclidean norm.
template <typename T>
real_of_t<T> norm2(const Vector<T>& v) {
  real_of_t<T> acc{};
  for (std::size_t i = 0; i < v.size(); ++i) acc += std::norm(std::complex<real_of_t<T>>(v[i]));
  return std::sqrt(acc);
}

/// Largest absolute entry.
template <typename T>
real_of_t<T> norm_inf(const Vector<T>& v) {
  real_of_t<T> best{};
  for (std::size_t i = 0; i < v.size(); ++i) {
    best = std::max(best, std::abs(v[i]));
  }
  return best;
}

/// Dense row-major matrix with value semantics.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Builds a matrix from nested brace lists; all rows must agree in length.
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      if (r.size() != cols_) {
        throw std::invalid_argument("Matrix: ragged initializer rows");
      }
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  /// n-by-n matrix with `diag` replicated on the diagonal.
  static Matrix scaled_identity(std::size_t n, T diag) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = diag;
    return m;
  }

  static Matrix from_diagonal(const Vector<T>& d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] bool is_square() const { return rows_ == cols_; }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range on violation.
  T& at(std::size_t r, std::size_t c) {
    check_index(r, c);
    return (*this)(r, c);
  }
  const T& at(std::size_t r, std::size_t c) const {
    check_index(r, c);
    return (*this)(r, c);
  }

  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  [[nodiscard]] Vector<T> row(std::size_t r) const {
    Vector<T> out(cols_);
    for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
    return out;
  }

  [[nodiscard]] Vector<T> col(std::size_t c) const {
    Vector<T> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
    return out;
  }

  void set_row(std::size_t r, const Vector<T>& v) {
    if (v.size() != cols_) throw std::invalid_argument("set_row: size");
    for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
  }

  void set_col(std::size_t c, const Vector<T>& v) {
    if (v.size() != rows_) throw std::invalid_argument("set_col: size");
    for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
  }

  [[nodiscard]] Vector<T> diagonal() const {
    const std::size_t n = std::min(rows_, cols_);
    Vector<T> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = (*this)(i, i);
    return out;
  }

  [[nodiscard]] Matrix transpose() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
    return out;
  }

  /// Conjugate transpose (plain transpose for real scalars).
  [[nodiscard]] Matrix adjoint() const {
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c)
        out(c, r) = conj_scalar((*this)(r, c));
    return out;
  }

  Matrix& operator+=(const Matrix& rhs) {
    require_same_shape(rhs, "+=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
  }

  Matrix& operator-=(const Matrix& rhs) {
    require_same_shape(rhs, "-=");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
  }

  Matrix& operator*=(T scalar) {
    for (auto& v : data_) v *= scalar;
    return *this;
  }

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, T scalar) { return lhs *= scalar; }
  friend Matrix operator*(T scalar, Matrix rhs) { return rhs *= scalar; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_) {
      throw std::invalid_argument("Matrix*: inner dimension mismatch");
    }
    Matrix out(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) {
          out(i, j) += aik * b(k, j);
        }
      }
    }
    return out;
  }

  friend Vector<T> operator*(const Matrix& m, const Vector<T>& v) {
    if (m.cols_ != v.size()) {
      throw std::invalid_argument("Matrix*Vector: dimension mismatch");
    }
    Vector<T> out(m.rows_);
    for (std::size_t i = 0; i < m.rows_; ++i) {
      T acc{};
      for (std::size_t j = 0; j < m.cols_; ++j) acc += m(i, j) * v[j];
      out[i] = acc;
    }
    return out;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  void check_index(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) {
      throw std::out_of_range("Matrix::at: index out of range");
    }
  }

  void require_same_shape(const Matrix& rhs, const char* op) const {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
      throw std::invalid_argument(std::string("Matrix") + op +
                                  ": shape mismatch");
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

/// Rank-1 product a * b^H (outer product; b is conjugated for complex T).
template <typename T>
Matrix<T> outer(const Vector<T>& a, const Vector<T>& b) {
  Matrix<T> out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j)
      out(i, j) = a[i] * conj_scalar(b[j]);
  return out;
}

/// Frobenius norm.
template <typename T>
real_of_t<T> frobenius_norm(const Matrix<T>& m) {
  real_of_t<T> acc{};
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      acc += std::norm(std::complex<real_of_t<T>>(m(r, c)));
  return std::sqrt(acc);
}

/// Largest absolute entry.
template <typename T>
real_of_t<T> max_abs(const Matrix<T>& m) {
  real_of_t<T> best{};
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      best = std::max(best, std::abs(m(r, c)));
  return best;
}

template <typename T>
std::ostream& operator<<(std::ostream& os, const Vector<T>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << v[i];
  }
  return os << ']';
}

template <typename T>
std::ostream& operator<<(std::ostream& os, const Matrix<T>& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) os << ", ";
      os << m(r, c);
    }
    os << (r + 1 == m.rows() ? "]]" : "]\n");
  }
  return os;
}

using RMatrix = Matrix<double>;
using RVector = Vector<double>;
using CMatrix = Matrix<std::complex<double>>;
using CVector = Vector<std::complex<double>>;

}  // namespace safe::linalg
