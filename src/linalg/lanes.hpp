// Two-lane double vectors for the root-MUSIC kernels.
//
// The covariance, Jacobi and Durand-Kerner kernels run the IEEE operations
// that std::complex<double> arithmetic compiles to, in the same order, on two
// independent values at a time (GCC/Clang vector extension; SSE2 on x86-64,
// no extra build flags). Real and imaginary parts live in separate vectors.
//
// A complex product a * b compiles to (ar*br - ai*bi, ar*bi + ai*br) and,
// when both parts come out NaN, to a __muldc3 library call that recovers
// infinities. `mul` computes only the inline part. A product that would
// have taken the library call is NaN in both parts, and NaN survives every
// later product and sum, so it leaves a NaN in each result computed from
// it: callers test their final values with `maybe_nan` and redo flagged
// values with std::complex. Unflagged values carry exactly the bits the
// scalar code produces.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

namespace safe::linalg::lanes {

using V2 = double __attribute__((vector_size(16)));

inline V2 splat(double x) { return V2{x, x}; }

inline V2 load(const double* p) {
  V2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// Two complex numbers, split into real and imaginary lanes.
struct Split {
  V2 re;
  V2 im;
};

inline Split operator+(Split a, Split b) { return {a.re + b.re, a.im + b.im}; }
inline Split operator-(Split a, Split b) { return {a.re - b.re, a.im - b.im}; }

/// a * b as the compiler expands it, without the __muldc3 fallback.
inline Split mul(Split a, Split b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/// False only if no lane of v is NaN (opposite infinities in the two lanes
/// also answer true, which merely sends the caller to its exact slow path).
inline bool maybe_nan(V2 v) { return std::isnan(v[0] + v[1]); }

/// maybe_nan over both parts of both complex lanes.
inline bool maybe_nan(Split v) { return maybe_nan(v.re + v.im); }

}  // namespace safe::linalg::lanes
