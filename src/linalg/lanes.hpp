// Double vectors for the split-plane kernels: two lanes (SSE2), four (AVX2)
// or eight (AVX-512F).
//
// The FFT, the periodogram's power scans and the root-MUSIC kernels
// (covariance, Jacobi, noise projector, null-power ranking, Durand-Kerner
// Horner chains) run the IEEE operations that std::complex<double>
// arithmetic compiles to, in the same order, on independent values at a
// time (GCC/Clang vector extension).
// Real and imaginary parts live in separate vectors, so a lane's bits never
// depend on the lane count.
//
// A complex product a * b compiles to (ar*br - ai*bi, ar*bi + ai*br) and,
// when both parts come out NaN, to a __muldc3 library call that recovers
// infinities. `mul` computes only the inline part. A product that would
// have taken the library call is NaN in both parts, and NaN survives every
// later product and sum, so it leaves a NaN in each result computed from
// it: callers test their final values with `maybe_nan` and redo flagged
// values with std::complex. Unflagged values carry exactly the bits the
// scalar code produces.
//
// Width. Two lanes are the x86-64 baseline and need no build flag. Four
// lanes need AVX2 and eight AVX-512F, which only some CPUs have. Each kernel
// is a struct whose always_inline `run<L>` is written once over the lane
// count, and `dispatch<Kernel, kMaxLanes>(args...)` below runs it at
// min(width(), kMaxLanes) lanes: at eight inside one `avx512f` thunk, at four
// inside one `avx2` thunk, at two without either. This file is the only one
// in src/ that names a target or the architecture (tools/lint's
// width-dispatch check keeps it so); the width is never a build flag or an
// option. AVX-512F encodes fused multiply-adds, so `avx512f` is allowed on
// the eight-lane thunk only, where -ffp-contract=off keeps GCC from fusing a
// product into a sum and the lint.no_fused_multiply_add test disassembles
// every library to prove it. No other target with FMA (fma, x86-64-v3,
// -march=native) is ever enabled.
//
// Each call site names its kernel's cap. The FFT transform, the zero-padded
// fft_into and the periodogram's peak-only scan are capped at eight. The
// summing scan stops at four: extracting eight lanes for the in-order sum
// costs more than it saves. The root-MUSIC kernels (covariance lag sums,
// Jacobi sweeps, noise projector, null powers, Horner chains) stop at
// kMaxMusicWidth, four, so eight lanes run them at four, never two: at eight
// they measured no faster.
//
// No function takes or returns a bare four- or eight-lane vector: a 32-byte
// vector passes in a register only with AVX (a 64-byte one only with
// AVX-512F), so GCC's -Wpsabi fires on such a function compiled without it
// (an error under -Werror), and clang refuses the call outright when caller
// and callee targets differ. The wide helpers below therefore trade in
// SplitN structs, by reference or as a return value, and the thunks take
// the kernel's arguments by reference; a lambda over bare wide vectors
// inside a kernel is a separate function without the target, and trips the
// same diagnostic.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace safe::linalg::lanes {

/// The vector types of each width: doubles, their bits, and a signed lane
/// index (what comparing two double vectors yields). Explicit
/// specializations, because GCC 12 silently drops `vector_size(8 * L)` on a
/// dependent alias template, which would make the wide vector a lone double
/// (sizeof 8).
template <std::size_t L>
struct Lanes;

template <>
struct Lanes<2> {
  using V = double __attribute__((vector_size(16)));
  using Bits = std::uint64_t __attribute__((vector_size(16)));
  using Index = std::int64_t __attribute__((vector_size(16)));
};

template <>
struct Lanes<4> {
  using V = double __attribute__((vector_size(32)));
  using Bits = std::uint64_t __attribute__((vector_size(32)));
  using Index = std::int64_t __attribute__((vector_size(32)));
};

template <>
struct Lanes<8> {
  using V = double __attribute__((vector_size(64)));
  using Bits = std::uint64_t __attribute__((vector_size(64)));
  using Index = std::int64_t __attribute__((vector_size(64)));
};

template <std::size_t L>
using V = typename Lanes<L>::V;
using V2 = V<2>;

static_assert(sizeof(V<4>) == 4 * sizeof(double));
static_assert(sizeof(V<8>) == 8 * sizeof(double));

/// The widest lane count the root-MUSIC kernels run at, their dispatch cap:
/// their planes, padded by a multiple of it, serve every width they run.
inline constexpr std::size_t kMaxMusicWidth = 4;

inline V2 splat(double x) { return V2{x, x}; }

inline V2 load(const double* p) {
  V2 v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

/// The L doubles of one plane at p into v, and v back to p.
template <std::size_t L>
inline void load_plane(V<L>& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <std::size_t L>
inline void store_plane(double* p, const V<L>& v) {
  std::memcpy(p, &v, sizeof v);
}

/// L complex numbers, split into real and imaginary lanes.
template <std::size_t L>
struct SplitN {
  V<L> re;
  V<L> im;
};

using Split = SplitN<2>;

template <std::size_t L>
inline SplitN<L> operator+(const SplitN<L>& a, const SplitN<L>& b) {
  return {a.re + b.re, a.im + b.im};
}

template <std::size_t L>
inline SplitN<L> operator-(const SplitN<L>& a, const SplitN<L>& b) {
  return {a.re - b.re, a.im - b.im};
}

/// a * b as the compiler expands it, without the __muldc3 fallback.
template <std::size_t L>
inline SplitN<L> mul(const SplitN<L>& a, const SplitN<L>& b) {
  return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/// L complex numbers from the planes at re and im.
template <std::size_t L>
inline SplitN<L> load(const double* re, const double* im) {
  SplitN<L> v{};
  std::memcpy(&v.re, re, sizeof v.re);
  std::memcpy(&v.im, im, sizeof v.im);
  return v;
}

template <std::size_t L>
inline void store(double* re, double* im, const SplitN<L>& v) {
  std::memcpy(re, &v.re, sizeof v.re);
  std::memcpy(im, &v.im, sizeof v.im);
}

/// (re, im) in every lane.
template <std::size_t L>
inline SplitN<L> splat(double re, double im) {
  SplitN<L> v{};
  for (std::size_t i = 0; i < L; ++i) {
    v.re[i] = re;
    v.im[i] = im;
  }
  return v;
}

/// False only if no part of any lane of v is NaN. The parts are summed, and
/// a NaN survives every sum; opposite infinities also answer true, which
/// merely sends the caller to its exact slow path.
template <std::size_t L>
inline bool maybe_nan(const SplitN<L>& v) {
  const V<L> parts = v.re + v.im;
  double sum = parts[0];
  for (std::size_t i = 1; i < L; ++i) sum += parts[i];
  return std::isnan(sum);
}

/// True when this CPU runs the kernels at `lanes` doubles per vector: 2
/// always, 4 with AVX2, 8 with AVX-512F (libgcc's checks include the OS
/// saving the wide registers). Eight lanes also run the kernels that stop
/// at four, so they need AVX2 as well, which every AVX-512F CPU has.
inline bool width_supported(std::size_t lanes) {
  if (lanes == 2) return true;
#if defined(__x86_64__)
  if (lanes == 4) return __builtin_cpu_supports("avx2");
  if (lanes == 8) {
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("avx512f");
  }
#endif
  return false;
}

namespace detail {
/// 0, or the width a ScopedWidth forces on this thread.
inline thread_local std::size_t forced_width = 0;
}  // namespace detail

/// Doubles per vector for the split-plane kernels: 8 on a CPU with
/// AVX-512F, else 4 with AVX2, else 2. Decided on first use and fixed for
/// the life of the process.
inline std::size_t width() {
  static const std::size_t detected = width_supported(8)   ? 8
                                      : width_supported(4) ? 4
                                                           : 2;
  return detail::forced_width != 0 ? detail::forced_width : detected;
}

namespace detail {

/// While alive, width() answers `lanes` on the constructing thread. Only for
/// tests and benches that run several widths on one machine; throws
/// std::invalid_argument for a width this CPU cannot run.
class ScopedWidth {
 public:
  explicit ScopedWidth(std::size_t lanes) : previous_(forced_width) {
    if (!width_supported(lanes)) {
      throw std::invalid_argument("lanes: width not available on this CPU");
    }
    forced_width = lanes;
  }
  ~ScopedWidth() { forced_width = previous_; }
  ScopedWidth(const ScopedWidth&) = delete;
  ScopedWidth& operator=(const ScopedWidth&) = delete;

 private:
  std::size_t previous_;
};

#if defined(__x86_64__)
/// Kernel::run at four and at eight lanes, each compiled for the extension
/// it needs; run<L> and every always_inline helper it calls are built into
/// the thunk with it.
template <typename Kernel, typename... Args>
[[gnu::target("avx2")]] auto avx2_thunk(Args&&... args) {
  return Kernel::template run<4>(std::forward<Args>(args)...);
}

template <typename Kernel, typename... Args>
[[gnu::target("avx512f")]] auto avx512f_thunk(Args&&... args) {
  return Kernel::template run<8>(std::forward<Args>(args)...);
}
#endif

}  // namespace detail

/// Kernel::run<L>(args...) at L = min(width(), kMaxLanes), the widest its
/// call site allows: the one place a kernel's width is chosen.
template <typename Kernel, std::size_t kMaxLanes, typename... Args>
auto dispatch(Args&&... args) {
  static_assert(kMaxLanes == 4 || kMaxLanes == 8);
#if defined(__x86_64__)
  const std::size_t lanes = width();
  if constexpr (kMaxLanes == 8) {
    if (lanes == 8) {
      return detail::avx512f_thunk<Kernel>(std::forward<Args>(args)...);
    }
  }
  if (lanes >= 4) {
    return detail::avx2_thunk<Kernel>(std::forward<Args>(args)...);
  }
#endif
  return Kernel::template run<2>(std::forward<Args>(args)...);
}

}  // namespace safe::linalg::lanes
