#include "dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "linalg/lanes.hpp"
#include "runtime/sync.hpp"

namespace safe::dsp {

namespace lanes = linalg::lanes;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void SplitSpectrum::resize(std::size_t n) {
  // One cache line of slack in a plain allocation rather than an aligned
  // allocation: planes are freed with their worker thread, and under glibc
  // aligned blocks freed that way were not reused by the next worker, so
  // peak RSS crept up over a long campaign.
  constexpr std::size_t kLine = 64;
  size_ = n;
  storage_.resize(2 * n + kLine / sizeof(double));
  void* start = storage_.data();
  std::size_t space = storage_.size() * sizeof(double);
  std::align(kLine, 2 * n * sizeof(double), start, space);
  offset_ = static_cast<std::size_t>(static_cast<double*>(start) -
                                     storage_.data());
}

namespace {

/// Immutable tables for one power-of-two size n: the bit-reversal
/// permutation and the twiddles of every radix-2 stage, as split planes.
///
/// Stage `len` owns the len/2 twiddles from index len/2, generated by the
/// recurrence w_{k+1} = w_k * e^{-2 pi i / len}. That is the recurrence the
/// butterflies have always used, so every butterfly multiplies by the same
/// bits as before and every output stays bit-identical. (A table of
/// std::polar(1, -2 pi k / len) would be more accurate but would move every
/// result.) A stage's twiddles do not depend on n. Index 0 is unused, which
/// starts the stage with `half` butterflies per block at index `half`: a
/// whole vector of either width, and on a cache line from 8 twiddles up.
struct FftPlan {
  explicit FftPlan(std::size_t n) : bit_reversed(n) {
    twiddles.resize(n);
    double* twiddle_re = twiddles.re();
    double* twiddle_im = twiddles.im();
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1U;
      for (; j & bit; bit >>= 1U) j ^= bit;
      j ^= bit;
      bit_reversed[i] = j;
    }
    for (std::size_t len = 2; len <= n; len <<= 1U) {
      const Complex wlen =
          std::polar(1.0, -2.0 * std::numbers::pi / static_cast<double>(len));
      Complex w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        twiddle_re[len / 2 + k] = w.real();
        twiddle_im[len / 2 + k] = w.imag();
        w *= wlen;
      }
    }
  }

  /// Twiddle k of the stage with `half` butterflies per block. The inverse
  /// conjugates it, except that k = 0 keeps +0 as its imaginary part:
  /// conj() would make it -0 and change the sign of zero results.
  [[nodiscard]] Complex twiddle(std::size_t half, std::size_t k,
                                bool inverse) const {
    const double im = twiddles.im()[half + k];
    return {twiddles.re()[half + k], inverse && k > 0 ? -im : im};
  }

  std::vector<std::size_t> bit_reversed;
  SplitSpectrum twiddles;  ///< n entries; stage len at [len / 2, len).
};

/// Process-wide plans, one per power of two, built on first use and never
/// changed or freed afterwards.
struct PlanCache {
  runtime::Mutex mutex;
  std::array<std::unique_ptr<const FftPlan>, 64> plans SAFE_GUARDED_BY(mutex);
};

const FftPlan& plan_for(std::size_t n) {
  static PlanCache cache;
  runtime::MutexLock guard(cache.mutex);
  std::unique_ptr<const FftPlan>& plan =
      cache.plans.at(static_cast<std::size_t>(std::countr_zero(n)));
  if (!plan) plan = std::make_unique<const FftPlan>(n);
  return *plan;
}

// --- std::complex butterflies -----------------------------------------------
//
// The reference the split-plane kernel reproduces. It runs only for a
// transform whose split-plane output holds a NaN: there a product of both
// parts NaN may have been one that std::complex recovers through __muldc3.

/// Radix-2 butterflies of stages first_len, 2 first_len, ..., n over the
/// bit-reversed x[0, n), in place.
void complex_butterflies(Complex* x, std::size_t n, std::size_t first_len,
                         const FftPlan& plan, bool inverse) {
  for (std::size_t len = first_len; len <= n; len <<= 1U) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      Complex* lo = x + i;
      Complex* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = lo[k];
        const Complex v = hi[k] * plan.twiddle(half, k, inverse);
        lo[k] = u + v;
        hi[k] = u - v;
      }
    }
  }
}

void complex_fft_inplace(ComplexSignal& x, const FftPlan& plan, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = plan.bit_reversed[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  complex_butterflies(x.data(), n, 2, plan, inverse);
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& xi : x) xi *= inv_n;
  }
}

/// The zero-padded forward transform of a non-empty x into out[0, n), where
/// n = r * next_pow2(x.size()).
///
/// Padding leaves one input in each block of r outputs after bit reversal.
/// The first log2(r) stages only add a signed zero to it at each position of
/// its block, and that decides whether a -0.0 component survives. So each
/// block becomes its input plus the block's response to a (-0, -0) impulse,
/// which is built in block 0 first and read there while every other block is
/// filled.
void complex_fft_into(const ComplexSignal& x, std::size_t r,
                      const FftPlan& plan, ComplexSignal& out) {
  const std::size_t n = plan.bit_reversed.size();
  out.assign(n, Complex{});
  Complex* data = out.data();
  data[0] = Complex{-0.0, -0.0};
  complex_butterflies(data, r, 2, plan, /*inverse=*/false);
  for (std::size_t i = x.size(); i-- > 0;) {
    Complex* block = data + plan.bit_reversed[i];
    for (std::size_t t = 0; t < r; ++t) block[t] = x[i] + data[t];
  }
  complex_butterflies(data, n, 2 * r, plan, /*inverse=*/false);
}

// --- split-plane kernels ----------------------------------------------------
//
// Each helper is an always_inline template over the lane count L, written
// once. The two kernels at the end of this section, SplitFftInto and
// SplitTransform, run through lanes::dispatch capped at eight: at two lanes
// in the caller, at four in the avx2 thunk and at eight in the eight-lane
// (avx512f) thunk (linalg/lanes.hpp). Every width runs the same butterflies
// in the same order, so each returns the same bits.

/// Bins per block that split_butterflies runs its early stages on: 8 KB of
/// planes, which stay in L1 from one stage to the next.
constexpr std::size_t kL1Bins = 512;

/// ORs into `bits` the bits of x - x for each part x of v: they stay zero
/// while every part is finite (x - x is +0) and not once one is NaN or
/// infinite (x - x is NaN).
template <std::size_t L>
[[gnu::always_inline]] inline void or_nonfinite_bits(
    typename lanes::Lanes<L>::Bits& bits, const lanes::SplitN<L>& v) {
  using Bits = typename lanes::Lanes<L>::Bits;
  bits |= reinterpret_cast<Bits>(v.re - v.re) |
          reinterpret_cast<Bits>(v.im - v.im);
}

/// True when any lane of bits is nonzero.
template <std::size_t L>
[[gnu::always_inline]] inline bool any_bits(
    const typename lanes::Lanes<L>::Bits& bits) {
  std::uint64_t any = 0;
  for (std::size_t lane = 0; lane < L; ++lane) any |= bits[lane];
  return any != 0;
}

/// One radix-2 stage over the planes re/im[0, n), `half` butterflies per
/// block, L at a time (fewer when half < L). Each butterfly forms v = hi * w
/// inline, (hr wr - hi wi, hr wi + hi wr), then u + v and u - v: the
/// operations std::complex runs, in its order, except that a product whose
/// two parts come out NaN does not go on to __muldc3. Such a product leaves
/// a NaN in the output. With kCheck (the last stage) the stage also ORs the
/// x - x bits of every output it stores (or_nonfinite_bits) and returns
/// whether any is set: false only if every output is finite. Without it, it
/// returns false.
template <std::size_t L, bool kInverse, bool kCheck>
[[gnu::always_inline]] inline bool butterfly_stage(double* re, double* im,
                                                   std::size_t n,
                                                   std::size_t half,
                                                   const FftPlan& plan) {
  if constexpr (L > 2) {
    if (half < L) {
      return butterfly_stage<L / 2, kInverse, kCheck>(re, im, n, half, plan);
    }
  }
  typename lanes::Lanes<L>::Bits bits{};
  const double* wr = plan.twiddles.re() + half;
  const double* wi = plan.twiddles.im() + half;
  for (std::size_t i = 0; i < n; i += 2 * half) {
    double* lo_re = re + i;
    double* lo_im = im + i;
    double* hi_re = lo_re + half;
    double* hi_im = lo_im + half;
    for (std::size_t k = 0; k < half; k += L) {
      lanes::SplitN<L> w = lanes::load<L>(wr + k, wi + k);
      if constexpr (kInverse) {
        w.im = -w.im;
        if (k == 0) w.im[0] = wi[0];  // FftPlan::twiddle: k = 0 keeps +0.
      }
      const lanes::SplitN<L> u = lanes::load<L>(lo_re + k, lo_im + k);
      const lanes::SplitN<L> v =
          lanes::mul(lanes::load<L>(hi_re + k, hi_im + k), w);
      const lanes::SplitN<L> sum = u + v;
      const lanes::SplitN<L> difference = u - v;
      lanes::store(lo_re + k, lo_im + k, sum);
      lanes::store(hi_re + k, hi_im + k, difference);
      if constexpr (kCheck) {
        or_nonfinite_bits<L>(bits, sum);
        or_nonfinite_bits<L>(bits, difference);
      }
    }
  }
  if constexpr (kCheck) return any_bits<L>(bits);
  return false;
}

/// False only if every bin of the n-bin planes is finite; an infinity also
/// answers true, which merely sends the caller to its exact path. Only
/// where no vector stage runs last: n <= 2, or a one-sample input padded.
template <std::size_t L>
[[gnu::always_inline]] inline bool maybe_nan(const double* re,
                                             const double* im, std::size_t n) {
  typename lanes::Lanes<L>::Bits bits{};
  std::size_t i = 0;
  for (; i + L <= n; i += L) {
    or_nonfinite_bits<L>(bits, lanes::load<L>(re + i, im + i));
  }
  for (; i < n; ++i) {
    if (!std::isfinite(re[i]) || !std::isfinite(im[i])) return true;
  }
  return any_bits<L>(bits);
}

/// complex_butterflies on split planes; true when the result may hold a NaN
/// (the callers' cue to redo the transform with std::complex). The last
/// stage checks its outputs as it stores them (butterfly_stage), so no
/// separate pass reads the planes again; only planes that stage did not
/// write get maybe_nan.
template <std::size_t L, bool kInverse>
[[gnu::always_inline]] inline bool split_butterflies(double* re, double* im,
                                                     std::size_t n,
                                                     std::size_t first_len,
                                                     const FftPlan& plan) {
  std::size_t len = first_len;
  if (len == 2 && n >= 2) {
    // One twiddle, (1, +0), in either direction: a pair of neighbours, which
    // no vector holds apart.
    const double wr = plan.twiddles.re()[1];
    const double wi = plan.twiddles.im()[1];
    for (std::size_t i = 0; i < n; i += 2) {
      const double ur = re[i];
      const double ui = im[i];
      const double vr = re[i + 1] * wr - im[i + 1] * wi;
      const double vi = re[i + 1] * wi + im[i + 1] * wr;
      re[i] = ur + vr;
      im[i] = ui + vi;
      re[i + 1] = ur - vr;
      im[i + 1] = ui - vi;
    }
    len = 4;
  }
  if (n > kL1Bins) {
    // Every stage up to kL1Bins on one block of that many bins while it is
    // in L1, then on the next block: the same butterflies on the same
    // inputs, in another order.
    for (std::size_t b = 0; b < n; b += kL1Bins) {
      for (std::size_t l = len; l <= kL1Bins; l <<= 1U) {
        butterfly_stage<L, kInverse, false>(re + b, im + b, kL1Bins, l / 2,
                                            plan);
      }
    }
    len = std::max(len, 2 * kL1Bins);
  }
  if (len > n) return maybe_nan<L>(re, im, n);
  for (; len < n; len <<= 1U) {
    butterfly_stage<L, kInverse, false>(re, im, n, len / 2, plan);
  }
  return butterfly_stage<L, kInverse, true>(re, im, n, n / 2, plan);
}

/// Block bit_reversed[i] of r bins becomes x[i] plus block 0, for i from the
/// last input down, so block 0 (i = 0) is overwritten last; L bins at a
/// time (fewer when r < L).
template <std::size_t L>
[[gnu::always_inline]] inline void fill_blocks(const ComplexSignal& x,
                                               std::size_t r,
                                               const FftPlan& plan, double* re,
                                               double* im) {
  if constexpr (L > 2) {
    if (r < L) {
      fill_blocks<L / 2>(x, r, plan, re, im);
      return;
    }
  }
  for (std::size_t i = x.size(); i-- > 0;) {
    const std::size_t block = plan.bit_reversed[i];
    const lanes::SplitN<L> xi = lanes::splat<L>(x[i].real(), x[i].imag());
    for (std::size_t t = 0; t < r; t += L) {
      lanes::store(re + block + t, im + block + t,
                   xi + lanes::load<L>(re + t, im + t));
    }
  }
}

/// The split-plane counterpart of complex_fft_into, writing re/im[0, n);
/// true when the result may hold a NaN.
struct SplitFftInto {
  template <std::size_t L>
  [[gnu::always_inline]] static bool run(const ComplexSignal& x, std::size_t r,
                                         const FftPlan& plan, double* re,
                                         double* im) {
    const std::size_t n = plan.bit_reversed.size();
    if (x.size() < n / r) {
      // Inputs beyond x.size() are zero blocks the fill below never writes.
      std::fill(re, re + n, 0.0);
      std::fill(im, im + n, 0.0);
    }
    re[0] = -0.0;
    im[0] = -0.0;
    std::fill(re + 1, re + r, 0.0);
    std::fill(im + 1, im + r, 0.0);
    // Block 0's impulse response holds signed zeros only: nothing to check.
    split_butterflies<L, false>(re, im, r, 2, plan);
    if (r == 1) {
      for (std::size_t i = x.size(); i-- > 0;) {
        const std::size_t block = plan.bit_reversed[i];
        re[block] = x[i].real() + re[0];
        im[block] = x[i].imag() + im[0];
      }
    } else {
      fill_blocks<L>(x, r, plan, re, im);
    }
    return split_butterflies<L, false>(re, im, n, 2 * r, plan);
  }
};

/// The transform of the bit-reversed planes re/im[0, n) in place, the
/// inverse scaled by 1 / n; true when the result may hold a NaN.
struct SplitTransform {
  template <std::size_t L>
  [[gnu::always_inline]] static bool run(double* re, double* im, std::size_t n,
                                         const FftPlan& plan, bool inverse) {
    if (!inverse) return split_butterflies<L, false>(re, im, n, 2, plan);
    // Scaling by 1 / n (<= 1) keeps finite parts finite and non-finite ones
    // non-finite, so the check of the unscaled outputs holds for the scaled.
    const bool flagged = split_butterflies<L, true>(re, im, n, 2, plan);
    // Complex *= double scales each part: (re / n, im / n) as re * (1 / n).
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] *= inv_n;
      im[i] *= inv_n;
    }
    return flagged;
  }
};

/// Each thread's planes for the transforms that return interleaved output.
SplitSpectrum& thread_planes() {
  thread_local SplitSpectrum planes;
  return planes;
}

void fft_core(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  if (!is_pow2(n)) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
  const FftPlan& plan = plan_for(n);
  SplitSpectrum& planes = thread_planes();
  planes.resize(n);
  double* re = planes.re();
  double* im = planes.im();
  for (std::size_t i = 0; i < n; ++i) {
    re[plan.bit_reversed[i]] = x[i].real();
    im[plan.bit_reversed[i]] = x[i].imag();
  }
  if (lanes::dispatch<SplitTransform, 8>(re, im, n, plan, inverse)) {
    complex_fft_inplace(x, plan, inverse);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = Complex{re[i], im[i]};
}

}  // namespace

void fft_inplace(ComplexSignal& x) { fft_core(x, /*inverse=*/false); }

void ifft_inplace(ComplexSignal& x) { fft_core(x, /*inverse=*/true); }

void fft_into(const ComplexSignal& x, std::size_t min_size,
              SplitSpectrum& out) {
  const std::size_t signal_size = next_pow2(x.size());
  const std::size_t n = std::max(signal_size, next_pow2(min_size));
  out.resize(n);
  if (x.empty()) {  // Zeros transform to +0 everywhere.
    std::fill(out.re(), out.re() + n, 0.0);
    std::fill(out.im(), out.im() + n, 0.0);
    return;
  }
  const FftPlan& plan = plan_for(n);
  const std::size_t r = n / signal_size;
  if (lanes::dispatch<SplitFftInto, 8>(x, r, plan, out.re(), out.im())) {
    ComplexSignal exact;
    complex_fft_into(x, r, plan, exact);
    for (std::size_t i = 0; i < n; ++i) {
      out.re()[i] = exact[i].real();
      out.im()[i] = exact[i].imag();
    }
  }
}

void fft_into(const ComplexSignal& x, std::size_t min_size,
              ComplexSignal& out) {
  SplitSpectrum& planes = thread_planes();
  fft_into(x, min_size, planes);
  out.resize(planes.size());
  for (std::size_t i = 0; i < planes.size(); ++i) {
    out[i] = Complex{planes.re()[i], planes.im()[i]};
  }
}

ComplexSignal fft(const ComplexSignal& x, std::size_t min_size) {
  ComplexSignal out;
  fft_into(x, min_size, out);
  return out;
}

ComplexSignal fft(const RealSignal& x, std::size_t min_size) {
  ComplexSignal cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = Complex{x[i], 0.0};
  return fft(cx, min_size);
}

}  // namespace safe::dsp
