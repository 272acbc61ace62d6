#include "dsp/covariance.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/lanes.hpp"

namespace safe::dsp {

using linalg::CMatrix;
namespace lanes = linalg::lanes;

namespace {

/// Vectors per plane in one accumulation pass (L * kBlock entries). Wider
/// blocks run out of vector registers: loads shared between consecutive
/// window positions then spill and the accumulation slows down.
constexpr std::size_t kBlock = 2;

/// Sums `snapshots` consecutive terms of each plane for the L * kBlock
/// entries starting at `first`: sums[p][e] = planes[p][first + e] + ... +
/// planes[p][first + e + snapshots - 1], added left to right from +0.0,
/// the order the snapshot loop of the direct form adds them in.
template <std::size_t L, std::size_t P>
[[gnu::always_inline]] inline void sum_windows(
    const double* const (&planes)[P], std::size_t first, std::size_t snapshots,
    double (&sums)[P][L * kBlock]) {
  lanes::V<L> acc[P][kBlock] = {};
  for (std::size_t t = first; t < first + snapshots; ++t) {
#pragma GCC unroll 3
    for (std::size_t p = 0; p < P; ++p) {
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kBlock; ++v) {
        lanes::V<L> term;
        lanes::load_plane<L>(term, planes[p] + t + L * v);
        acc[p][v] += term;
      }
    }
  }
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t v = 0; v < kBlock; ++v) {
      lanes::store_plane<L>(&sums[p][L * v], acc[p][v]);
    }
  }
}

// Entry (i, i + l) sums the lag-l product y[k] conj(y[k + l]) over
// k = i .. i + snapshots - 1, and entry (i + l, i) sums y[k + l] conj(y[k])
// over the same k. Each lag's products are formed once into per-lag scratch
// planes, L at a time, then every entry of that lag sums its window in
// snapshot order, L entries per vector, so each entry sees the same
// products added in the same order as the direct triple loop. The two
// directions differ only in the sign of the imaginary part (Q - P above the
// diagonal, P - Q below) and, where __muldc3 recovers an infinity, possibly
// in the real part; both are formed and summed so signed zeros, infinities
// and NaNs match. Writes the unscaled sums into r.
template <std::size_t L>
[[gnu::always_inline]] inline void lag_sums(const ComplexSignal& signal,
                                            CMatrix& r) {
  const std::size_t n = signal.size();
  const std::size_t order = r.rows();
  const std::size_t snapshots = n - order + 1;

  // Split signal planes, padded so an L-lane load at the last index stays
  // in bounds.
  std::vector<double> y_re(n + 2 * L, 0.0);
  std::vector<double> y_im(n + 2 * L, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    y_re[k] = signal[k].real();
    y_im[k] = signal[k].imag();
  }
  // Per-lag products; the padding keeps the window loads of a block's
  // unused entries in bounds (their sums are discarded).
  const std::size_t plane = n + 2 * L * kBlock;
  std::vector<double> scratch(4 * plane, 0.0);
  double* const up_re = scratch.data();
  double* const up_im = up_re + plane;
  double* const lo_re = up_im + plane;
  double* const lo_im = lo_re + plane;

  for (std::size_t lag = 0; lag < order; ++lag) {
    const std::size_t len = n - lag;
    // Without a NaN the two real parts are the same products of the same
    // operands (c*a == a*c, d*(-b) == b*(-d)), so one plane serves both.
    bool exact = false;
    for (std::size_t k = 0; k < len; k += L) {
      const lanes::SplitN<L> a = lanes::load<L>(&y_re[k], &y_im[k]);
      const lanes::SplitN<L> b =
          lanes::load<L>(&y_re[k + lag], &y_im[k + lag]);
      const lanes::SplitN<L> up = lanes::mul(a, {b.re, -b.im});
      const lanes::SplitN<L> lo = lanes::mul(b, {a.re, -a.im});
      if (lanes::maybe_nan(up + lo)) {
        exact = true;
        break;
      }
      lanes::store(up_re + k, up_im + k, up);
      lanes::store_plane<L>(lo_im + k, lo.im);
    }
    if (exact) {
      for (std::size_t k = 0; k < len; ++k) {
        const Complex u = signal[k] * std::conj(signal[k + lag]);
        const Complex d = signal[k + lag] * std::conj(signal[k]);
        up_re[k] = u.real();
        up_im[k] = u.imag();
        lo_re[k] = d.real();
        lo_im[k] = d.imag();
      }
    }
    // With a NaN the real parts may differ in payload, or where __muldc3
    // recovered an infinity.
    const bool split_real =
        exact && std::memcmp(up_re, lo_re, len * sizeof(double)) != 0;

    const std::size_t entries = order - lag;
    constexpr std::size_t kEntries = L * kBlock;
    for (std::size_t first = 0; first < entries; first += kEntries) {
      const std::size_t count =
          entries - first < kEntries ? entries - first : kEntries;
      if (lag == 0) {
        double sums[2][kEntries] = {};
        sum_windows<L, 2>({up_re, up_im}, first, snapshots, sums);
        for (std::size_t e = 0; e < count; ++e) {
          r(first + e, first + e) = Complex{sums[0][e], sums[1][e]};
        }
        continue;
      }
      double sums[3][kEntries] = {};
      sum_windows<L, 3>({up_re, up_im, lo_im}, first, snapshots, sums);
      double lower_re[1][kEntries] = {};
      if (split_real) sum_windows<L, 1>({lo_re}, first, snapshots, lower_re);
      for (std::size_t e = 0; e < count; ++e) {
        const std::size_t i = first + e;
        r(i, i + lag) = Complex{sums[0][e], sums[1][e]};
        r(i + lag, i) =
            Complex{split_real ? lower_re[0][e] : sums[0][e], sums[2][e]};
      }
    }
  }
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void four_lane_lag_sums(const ComplexSignal& signal,
                                                CMatrix& r) {
  lag_sums<4>(signal, r);
}
#endif

/// lag_sums at four lanes when lanes::width() is 4 or 8 (eight measured no
/// faster), else at two.
void lag_sums_at_width(const ComplexSignal& signal, CMatrix& r) {
#if defined(__x86_64__)
  if (lanes::width() >= 4) {
    four_lane_lag_sums(signal, r);
    return;
  }
#endif
  lag_sums<2>(signal, r);
}

}  // namespace

CMatrix sample_covariance(const ComplexSignal& signal, std::size_t order) {
  if (order == 0) {
    throw std::invalid_argument("sample_covariance: order must be >= 1");
  }
  if (signal.size() < order) {
    throw std::invalid_argument("sample_covariance: signal shorter than order");
  }
  CMatrix r(order, order);
  lag_sums_at_width(signal, r);
  const double scale = 1.0 / static_cast<double>(signal.size() - order + 1);
  for (std::size_t i = 0; i < order; ++i) {
    for (std::size_t j = 0; j < order; ++j) r(i, j) *= scale;
  }
  return r;
}

CMatrix exchange_conjugate(const CMatrix& r) {
  const std::size_t n = r.rows();
  CMatrix out(n, r.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      out(i, j) = std::conj(r(n - 1 - i, r.cols() - 1 - j));
    }
  }
  return out;
}

CMatrix forward_backward_covariance(const ComplexSignal& signal,
                                    std::size_t order) {
  const CMatrix fwd = sample_covariance(signal, order);
  const CMatrix bwd = exchange_conjugate(fwd);
  CMatrix avg = fwd;
  avg += bwd;
  avg *= Complex{0.5, 0.0};
  return avg;
}

}  // namespace safe::dsp
