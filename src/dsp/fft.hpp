// Iterative radix-2 FFT.
//
// The radar processing chain zero-pads to a power of two before transforming,
// so a radix-2 kernel covers every call site while staying easy to verify.
// Each power-of-two size has one process-wide plan (bit-reversal table and
// per-stage twiddles), built on first use and shared by every later
// transform of that size. Every transform runs on split real/imaginary
// planes, two butterflies per vector, and returns the bits the
// std::complex<double> butterfly loop returns.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace safe::dsp {

using Complex = std::complex<double>;
using ComplexSignal = std::vector<Complex>;
using RealSignal = std::vector<double>;

/// Smallest power of two >= n (minimum 1).
std::size_t next_pow2(std::size_t n);

/// True iff n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// In-place forward FFT; `x.size()` must be a power of two.
/// Throws std::invalid_argument otherwise.
void fft_inplace(ComplexSignal& x);

/// In-place inverse FFT (normalized by 1/N); size must be a power of two.
void ifft_inplace(ComplexSignal& x);

/// Out-of-place forward FFT of an arbitrary-length signal, zero-padded to
/// `min_size` (or the next power of two above the signal length, whichever
/// is larger).
ComplexSignal fft(const ComplexSignal& x, std::size_t min_size = 0);

/// fft(x, min_size) written into `out`, reusing its storage.
void fft_into(const ComplexSignal& x, std::size_t min_size, ComplexSignal& out);

/// A spectrum held as split real and imaginary planes, the layout the
/// transform runs on. Reusing one across calls keeps its storage.
///
/// The imaginary plane follows the real one directly. From 512 bins up that
/// puts re[k] and im[k] a multiple of 4 KB apart, so bins of the two planes
/// share their low 12 address bits only at the same k, and a butterfly's
/// loads never wait on a recent store to another bin that merely looks like
/// the same address. Planes allocated apart can land 16 bytes off that, and
/// then they do.
class SplitSpectrum {
 public:
  /// Sets the number of bins; their values are unspecified until written.
  void resize(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] double* re() noexcept { return storage_.data(); }
  [[nodiscard]] double* im() noexcept { return storage_.data() + size_; }
  [[nodiscard]] const double* re() const noexcept { return storage_.data(); }
  [[nodiscard]] const double* im() const noexcept {
    return storage_.data() + size_;
  }

 private:
  std::vector<double> storage_;
  std::size_t size_ = 0;
};

/// fft(x, min_size) written into `out` as split planes.
void fft_into(const ComplexSignal& x, std::size_t min_size, SplitSpectrum& out);

/// Convenience: FFT of a real signal.
ComplexSignal fft(const RealSignal& x, std::size_t min_size = 0);

/// Magnitude-squared of each bin.
RealSignal power_spectrum(const ComplexSignal& spectrum);

}  // namespace safe::dsp
