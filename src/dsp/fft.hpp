// Iterative radix-2 FFT.
//
// The radar processing chain zero-pads to a power of two before transforming,
// so a radix-2 kernel covers every call site while staying easy to verify.
// Each power-of-two size has one process-wide plan (bit-reversal table and
// per-stage twiddles), built on first use and shared by every later
// transform of that size.
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

/// Convenience: FFT of a real signal.
ComplexSignal fft(const RealSignal& x, std::size_t min_size = 0);

/// Magnitude-squared of each bin.
RealSignal power_spectrum(const ComplexSignal& spectrum);

}  // namespace safe::dsp
