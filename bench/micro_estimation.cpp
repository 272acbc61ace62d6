// Microbenchmarks (google-benchmark) for the estimation and DSP kernels:
// per-update cost of RLS / LMS / Kalman, the paper's 118-step RLS holdover,
// the per-epoch cost of root-MUSIC vs periodogram beat extraction, and the
// FFT both as a bare 4096-point transform and as the radar runs it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"
#include "estimation/baselines.hpp"
#include "estimation/rls.hpp"
#include "estimation/rls_predictor.hpp"

namespace {

using namespace safe;

void BM_RlsUpdate(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  estimation::RlsFilter filter(dim);
  linalg::RVector h(dim, 1.0);
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < dim; ++i) h[i] = dist(rng);
    benchmark::DoNotOptimize(filter.update(h, dist(rng)));
  }
}
BENCHMARK(BM_RlsUpdate)->Arg(4)->Arg(8)->Arg(16);

void BM_LmsObserve(benchmark::State& state) {
  estimation::LmsArPredictor lms(4);
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto _ : state) {
    lms.observe(dist(rng));
  }
}
BENCHMARK(BM_LmsObserve);

void BM_KalmanCvObserve(benchmark::State& state) {
  estimation::KalmanCvPredictor kf;
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  double y = 0.0;
  for (auto _ : state) {
    y += dist(rng);
    kf.observe(y);
  }
}
BENCHMARK(BM_KalmanCvObserve);

// The paper's Results-paragraph workload: free-run the trained RLS pair
// across the 118-step attack window (k = 182..300). Paper reports ~1.2e7 ns
// in MATLAB.
void BM_RlsHoldover118(benchmark::State& state) {
  estimation::RlsArPredictor trained_d, trained_v;
  for (int k = 0; k < 182; ++k) {
    trained_d.observe(100.0 - 0.3 * k);
    trained_v.observe(-0.3 + 0.001 * k);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto d = trained_d.clone();
    auto v = trained_v.clone();
    state.ResumeTiming();
    for (int k = 0; k < 118; ++k) {
      benchmark::DoNotOptimize(d->predict_next());
      benchmark::DoNotOptimize(v->predict_next());
    }
  }
}
BENCHMARK(BM_RlsHoldover118);

dsp::ComplexSignal bench_tone(std::size_t n) {
  std::mt19937 rng(4);
  std::normal_distribution<double> awgn(0.0, 0.1);
  dsp::ComplexSignal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::polar(1.0, 2.0 * 3.14159265358979 * 0.047 *
                               static_cast<double>(i)) +
           dsp::Complex{awgn(rng), awgn(rng)};
  }
  return x;
}

void BM_RootMusic512(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::root_music_frequencies(x, 1.0e6, 1));
  }
}
BENCHMARK(BM_RootMusic512);

void BM_Periodogram512(benchmark::State& state) {
  const auto x = bench_tone(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::estimate_dominant_tone(x, 1.0e6));
  }
}
BENCHMARK(BM_Periodogram512);

void BM_Fft4096(benchmark::State& state) {
  const auto x = bench_tone(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::fft(x));
  }
}
BENCHMARK(BM_Fft4096);

// The transform the radar receiver runs: one 512-sample Hann-windowed
// segment zero-padded to 4096 points.
void BM_Fft512HannPaddedTo4096(benchmark::State& state) {
  auto x = bench_tone(512);
  dsp::apply_window(x, dsp::make_window(dsp::WindowKind::kHann, x.size()));
  dsp::ComplexSignal spectrum;
  for (auto _ : state) {
    dsp::fft_into(x, 4096, spectrum);
    benchmark::DoNotOptimize(spectrum.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft512HannPaddedTo4096);

// The spectral work of one periodogram-mode radar epoch: the up segment's
// coherence statistic and beat from one shared spectrum, then the down
// segment's beat (two 4096-point FFTs).
void BM_PeriodogramEpoch(benchmark::State& state) {
  const auto up = bench_tone(512);
  auto down = bench_tone(512);
  std::reverse(down.begin(), down.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::summarize_periodogram(up, 1.0e6));
    benchmark::DoNotOptimize(dsp::estimate_dominant_tone(down, 1.0e6));
  }
}
BENCHMARK(BM_PeriodogramEpoch);

}  // namespace

BENCHMARK_MAIN();
