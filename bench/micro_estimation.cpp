// Microbenchmarks (google-benchmark) for the estimation and DSP kernels:
// per-update cost of RLS / LMS / Kalman, the paper's 118-step RLS holdover,
// the per-epoch cost of root-MUSIC vs periodogram beat extraction, the FFT
// both as a bare 4096-point transform and as the radar runs it, the three
// root-MUSIC kernels at the radar's order-16, 512-sample configuration (the
// rooting also as the receiver pairs an epoch's two segments), a
// periodogram radar epoch split into synthesis and the whole measure(), a
// whole root-MUSIC measure(), and the epoch's Gaussian noise draws. The rows of the split-plane kernels
// (root-MUSIC and the periodogram path) run at both lane widths (/lanes:2
// SSE2, /lanes:4 AVX2; skipped without AVX2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "dsp/covariance.hpp"
#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"
#include "estimation/baselines.hpp"
#include "estimation/rls.hpp"
#include "estimation/rls_predictor.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "linalg/lanes.hpp"
#include "linalg/polynomial.hpp"
#include "radar/link_budget.hpp"
#include "radar/processor.hpp"
#include "sim/noise.hpp"

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

/// True when this CPU runs the split-plane kernels at state.range(0) lanes;
/// otherwise marks the row skipped.
bool lanes_available(benchmark::State& state) {
  if (state.range(0) == 4 && !linalg::lanes::avx2_supported()) {
    state.SkipWithError("four lanes need AVX2");
    return false;
  }
  return true;
}

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
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  auto x = bench_tone(512);
  dsp::apply_window(x, dsp::make_window(dsp::WindowKind::kHann, x.size()));
  dsp::ComplexSignal spectrum;
  for (auto _ : state) {
    dsp::fft_into(x, 4096, spectrum);
    benchmark::DoNotOptimize(spectrum.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Fft512HannPaddedTo4096)->ArgName("lanes")->Arg(2)->Arg(4);

// The spectral work of one periodogram-mode radar epoch: the up segment's
// coherence statistic and beat from one shared spectrum, then the down
// segment's beat (two 4096-point FFTs).
void BM_PeriodogramEpoch(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto up = bench_tone(512);
  auto down = bench_tone(512);
  std::reverse(down.begin(), down.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::summarize_periodogram(up, 1.0e6));
    benchmark::DoNotOptimize(dsp::estimate_dominant_tone(down, 1.0e6));
  }
}
BENCHMARK(BM_PeriodogramEpoch)->ArgName("lanes")->Arg(2)->Arg(4);

// The root-MUSIC kernels as the radar receiver runs them: one up segment
// from RadarProcessor::synthesize (default configuration: 512 samples,
// covariance order 16, one source), an echo 60 m out closing at 1 m/s.
// With thermal noise the degree-30 null-spectrum polynomial converges in a
// few dozen Durand-Kerner sweeps; without noise the covariance is rank one,
// its roots pair up on the unit circle and rooting runs all 30 * 30 sweeps
// (the capped calls, ~4% of a seed-1 figure run).
radar::EchoScene one_echo_scene(const radar::RadarProcessorConfig& cfg,
                                bool thermal_noise) {
  radar::EchoScene scene;
  scene.noise_power_w = thermal_noise ? cfg.noise_floor_w : 0.0;
  scene.echoes.push_back(radar::EchoComponent{
      .distance_m = units::Meters{60.0},
      .range_rate_mps = units::MetersPerSecond{-1.0},
      .power_w = radar::received_echo_power_w(cfg.waveform, units::Meters{60.0},
                                              10.0),
  });
  return scene;
}

radar::RadarProcessor::Segments radar_segments(bool thermal_noise) {
  const radar::RadarProcessorConfig cfg;
  radar::RadarProcessor receiver(cfg, 1);
  return receiver.synthesize(one_echo_scene(cfg, thermal_noise));
}

dsp::ComplexSignal radar_segment(bool thermal_noise) {
  return radar_segments(thermal_noise).up;
}

constexpr std::size_t kOrder = 16;

/// The null-spectrum polynomial root_music_frequencies roots for one source.
linalg::Polynomial null_spectrum_polynomial(const dsp::ComplexSignal& segment) {
  const auto eig = linalg::eigen_hermitian(
      dsp::forward_backward_covariance(segment, kOrder));
  linalg::CMatrix projector(kOrder, kOrder);
  for (std::size_t k = 0; k + 1 < kOrder; ++k) {
    const linalg::CVector v = eig.eigenvectors.col(k);
    projector += linalg::outer(v, v);
  }
  std::vector<linalg::Complex> coeffs(2 * kOrder - 1);
  for (std::size_t j = 0; j < kOrder; ++j) {
    for (std::size_t i = 0; i < kOrder; ++i) {
      coeffs[j + (kOrder - 1) - i] += projector(i, j);
    }
  }
  return linalg::Polynomial{std::move(coeffs)};
}

void BM_ForwardBackwardCovariance16x512(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto segment = radar_segment(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::forward_backward_covariance(segment, kOrder));
  }
}
BENCHMARK(BM_ForwardBackwardCovariance16x512)
    ->ArgName("lanes")
    ->Arg(2)
    ->Arg(4);

void BM_EigenHermitian16(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto r = dsp::forward_backward_covariance(radar_segment(true), kOrder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_hermitian(r));
  }
}
BENCHMARK(BM_EigenHermitian16)->ArgName("lanes")->Arg(2)->Arg(4);

void BM_FindRoots30Converging(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto p = null_spectrum_polynomial(radar_segment(true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::find_roots(p));
  }
}
BENCHMARK(BM_FindRoots30Converging)->ArgName("lanes")->Arg(2)->Arg(4);

void BM_FindRoots30Capped(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto p = null_spectrum_polynomial(radar_segment(false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::find_roots(p));
  }
}
BENCHMARK(BM_FindRoots30Capped)->ArgName("lanes")->Arg(2)->Arg(4);

// Both segments of one epoch rooted as one find_roots_pair (the receiver's
// path), and as two find_roots calls for comparison; capped:0 converges,
// capped:1 runs all 900 sweeps in both problems.
void BM_FindRoots30Pair(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto seg = radar_segments(state.range(1) == 0);
  const auto up = null_spectrum_polynomial(seg.up);
  const auto down = null_spectrum_polynomial(seg.down);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::find_roots_pair(up, down));
  }
}
BENCHMARK(BM_FindRoots30Pair)
    ->ArgNames({"lanes", "capped"})
    ->ArgsProduct({{2, 4}, {0, 1}});

void BM_FindRoots30TwoCalls(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto seg = radar_segments(state.range(1) == 0);
  const auto up = null_spectrum_polynomial(seg.up);
  const auto down = null_spectrum_polynomial(seg.down);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::find_roots(up));
    benchmark::DoNotOptimize(linalg::find_roots(down));
  }
}
BENCHMARK(BM_FindRoots30TwoCalls)
    ->ArgNames({"lanes", "capped"})
    ->ArgsProduct({{2, 4}, {0, 1}});

void BM_RootMusicRadarSegment(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const auto segment = radar_segment(true);
  const radar::RadarProcessorConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::root_music_frequencies(
        segment, cfg.sample_rate_hz.value(), 1, {.covariance_order = kOrder}));
  }
}
BENCHMARK(BM_RootMusicRadarSegment)->ArgName("lanes")->Arg(2)->Arg(4);

// A periodogram-mode radar epoch as the campaign runs it, one echo at
// thermal noise: synthesis (2 x 512 complex Gaussian draws plus one
// std::polar per sample and echo) and the whole measure() call, synthesis
// included, so the difference is the spectral estimation.
void BM_RadarSynthesize(benchmark::State& state) {
  radar::RadarProcessorConfig cfg;
  cfg.estimator = radar::BeatEstimator::kPeriodogram;
  radar::RadarProcessor receiver(cfg, 1);
  const radar::EchoScene scene = one_echo_scene(cfg, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.synthesize(scene));
  }
}
BENCHMARK(BM_RadarSynthesize);

void BM_RadarMeasurePeriodogram(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  radar::RadarProcessorConfig cfg;
  cfg.estimator = radar::BeatEstimator::kPeriodogram;
  radar::RadarProcessor receiver(cfg, 1);
  const radar::EchoScene scene = one_echo_scene(cfg, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.measure(scene));
  }
}
BENCHMARK(BM_RadarMeasurePeriodogram)->ArgName("lanes")->Arg(2)->Arg(4);

// A whole root-MUSIC epoch as the figure runs measure it, one echo at
// thermal noise: synthesis, PAPR, both segments' covariance, eigensolve and
// projector, the paired rooting and the candidates' ranking.
void BM_RadarMeasureRootMusic(benchmark::State& state) {
  if (!lanes_available(state)) return;
  const linalg::lanes::detail::ScopedWidth lanes(
      static_cast<std::size_t>(state.range(0)));
  const radar::RadarProcessorConfig cfg;
  radar::RadarProcessor receiver(cfg, 1);
  const radar::EchoScene scene = one_echo_scene(cfg, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.measure(scene));
  }
}
BENCHMARK(BM_RadarMeasureRootMusic)->ArgName("lanes")->Arg(2)->Arg(4);

// The 4 x 512 standard normals behind one radar epoch's noise: drawn by the
// std::mt19937_64 + std::normal_distribution pair the library used to call
// (kept as the reference), by GaussianNoise::sample() one at a time, and by
// one GaussianNoise::fill() call. All three produce the same values.
constexpr std::size_t kEpochNormals = 2048;

void BM_StdNormal2048(benchmark::State& state) {
  std::mt19937_64 engine(static_cast<std::uint64_t>(state.range(0)));
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> out(kEpochNormals);
  for (auto _ : state) {
    for (double& v : out) v = normal(engine);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StdNormal2048)->Arg(1);

void BM_GaussianSample2048(benchmark::State& state) {
  sim::GaussianNoise noise(0.0, 1.0, static_cast<std::uint64_t>(state.range(0)));
  std::vector<double> out(kEpochNormals);
  for (auto _ : state) {
    for (double& v : out) v = noise.sample();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GaussianSample2048)->Arg(1);

void BM_GaussianFill2048(benchmark::State& state) {
  sim::GaussianNoise noise(0.0, 1.0, static_cast<std::uint64_t>(state.range(0)));
  std::vector<double> out(kEpochNormals);
  for (auto _ : state) {
    noise.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GaussianFill2048)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
