#include "chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "control/acc.hpp"
#include "core/car_following.hpp"
#include "core/pipeline.hpp"
#include "detect/spec.hpp"
#include "dsp/covariance.hpp"
#include "dsp/music.hpp"
#include "dsp/spectral.hpp"
#include "dsp/window.hpp"
#include "estimation/rls_predictor.hpp"
#include "linalg/eigen_hermitian.hpp"
#include "linalg/polynomial.hpp"
#include "radar/link_budget.hpp"
#include "vehicle/longitudinal.hpp"

namespace perfbench {

namespace core = safe::core;
namespace dsp = safe::dsp;
namespace linalg = safe::linalg;
namespace radar = safe::radar;
namespace units = safe::units;
namespace vehicle = safe::vehicle;

namespace {

/// Times one call: records a span under `parent` and adds to `stats`.
template <typename Fn>
auto timed(SpanRecorder& spans, const char* name, std::int64_t parent,
           std::int64_t group, CallStats& stats, Fn&& fn) {
  const std::uint64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const std::uint64_t end = now_ns();
    spans.add(name, start, end, parent, group);
    stats.add(end - start);
  } else {
    auto value = fn();
    const std::uint64_t end = now_ns();
    spans.add(name, start, end, parent, group);
    stats.add(end - start);
    return value;
  }
}

/// The kernels root-MUSIC runs on one segment, each timed on its own:
/// forward-backward covariance, Hermitian eigensolve, and rooting of the
/// 2M-1 coefficient null-spectrum polynomial.
void time_music_kernels(const dsp::ComplexSignal& segment, std::size_t order,
                        std::size_t sources, SpanRecorder& spans,
                        std::int64_t parent, std::int64_t group,
                        ChainProfile& profile) {
  const linalg::CMatrix r = timed(spans, "dsp.covariance", parent, group,
                                  profile.covariance, [&] {
                                    return dsp::forward_backward_covariance(
                                        segment, order);
                                  });
  const auto eig = timed(spans, "linalg.eigen_hermitian", parent, group,
                         profile.eigen, [&] { return linalg::eigen_hermitian(r); });
  linalg::CMatrix projector(order, order);
  for (std::size_t k = 0; k + sources < order; ++k) {
    const linalg::CVector v = eig.eigenvectors.col(k);
    projector += linalg::outer(v, v);
  }
  std::vector<linalg::Complex> coeffs(2 * order - 1);
  for (std::size_t j = 0; j < order; ++j) {
    for (std::size_t i = 0; i < order; ++i) {
      coeffs[j + (order - 1) - i] += projector(i, j);
    }
  }
  const linalg::Polynomial poly{std::move(coeffs)};
  timed(spans, "linalg.find_roots", parent, group, profile.roots,
        [&] { return linalg::find_roots(poly); });
}

/// One segment's beat frequency exactly as RadarProcessor estimates it.
double estimate_beat(const radar::RadarProcessorConfig& cfg,
                     const dsp::ComplexSignal& segment, std::size_t components,
                     SpanRecorder& spans, std::int64_t parent, std::int64_t group,
                     ChainProfile& profile, double& stage_ns) {
  const double fs = cfg.sample_rate_hz.value();
  const std::uint64_t start = now_ns();
  double beat = 0.0;
  if (cfg.estimator == radar::BeatEstimator::kPeriodogram) {
    const auto tone = timed(spans, "dsp.periodogram", parent, group,
                            profile.periodogram,
                            [&] { return dsp::estimate_dominant_tone(segment, fs); });
    ++profile.fft_calls;
    stage_ns += static_cast<double>(now_ns() - start);
    return tone ? tone->frequency_hz : 0.0;
  }
  const dsp::MusicOptions options{.covariance_order = cfg.music_order,
                                  .forward_backward = true};
  const std::size_t sources = std::max<std::size_t>(components, 1);
  const auto candidates = timed(
      spans, "dsp.root_music", parent, group, profile.root_music,
      [&] { return dsp::root_music_frequencies(segment, fs, sources, options); });
  if (!candidates.empty()) {
    beat = candidates.front();
    double best_power = -1.0;
    for (const double f : candidates) {
      const double p = timed(spans, "dsp.tone_power", parent, group,
                             profile.tone_power,
                             [&] { return dsp::tone_power(segment, f, fs); });
      if (p > best_power) {
        best_power = p;
        beat = f;
      }
    }
  }
  stage_ns += static_cast<double>(now_ns() - start);
  time_music_kernels(segment, cfg.music_order, sources, spans, parent, group,
                     profile);
  return beat;
}

/// Redoes measure() on the twin receiver one stage at a time.
radar::RadarMeasurement staged_measure(radar::RadarProcessor& twin,
                                       const radar::EchoScene& scene,
                                       SpanRecorder& spans, std::int64_t group,
                                       ChainProfile& profile) {
  const radar::RadarProcessorConfig& cfg = twin.config();
  const std::int64_t root = spans.begin("radar.stages", -1, group);
  double stage_ns = 0.0;
  const auto stage = [&](const char* name, CallStats& stats, auto&& fn) {
    const std::uint64_t start = now_ns();
    auto value = timed(spans, name, root, group, stats, fn);
    stage_ns += static_cast<double>(now_ns() - start);
    return value;
  };

  const radar::RadarProcessor::Segments seg =
      stage("radar.synthesize", profile.synthesize, [&] { return twin.synthesize(scene); });
  radar::RadarMeasurement m;
  m.rx_power_w = stage("dsp.mean_power", profile.mean_power, [&] {
    return 0.5 * (dsp::mean_power(seg.up) + dsp::mean_power(seg.down));
  });
  m.peak_to_average = stage("dsp.papr", profile.papr,
                            [&] { return dsp::peak_to_average_power(seg.up); });
  ++profile.fft_calls;
  {
    // The 4096-point transform inside peak_to_average_power, on its own.
    dsp::ComplexSignal windowed = seg.up;
    dsp::apply_window(windowed, dsp::make_window(dsp::WindowKind::kHann, seg.up.size()));
    timed(spans, "dsp.fft4096", root, group, profile.fft4096,
          [&] { return dsp::fft(windowed, 4096); });
  }
  m.coherent_echo = m.peak_to_average > cfg.coherence_threshold;
  m.power_alarm = m.rx_power_w > cfg.power_alarm_factor * cfg.noise_floor_w;
  const std::size_t components = std::max<std::size_t>(scene.echoes.size(), 1);
  m.beats.up_hz = radar::Hertz{
      estimate_beat(cfg, seg.up, components, spans, root, group, profile, stage_ns)};
  m.beats.down_hz = radar::Hertz{
      estimate_beat(cfg, seg.down, components, spans, root, group, profile, stage_ns)};
  m.estimate = stage("radar.range_inversion", profile.range_inversion, [&] {
    return radar::range_rate_from_beats(cfg.waveform, m.beats);
  });
  spans.end(root);
  profile.stage_sum_ns += stage_ns;
  return m;
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Keeps replayed predictions observable so the loop is not optimised away.
volatile double g_sink = 0.0;

}  // namespace

bool same_measurement(const radar::RadarMeasurement& a,
                      const radar::RadarMeasurement& b) {
  return same_double(a.estimate.distance_m.value(), b.estimate.distance_m.value()) &&
         same_double(a.estimate.range_rate_mps.value(),
                     b.estimate.range_rate_mps.value()) &&
         same_double(a.beats.up_hz.value(), b.beats.up_hz.value()) &&
         same_double(a.beats.down_hz.value(), b.beats.down_hz.value()) &&
         same_double(a.rx_power_w, b.rx_power_w) &&
         same_double(a.peak_to_average, b.peak_to_average) &&
         a.coherent_echo == b.coherent_echo && a.power_alarm == b.power_alarm;
}

core::CarFollowingResult replica_run(const core::Scenario& scenario,
                                     SpanRecorder& spans, std::int64_t group,
                                     ChainProfile& profile, bool stages) {
  const core::CarFollowingConfig& config = scenario.config;
  if (config.faults || config.controller != core::FollowerController::kAccHierarchy) {
    throw std::invalid_argument("replica_run: paper scenarios only");
  }
  const units::Seconds t_sample = config.sample_time_s;
  const radar::FmcwParameters& wf = config.radar.waveform;

  radar::RadarProcessor receiver(config.radar, config.seed);
  radar::RadarProcessor twin(config.radar, config.seed);
  core::SafeMeasurementPipeline pipeline =
      core::make_default_pipeline(scenario.schedule, config.pipeline);
  safe::control::AccController acc(config.acc);
  std::unique_ptr<safe::attack::AttackModel> attack =
      scenario.attack ? scenario.attack->clone() : nullptr;
  if (attack) attack->reset();

  vehicle::VehicleState leader{.position_m = config.initial_gap_m,
                               .velocity_mps = config.leader_speed_mps};
  vehicle::VehicleState follower{.position_m = units::Meters{0.0},
                                 .velocity_mps = config.follower_speed_mps};
  core::CarFollowingResult result;
  result.min_gap_m = config.initial_gap_m;
  units::Meters held_gap = config.initial_gap_m;
  units::MetersPerSecond held_dv = vehicle::relative_velocity(leader, follower);
  bool held_valid = false;
  std::vector<radar::RadarMeasurement>& recorded = profile.measurements.emplace_back();

  for (std::int64_t k = 0; k < config.horizon_steps; ++k) {
    const std::int64_t step_group = group * 100000 + k;
    const std::int64_t root = spans.begin("step", -1, step_group);
    const units::Seconds t = static_cast<double>(k) * t_sample;

    if (!result.collided) {
      leader = timed(spans, "vehicle.step", root, step_group, profile.vehicle_step, [&] {
        return vehicle::step(leader, scenario.leader->acceleration(t), t_sample);
      });
    }
    const units::Meters true_gap = vehicle::gap(leader, follower);
    const units::MetersPerSecond true_dv = vehicle::relative_velocity(leader, follower);

    radar::EchoScene scene;
    scene.tx_enabled = !pipeline.probe_suppressed(k);
    scene.noise_power_w = config.radar.noise_floor_w;
    const bool in_window = true_gap >= wf.min_range_m && true_gap <= wf.max_range_m;
    double echo_power = 0.0;
    if (in_window && !result.collided) {
      echo_power = radar::received_echo_power_w(wf, true_gap, config.target_rcs_m2);
      if (scene.tx_enabled) {
        scene.echoes.push_back(radar::EchoComponent{
            .distance_m = true_gap, .range_rate_mps = true_dv, .power_w = echo_power});
      }
    }

    bool attack_active = false;
    if (attack && !result.collided) {
      const safe::attack::AttackContext ctx{
          .time_s = t,
          .step = k,
          .true_distance_m = true_gap,
          .true_range_rate_mps = true_dv,
          .true_echo_power_w = echo_power,
          .waveform = &wf,
      };
      attack_active = timed(spans, "attack.apply", root, step_group,
                            profile.attack_apply,
                            [&] { return attack->apply(ctx, scene); });
    }

    const radar::RadarMeasurement meas =
        timed(spans, "radar.measure", root, step_group, profile.radar_measure,
              [&] { return receiver.measure(scene); });
    ++profile.epochs;
    if (meas.coherent_echo) ++profile.coherent_epochs;
    recorded.push_back(meas);
    if (stages) {
      const radar::RadarMeasurement again =
          staged_measure(twin, scene, spans, step_group, profile);
      if (!same_measurement(meas, again)) ++profile.stage_mismatches;
    }

    const core::SafeMeasurement safe =
        timed(spans, "core.pipeline", root, step_group, profile.pipeline,
              [&] { return pipeline.process_scored(k, meas, attack_active); });
    if (safe.estimated) ++profile.estimated_steps;
    if (safe.safe_stop) ++result.safe_stop_steps;

    safe::control::AccInputs inputs;
    inputs.follower_speed_mps = follower.velocity_mps;
    if (config.defense_enabled) {
      inputs.target_present = safe.target_present;
      inputs.distance_m = safe.distance_m;
      inputs.relative_velocity_mps = safe.relative_velocity_mps;
      inputs.degraded_safe_stop = safe.safe_stop;
      inputs.degraded_holdover = safe.degradation == core::DegradationState::kHoldover;
    } else {
      if (meas.coherent_echo) {
        held_gap = meas.estimate.distance_m;
        held_dv = meas.estimate.range_rate_mps;
        held_valid = true;
      }
      inputs.target_present = held_valid;
      inputs.distance_m = held_gap;
      inputs.relative_velocity_mps = held_dv;
    }
    if (inputs.target_present && (!std::isfinite(inputs.distance_m.value()) ||
                                  !std::isfinite(inputs.relative_velocity_mps.value()))) {
      ++result.nonfinite_controller_inputs;
    }

    const units::MetersPerSecond2 follower_accel =
        timed(spans, "control.acc_step", root, step_group, profile.acc_step, [&] {
          return acc.step(inputs).actuation.actual_accel_mps2;
        });
    if (!result.collided) {
      follower = timed(spans, "vehicle.step", root, step_group, profile.vehicle_step,
                       [&] { return vehicle::step(follower, follower_accel, t_sample); });
    }

    const units::Meters gap_after = vehicle::gap(leader, follower);
    result.min_gap_m = units::min(result.min_gap_m, gap_after);
    if (!result.collided && gap_after <= units::Meters{0.0}) {
      result.collided = true;
      result.collision_step = k;
    }
    const bool receiver_output = meas.nonzero_output();
    result.trace.append_row({
        t.value(),
        true_gap.value(),
        true_dv.value(),
        receiver_output ? meas.estimate.distance_m.value() : 0.0,
        receiver_output ? meas.estimate.range_rate_mps.value() : 0.0,
        safe.distance_m.value(),
        safe.relative_velocity_mps.value(),
        leader.velocity_mps.value(),
        follower.velocity_mps.value(),
        follower.acceleration_mps2.value(),
        safe.challenge_slot ? 1.0 : 0.0,
        safe.under_attack ? 1.0 : 0.0,
        safe.estimated ? 1.0 : 0.0,
        result.collided ? 1.0 : 0.0,
        static_cast<double>(safe.degradation),
        static_cast<double>(safe.holdover_steps),
    });
    spans.end(root);
  }
  result.detection_step = pipeline.detection_step();
  result.detection_stats = pipeline.detection_stats();
  result.health_stats = pipeline.health_stats();
  return result;
}

std::string digest(const core::CarFollowingResult& result) {
  Digest d;
  for (std::size_t c = 0; c < result.trace.num_columns(); ++c) {
    for (const double x : result.trace.column(c)) d.update(x);
  }
  const std::int64_t outcome[] = {
      result.collided ? 1 : 0,
      result.collision_step.value_or(-1),
      result.detection_step.value_or(-1),
      static_cast<std::int64_t>(result.detection_stats.false_positives),
      static_cast<std::int64_t>(result.detection_stats.false_negatives),
      static_cast<std::int64_t>(result.safe_stop_steps),
      static_cast<std::int64_t>(result.nonfinite_controller_inputs),
  };
  d.update(outcome, sizeof outcome);
  d.update(result.min_gap_m.value());
  return d.hex();
}

void replay_detect_and_estimation(
    const std::vector<std::vector<radar::RadarMeasurement>>& streams,
    std::int64_t horizon_steps, Result& result) {
  const auto schedule = std::make_shared<safe::cra::FixedChallengeSchedule>(
      safe::cra::paper_challenge_schedule(horizon_steps));
  std::vector<safe::detect::Observation> observations;
  for (const auto& stream : streams) {
    for (std::size_t k = 0; k < stream.size(); ++k) {
      const radar::RadarMeasurement& m = stream[k];
      safe::detect::Observation obs;
      obs.step = static_cast<std::int64_t>(k);
      obs.challenge_slot = schedule->is_challenge(obs.step);
      obs.receiver_nonzero = m.nonzero_output();
      obs.coherent_echo = m.coherent_echo;
      obs.distance = m.estimate.distance_m;
      obs.relative_velocity = m.estimate.range_rate_mps;
      observations.push_back(obs);
    }
  }
  if (observations.empty()) return;

  // Each backend sees every stream from a fresh state; per-call cost is the
  // loop's time over its call count (a span per ~100 ns call would measure
  // the clock instead).
  const std::pair<const char*, const char*> backends[] = {
      {"cra", "cra"},
      {"chi2", "chi2"},
      {"ar", "ar"},
      {"fusion", "fusion:members=cra+chi2,quorum=1"},
  };
  constexpr int kRepeats = 5;
  for (const auto& [name, spec] : backends) {
    std::vector<double> per_call_ns;
    for (int rep = 0; rep < kRepeats; ++rep) {
      std::uint64_t elapsed = 0;
      std::size_t offset = 0;
      for (const auto& stream : streams) {
        auto backend = safe::detect::make_detector(spec);
        const std::uint64_t start = now_ns();
        for (std::size_t k = 0; k < stream.size(); ++k) {
          (void)backend->observe(observations[offset + k]);
        }
        elapsed += now_ns() - start;
        offset += stream.size();
      }
      per_call_ns.push_back(static_cast<double>(elapsed) /
                            static_cast<double>(observations.size()));
    }
    result.set(std::string("detect.observe_us.") + name, median(per_call_ns) / 1e3,
               "us");
  }

  std::vector<double> observe_ns, predict_ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::uint64_t obs_elapsed = 0, pred_elapsed = 0;
    std::size_t obs_calls = 0, pred_calls = 0;
    for (const auto& stream : streams) {
      safe::estimation::RlsArPredictor predictor;
      const std::uint64_t start = now_ns();
      for (const radar::RadarMeasurement& m : stream) {
        if (!m.coherent_echo) continue;
        predictor.observe(m.estimate.distance_m.value());
        ++obs_calls;
      }
      const std::uint64_t mid = now_ns();
      double sum = 0.0;
      for (std::size_t k = 0; k < stream.size(); ++k) sum += predictor.predict_next();
      const std::uint64_t end = now_ns();
      g_sink = sum;
      obs_elapsed += mid - start;
      pred_elapsed += end - mid;
      pred_calls += stream.size();
    }
    if (obs_calls > 0) {
      observe_ns.push_back(static_cast<double>(obs_elapsed) / static_cast<double>(obs_calls));
    }
    predict_ns.push_back(static_cast<double>(pred_elapsed) / static_cast<double>(pred_calls));
  }
  result.set("estimation.rls_observe_us", median(observe_ns) / 1e3, "us");
  result.set("estimation.rls_predict_us", median(predict_ns) / 1e3, "us");
}

void report_chain(const ChainProfile& traced, const ChainProfile& staged,
                  const char* estimator, Result& result) {
  const double epochs = static_cast<double>(std::max<std::uint64_t>(traced.epochs, 1));
  result.set("attack.apply_us", traced.attack_apply.mean_us(), "us");
  result.set(std::string("radar.measure_us.") + estimator, traced.radar_measure.mean_us(), "us");
  result.set("core.pipeline_us", traced.pipeline.mean_us(), "us");
  result.set("control.acc_step_us", traced.acc_step.mean_us(), "us");
  result.set("core.holdover_frac", static_cast<double>(traced.estimated_steps) / epochs, "ratio");
  result.set("radar.epochs", static_cast<double>(traced.epochs), "count");
  result.set("radar.coherent_frac", static_cast<double>(traced.coherent_epochs) / epochs, "ratio");

  result.set("radar.synthesize_us", staged.synthesize.mean_us(), "us");
  result.set("dsp.papr_us", staged.papr.mean_us(), "us");
  result.set("dsp.fft4096_us", staged.fft4096.mean_us(), "us");
  const double staged_epochs = static_cast<double>(std::max<std::uint64_t>(staged.epochs, 1));
  result.set("dsp.fft_per_epoch", static_cast<double>(staged.fft_calls) / staged_epochs, "count");
  if (staged.root_music.calls > 0) {
    result.set("dsp.root_music_us", staged.root_music.mean_us(), "us");
    result.set("dsp.covariance_us", staged.covariance.mean_us(), "us");
    result.set("dsp.tone_power_us", staged.tone_power.mean_us(), "us");
    result.set("linalg.eig16_us", staged.eigen.mean_us(), "us");
    result.set("linalg.roots30_us", staged.roots.mean_us(), "us");
  }
  if (staged.periodogram.calls > 0) {
    result.set("dsp.periodogram_us", staged.periodogram.mean_us(), "us");
  }
  const double measure_ns = staged.radar_measure.total_ns;
  const double gap = measure_ns > 0.0 ? std::abs(staged.stage_sum_ns - measure_ns) / measure_ns : 0.0;
  result.set("radar.decomp_gap_frac", gap, "ratio");

  // Where an epoch goes, from the staged pass (shares of measure()).
  const double epoch_us = staged.radar_measure.mean_us();
  const auto share = [&](const CallStats& c) {
    return epoch_us > 0.0 ? c.total_ns / 1e3 / staged_epochs / epoch_us : 0.0;
  };
  result.note(format("radar epoch (%s): %.1f us; synthesize %.0f%%, papr %.0f%%, "
                     "root-MUSIC %.0f%%, periodogram %.0f%%, tone_power %.0f%%",
                     estimator, epoch_us, 100 * share(staged.synthesize),
                     100 * share(staged.papr), 100 * share(staged.root_music),
                     100 * share(staged.periodogram), 100 * share(staged.tone_power)));
  result.note(format("  4096-point FFTs: %.2f per epoch x %.1f us = %.0f%% of the epoch",
                     static_cast<double>(staged.fft_calls) / staged_epochs,
                     staged.fft4096.mean_us(),
                     epoch_us > 0.0 ? 100.0 * staged.fft4096.mean_us() *
                                          static_cast<double>(staged.fft_calls) /
                                          staged_epochs / epoch_us
                                    : 0.0));
  if (staged.root_music.calls > 0) {
    result.note(format("  per root-MUSIC call %.1f us: covariance %.1f, eig16 %.1f, roots30 %.1f us",
                       staged.root_music.mean_us(), staged.covariance.mean_us(),
                       staged.eigen.mean_us(), staged.roots.mean_us()));
  }
  const double step_us = (traced.attack_apply.total_ns + traced.radar_measure.total_ns +
                          traced.pipeline.total_ns + traced.acc_step.total_ns +
                          traced.vehicle_step.total_ns) / 1e3 / epochs;
  result.note(format("closed-loop step %.1f us: radar %.1f%%, pipeline %.3f%%, attack %.3f%%, "
                     "control %.3f%%, vehicle %.3f%%",
                     step_us, 100 * traced.radar_measure.total_ns / 1e3 / epochs / step_us,
                     100 * traced.pipeline.total_ns / 1e3 / epochs / step_us,
                     100 * traced.attack_apply.total_ns / 1e3 / epochs / step_us,
                     100 * traced.acc_step.total_ns / 1e3 / epochs / step_us,
                     100 * traced.vehicle_step.total_ns / 1e3 / epochs / step_us));
  result.note(format("stage sum vs measure(): gap %.1f%% (stated tolerance %.0f%%): %s",
                     100 * gap, 100 * kStageGapTolerance,
                     gap <= kStageGapTolerance ? "within" : "OUTSIDE"));
}

void report_self_time(const SpanRecorder& spans, Result& result) {
  const auto totals = self_time_by_name(spans.spans());
  std::vector<std::pair<std::uint64_t, std::string>> order;
  std::uint64_t all = 0;
  for (const auto& [name, ns] : totals) {
    order.emplace_back(ns, name);
    all += ns;
  }
  std::sort(order.rbegin(), order.rend());
  result.note("self time by span:");
  for (const auto& [ns, name] : order) {
    result.note(format("  %-24s %10.3f ms  %5.1f%%", name.c_str(), static_cast<double>(ns) / 1e6,
                       all > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(all) : 0.0));
  }
}

}  // namespace perfbench
