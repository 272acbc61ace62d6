#include "core/pipeline.hpp"

#include <span>

#include "detect/spec.hpp"
#include "estimation/rls_predictor.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::core {

namespace {

// Per-sample pipeline metrics (DESIGN.md §11). All counts are pure functions
// of the processed sample stream (jobs-invariant); only the duration
// histogram depends on the wall clock.
struct PipelineMetrics {
  telemetry::MetricId samples = telemetry::counter("pipeline.samples");
  telemetry::MetricId challenge_slots =
      telemetry::counter("pipeline.challenge_slots");
  telemetry::MetricId detections = telemetry::counter("pipeline.detections");
  telemetry::MetricId clears = telemetry::counter("pipeline.clears");
  telemetry::MetricId rejected =
      telemetry::counter("pipeline.rejected_measurements");
  telemetry::MetricId holdover =
      telemetry::counter("pipeline.holdover_samples");
  telemetry::MetricId transitions =
      telemetry::counter("health.state_transitions");
  telemetry::MetricId process_ns =
      telemetry::duration_histogram("pipeline.process_ns");
};

const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
}

/// Cause tag for a degradation-state transition, from the step's decision
/// and output flags (exported on every health.state trace instant). The
/// detecting backend supplies its own tag for the clean -> attack edge
/// (CRA: "cra-detection", so default-config traces are unchanged).
const char* transition_cause(DegradationState to,
                             const detect::Verdict& decision,
                             const SafeMeasurement& out, bool sensor_dead) {
  switch (to) {
    case DegradationState::kUnderAttack:
      return decision.attack_started ? decision.cause : "attack-ongoing";
    case DegradationState::kSafeStop:
      return "holdover-budget-exhausted";
    case DegradationState::kHoldover:
      if (out.measurement_rejected) return "measurement-rejected";
      if (sensor_dead) return "sensor-dead";
      if (decision.challenge_slot) return "challenge-slot";
      return "sensor-dropout";
    case DegradationState::kClean:
      return decision.attack_cleared ? "attack-cleared" : "recovered";
  }
  return "unknown";
}

Holdover radar_holdover(estimation::SeriesPredictorPtr distance,
                        estimation::SeriesPredictorPtr velocity,
                        std::size_t min_samples) {
  std::vector<estimation::SeriesPredictorPtr> predictors(2);
  predictors[0] = std::move(distance);
  predictors[1] = std::move(velocity);
  return Holdover(std::move(predictors), {true, false}, min_samples);
}

}  // namespace

PipelineOptions hardened_pipeline_options(std::size_t max_holdover_steps) {
  PipelineOptions options;
  options.health.innovation_threshold = 25.0;  // ~5-sigma jumps quarantined
  options.health.max_holdover_steps = max_holdover_steps;
  options.health.dropout_holdover_steps = 5;
  options.health.max_identical_measurements = 8;
  options.detector.clear_after_silent_challenges = 2;
  return options;
}

SafeMeasurementPipeline::SafeMeasurementPipeline(
    std::shared_ptr<const cra::ChallengeSchedule> schedule,
    estimation::SeriesPredictorPtr distance_predictor,
    estimation::SeriesPredictorPtr velocity_predictor,
    const PipelineOptions& options)
    : modulator_(std::move(schedule)),
      detector_(detect::make_detector(options.detector_spec,
                                      options.detector)),
      holdover_(radar_holdover(std::move(distance_predictor),
                               std::move(velocity_predictor),
                               options.min_training_samples)),
      options_(options),
      health_(options.health) {}

bool SafeMeasurementPipeline::probe_suppressed(std::int64_t step) const {
  return !modulator_.tx_enabled(step);
}

detect::Observation SafeMeasurementPipeline::make_observation(
    std::int64_t step, const radar::RadarMeasurement& measurement) const {
  detect::Observation obs;
  obs.step = step;
  obs.challenge_slot = probe_suppressed(step);
  obs.receiver_nonzero = measurement.nonzero_output();
  obs.coherent_echo = measurement.coherent_echo;
  obs.distance = measurement.estimate.distance_m;
  obs.relative_velocity = measurement.estimate.range_rate_mps;
  return obs;
}

SafeMeasurement SafeMeasurementPipeline::process(
    std::int64_t step, const radar::RadarMeasurement& measurement) {
  const detect::Verdict decision =
      detector_->observe(make_observation(step, measurement));
  return finish(step, measurement, decision);
}

SafeMeasurement SafeMeasurementPipeline::process_scored(
    std::int64_t step, const radar::RadarMeasurement& measurement,
    bool attack_actually_active) {
  const detect::Verdict decision = detector_->observe_scored(
      make_observation(step, measurement), attack_actually_active);
  return finish(step, measurement, decision);
}

void SafeMeasurementPipeline::report_holdover(SafeMeasurement& out) {
  out.target_present = out.estimated = holdover_.trusted();
  out.distance_m = Meters{holdover_.last(0)};
  out.relative_velocity_mps = MetersPerSecond{holdover_.last(1)};
  if (holdover_.trusted()) health_.note_holdover_step();
}

SafeMeasurement SafeMeasurementPipeline::finish(
    std::int64_t step, const radar::RadarMeasurement& measurement,
    const detect::Verdict& decision) {
  const PipelineMetrics& metrics = pipeline_metrics();
  telemetry::ScopedTimer span("pipeline.process", "pipeline",
                              metrics.process_ns,
                              telemetry::TraceDetail::kFine);
  span.arg("step", step);
  telemetry::add(metrics.samples);
  if (decision.challenge_slot) telemetry::add(metrics.challenge_slots);
  if (decision.attack_started) telemetry::add(metrics.detections);
  if (decision.attack_cleared) telemetry::add(metrics.clears);

  SafeMeasurement out;
  out.challenge_slot = decision.challenge_slot;
  out.under_attack = decision.under_attack;
  out.attack_started = decision.attack_started;
  out.attack_cleared = decision.attack_cleared;

  // Every holdover step judges the unclamped free-run (-inf would clamp to
  // a finite 0 m). A diverged one (non-finite or non-physical) re-trains the
  // predictors from scratch instead of feeding garbage to the controller,
  // and the last trusted values stand for this step.
  const auto guard = [this](std::span<const double> estimate) {
    const bool ok = health_.prediction_ok(Meters{estimate[0]},
                                          MetersPerSecond{estimate[1]});
    if (!ok) health_.record_predictor_reset();
    return ok;
  };
  bool sensor_dead = false;

  if (holdover_.defend(step, decision, guard)) {
    // No trustworthy radar data this epoch (attack or challenge slot): the
    // holdover held with the RLS estimates when trained, else the last
    // trusted values stand.
    report_holdover(out);
  } else if (measurement.coherent_echo) {
    // Clean, probing epoch with a report: validate before trusting it.
    const HealthMonitor::Verdict verdict = health_.validate(
        measurement.estimate.distance_m, measurement.estimate.range_rate_mps,
        holdover_.trusted(), Meters{holdover_.last(0)},
        MetersPerSecond{holdover_.last(1)});
    if (verdict == HealthMonitor::Verdict::kAccept) {
      silent_run_ = 0;
      out.target_present = true;
      out.distance_m = measurement.estimate.distance_m;
      out.relative_velocity_mps = measurement.estimate.range_rate_mps;
      const double sample[] = {out.distance_m.value(),
                               out.relative_velocity_mps.value()};
      holdover_.trust(sample);
      health_.note_trusted_sample(/*attack_over=*/!decision.under_attack);
    } else {
      // Quarantined report (non-finite, out of range, or innovation
      // outlier): never train on it; hold over when a target is tracked.
      out.measurement_rejected = true;
      if (holdover_.trusted()) {
        holdover_.hold(guard);
        report_holdover(out);
      } else {
        out.target_present = false;
      }
    }
  } else if (holdover_.trusted() &&
             options_.health.dropout_holdover_steps > 0 &&
             silent_run_ < options_.health.dropout_holdover_steps) {
    // Unexpected silence while tracking (sensor dropout, not a challenge):
    // bridge a bounded number of epochs with estimates before declaring the
    // target lost.
    ++silent_run_;
    health_.record_bridged_dropout();
    holdover_.hold(guard);
    report_holdover(out);
  } else {
    out.target_present = false;
    if (holdover_.trusted() && options_.health.dropout_holdover_steps > 0) {
      // Bridging exhausted while a target was being tracked: the sensor is
      // dead, not the road clear. Keep charging the holdover budget so a
      // prolonged outage forces DEGRADED_SAFE_STOP instead of letting the
      // controller resume cruise on "no target".
      health_.note_holdover_step();
      sensor_dead = true;
    }
  }

  // Resolve the degradation state after this step's bookkeeping.
  const DegradationState previous = degradation_;
  if (health_.safe_stop()) {
    degradation_ = DegradationState::kSafeStop;
  } else if (decision.under_attack) {
    degradation_ = DegradationState::kUnderAttack;
  } else if (out.estimated || out.measurement_rejected || sensor_dead) {
    degradation_ = DegradationState::kHoldover;
  } else {
    degradation_ = DegradationState::kClean;
  }
  if (out.measurement_rejected) telemetry::add(metrics.rejected);
  if (out.estimated) telemetry::add(metrics.holdover);
  if (degradation_ != previous) {
    telemetry::add(metrics.transitions);
    if (telemetry::tracing_enabled()) {
      telemetry::instant_event(
          "health.state", "health",
          telemetry::TraceArgs{}
              .text("from", to_string(previous))
              .text("to", to_string(degradation_))
              .text("cause", transition_cause(degradation_, decision, out,
                                              sensor_dead))
              .integer("step", step)
              .take());
    }
  }
  out.degradation = degradation_;
  out.safe_stop = degradation_ == DegradationState::kSafeStop;
  out.holdover_steps = health_.holdover_steps();
  return out;
}

void SafeMeasurementPipeline::reset() {
  detector_->reset();
  holdover_.reset();
  health_.reset();
  degradation_ = DegradationState::kClean;
  silent_run_ = 0;
}

SafeMeasurementPipeline make_default_pipeline(
    std::shared_ptr<const cra::ChallengeSchedule> schedule,
    const PipelineOptions& options) {
  return SafeMeasurementPipeline(
      std::move(schedule),
      std::make_unique<estimation::RlsArPredictor>(),
      std::make_unique<estimation::RlsArPredictor>(), options);
}

}  // namespace safe::core
