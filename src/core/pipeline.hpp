// SafeMeasurementPipeline: the paper's contribution glued together
// (Algorithm 2 end to end).
//
// Per sample instant the pipeline
//   1. gates the radar probe through the CRA modulator (m(t) p(t)),
//   2. compares the receiver output against the expected silence at
//      challenge slots (detection, Algorithm 2 lines 7-9),
//   3. while clean, passes measurements through and trains one RLS
//      predictor per channel (distance, relative velocity),
//   4. while under attack, replaces the corrupted radar data with RLS
//      free-run estimates (Algorithm 1) so the controller keeps receiving
//      plausible inputs, and
//   5. clears the attack state when a challenge comes back silent.
//
// Beyond the paper, a HealthMonitor degrades the pipeline gracefully under
// sensor faults: it validates every measurement, quarantines innovation
// outliers, re-trains diverged predictors, debounces flapping clearance, and
// bounds the holdover budget — entering an explicit DEGRADED_SAFE_STOP state
// instead of free-running on stale estimates forever.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/health_monitor.hpp"
#include "core/holdover.hpp"
#include "cra/detector.hpp"
#include "cra/modulator.hpp"
#include "detect/backend.hpp"
#include "radar/processor.hpp"

namespace safe::core {

/// What the pipeline hands to the controller each step.
struct SafeMeasurement {
  bool target_present = false;     ///< Controller should track a target.
  Meters distance_m{0.0};          ///< d (measured or estimated)
  MetersPerSecond relative_velocity_mps{0.0};  ///< dv (estimated or not)
  bool estimated = false;          ///< Values came from the RLS holdover.
  bool under_attack = false;       ///< Detector state after this step.
  bool challenge_slot = false;     ///< Probe was suppressed this step.
  bool attack_started = false;
  bool attack_cleared = false;

  /// Degradation machine state after this step (see health_monitor.hpp).
  DegradationState degradation = DegradationState::kClean;
  /// Convenience: degradation == kSafeStop. Controllers switch to the
  /// conservative deceleration profile while set.
  bool safe_stop = false;
  /// The health monitor quarantined this epoch's radar report.
  bool measurement_rejected = false;
  /// Consecutive estimated steps so far (0 while passing through).
  std::size_t holdover_steps = 0;
};

struct PipelineOptions {
  /// Minimum consecutive trusted samples before estimates are considered
  /// trained enough to substitute for measurements.
  std::size_t min_training_samples = 8;
  /// Measurement validation, innovation gating, holdover budget.
  HealthOptions health{};
  /// Detector debounce (clearance after M consecutive silent challenges).
  /// Applies to the CRA backend (the default and any `cra` spec without a
  /// clear= override).
  cra::DetectorOptions detector{};
  /// Detection backend (detect::make_detector mini-language). Empty selects
  /// the paper's challenge-response detector — bit-identical to the
  /// pre-backend pipeline.
  std::string detector_spec;
};

/// Pipeline options hardened for deployments that must degrade gracefully
/// under compound sensor faults: innovation gate on, clearance debounced
/// over 2 silent challenges, bounded holdover, short dropout bridging. The
/// default-constructed PipelineOptions reproduce the paper exactly; these
/// trade a little fidelity for fault robustness (the fault-matrix bench
/// sweeps them).
[[nodiscard]] PipelineOptions hardened_pipeline_options(
    std::size_t max_holdover_steps = 15);

class SafeMeasurementPipeline {
 public:
  /// The pipeline owns its detector state (backend built from
  /// options.detector_spec; throws std::invalid_argument on a bad spec);
  /// the modulator is shared with the simulation (which uses it to gate the
  /// transmitter), and the two predictors are injected so benches can swap
  /// estimators.
  SafeMeasurementPipeline(std::shared_ptr<const cra::ChallengeSchedule> schedule,
                          estimation::SeriesPredictorPtr distance_predictor,
                          estimation::SeriesPredictorPtr velocity_predictor,
                          const PipelineOptions& options = {});

  /// True when the transmitter must stay silent at `step` (challenge slot).
  [[nodiscard]] bool probe_suppressed(std::int64_t step) const;

  /// Consumes the radar output for `step` and produces the safe measurement.
  SafeMeasurement process(std::int64_t step,
                          const radar::RadarMeasurement& measurement);

  /// Same as process, with ground-truth attack activity for FP/FN scoring.
  SafeMeasurement process_scored(std::int64_t step,
                                 const radar::RadarMeasurement& measurement,
                                 bool attack_actually_active);

  [[nodiscard]] bool under_attack() const { return detector_->under_attack(); }
  [[nodiscard]] std::optional<std::int64_t> detection_step() const {
    return detector_->detection_step();
  }
  [[nodiscard]] const cra::DetectionStats& detection_stats() const {
    return detector_->stats();
  }
  /// Canonical name of the active detection backend ("cra", "chi2", ...).
  [[nodiscard]] std::string detector_name() const {
    return detector_->name();
  }
  [[nodiscard]] const cra::ChallengeSchedule& schedule() const {
    return modulator_.schedule();
  }
  [[nodiscard]] const HealthStats& health_stats() const {
    return health_.stats();
  }
  [[nodiscard]] DegradationState degradation() const { return degradation_; }

  void reset();

 private:
  SafeMeasurement finish(std::int64_t step,
                         const radar::RadarMeasurement& measurement,
                         const detect::Verdict& decision);

  /// Packs one radar epoch into the backend-agnostic observation.
  [[nodiscard]] detect::Observation make_observation(
      std::int64_t step, const radar::RadarMeasurement& measurement) const;

  /// Fills `out` with the held values and charges the holdover budget.
  void report_holdover(SafeMeasurement& out);

  cra::ProbeModulator modulator_;
  detect::DetectorBackendPtr detector_;
  /// Two channels: range (clamped at zero) and range rate. Snapshots at
  /// every verified-clean challenge slot and rolls back to it on detection:
  /// a stealthy offset injected just before detection cannot bias the
  /// holdover estimates.
  Holdover holdover_;
  PipelineOptions options_;
  HealthMonitor health_;
  DegradationState degradation_ = DegradationState::kClean;
  std::size_t silent_run_ = 0;  ///< Consecutive unexpected-silence epochs.
};

/// Builds the paper's default pipeline: RLS-AR predictors on both channels
/// over the given schedule.
SafeMeasurementPipeline make_default_pipeline(
    std::shared_ptr<const cra::ChallengeSchedule> schedule,
    const PipelineOptions& options = {});

}  // namespace safe::core
