// Pluggable attack-detection backends (DESIGN.md §15).
//
// The paper detects sensor attacks with exactly one mechanism: the
// challenge-response authenticator (Algorithm 2). Statistical and learned
// detectors (chi-square innovation tests, residual classifiers) can flag
// attacks with no transmitter modification at all, at the cost of threshold
// tuning and stealth blind spots. DetectorBackend abstracts the per-step
// detection decision so the pipeline, the serving layer, and the campaign
// engine can swap mechanisms per run.
//
// Every backend runs the one declare/clear debounce kept here: an attack is
// declared after `consecutive` alarmed evaluations in a row and cleared
// after `clear` quiet ones. A backend only decides which instants it
// evaluates, which of them are alarmed, and which it scores.
//
// Contract: the pipeline calls observe() (or observe_scored()) exactly once
// per sample instant, before any holdover/health bookkeeping, and consumes
// the Verdict's state and edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cra/detector.hpp"
#include "units/units.hpp"

namespace safe::detect {

/// Everything a backend may look at for one sample instant. Backends keep
/// their own residual models; the pipeline never feeds them its predictor
/// state (a backend must work standalone, e.g. server-side).
struct Observation {
  std::int64_t step = 0;
  bool challenge_slot = false;    ///< Probe was suppressed this epoch.
  bool receiver_nonzero = false;  ///< Val(y') != 0 (coherent echo or alarm).
  bool coherent_echo = false;     ///< The radar produced a range report.
  units::Meters distance{0.0};    ///< Reported range (valid with echo).
  units::MetersPerSecond relative_velocity{0.0};  ///< Reported range rate.
};

/// Detector verdict for one step.
struct Verdict {
  bool challenge_slot = false;   ///< Step was a probe-suppressed slot.
  bool under_attack = false;     ///< Detector state after this step.
  bool attack_started = false;   ///< This step transitioned clean -> attack.
  bool attack_cleared = false;   ///< This step transitioned attack -> clean.
  const char* cause = "";        ///< Static tag for transition telemetry.
};

class DetectorBackend {
 public:
  virtual ~DetectorBackend() = default;
  DetectorBackend(const DetectorBackend&) = delete;
  DetectorBackend& operator=(const DetectorBackend&) = delete;
  DetectorBackend(DetectorBackend&&) = delete;
  DetectorBackend& operator=(DetectorBackend&&) = delete;

  /// Consumes one sample instant and returns the detection verdict.
  Verdict observe(const Observation& obs) { return decide(obs, std::nullopt); }

  /// Same as observe(), additionally scoring against ground truth for
  /// TPR/FPR accounting. Each backend scores the instants where it actually
  /// makes a claim (CRA: challenge slots; residual detectors: power alarms
  /// and echo epochs once warmed or attacked; fusion: every step).
  Verdict observe_scored(const Observation& obs, bool attack_actually_active) {
    return decide(obs, attack_actually_active);
  }

  [[nodiscard]] bool under_attack() const { return under_attack_; }

  /// Step at which the current (or last) attack was first detected.
  [[nodiscard]] std::optional<std::int64_t> detection_step() const {
    return detection_step_;
  }

  /// Cumulative scoring counters (populated by observe_scored only).
  [[nodiscard]] const cra::DetectionStats& stats() const { return stats_; }

  /// Canonical backend name ("cra", "chi2", "ar", "fusion(...)").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns to the freshly built state; overrides reset their own state
  /// and then this.
  virtual void reset();

 protected:
  /// `cause` tags every verdict. Throws std::invalid_argument when either
  /// count is 0.
  DetectorBackend(std::size_t consecutive, std::size_t clear,
                  const char* cause);

  /// The verdict of an instant the backend does not evaluate: no edge.
  [[nodiscard]] Verdict hold(const Observation& obs) const;

  /// The debounce: counts one evaluated instant toward declaration (while
  /// clean) or clearance (while attacked); an alarm while attacked restarts
  /// the clearance count.
  Verdict debounce(const Observation& obs, bool alarmed);

  /// Adds one claim, checked against the ground truth, to stats().
  void score(bool claimed, bool attack_actually_active);

 private:
  /// The one observe entry; `attack_actually_active` is set when scoring.
  virtual Verdict decide(const Observation& obs,
                         std::optional<bool> attack_actually_active) = 0;

  std::size_t consecutive_;
  std::size_t clear_;
  const char* cause_;
  bool under_attack_ = false;
  std::size_t alarms_ = 0;  ///< Alarmed evaluations in a row while clean.
  std::size_t quiet_ = 0;   ///< Quiet evaluations in a row while attacked.
  std::optional<std::int64_t> detection_step_;
  cra::DetectionStats stats_;
};

using DetectorBackendPtr = std::unique_ptr<DetectorBackend>;

}  // namespace safe::detect
