// Health monitoring + graceful degradation for the safe-measurement pipeline.
//
// The paper assumes the only thing that goes wrong is one of two clean
// attack archetypes; a deployed pipeline also has to survive compound sensor
// faults: non-finite radar outputs, out-of-range reports, stealthy jumps,
// diverging RLS free-runs, and holdovers that outlive any plausible
// estimate. The HealthMonitor centralizes those checks and drives the
// degradation state machine
//
//   CLEAN -> UNDER_ATTACK -> HOLDOVER -> DEGRADED_SAFE_STOP -> CLEAN
//
// where DEGRADED_SAFE_STOP is the explicit admission that the estimates are
// stale: the controller is commanded into a conservative deceleration
// instead of trusting a free-run that has outlived its training data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "estimation/innovation_gate.hpp"
#include "units/units.hpp"

namespace safe::core {

using units::Meters;
using units::MetersPerSecond;

/// Pipeline degradation level, ordered by severity. Reported in every
/// SafeMeasurement so controllers, traces, and benches observe the machine.
enum class DegradationState : std::uint8_t {
  kClean = 0,       ///< Trusted measurements pass through.
  kUnderAttack = 1, ///< CRA detector active: estimates substitute.
  kHoldover = 2,    ///< No attack, but data invalid/missing: estimates hold.
  kSafeStop = 3,    ///< Holdover budget exhausted: conservative stop.
};

[[nodiscard]] const char* to_string(DegradationState state);

struct HealthOptions {
  /// Physical bounds a measurement (and a free-run) must respect.
  Meters max_range_m = units::kMaxPlausibleRange;
  MetersPerSecond max_speed_mps = units::kMaxPlausibleSpeed;

  /// chi^2_1 threshold for the per-channel innovation gate on trusted
  /// samples; <= 0 disables the gate (paper behaviour). When enabled, a
  /// sample whose jump from the last trusted value is a variance outlier on
  /// either channel is quarantined as a suspected stealth fault.
  double innovation_threshold = 0.0;
  /// Consecutive bit-identical (distance, velocity) reports tolerated
  /// before the stream is declared frozen (stuck tracker, dead clock) and
  /// further repeats are quarantined; 0 = off. Real radar noise never
  /// repeats a sample exactly, so frozen-stream faults — whose innovation
  /// is exactly zero — are invisible to every other check.
  std::size_t max_identical_measurements = 0;

  /// Consecutive holdover (estimated) steps allowed before the pipeline
  /// declares DEGRADED_SAFE_STOP; 0 = unbounded (paper behaviour).
  std::size_t max_holdover_steps = 0;

  /// Unexpected-silence epochs (dropouts outside challenge slots) bridged
  /// with estimates before the target is declared lost; 0 = legacy
  /// behaviour (report no target immediately).
  std::size_t dropout_holdover_steps = 0;
};

/// Cumulative health counters, exposed for benches and traces.
struct HealthStats {
  std::size_t rejected_nonfinite = 0;    ///< NaN/Inf measurements blocked.
  std::size_t rejected_out_of_range = 0; ///< Physically impossible reports.
  std::size_t rejected_innovation = 0;   ///< Innovation-gate quarantines.
  std::size_t rejected_stuck = 0;        ///< Frozen-stream repeats blocked.
  std::size_t innovation_resyncs = 0;    ///< Gate re-syncs after latch-up.
  std::size_t predictor_resets = 0;      ///< Diverged free-runs re-trained.
  std::size_t safe_stop_entries = 0;     ///< DEGRADED_SAFE_STOP transitions.
  std::size_t bridged_dropouts = 0;      ///< Silent epochs held over.
};

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthOptions& options = {});

  enum class Verdict {
    kAccept,
    kRejectNonFinite,
    kRejectRange,
    kRejectStuck,
    kRejectInnovation,
  };

  /// Validates a coherent-echo report about to be trusted. On acceptance the
  /// innovation gates absorb the sample; rejected samples never touch gate
  /// state. `has_reference` supplies the last trusted values for the
  /// innovation check.
  Verdict validate(Meters distance, MetersPerSecond velocity,
                   bool has_reference, Meters last_distance,
                   MetersPerSecond last_velocity);

  /// True when a free-run prediction is finite and physically plausible;
  /// false means the predictor has diverged and must be re-trained.
  [[nodiscard]] bool prediction_ok(Meters distance,
                                   MetersPerSecond velocity) const;

  /// Accounts one estimated (holdover) step; enters safe stop once the
  /// budget is exhausted.
  void note_holdover_step();

  /// Accounts one trusted pass-through sample: clears the holdover run and,
  /// with `attack_over`, releases a latched safe stop.
  void note_trusted_sample(bool attack_over);

  void record_predictor_reset() { ++stats_.predictor_resets; }
  void record_bridged_dropout() { ++stats_.bridged_dropouts; }

  [[nodiscard]] bool safe_stop() const { return safe_stop_; }
  [[nodiscard]] std::size_t holdover_steps() const { return holdover_steps_; }
  [[nodiscard]] const HealthStats& stats() const { return stats_; }
  [[nodiscard]] const HealthOptions& options() const { return options_; }

  void reset();

 private:
  HealthOptions options_;
  estimation::InnovationGate distance_gate_;
  estimation::InnovationGate velocity_gate_;
  std::size_t innovation_streak_ = 0;  ///< Consecutive gate rejections.
  units::Meters prev_distance_{0.0};   ///< Frozen-stream tracking.
  units::MetersPerSecond prev_velocity_{0.0};
  bool has_prev_measurement_ = false;
  std::size_t identical_run_ = 0;
  std::size_t holdover_steps_ = 0;
  bool safe_stop_ = false;
  HealthStats stats_;
};

}  // namespace safe::core
