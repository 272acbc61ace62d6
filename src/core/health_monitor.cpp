#include "core/health_monitor.hpp"

#include <cmath>

#include "telemetry/telemetry.hpp"

namespace safe::core {

namespace units = safe::units;

namespace {

// Global mirrors of the per-run HealthStats tallies: cumulative across every
// monitor instance, so a campaign's merged view is one JSONL line instead of
// N trial records. All are pure functions of the processed sample streams.
struct HealthMetrics {
  telemetry::MetricId rejected_nonfinite =
      telemetry::counter("health.rejected_nonfinite");
  telemetry::MetricId rejected_out_of_range =
      telemetry::counter("health.rejected_out_of_range");
  telemetry::MetricId rejected_innovation =
      telemetry::counter("health.rejected_innovation");
  telemetry::MetricId rejected_stuck =
      telemetry::counter("health.rejected_stuck");
  telemetry::MetricId innovation_resyncs =
      telemetry::counter("health.innovation_resyncs");
  telemetry::MetricId safe_stop_entries =
      telemetry::counter("health.safe_stop_entries");
};

const HealthMetrics& health_metrics() {
  static const HealthMetrics m;
  return m;
}

// Consecutive innovation rejections tolerated before the monitor concludes
// the reference is stale (regime change or re-acquisition after target
// loss), resets both gates, and accepts the sample. Without a bound the gate
// can latch closed forever: rejected samples are never absorbed, so the
// variance never adapts.
constexpr std::size_t kMaxConsecutiveInnovationRejections = 8;

}  // namespace

const char* to_string(DegradationState state) {
  switch (state) {
    case DegradationState::kClean: return "clean";
    case DegradationState::kUnderAttack: return "under-attack";
    case DegradationState::kHoldover: return "holdover";
    case DegradationState::kSafeStop: return "safe-stop";
  }
  return "unknown";
}

namespace {

/// One channel's innovation gate, warming up over the gate's default 8
/// samples. Its variance floor is a one-step innovation scale squared,
/// 0.5 m on the range and 0.5 m/s on the range rate. The simulated channels
/// are smooth, so a learned variance alone can make an ordinary maneuver
/// look like a 100-sigma event; the floor is the smallest per-step jump
/// ever worth flagging.
estimation::InnovationGate::Options gate_options(const HealthOptions& o) {
  constexpr double kInnovationFloor = 0.5;
  estimation::InnovationGate::Options g;
  g.threshold = o.innovation_threshold;
  g.variance_floor = kInnovationFloor * kInnovationFloor;
  return g;
}

}  // namespace

HealthMonitor::HealthMonitor(const HealthOptions& options)
    : options_(options),
      distance_gate_(gate_options(options)),
      velocity_gate_(gate_options(options)) {}

HealthMonitor::Verdict HealthMonitor::validate(Meters distance,
                                               MetersPerSecond velocity,
                                               bool has_reference,
                                               Meters last_distance,
                                               MetersPerSecond last_velocity) {
  const double distance_m = distance.value();
  const double velocity_mps = velocity.value();
  // Non-finite and out-of-physical-range reports never reach the
  // predictors or the controller. This safety check always runs: valid
  // radar reports are never rejected.
  if (!std::isfinite(distance_m) || !std::isfinite(velocity_mps)) {
    ++stats_.rejected_nonfinite;
    telemetry::add(health_metrics().rejected_nonfinite);
    return Verdict::kRejectNonFinite;
  }
  if (!units::plausible_range(distance, options_.max_range_m) ||
      !units::plausible_speed(velocity, options_.max_speed_mps)) {
    ++stats_.rejected_out_of_range;
    telemetry::add(health_metrics().rejected_out_of_range);
    return Verdict::kRejectRange;
  }
  if (options_.max_identical_measurements > 0) {
    // Frozen-stream check on the raw report stream: exact repeats beyond
    // what noise could ever produce mean a stuck tracker or a dead clock.
    if (has_prev_measurement_ && distance == prev_distance_ &&
        velocity == prev_velocity_) {
      ++identical_run_;
    } else {
      identical_run_ = 0;
    }
    prev_distance_ = distance;
    prev_velocity_ = velocity;
    has_prev_measurement_ = true;
    if (identical_run_ >= options_.max_identical_measurements) {
      ++stats_.rejected_stuck;
      telemetry::add(health_metrics().rejected_stuck);
      return Verdict::kRejectStuck;
    }
  }
  if (options_.innovation_threshold > 0.0 && has_reference) {
    // Gate both channels; feed the second gate regardless so its variance
    // estimate tracks even when the first channel rejects.
    const bool d_outlier =
        distance_gate_.observe(distance_m - last_distance.value());
    const bool v_outlier =
        velocity_gate_.observe(velocity_mps - last_velocity.value());
    if (d_outlier || v_outlier) {
      ++innovation_streak_;
      if (innovation_streak_ > kMaxConsecutiveInnovationRejections) {
        // Everything has been "an outlier" for a while: the reference is
        // stale (regime change, re-acquired target), not the data. Re-sync
        // on this sample with fresh gates.
        distance_gate_.reset();
        velocity_gate_.reset();
        innovation_streak_ = 0;
        ++stats_.innovation_resyncs;
        telemetry::add(health_metrics().innovation_resyncs);
        return Verdict::kAccept;
      }
      ++stats_.rejected_innovation;
      telemetry::add(health_metrics().rejected_innovation);
      return Verdict::kRejectInnovation;
    }
    innovation_streak_ = 0;
  }
  return Verdict::kAccept;
}

bool HealthMonitor::prediction_ok(Meters distance,
                                  MetersPerSecond velocity) const {
  return std::isfinite(distance.value()) && std::isfinite(velocity.value()) &&
         units::plausible_range(Meters{std::fmax(distance.value(), 0.0)},
                                options_.max_range_m) &&
         units::plausible_speed(velocity, options_.max_speed_mps);
}

void HealthMonitor::note_holdover_step() {
  ++holdover_steps_;
  if (!safe_stop_ && options_.max_holdover_steps > 0 &&
      holdover_steps_ > options_.max_holdover_steps) {
    safe_stop_ = true;
    ++stats_.safe_stop_entries;
    telemetry::add(health_metrics().safe_stop_entries);
  }
}

void HealthMonitor::note_trusted_sample(bool attack_over) {
  holdover_steps_ = 0;
  if (safe_stop_ && attack_over) safe_stop_ = false;
}

void HealthMonitor::reset() {
  distance_gate_.reset();
  velocity_gate_.reset();
  innovation_streak_ = 0;
  prev_distance_ = units::Meters{0.0};
  prev_velocity_ = units::MetersPerSecond{0.0};
  has_prev_measurement_ = false;
  identical_run_ = 0;
  holdover_steps_ = 0;
  safe_stop_ = false;
  stats_ = HealthStats{};
}

}  // namespace safe::core
