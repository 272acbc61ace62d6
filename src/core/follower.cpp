#include "core/follower.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "control/idm.hpp"
#include "radar/link_budget.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::core {

namespace units = safe::units;

namespace {

// The controller stage is the tail of the per-step chain (modulate ->
// channel -> receiver -> CRA check -> RLS -> ACC); the radar and pipeline
// stages carry their own spans, this closes the profile.
const telemetry::MetricId& controller_ns_metric() {
  static const telemetry::MetricId id =
      telemetry::duration_histogram("control.step_ns");
  return id;
}

}  // namespace

RadarFrontEnd::RadarFrontEnd(const radar::RadarProcessorConfig& radar,
                             std::uint64_t seed, double target_rcs_m2,
                             const fault::FaultSchedule* faults)
    : radar_(radar, seed),
      target_rcs_m2_(target_rcs_m2),
      faults_(faults ? *faults : fault::FaultSchedule{}) {
  faults_.reset();
}

SensedEpoch RadarFrontEnd::sense(std::int64_t k, units::Seconds t,
                                 bool tx_enabled, bool visible,
                                 units::Meters gap, units::MetersPerSecond dv,
                                 std::span<const ExtraEcho> extra,
                                 attack::AttackModel* attack) {
  const radar::FmcwParameters& wf = radar_.config().waveform;
  const auto in_window = [&wf](units::Meters d) {
    return d >= wf.min_range_m && d <= wf.max_range_m;
  };

  // --- RF scene: the predecessor's echo if the probe radiates and the
  // target is in the range window, then the extra returns in order
  // (synthesis sums the components in scene order).
  radar::EchoScene scene;
  scene.tx_enabled = tx_enabled;
  scene.noise_power_w = radar_.config().noise_floor_w;
  double echo_power = 0.0;
  if (visible && in_window(gap)) {
    echo_power = radar::received_echo_power_w(wf, gap, target_rcs_m2_);
    if (tx_enabled) {
      scene.echoes.push_back(radar::EchoComponent{
          .distance_m = gap,
          .range_rate_mps = dv,
          .power_w = echo_power,
      });
    }
  }
  if (tx_enabled && visible) {
    for (const ExtraEcho& echo : extra) {
      if (!in_window(echo.distance_m)) continue;
      scene.echoes.push_back(radar::EchoComponent{
          .distance_m = echo.distance_m,
          .range_rate_mps = echo.range_rate_mps,
          .power_w =
              radar::received_echo_power_w(wf, echo.distance_m, echo.rcs_m2),
      });
    }
  }

  SensedEpoch out;
  if (attack && visible) {
    const attack::AttackContext ctx{
        .time_s = t,
        .step = k,
        .true_distance_m = gap,
        .true_range_rate_mps = dv,
        .true_echo_power_w = echo_power,
        .waveform = &wf,
    };
    out.attack_active = attack->apply(ctx, scene);
  }

  // --- Radar receiver (+ post-digitization sensor faults, if scheduled).
  out.measurement = radar_.measure(scene);
  if (!faults_.empty()) {
    out.measurement = faults_.apply(k, !tx_enabled, out.measurement);
  }
  return out;
}

Follower::Follower(const CarFollowingConfig& config, std::uint64_t radar_seed,
                   std::shared_ptr<const cra::ChallengeSchedule> schedule,
                   const fault::FaultSchedule* faults,
                   const vehicle::VehicleState& predecessor,
                   const vehicle::VehicleState& initial)
    : sample_time_(config.sample_time_s),
      defense_enabled_(config.defense_enabled),
      controller_(config.controller),
      idm_(config.idm),
      front_end_(config.radar, radar_seed, config.target_rcs_m2, faults),
      pipeline_(make_default_pipeline(std::move(schedule), config.pipeline)),
      acc_(config.acc),
      state_(initial),
      held_gap_(config.initial_gap_m),
      held_dv_(vehicle::relative_velocity(predecessor, initial)),
      initial_gap_(config.initial_gap_m) {
  tally_.min_gap_m = initial_gap_;
}

FollowerStep Follower::step(std::int64_t k, units::Seconds t,
                            const vehicle::VehicleState& predecessor,
                            bool frozen, std::span<const ExtraEcho> extra,
                            attack::AttackModel* attack) {
  FollowerStep out;
  out.true_gap_m = vehicle::gap(predecessor, state_);
  out.true_dv_mps = vehicle::relative_velocity(predecessor, state_);

  const SensedEpoch sensed = front_end_.sense(
      k, t, !pipeline_.probe_suppressed(k), !frozen, out.true_gap_m,
      out.true_dv_mps, extra, attack);
  out.measurement = sensed.measurement;
  out.attack_active = sensed.attack_active;

  // --- Defense pipeline (Algorithm 2).
  out.safe = pipeline_.process_scored(k, out.measurement, out.attack_active);
  if (out.safe.safe_stop) ++tally_.safe_stop_steps;

  // --- Controller input selection.
  control::AccInputs inputs;
  inputs.follower_speed_mps = state_.velocity_mps;
  if (defense_enabled_) {
    inputs.target_present = out.safe.target_present;
    inputs.distance_m = out.safe.distance_m;
    inputs.relative_velocity_mps = out.safe.relative_velocity_mps;
    inputs.degraded_safe_stop = out.safe.safe_stop;
    inputs.degraded_holdover =
        out.safe.degradation == DegradationState::kHoldover;
  } else {
    // Raw radar consumer with a one-epoch track hold across dropouts.
    if (out.measurement.coherent_echo) {
      held_gap_ = out.measurement.estimate.distance_m;
      held_dv_ = out.measurement.estimate.range_rate_mps;
      held_valid_ = true;
    }
    inputs.target_present = held_valid_;
    inputs.distance_m = held_gap_;
    inputs.relative_velocity_mps = held_dv_;
  }

  // Audit what the controller is about to consume: with the defense on,
  // the health monitor must have filtered every non-finite value.
  if (inputs.target_present &&
      (!std::isfinite(inputs.distance_m.value()) ||
       !std::isfinite(inputs.relative_velocity_mps.value()))) {
    ++tally_.nonfinite_controller_inputs;
  }

  // --- Follower controller + dynamics (Eqs. 13-17, or IDM baseline).
  units::MetersPerSecond2 accel;
  {
    telemetry::ScopedTimer span("acc.step", "control", controller_ns_metric(),
                                telemetry::TraceDetail::kFine);
    span.arg("step", k);
    if (controller_ == FollowerController::kAccHierarchy) {
      accel = acc_.step(inputs).actuation.actual_accel_mps2;
    } else {
      accel = inputs.target_present
                  ? control::idm_acceleration(
                        idm_, state_.velocity_mps,
                        state_.velocity_mps + inputs.relative_velocity_mps,
                        inputs.distance_m)
                  : control::idm_free_acceleration(idm_, state_.velocity_mps);
    }
  }
  if (!frozen) state_ = vehicle::step(state_, accel, sample_time_);
  out.gap_after_m = vehicle::gap(predecessor, state_);

  // --- Outcome tallies, from the doubles the scenes record.
  tally_.min_gap_m = units::min(tally_.min_gap_m, out.gap_after_m);
  const double gap_dev =
      std::abs(out.true_gap_m.value() - initial_gap_.value());
  if (std::isfinite(gap_dev)) {
    tally_.peak_gap_deviation_m =
        units::max(tally_.peak_gap_deviation_m, units::Meters{gap_dev});
  }
  if (out.safe.estimated) {
    const double err = out.safe.distance_m.value() - out.true_gap_m.value();
    if (std::isfinite(err)) {
      tally_.holdover_sq_sum_m2 += err * err;
      ++tally_.holdover_steps;
    }
  }
  tally_.degradation_max = std::max(
      tally_.degradation_max, static_cast<double>(out.safe.degradation));
  return out;
}

FollowerOutcome Follower::outcome() const {
  FollowerOutcome o = tally_;
  o.detection_step = pipeline_.detection_step();
  o.detection_stats = pipeline_.detection_stats();
  o.health_stats = pipeline_.health_stats();
  return o;
}

}  // namespace safe::core
