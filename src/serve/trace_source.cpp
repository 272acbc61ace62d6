#include "serve/trace_source.hpp"

#include <utility>

#include "attack/attack.hpp"
#include "core/follower.hpp"
#include "vehicle/longitudinal.hpp"

namespace safe::serve {

TraceSpec spec_from(const HelloFrame& hello) {
  TraceSpec spec;
  spec.leader = hello.leader;
  spec.attack = hello.attack;
  spec.attack_start_s = hello.attack_start_s;
  spec.attack_end_s = hello.attack_end_s;
  spec.estimator = hello.estimator;
  spec.hardened = hello.hardened;
  spec.seed = hello.scenario_seed;
  spec.horizon_steps = hello.horizon_steps;
  spec.fault_spec = hello.fault_spec;
  spec.detector_spec = hello.detector_spec;
  return spec;
}

HelloFrame hello_from(const TraceSpec& spec, std::string client_id) {
  HelloFrame hello;
  hello.protocol_version = kProtocolVersion;
  hello.scenario_seed = spec.seed;
  hello.horizon_steps = spec.horizon_steps;
  hello.leader = spec.leader;
  hello.attack = spec.attack;
  hello.estimator = spec.estimator;
  hello.hardened = spec.hardened;
  hello.attack_start_s = spec.attack_start_s;
  hello.attack_end_s = spec.attack_end_s;
  hello.client_id = std::move(client_id);
  hello.fault_spec = spec.fault_spec;
  hello.detector_spec = spec.detector_spec;
  return hello;
}

namespace {

core::ScenarioOptions scenario_options_for(const TraceSpec& spec) {
  core::ScenarioOptions options;
  options.leader = spec.leader;
  options.attack = spec.attack;
  options.attack_start_s = spec.attack_start_s;
  options.attack_end_s = spec.attack_end_s;
  options.estimator = spec.estimator;
  options.seed = spec.seed;
  options.horizon_steps = spec.horizon_steps;
  options.pipeline = pipeline_options_for(spec);
  options.fault_spec = spec.fault_spec;
  return options;
}

}  // namespace

core::PipelineOptions pipeline_options_for(const TraceSpec& spec) {
  core::PipelineOptions options = spec.hardened
                                      ? core::hardened_pipeline_options()
                                      : core::PipelineOptions{};
  options.detector_spec = spec.detector_spec;
  return options;
}

core::SafeMeasurementPipeline build_session_pipeline(const TraceSpec& spec) {
  if (spec.horizon_steps <= 0) {
    throw std::invalid_argument(
        "TraceSpec: horizon_steps must be positive, got " +
        std::to_string(spec.horizon_steps));
  }
  auto schedule = std::make_shared<cra::FixedChallengeSchedule>(
      cra::paper_challenge_schedule(spec.horizon_steps));
  return core::make_default_pipeline(std::move(schedule),
                                     pipeline_options_for(spec));
}

std::vector<MeasurementFrame> make_measurement_trace(const TraceSpec& spec) {
  // make_paper_scenario validates the options and assembles the leader
  // profile, attack window, radar config, and challenge schedule exactly as
  // the closed-loop simulation would.
  const core::Scenario scenario = make_paper_scenario(scenario_options_for(spec));
  const core::CarFollowingConfig& config = scenario.config;
  const units::Seconds t_sample = config.sample_time_s;

  core::RadarFrontEnd front_end(config.radar, config.seed,
                                config.target_rcs_m2, config.faults.get());

  // Open loop: the follower mirrors the leader's acceleration, holding the
  // true gap at the initial 100 m. The serving layer never closes the
  // control loop — it only maps measurements to estimates — so the stream
  // needs no controller.
  vehicle::VehicleState leader{.position_m = config.initial_gap_m,
                               .velocity_mps = config.leader_speed_mps};
  vehicle::VehicleState follower{.position_m = units::Meters{0.0},
                                 .velocity_mps = config.leader_speed_mps};

  std::vector<MeasurementFrame> frames;
  frames.reserve(static_cast<std::size_t>(config.horizon_steps));

  // Per-trace clone: stateful attack models restart for every trace.
  std::unique_ptr<attack::AttackModel> attack =
      scenario.attack ? scenario.attack->clone() : nullptr;
  if (attack) attack->reset();

  for (std::int64_t k = 0; k < config.horizon_steps; ++k) {
    const units::Seconds t = static_cast<double>(k) * t_sample;
    const units::MetersPerSecond2 accel =
        scenario.leader->acceleration(t);
    leader = vehicle::step(leader, accel, t_sample);
    follower = vehicle::step(follower, accel, t_sample);

    const core::SensedEpoch sensed = front_end.sense(
        k, t, !scenario.schedule->is_challenge(k), /*visible=*/true,
        vehicle::gap(leader, follower),
        vehicle::relative_velocity(leader, follower), {}, attack.get());
    frames.push_back(
        MeasurementFrame{.step = k, .measurement = sensed.measurement});
  }
  return frames;
}

std::vector<EstimateFrame> run_offline(
    const TraceSpec& spec, const std::vector<MeasurementFrame>& measurements) {
  core::SafeMeasurementPipeline pipeline = build_session_pipeline(spec);
  std::vector<EstimateFrame> estimates;
  estimates.reserve(measurements.size());
  for (const MeasurementFrame& m : measurements) {
    estimates.push_back(EstimateFrame{
        .step = m.step,
        .safe = pipeline.process(m.step, m.measurement),
    });
  }
  return estimates;
}

}  // namespace safe::serve
