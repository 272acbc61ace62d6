// Measurement-trace generation and the offline parity reference.
//
// The serving layer moves radar epochs over a wire instead of a function
// call, and its core contract is that the move is invisible: for a given
// TraceSpec, the ESTIMATE frames a server session emits must be
// byte-identical to running core::SafeMeasurementPipeline over the same
// measurements in-process. Both sides of that contract live here:
//
//   * make_measurement_trace() synthesizes the deterministic open-loop
//     radar stream a client replays (leader profile + mirrored follower,
//     paper link budget, CRA probe gating, scheduled attack, optional
//     fault schedule): core::RadarFrontEnd, the receiver half of the chain
//     every closed-loop scene runs, with no controller feedback;
//   * run_offline() is the in-process reference: the exact pipeline a
//     server session builds, fed the exact frames it would receive.
//
// The load generator, the loopback tests, and the CI smoke all verify
// serving output against run_offline().
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/scenario.hpp"
#include "serve/wire.hpp"

namespace safe::serve {

/// Everything that determines a session's measurement stream and pipeline.
/// Mirrors the HELLO frame minus transport concerns (version, client id).
struct TraceSpec {
  core::LeaderScenario leader = core::LeaderScenario::kConstantDecel;
  core::AttackKind attack = core::AttackKind::kNone;
  units::Seconds attack_start_s{182.0};
  units::Seconds attack_end_s{300.0};
  /// Periodogram by default: serving traffic values throughput, and an epoch
  /// of the paper's root-MUSIC costs about 7x as much for nearly identical
  /// behaviour (core::ScenarioOptions::estimator has the measurement).
  radar::BeatEstimator estimator = radar::BeatEstimator::kPeriodogram;
  bool hardened = false;  ///< hardened_pipeline_options() vs paper defaults
  std::uint64_t seed = 1;
  std::int64_t horizon_steps = 300;
  std::string fault_spec;  ///< applied client-side, between radar and wire
  /// Detection backend (detect mini-language). Empty = paper CRA.
  std::string detector_spec;
};

[[nodiscard]] TraceSpec spec_from(const HelloFrame& hello);
[[nodiscard]] HelloFrame hello_from(const TraceSpec& spec,
                                    std::string client_id);

/// The pipeline options a session runs under (paper defaults or hardened).
[[nodiscard]] core::PipelineOptions pipeline_options_for(const TraceSpec& spec);

/// Builds the per-session pipeline: paper challenge schedule over the spec's
/// horizon, RLS-AR predictors on both channels. Used by the SessionManager
/// and by run_offline(), which is what makes the parity contract exact.
/// Throws std::invalid_argument on a non-positive horizon.
[[nodiscard]] core::SafeMeasurementPipeline build_session_pipeline(
    const TraceSpec& spec);

/// Synthesizes the spec's measurement stream: one RadarMeasurement per step,
/// deterministic in the spec (seed included). The follower mirrors the
/// leader's acceleration profile, so the true gap holds at the paper's
/// initial 100 m and every dynamic in the stream comes from noise, the
/// attack window, and the fault schedule. Throws std::invalid_argument on
/// invalid scenario options or a malformed fault spec.
[[nodiscard]] std::vector<MeasurementFrame> make_measurement_trace(
    const TraceSpec& spec);

/// The offline reference: runs the exact pipeline build_session_pipeline()
/// returns over `measurements`, in order, producing the ESTIMATE frames a
/// clean server session must match byte for byte.
[[nodiscard]] std::vector<EstimateFrame> run_offline(
    const TraceSpec& spec, const std::vector<MeasurementFrame>& measurements);

}  // namespace safe::serve
