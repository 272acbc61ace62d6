// The closed-loop step chain driven from public calls, for the traced runs.
//
// replica_run() repeats core::CarFollowingSimulation::run step for step —
// AttackModel::apply -> RadarProcessor::measure ->
// SafeMeasurementPipeline::process_scored -> AccController::step ->
// vehicle::step — with a span around each call, so time is assigned to
// layers without a span inside the library. A twin RadarProcessor built
// with the same seed redoes every epoch stage by stage (synthesis, power,
// peak-to-average, per-segment beat estimation, range inversion); the
// reassembled measurement must equal what measure() returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"
#include "radar/processor.hpp"

namespace perfbench {

/// How far the stage timings of the decomposed epochs may stray from the
/// time measure() itself took, as a share of the latter.
inline constexpr double kStageGapTolerance = 0.10;

/// Calls into one public function and the nanoseconds they took.
struct CallStats {
  std::uint64_t calls = 0;
  double total_ns = 0.0;

  void add(std::uint64_t ns) {
    ++calls;
    total_ns += static_cast<double>(ns);
  }
  [[nodiscard]] double mean_us() const {
    return calls == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(calls);
  }
};

/// Per-layer call timings gathered over replica runs.
struct ChainProfile {
  CallStats attack_apply, radar_measure, pipeline, acc_step, vehicle_step;
  // Stages of the twin's epoch, in the order measure() runs them.
  CallStats synthesize, mean_power, papr, root_music, periodogram, tone_power,
      range_inversion;
  // Kernels timed on their own, on the same segments (not part of the sum).
  CallStats covariance, eigen, roots, fft4096;
  std::uint64_t epochs = 0;
  std::uint64_t coherent_epochs = 0;
  std::uint64_t estimated_steps = 0;
  std::uint64_t fft_calls = 0;  ///< 4096-point FFTs inside measure()
  std::uint64_t stage_mismatches = 0;
  double stage_sum_ns = 0.0;  ///< sum of the reassembled stages' times
  /// Every radar measurement the pipeline consumed, per run, for replaying
  /// detector and estimator calls.
  std::vector<std::vector<safe::radar::RadarMeasurement>> measurements;
};

/// Runs `scenario` from public calls, recording spans under `group` (one id
/// per run) and timings into `profile`. With `stages`, also decomposes every
/// epoch on a twin receiver. Produces the result CarFollowingSimulation::run
/// produces for the same scenario.
safe::core::CarFollowingResult replica_run(const safe::core::Scenario& scenario,
                                           SpanRecorder& spans, std::int64_t group,
                                           ChainProfile& profile, bool stages);

/// Fingerprint of a run's full output: every trace cell's bit pattern plus
/// the outcome fields.
std::string digest(const safe::core::CarFollowingResult& result);

/// Bitwise equality of two radar measurements.
bool same_measurement(const safe::radar::RadarMeasurement& a,
                      const safe::radar::RadarMeasurement& b);

/// Times detector backends and the RLS predictor over recorded measurement
/// streams (the observations a pipeline would build from them) and adds the
/// per-call means to `result`: detect.observe_us.<backend>,
/// estimation.rls_observe_us and estimation.rls_predict_us.
void replay_detect_and_estimation(
    const std::vector<std::vector<safe::radar::RadarMeasurement>>& streams,
    std::int64_t horizon_steps, Result& result);

/// Adds the per-layer metrics of a traced chain (`traced`: replica with a
/// span per call; `staged`: replica with the stage decomposition) to
/// `result`, tagging the radar epoch time with the estimator ("music" or
/// "fft"), and notes where an epoch's time goes.
void report_chain(const ChainProfile& traced, const ChainProfile& staged,
                  const char* estimator, Result& result);

/// Notes the total self time per span name, largest first.
void report_self_time(const SpanRecorder& spans, Result& result);

}  // namespace perfbench
