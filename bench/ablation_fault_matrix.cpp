// Fault-injection matrix: every injector kind crossed with the paper's
// scenarios, run through the hardened pipeline (innovation gate, holdover
// budget, dropout bridging, debounced clearance). The table shows how each
// corruption degrades the loop; the exit code enforces the robustness
// invariants the harness exists to protect:
//
//   * no collision in any defended hardened cell (min gap > 0),
//   * no NaN/Inf ever reaches control::acc,
//   * an unbounded fault exhausts the holdover budget and provably enters
//     DEGRADED_SAFE_STOP,
//   * an empty fault schedule is bit-identical to no schedule at all.
//
// Each scenario row is a runtime::Campaign over the fault-spec grid axis, so
// the matrix runs on every core and the records stream back in trial order —
// the table is bit-identical at any worker count. `--smoke` trims the matrix
// for CI.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fault/schedule.hpp"
#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"

namespace {

using namespace safe;

int failures = 0;

void check(bool ok, const char* what, const std::string& cell) {
  if (!ok) {
    ++failures;
    std::printf("FAIL [%s] %s\n", cell.c_str(), what);
  }
}

struct FaultCase {
  const char* label;
  const char* spec;
};

struct ScenarioCase {
  const char* label;
  core::LeaderScenario leader;
  core::AttackKind attack;
};

core::ScenarioOptions base_options(const ScenarioCase& sc) {
  core::ScenarioOptions o;
  o.estimator = radar::BeatEstimator::kPeriodogram;  // fast; MUSIC in figs
  o.leader = sc.leader;
  o.attack = sc.attack;
  o.pipeline = core::hardened_pipeline_options();
  return o;
}

/// Prints one matrix row per trial and enforces the per-cell invariants.
/// Records arrive in trial-id order, so the table layout never depends on
/// scheduling.
class MatrixSink final : public runtime::TrialSink {
 public:
  MatrixSink(const ScenarioCase& sc, const std::vector<FaultCase>& faults)
      : sc_(sc), faults_(faults) {}

  void consume(const runtime::TrialRecord& r) override {
    // Single grid axis: trial t runs fault cell t % n_faults == t.
    const FaultCase& fc = faults_[static_cast<std::size_t>(r.trial_id) %
                                  faults_.size()];
    const std::string cell = std::string(sc_.label) + " x " + fc.label;
    if (!r.error.empty()) {
      check(false, r.error.c_str(), cell);
      return;
    }
    std::printf("%-12s %-10s %8.2f %5s %6zu %6zu %6zu %5zu %5zu %4.0f\n",
                sc_.label, fc.label, r.min_gap_m.value(),
                r.collided ? "CRASH" : "ok", r.rejected_nonfinite,
                r.rejected_signal, r.bridged_dropouts, r.predictor_resets,
                r.safe_stop_steps, r.degradation_max);

    check(r.min_gap_m > safe::units::Meters{0.0} && !r.collided, "collision",
          cell);
    check(r.nonfinite_controller_inputs == 0,
          "non-finite value reached the controller", cell);
  }

 private:
  const ScenarioCase& sc_;
  const std::vector<FaultCase>& faults_;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const std::vector<FaultCase> all_faults{
      {"none", ""},
      {"dropout", "dropout:start=60,len=12"},
      {"nan", "nan:start=90,len=8,period=40"},
      {"inf", "inf:start=90,len=8,period=40"},
      {"stuck", "stuck:start=70,len=15"},
      {"bias", "bias:start=50,len=120,slope=0.05"},
      {"quantize", "quantize:start=40,len=0,step=0.5"},
      {"flap", "flap:start=100,len=120"},
      {"skip", "skip:start=60,len=0,period=7"},
  };
  const std::vector<ScenarioCase> all_scenarios{
      {"clean", core::LeaderScenario::kConstantDecel, core::AttackKind::kNone},
      {"dos", core::LeaderScenario::kConstantDecel,
       core::AttackKind::kDosJammer},
      {"delay+acc", core::LeaderScenario::kDecelThenAccel,
       core::AttackKind::kDelayInjection},
  };
  const std::vector<FaultCase> faults(
      all_faults.begin(),
      all_faults.begin() + static_cast<std::ptrdiff_t>(
                               smoke ? 4 : all_faults.size()));
  const std::vector<ScenarioCase> scenarios(
      all_scenarios.begin(),
      all_scenarios.begin() + static_cast<std::ptrdiff_t>(
                                  smoke ? 2 : all_scenarios.size()));

  std::printf("Fault x scenario matrix, hardened pipeline%s\n\n",
              smoke ? " (smoke)" : "");
  std::printf("%-12s %-10s %8s %5s %6s %6s %6s %5s %5s %4s\n", "scenario",
              "fault", "gap[m]", "out", "nonfin", "reject", "bridge", "reset",
              "stop", "deg");
  for (const ScenarioCase& sc : scenarios) {
    runtime::CampaignSpec spec;
    spec.base = base_options(sc);
    spec.trials = faults.size();
    // One grid axis (fault spec); every cell replays the base scenario seed
    // so the table matches a serial single-scenario run exactly.
    spec.scenario_seeds = {spec.base.seed};
    for (const FaultCase& fc : faults) spec.fault_specs.emplace_back(fc.spec);

    MatrixSink sink(sc, faults);
    std::vector<runtime::TrialSink*> sinks{&sink};
    runtime::Campaign(std::move(spec)).run(/*jobs=*/0, sinks);
  }

  // Holdover-budget invariant: an unbounded dropout starting mid-run must
  // exhaust the budget and latch DEGRADED_SAFE_STOP (degradation == 3).
  {
    core::ScenarioOptions o = base_options(scenarios[0]);
    o.pipeline = core::hardened_pipeline_options(/*max_holdover_steps=*/30);
    o.fault_spec = "dropout:start=60,len=0";
    const auto r = core::make_paper_scenario(o).run();
    std::printf("\nbudget probe: safe-stop steps %zu, degradation max %.0f\n",
                r.safe_stop_steps, r.degradation_max);
    check(r.degradation_max == 3.0,
          "unbounded holdover never entered DEGRADED_SAFE_STOP",
          "budget-probe");
    check(r.safe_stop_steps > 0, "safe-stop never commanded", "budget-probe");
    check(r.nonfinite_controller_inputs == 0,
          "non-finite value reached the controller", "budget-probe");
    check(!r.collided, "collision in safe-stop", "budget-probe");
  }

  // Identity invariant: an explicitly-attached empty schedule must match a
  // run with no schedule at all, sample for sample.
  {
    core::ScenarioOptions o = base_options(scenarios[1]);  // dos
    const auto plain = core::make_paper_scenario(o).run();
    core::Scenario with_empty = core::make_paper_scenario(o);
    with_empty.config.faults = std::make_shared<fault::FaultSchedule>();
    const auto wrapped = with_empty.run();
    const bool identical =
        plain.trace.column("follower_v_mps") ==
            wrapped.trace.column("follower_v_mps") &&
        plain.trace.column("safe_gap_m") == wrapped.trace.column("safe_gap_m");
    std::printf("empty-schedule identity: %s\n", identical ? "ok" : "BROKEN");
    check(identical, "empty schedule changed the simulation", "identity");
  }

  if (failures == 0) {
    std::printf("\nall robustness invariants hold (%s matrix)\n",
                smoke ? "smoke" : "full");
  } else {
    std::printf("\n%d invariant violation(s)\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
