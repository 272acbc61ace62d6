// Declarative Monte Carlo campaign engine.
//
// A CampaignSpec is a base ScenarioOptions plus two kinds of axes:
//   * grid axes — explicit value lists (leader, attack, onset, jammer
//     power, fault spec) crossed into a cartesian cell grid; trial t lands
//     in cell t % n_cells, so any prefix of the trial range covers the grid
//     round-robin;
//   * randomized axes — distributions (fixed / uniform / log-uniform)
//     sampled per trial from the counter-based seed stream, overriding the
//     corresponding grid/base value.
//
// Campaign::run expands the spec into `trials` trials, executes them on a
// work-stealing ThreadPool, and streams TrialRecords to the attached sinks
// in trial-id order. Every per-trial quantity derives from
// (spec.seed, trial id) alone, so output is bit-identical at any --jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "runtime/seed.hpp"
#include "runtime/sink.hpp"
#include "units/units.hpp"

namespace safe::runtime {

/// Scalar sampling law for a randomized campaign axis.
class Distribution {
 public:
  enum class Kind { kFixed, kUniform, kLogUniform };

  static Distribution fixed(double value) {
    return Distribution{Kind::kFixed, value, value};
  }
  /// Uniform on [lo, hi]. Throws std::invalid_argument when hi < lo.
  static Distribution uniform(double lo, double hi);
  /// Log-uniform on [lo, hi]; requires 0 < lo <= hi.
  static Distribution log_uniform(double lo, double hi);

  [[nodiscard]] double sample(SplitMix64& rng) const;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  Distribution(Kind kind, double lo, double hi)
      : kind_(kind), lo_(lo), hi_(hi) {}

  Kind kind_;
  double lo_;
  double hi_;
};

struct CampaignSpec {
  /// Defaults every trial starts from; grid/randomized axes override fields.
  core::ScenarioOptions base{};
  std::size_t trials = 1;
  /// Master seed: every per-trial seed and draw derives from it.
  std::uint64_t seed = 1;

  // Grid axes (empty = keep the base value; non-empty lists are crossed).
  std::vector<core::LeaderScenario> leaders;
  std::vector<core::AttackKind> attacks;
  std::vector<units::Seconds> attack_onsets_s;
  std::vector<double> jammer_powers_w;
  std::vector<std::string> fault_specs;
  /// Detection-backend specs (detect mini-language; "" = paper CRA) and
  /// defense on/off. Appended after fault_specs in the unravel order so
  /// specs without them keep their existing trial-to-cell mapping.
  std::vector<std::string> detector_specs;
  std::vector<bool> defenses;
  /// Platoon specs (platoon mini-language; "" = the pair scene). Appended
  /// after defenses in the unravel order so specs without a platoon axis
  /// keep their existing trial-to-cell mapping. Platoon trials always run
  /// platoon::make_paper_platoon — `customize` applies to pair cells only.
  std::vector<std::string> platoon_specs;
  /// Attack specs (attack mini-language; "" = keep the legacy enum axis for
  /// that cell). Appended after platoon_specs in the unravel order so specs
  /// without an attack-spec axis keep their existing trial-to-cell mapping.
  std::vector<std::string> attack_specs;

  // Randomized axes (take precedence over the matching grid axis).
  std::optional<Distribution> attack_onset_s;
  std::optional<Distribution> attack_duration_s;  ///< end = onset + duration
  std::optional<Distribution> jammer_power_w;

  /// Explicit scenario seeds (trial t uses scenario_seeds[t % size]);
  /// empty = derive from `seed`. Lets CLIs replay a literal seed list.
  std::vector<std::uint64_t> scenario_seeds;

  /// Optional hook run on each pair trial's core::make_paper_scenario()
  /// (swap leader profile, challenge schedule, ...). Must depend only on
  /// the record's contents, not on shared state.
  std::function<void(core::Scenario&, const TrialRecord&)> customize;

  /// Number of cells in the cartesian grid (>= 1).
  [[nodiscard]] std::size_t grid_cells() const;
};

struct CampaignResult {
  CampaignSummary summary;
  std::size_t trials = 0;
  std::size_t jobs = 0;
  units::Seconds wall_s{0.0};
};

class Campaign {
 public:
  explicit Campaign(CampaignSpec spec);

  /// Deterministic expansion of trial `trial_id`: the ScenarioOptions it
  /// runs with, and the parameter half of its record. Independent of run().
  [[nodiscard]] core::ScenarioOptions expand(std::uint64_t trial_id,
                                             TrialRecord& record) const;

  /// Runs all trials on `jobs` workers (0 = hardware_concurrency), feeding
  /// `sinks` in trial-id order on this thread. Returns the merged summary.
  CampaignResult run(std::size_t jobs,
                     const std::vector<TrialSink*>& sinks = {}) const;

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }

  /// jobs=0 resolution used by run() and the CLIs.
  [[nodiscard]] static std::size_t default_jobs();

 private:
  [[nodiscard]] TrialRecord run_trial(std::uint64_t trial_id) const;
  void run_pair_trial(const core::ScenarioOptions& options,
                      TrialRecord& record) const;
  void run_platoon_trial(const core::ScenarioOptions& options,
                         TrialRecord& record) const;

  CampaignSpec spec_;
};

}  // namespace safe::runtime
