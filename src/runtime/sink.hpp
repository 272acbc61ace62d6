// Streaming result sinks for Monte Carlo campaigns.
//
// The campaign engine delivers one TrialRecord per trial to every attached
// sink, on the caller's thread, in trial-id order — regardless of which
// worker finished which trial when. Sinks therefore need no locking and
// their output is bit-identical across job counts.
//
// SummaryAccumulator is the mergeable half: worker shards accumulate
// concurrently (each shard under its own lock) and the engine merges them
// when the campaign drains. All order-sensitive floating-point reductions
// happen in finalize(), after a canonical sort by trial id, so the summary
// too is independent of scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "units/units.hpp"

namespace safe::runtime {

/// Everything recorded about one campaign trial: the expanded parameters
/// (so a JSONL line is self-describing) and the scalar outcomes.
struct TrialRecord {
  // --- identity & expanded parameters -------------------------------------
  std::uint64_t trial_id = 0;
  std::uint64_t scenario_seed = 0;
  core::LeaderScenario leader = core::LeaderScenario::kConstantDecel;
  core::AttackKind attack = core::AttackKind::kNone;
  /// `--attack` mini-language spec (attack/spec.hpp); empty = the legacy
  /// enum axis above. When set it names the attack that actually ran.
  std::string attack_spec;
  units::Seconds attack_start_s{0.0};
  units::Seconds attack_end_s{0.0};
  double jammer_power_w = 0.0;
  std::string fault_spec;
  std::string detector_spec;  ///< empty = paper CRA backend
  bool defense_enabled = true;
  std::size_t max_holdover_steps = 0;  ///< 0 = unbounded (paper profile).
  std::int64_t horizon_steps = 0;
  /// Platoon mini-language spec; empty = single leader-follower pair.
  std::string platoon_spec;
  std::size_t platoon_size = 0;    ///< Vehicles incl. leader; 0 = pair trial.
  std::size_t attacked_index = 0;  ///< Targeted follower; 0 = pair trial.

  // --- outcomes ------------------------------------------------------------
  bool collided = false;
  std::int64_t collision_step = -1;  ///< -1 = no collision.
  std::int64_t detection_step = -1;  ///< -1 = never detected.
  /// Detection latency (detection step minus attack onset, clamped at 0);
  /// negative when not applicable (no attack or never detected).
  units::Seconds detection_latency_s{-1.0};
  units::Meters min_gap_m{0.0};
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  // True-decision tallies from the same scored stream (ROC numerators /
  // denominators: TPR = tp / (tp + fn), FPR = fp / (fp + tn)).
  std::size_t true_positives = 0;
  std::size_t true_negatives = 0;
  /// RMSE of the attacked follower's holdover estimates against the true
  /// gap over the steps its pipeline substituted them (0 when none). With
  /// the defense off the pipeline still runs, but the controller reads raw
  /// radar instead.
  units::Meters holdover_rmse_m{0.0};
  std::size_t holdover_steps = 0;
  std::size_t safe_stop_steps = 0;
  std::size_t nonfinite_controller_inputs = 0;
  // Health-monitor tallies (hardened pipeline; all zero otherwise).
  std::size_t rejected_nonfinite = 0;  ///< NaN/Inf measurements blocked.
  /// Out-of-range + innovation-gate + stuck-stream rejections combined.
  std::size_t rejected_signal = 0;
  std::size_t bridged_dropouts = 0;
  std::size_t predictor_resets = 0;
  double degradation_max = 0.0;
  // Propagation outcomes (platoon trials only; all zero on pair trials).
  /// Deepest follower at/behind the attacked one whose min gap fell below
  /// half the controller's standstill spacing, counted from the attacked
  /// vehicle (0 = none).
  std::size_t shock_depth = 0;
  /// String-stability L-inf amplification of peak gap deviations.
  double linf_amplification = 0.0;
  std::size_t safe_stop_vehicles = 0;  ///< Followers that entered safe-stop.
  std::size_t detected_vehicles = 0;   ///< Followers whose detector fired.
  /// Non-empty when the trial threw instead of completing.
  std::string error;
};

const char* leader_name(core::LeaderScenario leader);
const char* attack_name(core::AttackKind attack);

/// Serializes a record as one canonical JSON line (fixed key order, shortest
/// round-trip doubles via std::to_chars) — byte-stable for goldens.
std::string to_jsonl(const TrialRecord& record);

/// Streaming consumer of campaign results. consume() is invoked on the
/// campaign caller's thread in ascending trial-id order; finish() once after
/// the last record.
class TrialSink {
 public:
  virtual ~TrialSink() = default;
  virtual void consume(const TrialRecord& record) = 0;
  virtual void finish() {}
};

/// Writes one JSON object per line to a stream as trials complete.
class JsonlWriter final : public TrialSink {
 public:
  explicit JsonlWriter(std::ostream& out) : out_(out) {}
  void consume(const TrialRecord& record) override;
  void finish() override;

 private:
  std::ostream& out_;
};

/// Aggregate statistics over a finished campaign.
struct CampaignSummary {
  std::size_t trials = 0;
  std::size_t errors = 0;
  std::size_t collisions = 0;
  double collision_rate = 0.0;

  std::size_t attacked_trials = 0;
  std::size_t detected = 0;
  std::size_t missed = 0;  ///< Attacked but never detected.
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;

  units::Seconds latency_mean_s{0.0};
  units::Seconds latency_p50_s{0.0};
  units::Seconds latency_p90_s{0.0};
  units::Seconds latency_max_s{0.0};

  units::Meters min_gap_min_m{0.0};
  units::Meters min_gap_p5_m{0.0};
  units::Meters min_gap_p50_m{0.0};
  units::Meters min_gap_mean_m{0.0};

  std::size_t holdover_trials = 0;  ///< Trials that ran on estimates at all.
  units::Meters holdover_rmse_mean_m{0.0};
  units::Meters holdover_rmse_max_m{0.0};

  std::size_t safe_stop_trials = 0;

  // Platoon propagation aggregates (zero / absent unless platoon trials ran;
  // format_summary prints the platoon block only when platoon_trials > 0).
  std::size_t platoon_trials = 0;
  double shock_depth_mean = 0.0;
  std::size_t shock_depth_max = 0;
  double linf_amplification_mean = 0.0;
  double linf_amplification_max = 0.0;
  std::size_t safe_stop_vehicles_total = 0;
  std::size_t detected_vehicles_total = 0;

  /// Trials whose attack came from the `--attack` spec language (zero on
  /// legacy enum-only campaigns; format_summary prints the spoofing block
  /// only when non-zero, keeping pre-spec summaries byte-identical).
  std::size_t spec_attack_trials = 0;
  std::size_t spec_attack_detected = 0;
};

/// Mergeable online accumulator. add() keeps only order-independent tallies
/// plus (trial id, value) samples; merge() concatenates; finalize() sorts by
/// trial id before reducing, so the result is identical no matter how trials
/// were sharded across workers.
class SummaryAccumulator {
 public:
  void add(const TrialRecord& record);
  void merge(const SummaryAccumulator& other);
  [[nodiscard]] CampaignSummary finalize() const;

 private:
  using Sample = std::pair<std::uint64_t, double>;

  std::size_t trials_ = 0;
  std::size_t errors_ = 0;
  std::size_t collisions_ = 0;
  std::size_t attacked_ = 0;
  std::size_t detected_ = 0;
  std::size_t missed_ = 0;
  std::size_t false_positives_ = 0;
  std::size_t false_negatives_ = 0;
  std::size_t safe_stop_trials_ = 0;
  std::size_t platoon_trials_ = 0;
  std::size_t safe_stop_vehicles_ = 0;
  std::size_t detected_vehicles_ = 0;
  std::size_t spec_attacked_ = 0;
  std::size_t spec_detected_ = 0;
  std::vector<Sample> latency_samples_;
  std::vector<Sample> min_gap_samples_;
  std::vector<Sample> holdover_rmse_samples_;
  std::vector<Sample> shock_depth_samples_;
  std::vector<Sample> linf_amplification_samples_;
};

/// Renders the summary as the aligned text block campaign_cli prints.
std::string format_summary(const CampaignSummary& summary);

}  // namespace safe::runtime
