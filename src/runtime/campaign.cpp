#include "runtime/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "platoon/platoon.hpp"
#include "runtime/sync.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace safe::runtime {

namespace {

// Trial lifecycle metrics (DESIGN.md §11). Everything except the duration
// histogram is a pure function of the campaign spec, so these participate in
// the --jobs invariance contract.
struct TrialMetrics {
  telemetry::MetricId trials =
      telemetry::counter("campaign.trials", telemetry::Stability::kDeterministic);
  telemetry::MetricId errors = telemetry::counter(
      "campaign.trial_errors", telemetry::Stability::kDeterministic);
  telemetry::MetricId collisions = telemetry::counter(
      "campaign.collisions", telemetry::Stability::kDeterministic);
  telemetry::MetricId detections = telemetry::counter(
      "campaign.detections", telemetry::Stability::kDeterministic);
  telemetry::MetricId trial_ns =
      telemetry::duration_histogram("campaign.trial_ns");
};

const TrialMetrics& trial_metrics() {
  static const TrialMetrics m;
  return m;
}

/// The outcome half of a trial's record: detection and holdover from the
/// attacked follower, the gap, counts and stats from the whole string's
/// merged outcome (a pair is the one-follower string).
void record_outcome(const core::FollowerOutcome& attacked,
                    const core::FollowerOutcome& merged,
                    const core::ScenarioOptions& options,
                    units::Seconds sample_time, TrialRecord& record) {
  record.detection_step = attacked.detection_step.value_or(-1);
  if ((options.attack != core::AttackKind::kNone ||
       !record.attack_spec.empty()) &&
      record.detection_step >= 0) {
    const double latency =
        static_cast<double>(record.detection_step) * sample_time.value() -
        options.attack_start_s.value();
    record.detection_latency_s = units::Seconds{std::max(0.0, latency)};
  }
  // Holdover fidelity is the attacked follower's: the stream whose
  // estimates the attack actually stresses.
  record.holdover_steps = attacked.holdover_steps;
  record.holdover_rmse_m = attacked.holdover_rmse_m();

  record.min_gap_m = merged.min_gap_m;
  record.false_positives = merged.detection_stats.false_positives;
  record.false_negatives = merged.detection_stats.false_negatives;
  record.true_positives = merged.detection_stats.true_positives;
  record.true_negatives = merged.detection_stats.true_negatives;
  record.safe_stop_steps = merged.safe_stop_steps;
  record.nonfinite_controller_inputs = merged.nonfinite_controller_inputs;
  record.degradation_max = merged.degradation_max;
  const core::HealthStats& hs = merged.health_stats;
  record.rejected_nonfinite = hs.rejected_nonfinite;
  record.rejected_signal = hs.rejected_out_of_range + hs.rejected_innovation +
                           hs.rejected_stuck;
  record.bridged_dropouts = hs.bridged_dropouts;
  record.predictor_resets = hs.predictor_resets;
}

}  // namespace

Distribution Distribution::uniform(double lo, double hi) {
  if (hi < lo) {
    throw std::invalid_argument("Distribution::uniform: hi < lo");
  }
  return Distribution{Kind::kUniform, lo, hi};
}

Distribution Distribution::log_uniform(double lo, double hi) {
  if (!(lo > 0.0) || hi < lo) {
    throw std::invalid_argument(
        "Distribution::log_uniform: requires 0 < lo <= hi");
  }
  return Distribution{Kind::kLogUniform, lo, hi};
}

double Distribution::sample(SplitMix64& rng) const {
  switch (kind_) {
    case Kind::kFixed:
      return lo_;
    case Kind::kUniform:
      return lo_ + (hi_ - lo_) * uniform_double(rng);
    case Kind::kLogUniform:
      return std::exp(std::log(lo_) +
                      (std::log(hi_) - std::log(lo_)) * uniform_double(rng));
  }
  return lo_;
}

std::size_t CampaignSpec::grid_cells() const {
  std::size_t cells = 1;
  const auto mul = [&cells](std::size_t n) {
    if (n > 0) cells *= n;
  };
  mul(leaders.size());
  mul(attacks.size());
  mul(attack_onsets_s.size());
  mul(jammer_powers_w.size());
  mul(fault_specs.size());
  mul(detector_specs.size());
  mul(defenses.size());
  mul(platoon_specs.size());
  mul(attack_specs.size());
  return cells;
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {}

std::size_t Campaign::default_jobs() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

core::ScenarioOptions Campaign::expand(std::uint64_t trial_id,
                                       TrialRecord& record) const {
  core::ScenarioOptions o = spec_.base;

  // Grid axes: unravel the cell index in a fixed axis order so trial t's
  // parameters depend only on t and the spec, never on execution.
  std::uint64_t cell = trial_id % spec_.grid_cells();
  const auto pick = [&cell](const auto& axis, auto& value) {
    if (axis.empty()) return;
    value = axis[static_cast<std::size_t>(cell % axis.size())];
    cell /= axis.size();
  };
  pick(spec_.leaders, o.leader);
  pick(spec_.attacks, o.attack);
  pick(spec_.attack_onsets_s, o.attack_start_s);
  pick(spec_.jammer_powers_w, o.jammer.peak_power_w);
  pick(spec_.fault_specs, o.fault_spec);
  pick(spec_.detector_specs, o.pipeline.detector_spec);
  pick(spec_.defenses, o.defense_enabled);
  pick(spec_.platoon_specs, o.platoon_spec);
  pick(spec_.attack_specs, o.attack_spec);

  // Randomized axes: sampled in a fixed order from the per-trial parameter
  // stream. Every set distribution is drawn even when the trial's attack
  // kind ignores the value, so draws never shift between trials.
  SplitMix64 rng(derive_seed(spec_.seed, SeedStream::kParams, trial_id));
  if (spec_.attack_onset_s) {
    o.attack_start_s = units::Seconds{spec_.attack_onset_s->sample(rng)};
  }
  if (spec_.attack_duration_s) {
    o.attack_end_s =
        o.attack_start_s + units::Seconds{spec_.attack_duration_s->sample(rng)};
  }
  if (spec_.jammer_power_w) {
    o.jammer.peak_power_w = spec_.jammer_power_w->sample(rng);
  }

  o.seed = spec_.scenario_seeds.empty()
               ? derive_seed(spec_.seed, SeedStream::kScenario, trial_id)
               : spec_.scenario_seeds[static_cast<std::size_t>(
                     trial_id % spec_.scenario_seeds.size())];

  record.trial_id = trial_id;
  record.scenario_seed = o.seed;
  record.leader = o.leader;
  record.attack = o.attack;
  record.attack_start_s = o.attack_start_s;
  record.attack_end_s = o.attack_end_s;
  record.jammer_power_w = o.jammer.peak_power_w;
  record.fault_spec = o.fault_spec;
  record.detector_spec = o.pipeline.detector_spec;
  record.defense_enabled = o.defense_enabled;
  record.max_holdover_steps = o.pipeline.health.max_holdover_steps;
  record.horizon_steps = o.horizon_steps;
  record.platoon_spec = o.platoon_spec;
  record.attack_spec = (o.attack_spec == "none") ? "" : o.attack_spec;
  return o;
}

TrialRecord Campaign::run_trial(std::uint64_t trial_id) const {
  const TrialMetrics& metrics = trial_metrics();
  telemetry::ScopedTimer span("trial", "campaign", metrics.trial_ns);
  span.arg("trial_id", static_cast<std::int64_t>(trial_id));

  TrialRecord record;
  try {
    const core::ScenarioOptions options = expand(trial_id, record);
    if (options.platoon_spec.empty() || options.platoon_spec == "none") {
      run_pair_trial(options, record);
    } else {
      run_platoon_trial(options, record);
    }
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  telemetry::add(metrics.trials);
  if (!record.error.empty()) telemetry::add(metrics.errors);
  if (record.collided) telemetry::add(metrics.collisions);
  if (record.detection_step >= 0) telemetry::add(metrics.detections);
  return record;
}

void Campaign::run_pair_trial(const core::ScenarioOptions& options,
                              TrialRecord& record) const {
  core::Scenario scenario = core::make_paper_scenario(options);
  if (spec_.customize) spec_.customize(scenario, record);
  const core::CarFollowingResult result = scenario.run();

  record.collided = result.collided;
  record.collision_step = result.collision_step.value_or(-1);
  record_outcome(result, result, options, scenario.config.sample_time_s,
                 record);
}

void Campaign::run_platoon_trial(const core::ScenarioOptions& options,
                                 TrialRecord& record) const {
  // Platoon trials bypass `customize`: the platoon module owns
  // scenario assembly so every follower's stack matches the paper profile.
  const platoon::PlatoonOptions popts =
      platoon::parse_platoon_spec(options.platoon_spec);
  record.platoon_size = popts.size;
  record.attacked_index = popts.attacked;

  const platoon::PlatoonScenario scenario =
      platoon::make_paper_platoon(options);
  const platoon::PlatoonResult result = scenario.run();

  record.collided = result.collided;
  record.collision_step = result.collision_step.value_or(-1);
  record_outcome(result.followers.at(popts.attacked - 1),
                 platoon::string_outcome(result.followers), options,
                 scenario.config.base.sample_time_s, record);

  const platoon::PropagationMetrics& pm = result.metrics;
  record.shock_depth = pm.shock_depth;
  record.linf_amplification = pm.linf_amplification;
  record.safe_stop_vehicles = pm.safe_stop_vehicles;
  record.detected_vehicles = pm.detected_vehicles;
}

CampaignResult Campaign::run(std::size_t jobs,
                             const std::vector<TrialSink*>& sinks) const {
  const auto t_start = std::chrono::steady_clock::now();
  const std::size_t workers = jobs == 0 ? default_jobs() : jobs;
  const std::uint64_t n = spec_.trials;

  telemetry::ScopedTimer campaign_span("campaign.run", "campaign");
  campaign_span.arg("trials", static_cast<std::int64_t>(n));
  campaign_span.arg("jobs", static_cast<std::int64_t>(workers));

  // Mergeable shard accumulators: a trial lands in shard trial_id % K — a
  // scheduling-independent assignment — and finalize() sorts by trial id,
  // so the merged summary is identical at any job count.
  struct Shard {
    Mutex mutex;
    SummaryAccumulator acc SAFE_GUARDED_BY(mutex);
  };
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }

  // Completed trials park here until the caller thread can emit them in
  // trial-id order; max_in_flight bounds the reorder window.
  struct Done {
    Mutex mutex;
    CondVar parked;
    std::map<std::uint64_t, TrialRecord> records SAFE_GUARDED_BY(mutex);
  } done;
  std::uint64_t next_emit = 0;  // caller thread only

  // Takes trial next_emit's record out of the window: at once if a worker
  // has parked it, else nothing, or, with `wait`, as soon as it is parked.
  // The caller hands it to the sinks once the lock is released.
  const auto take_next = [&](bool wait) -> std::optional<TrialRecord> {
    MutexLock guard(done.mutex);
    auto it = done.records.find(next_emit);
    while (wait && it == done.records.end()) {
      done.parked.wait(done.mutex);
      it = done.records.find(next_emit);
    }
    if (it == done.records.end()) return std::nullopt;
    std::optional<TrialRecord> record(std::move(it->second));
    done.records.erase(it);
    ++next_emit;
    return record;
  };
  const auto emit = [&sinks](const TrialRecord& record) {
    for (TrialSink* sink : sinks) sink->consume(record);
  };

  {
    ThreadPool pool(workers);
    const std::uint64_t max_in_flight =
        static_cast<std::uint64_t>(workers) * 4 + 8;
    for (std::uint64_t t = 0; t < n; ++t) {
      pool.submit([this, t, &shards, &done] {
        TrialRecord record = run_trial(t);
        {
          Shard& shard = *shards[static_cast<std::size_t>(t) % shards.size()];
          MutexLock guard(shard.mutex);
          shard.acc.add(record);
        }
        {
          MutexLock guard(done.mutex);
          done.records.emplace(t, std::move(record));
        }
        done.parked.notify_all();
      });
      // Emit every record that is ready; wait while the window is full.
      while (const std::optional<TrialRecord> record =
                 take_next(t + 1 - next_emit >= max_in_flight)) {
        emit(*record);
      }
    }
    while (next_emit < n) emit(*take_next(/*wait=*/true));
    pool.wait_idle();  // surfaces engine-level failures (e.g. bad_alloc)
    pool.shutdown();
  }
  for (TrialSink* sink : sinks) sink->finish();

  SummaryAccumulator merged;
  for (const auto& shard : shards) {
    MutexLock guard(shard->mutex);
    merged.merge(shard->acc);
  }

  CampaignResult result;
  result.summary = merged.finalize();
  result.trials = static_cast<std::size_t>(n);
  result.jobs = workers;
  result.wall_s = units::Seconds{
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count()};
  return result;
}

}  // namespace safe::runtime
