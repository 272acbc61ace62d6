// Workload campaign_mixed: the Monte Carlo engine users sweep. A periodogram
// grid over attack {none, dos, delay} x detector {cra, chi2, ar} x platoon
// {pair, n=4}, 300 steps per trial, run on nproc workers with the JSONL kept
// in memory. Three 4096-point FFTs dominate each epoch (no root-MUSIC), and
// a platoon trial costs about three pair trials, so the pool's load balance
// and tail show. One trial per cell keeps the single-thread reference pass,
// which every run makes, within the run's time budget.
#include <sstream>

#include "chain.hpp"
#include "platoon/platoon.hpp"
#include "reference.hpp"
#include "runtime/campaign.hpp"

namespace perfbench {

namespace core = safe::core;
namespace runtime = safe::runtime;

namespace {

constexpr std::size_t kTrialsPerCell = 1;

runtime::CampaignSpec make_spec(std::uint64_t seed, bool quick) {
  runtime::CampaignSpec spec;
  spec.base.estimator = safe::radar::BeatEstimator::kPeriodogram;
  spec.base.horizon_steps = quick ? 60 : 300;
  spec.seed = seed;
  spec.attacks = {core::AttackKind::kNone, core::AttackKind::kDosJammer,
                  core::AttackKind::kDelayInjection};
  spec.detector_specs = {"cra", "chi2", "ar"};
  spec.platoon_specs = {"", "n=4"};
  if (quick) spec.attack_onsets_s = {safe::units::Seconds{30.0}};
  spec.trials = spec.grid_cells() * (quick ? 1 : kTrialsPerCell);
  return spec;
}

/// Collects the JSONL and, per trial, how long after the start of the pass
/// the engine handed its record over (the wait for that line of output).
struct RecordingSink final : runtime::TrialSink {
  explicit RecordingSink(double start) : start_s(start) {}

  void consume(const runtime::TrialRecord& record) override {
    result_us.push_back(1e6 * (now_s() - start_s));
    jsonl += runtime::to_jsonl(record);
    jsonl += '\n';
    if (!record.error.empty()) ++errors;
  }

  double start_s;
  std::string jsonl;
  std::size_t errors = 0;
  std::vector<double> result_us;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string jsonl;
  std::size_t errors = 0;
  std::vector<double> result_us;  ///< per trial: time until its record
};

Pass run_pass(const runtime::Campaign& campaign, std::size_t jobs) {
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  RecordingSink sink(start);
  campaign.run(jobs, {&sink});
  Pass pass;
  pass.wall_s = now_s() - start;
  pass.cpu_s = process_cpu_s() - cpu0;
  pass.jsonl = std::move(sink.jsonl);
  pass.errors = sink.errors;
  pass.result_us = std::move(sink.result_us);
  return pass;
}

/// Every trial's simulation run on this thread, timed one by one: the
/// engine's single worker takes the newest queued trial first, so records
/// reach a sink in bursts and their arrival times do not give trial costs.
struct TrialTimes {
  std::vector<double> pair_ms, platoon_ms, all_ms;
};

TrialTimes time_trials(const runtime::Campaign& campaign) {
  TrialTimes times;
  for (std::uint64_t t = 0; t < campaign.spec().trials; ++t) {
    runtime::TrialRecord record;
    const core::ScenarioOptions o = campaign.expand(t, record);
    const double start = now_s();
    if (o.platoon_spec.empty()) {
      (void)core::make_paper_scenario(o).run();
    } else {
      (void)safe::platoon::make_paper_platoon(o).run();
    }
    const double ms = 1e3 * (now_s() - start);
    (o.platoon_spec.empty() ? times.pair_ms : times.platoon_ms).push_back(ms);
    times.all_ms.push_back(ms);
  }
  return times;
}

/// The system's own set-up: the campaign (spec validation) and every
/// trial's expanded options and scenario.
double time_setup(const runtime::CampaignSpec& spec) {
  const double start = now_s();
  const runtime::Campaign campaign(spec);
  for (std::uint64_t t = 0; t < spec.trials; ++t) {
    runtime::TrialRecord record;
    const core::Scenario s = core::make_paper_scenario(campaign.expand(t, record));
  }
  return now_s() - start;
}

std::string digest_of(const std::string& text) {
  Digest d;
  d.update(text);
  return d.hex();
}

}  // namespace

Result run_campaign_mixed(const RunOptions& opt) {
  Result res;
  const runtime::CampaignSpec spec = make_spec(opt.seed, opt.quick);
  const runtime::Campaign campaign(spec);
  const std::size_t jobs = opt.nproc;
  const bool check_reference = !opt.quick && opt.seed == kCampaignReferenceSeed;

  const double setup_s = scaled_setup_s(opt.quick ? 1 : 11, opt.quick ? 3 : 101,
                                        [&] { return time_setup(spec); });

  std::string reference_jsonl;
  // Every pass must reproduce the single-thread JSONL byte for byte (and the
  // seed commit's digest for the reference seed).
  const auto check = [&](const Pass& pass, const char* what) {
    res.attempted += spec.trials;
    res.fail("error", pass.errors);
    if (pass.errors > 0) res.correct = false;
    if (pass.jsonl != reference_jsonl) {
      // Count the trials whose lines differ.
      std::istringstream a(pass.jsonl), b(reference_jsonl);
      std::string la, lb;
      std::uint64_t differing = 0;
      for (std::uint64_t t = 0; t < spec.trials; ++t) {
        std::getline(a, la);
        std::getline(b, lb);
        if (la != lb) ++differing;
      }
      res.fail("jsonl_mismatch", differing);
      res.correct = false;
      res.note(format("FAIL %s: %llu trials differ from the single-thread pass", what,
                      static_cast<unsigned long long>(differing)));
    }
  };

  // Single-thread pass first: the reference every parallel pass must equal.
  const Pass serial = run_pass(campaign, 1);
  reference_jsonl = serial.jsonl;
  res.attempted += spec.trials;
  res.fail("error", serial.errors);
  const std::string jsonl_digest = digest_of(serial.jsonl);
  if (check_reference && jsonl_digest != kCampaignReferenceDigest) {
    res.fail("reference_mismatch", spec.trials);
    res.correct = false;
    res.note("FAIL campaign JSONL digest " + jsonl_digest + " differs from the seed commit's");
  }
  res.note("campaign JSONL digest " + jsonl_digest +
           (check_reference ? " (checked against the seed commit)" : ""));

  if (opt.trace) {
    const Pass parallel = run_pass(campaign, jobs);
    check(parallel, "parallel pass");
    const double serial_s = serial.wall_s;
    const TrialTimes times = time_trials(campaign);
    res.set("runtime.trial_ms.pair", median(times.pair_ms), "ms");
    res.set("runtime.trial_ms.platoon", median(times.platoon_ms), "ms");
    const Tail tail = highest_supported(times.all_ms);
    res.set("runtime.trial_ms_tail", tail.value, "ms");
    res.set("runtime.serial_s", serial_s, "s");
    res.set("runtime.scaling_eff", serial_s / (static_cast<double>(jobs) * parallel.wall_s), "ratio");
    res.set("runtime.cpu_s_per_trial", parallel.cpu_s / static_cast<double>(spec.trials), "s");
    res.note(format("single-thread pass %.3f s; %zu workers %.3f s; scaling efficiency %.3f",
                    serial_s, jobs, parallel.wall_s,
                    serial_s / (static_cast<double>(jobs) * parallel.wall_s)));
    res.note(format("per-trial ms (single thread): pair p50 %.1f, platoon p50 %.1f, p%.1f %.1f over %zu",
                    median(times.pair_ms), median(times.platoon_ms), tail.percentile,
                    tail.value, tail.count));

    // One pair trial per attack kind, driven from public calls.
    SpanRecorder spans, stage_spans;
    ChainProfile traced, staged;
    double traced_s = 0.0, untraced_s = 0.0;
    std::vector<bool> seen(3, false);
    for (std::uint64_t t = 0; t < spec.grid_cells(); ++t) {
      runtime::TrialRecord record;
      const core::ScenarioOptions o = campaign.expand(t, record);
      const auto kind = static_cast<std::size_t>(o.attack);
      if (!o.platoon_spec.empty() || seen[kind]) continue;
      seen[kind] = true;
      const core::Scenario s = core::make_paper_scenario(o);
      double start = now_s();
      const std::string expected = digest(s.run());
      untraced_s += now_s() - start;
      start = now_s();
      const std::string got =
          digest(replica_run(s, spans, static_cast<std::int64_t>(t), traced, false));
      traced_s += now_s() - start;
      const std::string got_staged =
          digest(replica_run(s, stage_spans, static_cast<std::int64_t>(t), staged, true));
      res.attempted += 2;
      if (got != expected || got_staged != expected) {
        res.fail("replica_mismatch");
        res.correct = false;
      }
    }
    if (staged.stage_mismatches > 0) {
      res.correct = false;
      res.fail("stage_mismatch", staged.stage_mismatches);
    }
    report_chain(traced, staged, "fft", res);
    replay_detect_and_estimation(traced.measurements, spec.base.horizon_steps, res);
    res.set("trace.overhead_s", traced_s - untraced_s, "s");
    res.set("trace.spans", static_cast<double>(spans.spans().size()), "count");
    report_self_time(spans, res);
    if (!opt.out_dir.empty()) {
      spans.write_jsonl(opt.out_dir + "/campaign_mixed-spans.jsonl");
      stage_spans.write_jsonl(opt.out_dir + "/campaign_mixed-stage-spans.jsonl");
    }
    res.note(format("tracing overhead: traced %.3f s - untraced %.3f s = %.3f s", traced_s,
                    untraced_s, traced_s - untraced_s));
    return res;
  }

  // Timed passes. Raw times: a pass keeps every CPU busy, and the
  // single-threaded calibration kernel does not track it.
  std::vector<double> pass_s, cpu_us_per_trial, result_us;
  const double window_start = now_s();
  do {
    const Pass pass = run_pass(campaign, jobs);
    check(pass, "parallel pass");
    pass_s.push_back(pass.wall_s);
    cpu_us_per_trial.push_back(1e6 * pass.cpu_s / static_cast<double>(spec.trials));
    result_us.insert(result_us.end(), pass.result_us.begin(), pass.result_us.end());
  } while (now_s() - window_start < opt.seconds && !opt.quick);

  const Tail tail = highest_supported(result_us);
  res.set("batch_s", median(pass_s), "s");
  res.set("cpu_us_per_op", median(cpu_us_per_trial), "us");
  res.set("latency_p50_us", median(result_us), "us");
  res.set("setup_s", setup_s, "s");
  res.note(format("campaign_trials_per_s = %.4f (%llu trials, %zu workers, median of %zu passes)",
                  static_cast<double>(spec.trials) / median(pass_s),
                  static_cast<unsigned long long>(spec.trials), jobs, pass_s.size()));
  res.note(format("time to a trial's record from the start of a pass: p50 %.0f ms, "
                  "p%.1f %.0f ms over %zu",
                  median(result_us) / 1e3, tail.percentile, tail.value / 1e3, tail.count));
  return res;
}

}  // namespace perfbench
