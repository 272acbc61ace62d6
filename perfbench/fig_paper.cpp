// Workload fig_paper: the ten distinct 300-step closed-loop root-MUSIC runs
// behind paper Figures 2a/2b/3a/3b, on one thread — what a researcher waits
// for when regenerating the figures. About three quarters of each epoch is
// root-MUSIC, so DSP and linear-algebra changes show here.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "chain.hpp"
#include "control/acc.hpp"
#include "core/pipeline.hpp"
#include "reference.hpp"

namespace perfbench {

namespace core = safe::core;

namespace {

struct FigCase {
  core::LeaderScenario leader;
  core::AttackKind attack;
  bool defense;
  double onset_s;
  const char* label;
};

// Per leader profile: clean, DoS undefended/defended (onset k = 182) and
// delay undefended/defended (onset k = 180), as the figure benches run them.
constexpr std::array<FigCase, 10> kCases{{
    {core::LeaderScenario::kConstantDecel, core::AttackKind::kNone, true, 182.0, "decel.clean"},
    {core::LeaderScenario::kConstantDecel, core::AttackKind::kDosJammer, false, 182.0, "decel.dos.undefended"},
    {core::LeaderScenario::kConstantDecel, core::AttackKind::kDosJammer, true, 182.0, "decel.dos.defended"},
    {core::LeaderScenario::kConstantDecel, core::AttackKind::kDelayInjection, false, 180.0, "decel.delay.undefended"},
    {core::LeaderScenario::kConstantDecel, core::AttackKind::kDelayInjection, true, 180.0, "decel.delay.defended"},
    {core::LeaderScenario::kDecelThenAccel, core::AttackKind::kNone, true, 182.0, "accel.clean"},
    {core::LeaderScenario::kDecelThenAccel, core::AttackKind::kDosJammer, false, 182.0, "accel.dos.undefended"},
    {core::LeaderScenario::kDecelThenAccel, core::AttackKind::kDosJammer, true, 182.0, "accel.dos.defended"},
    {core::LeaderScenario::kDecelThenAccel, core::AttackKind::kDelayInjection, false, 180.0, "accel.delay.undefended"},
    {core::LeaderScenario::kDecelThenAccel, core::AttackKind::kDelayInjection, true, 180.0, "accel.delay.defended"},
}};

core::ScenarioOptions options_for(const FigCase& c, std::uint64_t seed) {
  core::ScenarioOptions o;
  o.leader = c.leader;
  o.attack = c.attack;
  o.attack_start_s = safe::units::Seconds{c.onset_s};
  o.defense_enabled = c.defense;
  o.estimator = safe::radar::BeatEstimator::kRootMusic;
  o.seed = seed;
  return o;
}

/// The system's own set-up for the figure set: the ten scenarios plus the
/// per-run receiver, pipeline and controller CarFollowingSimulation::run
/// builds before its first step.
double time_setup(const std::vector<std::size_t>& cases, std::uint64_t seed) {
  const double start = now_s();
  for (const std::size_t i : cases) {
    const core::Scenario s = core::make_paper_scenario(options_for(kCases[i], seed));
    const safe::radar::RadarProcessor receiver(s.config.radar, s.config.seed);
    const core::SafeMeasurementPipeline pipeline =
        core::make_default_pipeline(s.schedule, s.config.pipeline);
    const safe::control::AccController acc(s.config.acc);
  }
  return now_s() - start;
}

}  // namespace

Result run_fig_paper(const RunOptions& opt) {
  Result res;
  std::vector<std::size_t> cases;
  if (opt.quick) {
    cases = {2, 9};  // DoS and delay, one per leader profile, defended
  } else {
    for (std::size_t i = 0; i < kCases.size(); ++i) cases.push_back(i);
  }
  const bool check_reference = opt.seed == kFigReferenceSeed;
  std::map<std::size_t, std::string> first_digest;

  // Verifies one run's digest: identical across repetitions, and equal to
  // the seed commit's digest for the reference seed.
  const auto check = [&](std::size_t i, const std::string& d, const char* what) {
    auto [it, inserted] = first_digest.emplace(i, d);
    bool ok = true;
    if (!inserted && it->second != d) {
      res.fail(std::string(what) + "_mismatch");
      ok = false;
    } else if (check_reference && d != kFigReferenceDigests[i]) {
      res.fail("reference_mismatch");
      ok = false;
    }
    if (!ok) {
      res.correct = false;
      res.note(format("FAIL %s %s: digest %s", what, kCases[i].label, d.c_str()));
    }
  };

  // --- set-up, many times; the median is reported.
  const double setup_s = scaled_setup_s(opt.quick ? 1 : 11, opt.quick ? 3 : 101,
                                        [&] { return time_setup(cases, opt.seed); });

  if (opt.trace) {
    // Each run untraced, then driven from public calls with a span per call
    // (back to back, so a drift in machine speed hits both alike), then
    // once more with the stage-by-stage decomposition.
    SpanRecorder spans;
    ChainProfile traced, staged;
    double untraced_s = 0.0, traced_s = 0.0;
    for (const std::size_t i : cases) {
      const core::Scenario s = core::make_paper_scenario(options_for(kCases[i], opt.seed));
      double start = now_s();
      const core::CarFollowingResult r = s.run();
      untraced_s += now_s() - start;
      ++res.attempted;
      check(i, digest(r), "run");
      start = now_s();
      const core::CarFollowingResult replica =
          replica_run(s, spans, static_cast<std::int64_t>(i), traced, false);
      traced_s += now_s() - start;
      ++res.attempted;
      check(i, digest(replica), "replica");
    }
    SpanRecorder stage_spans;
    for (const std::size_t i : cases) {
      const core::Scenario s = core::make_paper_scenario(options_for(kCases[i], opt.seed));
      const core::CarFollowingResult r =
          replica_run(s, stage_spans, static_cast<std::int64_t>(i), staged, true);
      ++res.attempted;
      check(i, digest(r), "staged_replica");
    }
    if (staged.stage_mismatches > 0) {
      res.correct = false;
      res.fail("stage_mismatch", staged.stage_mismatches);
    }
    report_chain(traced, staged, "music", res);
    replay_detect_and_estimation(traced.measurements, 300, res);
    res.set("trace.overhead_s", traced_s - untraced_s, "s");
    res.set("trace.spans", static_cast<double>(spans.spans().size()), "count");
    report_self_time(spans, res);
    if (!opt.out_dir.empty()) {
      spans.write_jsonl(opt.out_dir + "/fig_paper-spans.jsonl");
      stage_spans.write_jsonl(opt.out_dir + "/fig_paper-stage-spans.jsonl");
    }
    res.note(format("tracing overhead: traced %.3f s - untraced %.3f s = %.3f s",
                    traced_s, untraced_s, traced_s - untraced_s));
    return res;
  }

  // --- timed figure sets until the run's seconds are used; every run is
  // bracketed by calibration samples and scaled to reference speed.
  Calibration cal;
  std::vector<double> set_s, raw_set_s, cpu_per_step_us, run_us;
  const double window_start = now_s();
  do {
    double set = 0.0, raw_set = 0.0, cpu = 0.0;
    std::int64_t steps = 0;
    for (const std::size_t i : cases) {
      const core::Scenario s = core::make_paper_scenario(options_for(kCases[i], opt.seed));
      ++res.attempted;
      try {
        const double cpu0 = thread_cpu_s();
        const double t0 = now_s();
        const core::CarFollowingResult r = s.run();
        const double raw = now_s() - t0;
        const double run_cpu = thread_cpu_s() - cpu0;
        const double f = cal.factor();
        set += raw * f;
        raw_set += raw;
        cpu += run_cpu * f;
        run_us.push_back(1e6 * raw * f);
        steps += static_cast<std::int64_t>(r.trace.num_rows());
        check(i, digest(r), "run");
      } catch (const std::exception& e) {
        res.fail("error");
        res.correct = false;
        res.note(format("FAIL %s threw: %s", kCases[i].label, e.what()));
      }
    }
    set_s.push_back(set);
    raw_set_s.push_back(raw_set);
    if (steps > 0) cpu_per_step_us.push_back(1e6 * cpu / static_cast<double>(steps));
  } while (now_s() - window_start < opt.seconds && !opt.quick);

  // --- the replica driven from public calls must match run() byte for byte
  // (two runs here, chosen by the seed; the traced run checks all ten).
  SpanRecorder spans;
  ChainProfile profile;
  const std::size_t first = static_cast<std::size_t>(opt.seed % cases.size());
  for (const std::size_t i : {cases[first], cases[(first + cases.size() / 2) % cases.size()]}) {
    const core::Scenario s = core::make_paper_scenario(options_for(kCases[i], opt.seed));
    ++res.attempted;
    check(i, digest(replica_run(s, spans, static_cast<std::int64_t>(i), profile, opt.quick)), "replica");
  }
  if (profile.stage_mismatches > 0) {
    res.correct = false;
    res.fail("stage_mismatch", profile.stage_mismatches);
  }

  const Tail tail = highest_supported(run_us);
  res.set("batch_s", median(set_s), "s");
  res.set("cpu_us_per_op", median(cpu_per_step_us), "us");
  res.set("latency_p50_us", median(run_us), "us");
  res.set("setup_s", setup_s, "s");
  res.note(format("fig_s = %.4f s at reference speed, %.4f s raw (median of %zu figure sets "
                  "of %zu runs, one thread)",
                  median(set_s), median(raw_set_s), set_s.size(), cases.size()));
  res.note(format("per-run latency: p50 %.0f us, p%.1f %.0f us over %zu runs",
                  median(run_us), tail.percentile, tail.value, tail.count));
  res.note(format("cpu per closed-loop step: %.1f us", median(cpu_per_step_us)));
  res.note(format("speed factors: median %.3f, range %.3f..%.3f over %zu samples",
                  median(cal.factors()),
                  *std::min_element(cal.factors().begin(), cal.factors().end()),
                  *std::max_element(cal.factors().begin(), cal.factors().end()),
                  cal.factors().size()));
  res.note(check_reference ? "reference digests: checked (seed commit)"
                           : "reference digests: not checked (seed is not the reference seed)");
  return res;
}

}  // namespace perfbench
