// Monte Carlo campaign runner: expand a declarative spec into N randomized
// trials, execute them across a work-stealing thread pool, and stream the
// results to JSONL plus an aggregate summary. Output is bit-identical at
// any --jobs value (counter-based per-trial seeding + ordered sinks).
//
// Usage:
//   campaign_cli [--spec FILE | --spec 'k = v; ...'] [--trials N]
//                [--seed N] [--jobs N] [--detector SPEC[|SPEC...]]
//                [--platoon SPEC[|SPEC...]]
//                [--out PATH|-] [--summary] [--quiet]
//                [--metrics-out PATH] [--trace-out PATH]
//                [--trace-detail coarse|fine] [--progress]
//
// Telemetry (all off by default; recording never perturbs results — JSONL
// stdout stays bit-identical with it on):
//   --metrics-out writes the merged counter/histogram dump as JSONL,
//   --trace-out writes a Chrome trace_event file (load in chrome://tracing
//   or https://ui.perfetto.dev), and --progress prints live trials/sec and
//   ETA to stderr from the telemetry counters.
//
// Example: a 1000-trial mixed-attack campaign over randomized onsets,
// durations, and jammer powers:
//   campaign_cli --trials 1000 --jobs 8 --out campaign.jsonl --summary
//     --spec 'attack = none|dos|delay; onset = uniform(60,240);
//             duration = uniform(30,120); jammer_power_w = loguniform(0.01,1);
//             estimator = fft; hardened = true'
//
// `--spec help` prints the spec mini-language.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "attack/spec.hpp"
#include "detect/spec.hpp"
#include "platoon/spec.hpp"
#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"
#include "runtime/spec.hpp"
#include "spec/spec.hpp"
#include "telemetry/telemetry.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--spec FILE|'k = v; ...'|help] [--trials N] [--seed N]\n"
               "       [--jobs N] [--detector SPEC[|SPEC...]|help]\n"
               "       [--platoon SPEC[|SPEC...]|help]\n"
               "       [--attack SPEC[|SPEC...]|help]\n"
               "       [--out PATH|-] [--summary] [--quiet]\n"
               "       [--metrics-out PATH] [--trace-out PATH]\n"
               "       [--trace-detail coarse|fine] [--progress]\n"
               "\n"
               "  --spec         campaign spec: a file path or an inline spec\n"
               "                 string (`--spec help` documents the language)\n"
               "  --trials       override the spec's trial count\n"
               "  --seed         override the spec's master seed\n"
               "  --jobs         worker threads (default: hardware concurrency)\n"
               "  --detector     detection backend(s); `|`-separated values\n"
               "                 form a grid axis like the spec's `detector`\n"
               "                 key (`--detector help` documents the specs)\n"
               "  --platoon      platoon spec(s); `|`-separated values form a\n"
               "                 grid axis like the spec's `platoon` key\n"
               "                 (`--platoon help` documents the language;\n"
               "                 `none` = the single leader-follower pair)\n"
               "  --attack       attack spec(s); `|`-separated values form a\n"
               "                 grid axis like the spec's `attack` key\n"
               "                 (`--attack help` documents the language)\n"
               "  --out          JSONL trial records to PATH (`-` = stdout)\n"
               "  --summary      print the aggregate summary block\n"
               "  --quiet        suppress the progress line\n"
               "  --metrics-out  merged telemetry metrics as JSONL to PATH\n"
               "  --trace-out    Chrome trace_event JSON to PATH (loadable in\n"
               "                 chrome://tracing / Perfetto)\n"
               "  --trace-detail coarse (default: trial spans + events) or\n"
               "                 fine (adds per-sample pipeline stage spans)\n"
               "  --progress     live trials/sec + ETA on stderr\n";
  std::exit(2);
}

/// Polls the live campaign.trials counter and repaints one stderr line;
/// entirely passive — readers never touch the recording shards' hot path.
class ProgressReporter {
 public:
  explicit ProgressReporter(std::uint64_t total)
      : total_(total),
        trials_id_(safe::telemetry::counter("campaign.trials")),
        base_(safe::telemetry::counter_value(trials_id_)),
        thread_([this] { loop(); }) {}

  ~ProgressReporter() {
    done_.store(true);
    thread_.join();
    report(safe::telemetry::counter_value(trials_id_) - base_);
    std::fputc('\n', stderr);
  }

 private:
  void loop() {
    while (!done_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      report(safe::telemetry::counter_value(trials_id_) - base_);
    }
  }

  void report(std::uint64_t done_trials) {
    const double elapsed = watch_.elapsed_seconds();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done_trials) / elapsed : 0.0;
    const double eta =
        rate > 0.0 && done_trials < total_
            ? static_cast<double>(total_ - done_trials) / rate
            : 0.0;
    std::fprintf(stderr,
                 "\rprogress: %llu/%llu trials  %.1f trials/s  ETA %.0f s   ",
                 static_cast<unsigned long long>(done_trials),
                 static_cast<unsigned long long>(total_), rate, eta);
  }

  std::uint64_t total_;
  safe::telemetry::MetricId trials_id_;
  std::uint64_t base_;
  safe::telemetry::Stopwatch watch_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// A count flag's value. Only unsigned decimal digits are taken, so `-3`
/// cannot wrap to 2^64 - 3.
std::uint64_t count_arg(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> count = safe::spec::to_uint(value);
  if (!count) {
    std::cerr << flag << " expects a non-negative integer, got `" << value
              << "`\n";
    std::exit(2);
  }
  return *count;
}

/// A `--spec` value is a file when it names one; otherwise it is parsed as
/// an inline spec string.
std::string load_spec_text(const std::string& arg) {
  std::ifstream file(arg);
  if (!file) return arg;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

int run(int argc, char** argv) {
  using namespace safe;

  std::string spec_text;
  std::string detector_arg;
  std::string platoon_arg;
  std::string attack_arg;
  std::optional<std::size_t> trials_override;
  std::optional<std::uint64_t> seed_override;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string out_path;
  std::string metrics_path;
  std::string trace_path;
  telemetry::TraceDetail detail = telemetry::TraceDetail::kCoarse;
  bool summary = false;
  bool quiet = false;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--spec") {
      const std::string value = next();
      if (value == "help") {
        std::cout << runtime::campaign_spec_help();
        return 0;
      }
      spec_text = load_spec_text(value);
    } else if (arg == "--trials") {
      trials_override = static_cast<std::size_t>(count_arg(arg, next()));
    } else if (arg == "--seed") {
      seed_override = count_arg(arg, next());
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(count_arg(arg, next()));
    } else if (arg == "--detector") {
      detector_arg = next();
      if (detector_arg == "help") {
        std::cout << detect::detector_spec_help() << "\n";
        return 0;
      }
    } else if (arg == "--platoon") {
      platoon_arg = next();
      if (platoon_arg == "help") {
        std::cout << platoon::platoon_spec_help() << "\n";
        return 0;
      }
    } else if (arg == "--attack") {
      attack_arg = next();
      if (attack_arg == "help") {
        std::cout << attack::attack_spec_help() << "\n";
        return 0;
      }
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--trace-detail") {
      const std::string value = next();
      if (value == "coarse") {
        detail = telemetry::TraceDetail::kCoarse;
      } else if (value == "fine") {
        detail = telemetry::TraceDetail::kFine;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--progress") {
      progress = true;
    } else {
      usage(argv[0]);
    }
  }

  if (!metrics_path.empty() || progress) telemetry::set_metrics_enabled(true);
  if (!trace_path.empty()) {
    telemetry::set_tracing_enabled(true);
    telemetry::set_trace_detail(detail);
  }
  telemetry::set_thread_name("main");

  runtime::CampaignSpec spec;
  try {
    spec = runtime::parse_campaign_spec(spec_text);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n\n" << runtime::campaign_spec_help();
    return 2;
  }
  if (trials_override) spec.trials = *trials_override;
  if (seed_override) spec.seed = *seed_override;
  if (!detector_arg.empty()) {
    // Same semantics as the spec's `detector` key: the flag replaces any
    // detector axis the spec declared, `|` separates grid values.
    try {
      spec.detector_specs =
          runtime::parse_campaign_spec("detector = " + detector_arg)
              .detector_specs;
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n" << detect::detector_spec_help() << "\n";
      return 2;
    }
  }
  if (!platoon_arg.empty()) {
    // Likewise for the `platoon` axis. Values with commas need quoting on
    // most shells anyway, so reuse of the spec parser's quoting rules is
    // deliberate: --platoon '"n=8,attacked=3"|none' is a two-cell axis.
    try {
      spec.platoon_specs =
          runtime::parse_campaign_spec("platoon = " + platoon_arg)
              .platoon_specs;
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n" << platoon::platoon_spec_help() << "\n";
      return 2;
    }
  }
  if (!attack_arg.empty()) {
    // Likewise for the `attack` key: bare legacy names (none/dos/delay)
    // become the enum axis, anything parameterized the attack-spec axis.
    try {
      runtime::CampaignSpec parsed =
          runtime::parse_campaign_spec("attack = " + attack_arg);
      spec.attacks = std::move(parsed.attacks);
      spec.attack_specs = std::move(parsed.attack_specs);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n" << attack::attack_spec_help() << "\n";
      return 2;
    }
  }

  std::ofstream out_file;
  std::unique_ptr<runtime::JsonlWriter> writer;
  if (!out_path.empty()) {
    if (out_path == "-") {
      writer = std::make_unique<runtime::JsonlWriter>(std::cout);
    } else {
      out_file.open(out_path);
      if (!out_file) {
        std::cerr << "cannot open " << out_path << "\n";
        return 1;
      }
      writer = std::make_unique<runtime::JsonlWriter>(out_file);
    }
  }
  std::vector<runtime::TrialSink*> sinks;
  if (writer) sinks.push_back(writer.get());

  const std::uint64_t total_trials = spec.trials;
  const runtime::Campaign campaign(std::move(spec));
  runtime::CampaignResult result;
  {
    std::unique_ptr<ProgressReporter> reporter;
    if (progress) reporter = std::make_unique<ProgressReporter>(total_trials);
    result = campaign.run(jobs, sinks);
  }

  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    if (!metrics_file) {
      std::cerr << "cannot open " << metrics_path << "\n";
      return 1;
    }
    telemetry::write_metrics_jsonl(metrics_file);
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open " << trace_path << "\n";
      return 1;
    }
    telemetry::write_chrome_trace(trace_file);
  }

  if (!quiet) {
    std::fprintf(stderr,
                 "campaign: %zu trial(s) on %zu job(s) in %.2f s (%.1f "
                 "trials/s, grid of %zu cell(s))\n",
                 result.trials, result.jobs, result.wall_s.value(),
                 result.wall_s.value() > 0.0
                     ? static_cast<double>(result.trials) /
                           result.wall_s.value()
                     : 0.0,
                 campaign.spec().grid_cells());
  }
  if (summary) {
    std::cout << runtime::format_summary(result.summary);
  }
  return result.summary.errors == 0 ? 0 : 1;
}

// Keeps bugprone-exception-escape honest for the CLI entry points: any
// exception the command loop does not handle becomes a diagnostic and a
// nonzero exit instead of std::terminate.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown error\n");
    return 1;
  }
}
