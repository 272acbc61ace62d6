// Command-line scenario runner: configure the case study without writing
// code and export the full trace as CSV for plotting.
//
// Usage:
//   scenario_cli [--leader decel|decel-accel|stop-and-go]
//                [--attack none|dos|delay|SPEC] [--onset K] [--end K]
//                [--no-defense] [--estimator music|fft] [--seed N[,N...]]
//                [--horizon K] [--csv PATH] [--trials N] [--jobs N]
//                [--fault SPEC] [--detector SPEC] [--hardened]
//                [--max-holdover K]
//                [--metrics-out PATH] [--trace-out PATH]
//
// Example: reproduce Figure 2b and dump the series:
//   scenario_cli --leader decel --attack delay --onset 180 --csv fig2b.csv
//
// Example: drop 10 frames mid-run and emit NaNs, with the hardened
// degradation manager enabled:
//   scenario_cli --hardened
//                --fault "dropout:start=60,len=10;nan:start=100,period=25"
//
// Example: the same scenario across 32 noise seeds on 8 workers (the
// campaign engine guarantees bit-identical results at any --jobs):
//   scenario_cli --attack dos --estimator fft --trials 32 --jobs 8
//
// Example: swap the paper's challenge-response detector for the passive
// chi-square backend (no challenge hardware consulted):
//   scenario_cli --attack delay --onset 180 --detector chi2:threshold=9.21
//
// Example: run the attack against follower 3 of an 8-vehicle platoon and
// report how far the disturbance propagates down the string:
//   scenario_cli --attack delay --onset 180 --platoon "n=8,attacked=3"
//
// Example: an entrained attacker that replays the CRA challenge pattern
// perfectly (k = 0) — the coherence check goes blind, only the rx-power
// check can still fire (here its transmitter leaks 15x the noise floor):
//   scenario_cli --attack "entrain:acquire=3,replay=0,leak=15" --onset 180
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/spec.hpp"
#include "core/scenario.hpp"
#include "detect/spec.hpp"
#include "fault/schedule.hpp"
#include "platoon/platoon.hpp"
#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"
#include "spec/spec.hpp"
#include "telemetry/telemetry.hpp"
#include "vehicle/leader_profile.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--leader decel|decel-accel|stop-and-go] [--attack KIND|SPEC]\n"
         "       [--onset K] [--end K] [--no-defense] [--estimator music|fft]\n"
         "       [--seed N[,N...]] [--horizon K] [--csv PATH]\n"
         "       [--trials N] [--jobs N]\n"
         "       [--fault SPEC] [--detector SPEC] [--platoon SPEC]\n"
         "       [--hardened] [--max-holdover K]\n"
         "       [--metrics-out PATH] [--trace-out PATH] [--list-specs]\n"
         "run `--fault help` for the fault-spec mini-language,\n"
         "`--detector help` for the detection-backend language, `--platoon\n"
         "help` for the platoon language, or `--list-specs` for every\n"
         "grammar at once. With --trials\n"
         "or a --seed list the run goes through the runtime campaign engine\n"
         "(one trial per seed, --jobs workers). --metrics-out dumps merged\n"
         "telemetry metrics as JSONL; --trace-out writes a Chrome trace_event\n"
         "file (chrome://tracing / Perfetto).\n";
  std::exit(2);
}

/// `--list-specs`: every mini-language grammar this binary accepts, in one
/// place (fault, detector, platoon) plus the fixed attack kinds.
void print_spec_catalog() {
  std::cout
      << "attack kinds (--attack KIND|SPEC, window via --onset/--end "
         "seconds):\n"
         "  none    clean run, detector still scored for false positives\n"
         "  dos     DoS jammer raises the noise floor (power via campaign\n"
         "          `jammer_power_w`)\n"
         "  delay   replay/delay injection: stale echoes at a spoofed range\n"
         "  spoof   phase-coherent range/Doppler spoofer (coherence knob)\n"
         "  chirp   rogue radar, slope-mismatched chirps smear the ghost\n"
         "  entrain lock-on attacker; replay=k echoes CRA challenges back\n"
         "\n"
      << "attack specs (--attack SPEC):\n"
      << safe::attack::attack_spec_help() << "\n"
      << "fault specs (--fault SPEC):\n"
      << safe::fault::fault_spec_help() << "\n"
      << "detector specs (--detector SPEC):\n"
      << safe::detect::detector_spec_help() << "\n"
      << "platoon specs (--platoon SPEC):\n"
      << safe::platoon::platoon_spec_help() << "\n";
}

/// Dumps telemetry outputs after the run; returns false on an unwritable
/// path so main can exit non-zero.
bool write_telemetry_outputs(const std::string& metrics_path,
                             const std::string& trace_path) {
  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    if (!metrics_file) {
      std::cerr << "cannot open " << metrics_path << "\n";
      return false;
    }
    safe::telemetry::write_metrics_jsonl(metrics_file);
  }
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open " << trace_path << "\n";
      return false;
    }
    safe::telemetry::write_chrome_trace(trace_file);
  }
  return true;
}

/// A count flag's value, at most `max`. Only unsigned decimal digits are
/// taken, so `-3` cannot wrap to 2^64 - 3; a bad value exits 2.
std::uint64_t count_arg(
    const std::string& flag, const std::string& value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  try {
    return safe::spec::flag_uint(flag, value, max);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

/// A finite number flag's value; a bad value exits 2.
double number_arg(const std::string& flag, const std::string& value) {
  try {
    return safe::spec::flag_double(flag, value);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

std::vector<std::uint64_t> parse_seed_list(const std::string& value) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& token :
       safe::spec::split(value, ",").value_or(std::vector<std::string>{})) {
    if (!token.empty()) seeds.push_back(count_arg("--seed", token));
  }
  if (seeds.empty()) {
    std::cerr << "--seed expects a comma-separated list of seeds\n";
    std::exit(2);
  }
  return seeds;
}

/// Per-trial one-liner printed while a multi-trial run streams.
class ConsoleSink final : public safe::runtime::TrialSink {
 public:
  void consume(const safe::runtime::TrialRecord& r) override {
    if (!r.error.empty()) {
      std::printf("trial %4llu  seed %-20llu ERROR %s\n",
                  static_cast<unsigned long long>(r.trial_id),
                  static_cast<unsigned long long>(r.scenario_seed),
                  r.error.c_str());
      return;
    }
    std::printf(
        "trial %4llu  seed %-20llu min gap %8.2f m  %-5s detected %-5s "
        "FP %zu FN %zu\n",
        static_cast<unsigned long long>(r.trial_id),
        static_cast<unsigned long long>(r.scenario_seed),
        r.min_gap_m.value(), r.collided ? "CRASH" : "ok",
        r.detection_step >= 0 ? std::to_string(r.detection_step).c_str()
                              : "never",
        r.false_positives, r.false_negatives);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace safe;

  core::ScenarioOptions options;
  std::string leader = "decel";
  std::string csv_path;
  std::string metrics_path;
  std::string trace_path;
  bool hardened = false;
  std::size_t max_holdover = 15;
  std::string detector_spec;
  std::vector<std::uint64_t> seeds{1};
  std::size_t trials = 0;  // 0 = not requested
  std::size_t jobs = 0;    // 0 = hardware concurrency

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--leader") {
      leader = next();
    } else if (arg == "--attack") {
      const std::string v = next();
      if (v == "help") {
        std::cout << attack::attack_spec_help() << "\n";
        return 0;
      }
      // Bare legacy names keep the enum path (byte-identical pre-spec
      // behavior); any parameterized spec goes through the mini-language.
      if (v == "none") {
        options.attack = core::AttackKind::kNone;
      } else if (v == "dos") {
        options.attack = core::AttackKind::kDosJammer;
      } else if (v == "delay") {
        options.attack = core::AttackKind::kDelayInjection;
      } else {
        const spec::Check check = attack::check_attack_spec(v);
        if (!check.ok()) {
          std::cerr << check.message << "\n"
                    << attack::attack_spec_help() << "\n";
          return 2;
        }
        options.attack_spec = v;
      }
    } else if (arg == "--onset") {
      options.attack_start_s = safe::units::Seconds{number_arg(arg, next())};
    } else if (arg == "--end") {
      options.attack_end_s = safe::units::Seconds{number_arg(arg, next())};
    } else if (arg == "--no-defense") {
      options.defense_enabled = false;
    } else if (arg == "--estimator") {
      const std::string v = next();
      if (v == "music") {
        options.estimator = radar::BeatEstimator::kRootMusic;
      } else if (v == "fft") {
        options.estimator = radar::BeatEstimator::kPeriodogram;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seed") {
      seeds = parse_seed_list(next());
      options.seed = seeds.front();
    } else if (arg == "--trials") {
      trials = static_cast<std::size_t>(count_arg(arg, next()));
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(count_arg(arg, next()));
    } else if (arg == "--horizon") {
      options.horizon_steps = static_cast<std::int64_t>(count_arg(
          arg, next(), std::numeric_limits<std::int64_t>::max()));
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--fault") {
      options.fault_spec = next();
      if (options.fault_spec == "help") {
        std::cout << fault::fault_spec_help() << "\n";
        return 0;
      }
    } else if (arg == "--detector") {
      detector_spec = next();
      if (detector_spec == "help") {
        std::cout << detect::detector_spec_help() << "\n";
        return 0;
      }
    } else if (arg == "--platoon") {
      options.platoon_spec = next();
      if (options.platoon_spec == "help") {
        std::cout << platoon::platoon_spec_help() << "\n";
        return 0;
      }
      if (options.platoon_spec == "none") options.platoon_spec.clear();
    } else if (arg == "--list-specs") {
      print_spec_catalog();
      return 0;
    } else if (arg == "--hardened") {
      hardened = true;
    } else if (arg == "--max-holdover") {
      max_holdover = static_cast<std::size_t>(count_arg(arg, next()));
      hardened = true;
    } else if (arg == "--metrics-out") {
      metrics_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else {
      usage(argv[0]);
    }
  }
  if (!metrics_path.empty()) telemetry::set_metrics_enabled(true);
  if (!trace_path.empty()) {
    // A single scenario is small enough to always trace at fine detail
    // (per-sample pipeline stage spans).
    telemetry::set_tracing_enabled(true);
    telemetry::set_trace_detail(telemetry::TraceDetail::kFine);
  }
  telemetry::set_thread_name("main");
  if (hardened) options.pipeline = core::hardened_pipeline_options(max_holdover);
  // After the hardened profile so --detector composes with --hardened.
  if (!detector_spec.empty()) {
    const spec::Check check = detect::check_detector_spec(detector_spec);
    if (!check.ok()) {
      std::cerr << check.message << "\n" << detect::detector_spec_help()
                << "\n";
      return 2;
    }
    options.pipeline.detector_spec = detector_spec;
  }
  if (!options.platoon_spec.empty()) {
    const spec::Check check = platoon::check_platoon_spec(options.platoon_spec);
    if (!check.ok()) {
      std::cerr << check.message << "\n" << platoon::platoon_spec_help()
                << "\n";
      return 2;
    }
  }

  if (leader == "decel") {
    options.leader = core::LeaderScenario::kConstantDecel;
  } else if (leader == "decel-accel") {
    options.leader = core::LeaderScenario::kDecelThenAccel;
  } else if (leader != "stop-and-go") {
    usage(argv[0]);
  }

  // Multi-trial path: --trials or a --seed list routes through the campaign
  // engine (bit-identical output at any --jobs).
  if (trials > 1 || seeds.size() > 1 || jobs > 1) {
    if (!csv_path.empty()) {
      std::cerr << "--csv only supports a single trial; drop --trials/--jobs "
                   "or use campaign_cli --out for JSONL records\n";
      return 2;
    }
    runtime::CampaignSpec spec;
    spec.base = options;
    spec.seed = seeds.front();
    if (seeds.size() > 1) {
      spec.scenario_seeds = seeds;
      spec.trials = trials > 0 ? trials : seeds.size();
    } else {
      spec.trials = trials > 0 ? trials : 1;
    }
    if (leader == "stop-and-go") {
      spec.customize = [](core::Scenario& s, const runtime::TrialRecord&) {
        s.leader = std::make_shared<vehicle::StopAndGoProfile>();
      };
    }

    ConsoleSink console;
    std::vector<runtime::TrialSink*> sinks{&console};
    const runtime::CampaignResult result = [&] {
      try {
        return runtime::Campaign(std::move(spec)).run(jobs, sinks);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
      }
    }();
    std::printf("\n%zu trial(s) on %zu job(s) in %.2f s\n\n", result.trials,
                result.jobs, result.wall_s.value());
    std::cout << runtime::format_summary(result.summary);
    if (!write_telemetry_outputs(metrics_path, trace_path)) return 1;
    return result.summary.errors == 0 && result.summary.collisions == 0 ? 0
                                                                        : 1;
  }

  // Single platoon run: own output path (per-follower table + propagation
  // metrics) since the pair printout below doesn't generalize to a string.
  if (!options.platoon_spec.empty()) {
    platoon::PlatoonScenario pscenario = [&] {
      try {
        return platoon::make_paper_platoon(options);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n" << platoon::platoon_spec_help() << "\n";
        std::exit(2);
      }
    }();
    if (leader == "stop-and-go") {
      pscenario.leader = std::make_shared<vehicle::StopAndGoProfile>();
    }
    const platoon::PlatoonResult result = [&] {
      telemetry::ScopedTimer span("platoon.scenario.run", "scenario");
      return pscenario.run();
    }();

    const platoon::PlatoonOptions& p = pscenario.config.platoon;
    std::cout << "platoon n=" << p.size << " attacked=" << p.attacked
              << " leader=" << pscenario.leader->name() << " attack="
              << (pscenario.attack ? pscenario.attack->name() : "none")
              << " defense=" << (options.defense_enabled ? "on" : "off")
              << "\n";
    for (const platoon::VehicleOutcome& v : result.followers) {
      std::printf(
          "  follower %2zu%s  min gap %8.2f m  peak dev %7.2f m  "
          "detected %-5s  safe-stop %zu\n",
          v.index, v.index == p.attacked ? "*" : " ", v.min_gap_m.value(),
          v.peak_gap_deviation_m.value(),
          v.detection_step ? std::to_string(*v.detection_step).c_str()
                           : "never",
          v.safe_stop_steps);
    }
    const platoon::PropagationMetrics& pm = result.metrics;
    std::cout << "collision: " << (result.collided ? "YES" : "no");
    if (result.collision_step) {
      std::cout << " at k = " << *result.collision_step << " (follower "
                << result.collision_index << ")";
    }
    std::printf(
        "\nshock depth: %zu   string L-inf amplification: %.3f\n"
        "detected vehicles: %zu   safe-stop vehicles: %zu   min gap: %.2f m\n",
        pm.shock_depth, pm.linf_amplification, pm.detected_vehicles,
        pm.safe_stop_vehicles, pm.min_gap_m.value());

    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      if (!csv) {
        std::cerr << "cannot open " << csv_path << "\n";
        return 1;
      }
      result.trace.write_csv(csv);
      std::cout << "trace written to " << csv_path << "\n";
    }
    if (!write_telemetry_outputs(metrics_path, trace_path)) return 1;
    return result.collided ? 1 : 0;
  }

  core::Scenario scenario = [&] {
    try {
      return core::make_paper_scenario(options);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n" << fault::fault_spec_help() << "\n";
      std::exit(2);
    }
  }();
  if (leader == "stop-and-go") {
    scenario.leader = std::make_shared<vehicle::StopAndGoProfile>();
  }

  const auto result = [&] {
    telemetry::ScopedTimer span("scenario.run", "scenario");
    return scenario.run();
  }();

  std::cout << "leader=" << scenario.leader->name()
            << " attack=" << (scenario.attack ? scenario.attack->name() : "none")
            << " defense=" << (options.defense_enabled ? "on" : "off") << "\n"
            << "min gap: " << result.min_gap_m.value() << " m\n"
            << "collision: " << (result.collided ? "YES" : "no");
  if (result.collision_step) std::cout << " at k = " << *result.collision_step;
  std::cout << "\ndetected: "
            << (result.detection_step ? "k = " + std::to_string(*result.detection_step)
                                      : std::string("never"))
            << " (FP " << result.detection_stats.false_positives << ", FN "
            << result.detection_stats.false_negatives << ")\n";

  if (!options.fault_spec.empty() || hardened) {
    const auto& hs = result.health_stats;
    std::cout << "faults: "
              << (scenario.config.faults ? scenario.config.faults->name()
                                         : std::string("none"))
              << "\nhealth: rejected non-finite " << hs.rejected_nonfinite
              << ", out-of-range " << hs.rejected_out_of_range
              << ", innovation " << hs.rejected_innovation
              << "; predictor resets " << hs.predictor_resets
              << "; bridged dropouts " << hs.bridged_dropouts << "\n"
              << "safe-stop steps: " << result.safe_stop_steps << " (entries "
              << hs.safe_stop_entries << ")\n"
              << "non-finite controller inputs: "
              << result.nonfinite_controller_inputs << "\n";
  }

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    result.trace.write_csv(csv);
    std::cout << "trace written to " << csv_path << "\n";
  }
  if (!write_telemetry_outputs(metrics_path, trace_path)) return 1;
  return result.collided ? 1 : 0;
}
