// Load generator for the streaming safe-sensing server (DESIGN.md §12):
// replays deterministic scenario traces over concurrent connections and
// reports throughput plus p50/p95/p99 frame latency.
//
// Usage:
//   loadgen_cli --port N [--host ADDR] [--connections N] [--sessions N]
//               [--steps N] [--scenario const-decel|decel-accel]
//               [--attack none|dos|delay] [--fault SPEC]
//               [--estimator fft|music] [--hardened] [--seed N]
//               [--verify] [--json] [--retries N]
//
// --verify byte-compares every received ESTIMATE frame against the offline
// core::pipeline reference (the serving parity contract); --json prints the
// machine-readable report to stdout. --retries N runs each session through
// the resilient client (session resumption + exponential backoff), which is
// what a chaos soak behind chaos_cli needs to complete. Exit status is
// non-zero when any session failed, any stream was incomplete, or any
// verified frame mismatched.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "serve/loadgen.hpp"
#include "spec/spec.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port N [--host ADDR] [--connections N] [--sessions N]\n"
               "       [--steps N] [--scenario const-decel|decel-accel]\n"
               "       [--attack none|dos|delay] [--fault SPEC]\n"
               "       [--estimator fft|music] [--hardened] [--seed N]\n"
               "       [--verify] [--json] [--retries N]\n"
               "\n"
               "  --port         server port (required)\n"
               "  --host         server address (default 127.0.0.1)\n"
               "  --connections  concurrent client connections (default 8)\n"
               "  --sessions     total sessions to replay (default =\n"
               "                 connections)\n"
               "  --steps        measurement frames per session (default 300)\n"
               "  --scenario     leader profile (default const-decel)\n"
               "  --attack       scheduled sensor attack (default none)\n"
               "  --fault        sensor-fault spec (fault/schedule.hpp)\n"
               "  --estimator    beat estimator (default fft)\n"
               "  --hardened     hardened pipeline options\n"
               "  --seed         master seed for per-session trace seeds\n"
               "  --verify       byte-compare estimates vs offline pipeline\n"
               "  --json         machine-readable report on stdout\n"
               "  --retries      connection attempts per session; > 0 turns\n"
               "                 on the resilient client (resume + backoff)\n";
  std::exit(2);
}

}  // namespace

int run(int argc, char** argv) {
  using namespace safe;

  serve::LoadOptions options;
  bool sessions_set = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (arg == "--port") {
        options.port = static_cast<std::uint16_t>(spec::flag_uint(
            arg, next(), std::numeric_limits<std::uint16_t>::max()));
      } else if (arg == "--host") {
        options.host = next();
      } else if (arg == "--connections") {
        options.connections = spec::flag_uint(arg, next());
      } else if (arg == "--sessions") {
        options.sessions = spec::flag_uint(arg, next());
        sessions_set = true;
      } else if (arg == "--steps") {
        options.spec.horizon_steps = static_cast<std::int64_t>(spec::flag_uint(
            arg, next(), std::numeric_limits<std::int64_t>::max()));
      } else if (arg == "--scenario") {
        const std::string value = next();
        if (value == "const-decel") {
          options.spec.leader = core::LeaderScenario::kConstantDecel;
        } else if (value == "decel-accel") {
          options.spec.leader = core::LeaderScenario::kDecelThenAccel;
        } else {
          usage(argv[0]);
        }
      } else if (arg == "--attack") {
        const std::string value = next();
        if (value == "none") {
          options.spec.attack = core::AttackKind::kNone;
        } else if (value == "dos") {
          options.spec.attack = core::AttackKind::kDosJammer;
        } else if (value == "delay") {
          options.spec.attack = core::AttackKind::kDelayInjection;
        } else {
          usage(argv[0]);
        }
      } else if (arg == "--fault") {
        options.spec.fault_spec = next();
      } else if (arg == "--estimator") {
        const std::string value = next();
        if (value == "fft") {
          options.spec.estimator = radar::BeatEstimator::kPeriodogram;
        } else if (value == "music") {
          options.spec.estimator = radar::BeatEstimator::kRootMusic;
        } else {
          usage(argv[0]);
        }
      } else if (arg == "--hardened") {
        options.spec.hardened = true;
      } else if (arg == "--seed") {
        options.master_seed = spec::flag_uint(arg, next());
      } else if (arg == "--verify") {
        options.verify = true;
      } else if (arg == "--retries") {
        options.retry_attempts = spec::flag_uint(arg, next());
      } else if (arg == "--json") {
        json = true;
      } else {
        usage(argv[0]);
      }
    } catch (const std::invalid_argument& e) {
      std::cerr << "loadgen_cli: " << e.what() << "\n";
      return 2;
    }
  }
  if (options.port == 0) usage(argv[0]);
  if (!sessions_set) options.sessions = options.connections;

  serve::LoadReport report;
  try {
    report = serve::run_load(options);
  } catch (const std::exception& e) {
    std::cerr << "loadgen_cli: " << e.what() << "\n";
    return 1;
  }

  if (json) {
    std::cout << serve::to_json(report) << "\n";
  }
  std::fprintf(stderr,
               "loadgen: %zu/%zu session(s) complete, %llu/%llu estimates, "
               "%.0f frames/s, latency p50 %.2f ms p95 %.2f ms p99 %.2f ms\n",
               report.sessions_completed, report.sessions_attempted,
               static_cast<unsigned long long>(report.estimates_received),
               static_cast<unsigned long long>(report.frames_sent),
               report.throughput_frames_per_s,
               static_cast<double>(report.latency_p50_ns) / 1e6,
               static_cast<double>(report.latency_p95_ns) / 1e6,
               static_cast<double>(report.latency_p99_ns) / 1e6);
  if (options.retry_attempts > 0) {
    std::fprintf(stderr,
                 "loadgen: resilience — %llu reconnect(s), %llu resume(s), "
                 "%llu restart(s), %llu overload backoff(s), %llu frame(s) "
                 "replayed, %llu duplicate(s) discarded\n",
                 static_cast<unsigned long long>(report.reconnects),
                 static_cast<unsigned long long>(report.resumes),
                 static_cast<unsigned long long>(report.restarts),
                 static_cast<unsigned long long>(report.overload_backoffs),
                 static_cast<unsigned long long>(report.replayed_frames),
                 static_cast<unsigned long long>(
                     report.duplicates_discarded));
  }
  if (options.verify) {
    std::fprintf(stderr,
                 "loadgen: verify — %zu/%zu session(s) byte-identical to "
                 "offline pipeline, %llu mismatched frame(s)\n",
                 report.sessions_verified, report.sessions_completed,
                 static_cast<unsigned long long>(
                     report.verify_mismatched_frames));
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "loadgen: error: %s\n", error.c_str());
  }
  return report.ok() ? 0 : 1;
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
