// Entry point of the repository benchmark binary. run.py builds it and turns
// its last line into the benchmark's result; see README.md.
//
//   perfbench --workload fig_paper|campaign_mixed|serve_stream --seed N
//             --seconds S --trace 0|1 [--quick] [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"
#include "telemetry/telemetry.hpp"

namespace {

void json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig_paper|campaign_mixed|serve_stream "
               "--seed N --seconds S --trace 0|1 [--quick] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (arg == "--quick") {
      opt.quick = true;
    } else {
      return usage();
    }
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());

  // The library's own telemetry stays off: every number here is taken from
  // outside, around calls into public functions.
  safe::telemetry::set_metrics_enabled(false);
  safe::telemetry::set_tracing_enabled(false);

  using Workload = perfbench::Result (*)(const perfbench::RunOptions&);
  const std::pair<const char*, Workload> workloads[] = {
      {"fig_paper", &perfbench::run_fig_paper},
      {"campaign_mixed", &perfbench::run_campaign_mixed},
      {"serve_stream", &perfbench::run_serve_stream},
  };
  perfbench::Result result;
  bool known = false;
  try {
    for (const auto& [name, run] : workloads) {
      if (workload == name) {
        result = run(opt);
        known = true;
      }
    }
    if (!known) return usage();
    // A traced run also measures the layers its workload does not exercise,
    // on the minimal size of the workloads that do, so every per-layer
    // metric is a measurement; the workload's own layers keep its values.
    for (const auto& [name, run] : workloads) {
      if (!opt.trace || workload == name) continue;
      perfbench::RunOptions minimal = opt;
      minimal.quick = true;
      minimal.out_dir.clear();
      const perfbench::Result extra = run(minimal);
      std::size_t added = 0;
      for (const auto& [metric, value] : extra.metrics) {
        added += result.metrics.emplace(metric, value).second ? 1 : 0;
      }
      if (!extra.correct) {
        result.correct = false;
        result.note(std::string("FAIL minimal ") + name + ": an output differs from its reference");
      }
      result.note(perfbench::format("%zu layer metrics from minimal %s", added, name));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (!opt.trace) result.set("rss_mb", perfbench::peak_rss_mb(), "MB");

  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("failed share: %llu of %llu attempted (%.4f%%)\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted),
              100.0 * perfbench::failed_share(result.attempted, result.failed));
  for (const auto& [kind, n] : result.failed_by_kind) {
    std::printf("failed %-20s %llu\n", kind.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"failed_by_kind\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [kind, n] : result.failed_by_kind) {
    std::printf("%s", sep);
    json_string(kind);
    std::printf(": %llu", static_cast<unsigned long long>(n));
    sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  sep = "";
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s", sep);
    json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    json_string(metric.unit);
    std::printf("}");
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
