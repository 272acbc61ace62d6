// Platoon attack-propagation ablation: how far a sensor attack on one
// vehicle travels down an N-vehicle string, swept over platoon size, the
// attacked follower's position, and the detection backend — driven by the
// runtime campaign engine (counter-based seeding + ordered sinks, so the
// table and the JSON line are bit-identical at any --jobs).
//
// Every cell runs the paper's delay-injection attack (onset 180 s) against
// one follower of the platoon; the remaining followers run clean pipelines
// and feel the attack only through the coupled gap dynamics. The columns
// quantify the propagation: shock depth (followers compressed to a
// near-collision gap), the string-stability L-inf amplification of peak gap
// deviations, and how many vehicles the defense reacted on (detections,
// safe-stop cascades).
//
// Output: one aligned row per (platoon, detector) cell, then a single JSON
// object on the last line (the CI smoke redirects stdout to
// BENCH_platoon.json). Wall-clock goes to stderr only, keeping stdout
// deterministic.
//
// Flags: --smoke (1 trial per cell), --jobs N (default 1).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "runtime/campaign.hpp"
#include "runtime/sink.hpp"
#include "spec/spec.hpp"
#include "units/units.hpp"

namespace {

using namespace safe;

const char* const kDetectors[] = {
    "cra",
    "chi2",
    "ar",
    "fusion:members=cra+chi2,quorum=1",
};

struct Platoon {
  const char* spec;
  std::size_t size;
  std::size_t attacked;
};

// Sizes 2..16 with the attack at the head and at mid-string: the head case
// maximizes the number of downstream vehicles the shock can reach, the
// mid-string case checks that vehicles AHEAD of the attacked one stay clean.
const Platoon kPlatoons[] = {
    {"n=2,attacked=1", 2, 1},
    {"n=4,attacked=1", 4, 1},
    {"n=4,attacked=2", 4, 2},
    {"n=8,attacked=1", 8, 1},
    {"n=8,attacked=4", 8, 4},
    {"n=16,attacked=1", 16, 1},
    {"n=16,attacked=8", 16, 8},
};

struct CellStats {
  std::size_t trials = 0;
  std::size_t collisions = 0;
  std::size_t detected = 0;  ///< Attacked follower's detector fired.
  std::size_t shock_depth_sum = 0;
  std::size_t shock_depth_max = 0;
  double linf_sum = 0.0;
  double linf_max = 0.0;
  std::size_t detected_vehicles_sum = 0;
  std::size_t safe_stop_vehicles_sum = 0;
  double min_gap_min_m = 0.0;
  std::vector<double> latencies_s;

  [[nodiscard]] double shock_depth_mean() const {
    return trials > 0
               ? static_cast<double>(shock_depth_sum) /
                     static_cast<double>(trials)
               : 0.0;
  }
  [[nodiscard]] double linf_mean() const {
    return trials > 0 ? linf_sum / static_cast<double>(trials) : 0.0;
  }
  [[nodiscard]] double latency_median_s() const {
    if (latencies_s.empty()) return -1.0;
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
};

/// Buckets records by grid cell. The campaign crosses two axes — detector
/// (picked first) and platoon (appended last) — so trial t lands in cell
/// t % n_cells with detector index (cell % n_detectors) and platoon index
/// (cell / n_detectors), matching the engine's unravel order.
class CellSink final : public runtime::TrialSink {
 public:
  explicit CellSink(std::size_t cells) : cells_(cells) {}

  void consume(const runtime::TrialRecord& r) override {
    CellStats& cell =
        cells_[static_cast<std::size_t>(r.trial_id) % cells_.size()];
    if (cell.trials == 0 || r.min_gap_m.value() < cell.min_gap_min_m) {
      cell.min_gap_min_m = r.min_gap_m.value();
    }
    ++cell.trials;
    if (r.collided) ++cell.collisions;
    if (r.detection_step >= 0) ++cell.detected;
    cell.shock_depth_sum += r.shock_depth;
    cell.shock_depth_max = std::max(cell.shock_depth_max, r.shock_depth);
    cell.linf_sum += r.linf_amplification;
    cell.linf_max = std::max(cell.linf_max, r.linf_amplification);
    cell.detected_vehicles_sum += r.detected_vehicles;
    cell.safe_stop_vehicles_sum += r.safe_stop_vehicles;
    if (r.detection_latency_s.value() >= 0.0) {
      cell.latencies_s.push_back(r.detection_latency_s.value());
    }
  }

  [[nodiscard]] const std::vector<CellStats>& cells() const { return cells_; }

 private:
  std::vector<CellStats> cells_;
};

void append_json_double(std::ostringstream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out << buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      try {
        jobs = static_cast<std::size_t>(spec::flag_uint("--jobs", argv[++i]));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    }
  }
  const std::size_t n_detectors = std::size(kDetectors);
  const std::size_t n_platoons = std::size(kPlatoons);
  const std::size_t n_cells = n_detectors * n_platoons;
  const std::size_t trials_per_cell = smoke ? 1 : 3;

  runtime::CampaignSpec spec;
  spec.base.attack = core::AttackKind::kDelayInjection;
  spec.base.attack_start_s = units::Seconds{180.0};
  spec.base.estimator = radar::BeatEstimator::kPeriodogram;
  spec.detector_specs.assign(std::begin(kDetectors), std::end(kDetectors));
  for (const Platoon& p : kPlatoons) spec.platoon_specs.emplace_back(p.spec);
  spec.trials = n_cells * trials_per_cell;
  spec.seed = 1;

  CellSink sink(n_cells);
  std::vector<runtime::TrialSink*> sinks{&sink};
  const runtime::CampaignResult result =
      runtime::Campaign(std::move(spec)).run(jobs, sinks);
  std::fprintf(stderr, "platoon propagation: %zu trial(s) in %.2f s\n",
               result.trials, result.wall_s.value());

  std::printf(
      "Platoon attack-propagation ablation (delay attack, campaign engine, "
      "%zu trial(s) per cell)\n\n",
      trials_per_cell);
  std::printf("%-18s %-33s %6s %6s %8s %8s %7s %7s %10s %11s %5s\n",
              "platoon", "detector", "shock", "shockM", "linf", "linfM",
              "det.veh", "stops", "min gap[m]", "latency[s]", "crash");

  std::ostringstream json;
  json << "{\"bench\":\"platoon_propagation\",\"trials_per_cell\":"
       << trials_per_cell << ",\"rows\":[";
  bool first_row = true;
  for (std::size_t p = 0; p < n_platoons; ++p) {
    for (std::size_t d = 0; d < n_detectors; ++d) {
      const CellStats& s = sink.cells()[d + n_detectors * p];
      const double latency = s.latency_median_s();
      char latency_str[32];
      if (latency >= 0.0) {
        std::snprintf(latency_str, sizeof(latency_str), "%.2f", latency);
      } else {
        std::snprintf(latency_str, sizeof(latency_str), "n/a");
      }
      std::printf("%-18s %-33s %6.2f %6zu %8.3f %8.3f %7zu %7zu %10.2f "
                  "%11s %5zu\n",
                  kPlatoons[p].spec, kDetectors[d], s.shock_depth_mean(),
                  s.shock_depth_max, s.linf_mean(), s.linf_max,
                  s.detected_vehicles_sum, s.safe_stop_vehicles_sum,
                  s.min_gap_min_m, latency_str, s.collisions);

      if (!first_row) json << ",";
      first_row = false;
      json << "{\"platoon\":\"" << kPlatoons[p].spec
           << "\",\"size\":" << kPlatoons[p].size
           << ",\"attacked\":" << kPlatoons[p].attacked
           << ",\"detector\":\"" << kDetectors[d]
           << "\",\"trials\":" << s.trials << ",\"shock_depth_mean\":";
      append_json_double(json, s.shock_depth_mean());
      json << ",\"shock_depth_max\":" << s.shock_depth_max
           << ",\"linf_amplification_mean\":";
      append_json_double(json, s.linf_mean());
      json << ",\"linf_amplification_max\":";
      append_json_double(json, s.linf_max);
      json << ",\"detected\":" << s.detected
           << ",\"detected_vehicles\":" << s.detected_vehicles_sum
           << ",\"safe_stop_vehicles\":" << s.safe_stop_vehicles_sum
           << ",\"min_gap_min_m\":";
      append_json_double(json, s.min_gap_min_m);
      json << ",\"latency_median_s\":";
      append_json_double(json, s.latency_median_s());
      json << ",\"collisions\":" << s.collisions << "}";
    }
  }
  json << "]}";
  std::printf("\n%s\n", json.str().c_str());
  return 0;
}
