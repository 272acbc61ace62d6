// Detection-backend ablation: ROC points, detection latency, and holdover
// quality for every detect:: backend over the attack families, driven by the
// runtime campaign engine (counter-based seeding + ordered sinks, so the
// table and the JSON line are bit-identical at any --jobs).
//
// Families: a clean baseline (false-positive floor), the paper's DoS jammer
// and delay-injection attacks (true-positive rate + latency), and a stealthy
// bias-ramp sensor fault with no attack behind it (alarms there are scored
// as false positives — the nuisance-rejection axis).
//
// Output: one aligned row per (family, detector) cell, then a single JSON
// object on the last line (the CI smoke redirects stdout to
// BENCH_detect.json). Wall-clock goes to stderr only, keeping stdout
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

struct Family {
  const char* name;
  core::AttackKind attack;
  double onset_s;
  const char* fault_spec;
};

const Family kFamilies[] = {
    {"clean", core::AttackKind::kNone, 182.0, ""},
    {"dos", core::AttackKind::kDosJammer, 182.0, ""},
    {"delay", core::AttackKind::kDelayInjection, 180.0, ""},
    {"bias-stealth", core::AttackKind::kNone, 182.0,
     "bias:start=182,slope=0.5"},
};

struct CellStats {
  std::size_t trials = 0;
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t tn = 0;
  std::size_t fn = 0;
  std::size_t detected = 0;
  std::size_t collisions = 0;
  std::vector<double> latencies_s;
  double rmse_sum_m = 0.0;
  std::size_t rmse_trials = 0;

  [[nodiscard]] double tpr() const {
    const std::size_t d = tp + fn;
    return d > 0 ? static_cast<double>(tp) / static_cast<double>(d) : 0.0;
  }
  [[nodiscard]] double fpr() const {
    const std::size_t d = fp + tn;
    return d > 0 ? static_cast<double>(fp) / static_cast<double>(d) : 0.0;
  }
  [[nodiscard]] double latency_median_s() const {
    if (latencies_s.empty()) return -1.0;
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
  [[nodiscard]] double holdover_rmse_mean_m() const {
    return rmse_trials > 0 ? rmse_sum_m / static_cast<double>(rmse_trials)
                           : 0.0;
  }
};

/// Buckets records by the detector axis (the only grid axis per campaign).
class CellSink final : public runtime::TrialSink {
 public:
  explicit CellSink(std::size_t detectors) : cells_(detectors) {}

  void consume(const runtime::TrialRecord& r) override {
    CellStats& cell =
        cells_[static_cast<std::size_t>(r.trial_id) % cells_.size()];
    ++cell.trials;
    cell.tp += r.true_positives;
    cell.fp += r.false_positives;
    cell.tn += r.true_negatives;
    cell.fn += r.false_negatives;
    if (r.collided) ++cell.collisions;
    if (r.detection_step >= 0) ++cell.detected;
    if (r.detection_latency_s.value() >= 0.0) {
      cell.latencies_s.push_back(r.detection_latency_s.value());
    }
    if (r.holdover_steps > 0) {
      cell.rmse_sum_m += r.holdover_rmse_m.value();
      ++cell.rmse_trials;
    }
  }

  [[nodiscard]] const std::vector<CellStats>& cells() const { return cells_; }

 private:
  std::vector<CellStats> cells_;
};

struct Row {
  const Family* family;
  const char* detector;
  CellStats stats;
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
  const std::size_t trials_per_cell = smoke ? 1 : 5;

  std::printf(
      "Detection-backend ROC / latency ablation (campaign engine, %zu "
      "trial(s) per cell)\n\n",
      trials_per_cell);
  std::printf("%-13s %-33s %5s %5s %5s %5s %7s %7s %11s %13s %5s\n",
              "family", "detector", "TP", "FP", "TN", "FN", "TPR", "FPR",
              "latency[s]", "holdover[m]", "crash");

  std::vector<Row> rows;
  for (const Family& family : kFamilies) {
    runtime::CampaignSpec spec;
    spec.base.attack = family.attack;
    spec.base.attack_start_s = units::Seconds{family.onset_s};
    spec.base.fault_spec = family.fault_spec;
    spec.base.estimator = radar::BeatEstimator::kPeriodogram;
    spec.detector_specs.assign(std::begin(kDetectors), std::end(kDetectors));
    spec.trials = n_detectors * trials_per_cell;
    spec.seed = 1;

    CellSink sink(n_detectors);
    std::vector<runtime::TrialSink*> sinks{&sink};
    const runtime::CampaignResult result =
        runtime::Campaign(std::move(spec)).run(jobs, sinks);
    std::fprintf(stderr, "family %-13s %zu trial(s) in %.2f s\n", family.name,
                 result.trials, result.wall_s.value());

    for (std::size_t d = 0; d < n_detectors; ++d) {
      Row row{&family, kDetectors[d], sink.cells()[d]};
      const CellStats& s = row.stats;
      const double latency = s.latency_median_s();
      char latency_str[32];
      if (latency >= 0.0) {
        std::snprintf(latency_str, sizeof(latency_str), "%.2f", latency);
      } else {
        std::snprintf(latency_str, sizeof(latency_str), "n/a");
      }
      std::printf("%-13s %-33s %5zu %5zu %5zu %5zu %7.3f %7.3f %11s "
                  "%13.4f %5zu\n",
                  family.name, row.detector, s.tp, s.fp, s.tn, s.fn, s.tpr(),
                  s.fpr(), latency_str, s.holdover_rmse_mean_m(),
                  s.collisions);
      rows.push_back(std::move(row));
    }
  }

  std::ostringstream json;
  json << "{\"bench\":\"detector_roc\",\"trials_per_cell\":"
       << trials_per_cell << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const CellStats& s = row.stats;
    if (i > 0) json << ",";
    json << "{\"family\":\"" << row.family->name << "\",\"detector\":\""
         << row.detector << "\",\"trials\":" << s.trials
         << ",\"tp\":" << s.tp << ",\"fp\":" << s.fp << ",\"tn\":" << s.tn
         << ",\"fn\":" << s.fn << ",\"tpr\":";
    append_json_double(json, s.tpr());
    json << ",\"fpr\":";
    append_json_double(json, s.fpr());
    json << ",\"detected\":" << s.detected << ",\"latency_median_s\":";
    append_json_double(json, s.latency_median_s());
    json << ",\"holdover_rmse_mean_m\":";
    append_json_double(json, s.holdover_rmse_mean_m());
    json << ",\"collisions\":" << s.collisions << "}";
  }
  json << "]}";
  std::printf("\n%s\n", json.str().c_str());
  return 0;
}
