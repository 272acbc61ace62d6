// Spoofing-adversary grid: where does CRA stop detecting?
//
// Sweeps attacker sophistication (the full `--attack` spec ladder, from the
// paper's DoS jammer up to the challenge-replaying entrainment attacker)
// against the challenge schedule (the paper's fixed schedule vs PRBS
// Bernoulli schedules) and the detection backend {cra, chi2, ar, fusion}.
// Each cell reports P(detect), median detection latency, and collisions —
// the map of CRA's breaking point (DESIGN.md §17).
//
// The headline cells: a perfectly challenge-synchronized replay
// (entrain:replay=0, no leakage) is silent at every challenge slot, so
// CRA's consistency check never fires under ANY schedule — P(detect) drops
// to 0 and the range lie rides through to a collision. Giving the same
// attacker a leaky transmitter (leak=15) restores detection through
// Algorithm 2's rx-power test.
//
// Driven by the runtime campaign engine (counter-based seeding + ordered
// sinks, so the table and the JSON line are bit-identical at any --jobs).
// Output: one aligned row per cell, then a single JSON object on the last
// line (the CI smoke redirects it to BENCH_spoof.json). Wall-clock goes to
// stderr only, keeping stdout deterministic.
//
// Flags: --smoke (1 trial per cell), --jobs N (default 1).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "cra/challenge.hpp"
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

/// Attacker sophistication ladder, least to most capable.
struct Attacker {
  const char* name;
  const char* spec;
};

const Attacker kAttackers[] = {
    {"dos", "dos"},
    {"spoof", "spoof:coherence=0.9"},
    {"chirp", "chirp:slope=1.00000000002"},
    {"entrain", "entrain:acquire=3"},
    {"entrain-leaky-replay", "entrain:acquire=3,replay=0,leak=15"},
    {"entrain-replay", "entrain:acquire=3,replay=0"},
};

/// Challenge-schedule axis: numer/denom = 0 keeps the paper's fixed
/// schedule; otherwise a per-trial PRBS Bernoulli schedule is installed.
struct Schedule {
  const char* name;
  std::uint32_t numer;
  std::uint32_t denom;
};

const Schedule kSchedules[] = {
    {"paper", 0, 0},
    {"prbs-1/6", 1, 6},
    {"prbs-1/3", 1, 3},
};

struct CellStats {
  std::size_t trials = 0;
  std::size_t detected = 0;
  std::size_t collisions = 0;
  std::vector<double> latencies_s;

  [[nodiscard]] double p_detect() const {
    return trials > 0 ? static_cast<double>(detected) /
                            static_cast<double>(trials)
                      : 0.0;
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

/// Buckets records by the detector axis (the only grid axis per campaign).
class CellSink final : public runtime::TrialSink {
 public:
  explicit CellSink(std::size_t detectors) : cells_(detectors) {}

  void consume(const runtime::TrialRecord& r) override {
    CellStats& cell =
        cells_[static_cast<std::size_t>(r.trial_id) % cells_.size()];
    ++cell.trials;
    if (r.collided) ++cell.collisions;
    if (r.detection_step >= 0) ++cell.detected;
    if (r.detection_latency_s.value() >= 0.0) {
      cell.latencies_s.push_back(r.detection_latency_s.value());
    }
  }

  [[nodiscard]] const std::vector<CellStats>& cells() const { return cells_; }

 private:
  std::vector<CellStats> cells_;
};

struct Row {
  const Attacker* attacker;
  const Schedule* schedule;
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
  const std::size_t trials_per_cell = smoke ? 1 : 3;

  std::printf(
      "Spoofing-adversary grid: attacker sophistication x challenge "
      "schedule x detector (%zu trial(s) per cell)\n\n",
      trials_per_cell);
  std::printf("%-21s %-9s %-33s %9s %11s %5s\n", "attacker", "schedule",
              "detector", "P(detect)", "latency[s]", "crash");

  std::vector<Row> rows;
  for (const Attacker& attacker : kAttackers) {
    for (const Schedule& schedule : kSchedules) {
      runtime::CampaignSpec spec;
      spec.base.attack_spec = attacker.spec;
      spec.base.estimator = radar::BeatEstimator::kPeriodogram;
      spec.detector_specs.assign(std::begin(kDetectors),
                                 std::end(kDetectors));
      spec.trials = n_detectors * trials_per_cell;
      spec.seed = 1;
      if (schedule.denom > 0) {
        const std::uint32_t numer = schedule.numer;
        const std::uint32_t denom = schedule.denom;
        spec.customize = [numer, denom](core::Scenario& s,
                                        const runtime::TrialRecord& r) {
          // Keyed off the trial id alone, so the grid stays deterministic
          // at any worker count.
          const auto key =
              static_cast<std::uint16_t>(0x5afe + 17 * r.trial_id);
          s.schedule = std::make_shared<cra::PrbsChallengeSchedule>(
              key, numer, denom, s.config.horizon_steps);
        };
      }

      CellSink sink(n_detectors);
      std::vector<runtime::TrialSink*> sinks{&sink};
      const runtime::CampaignResult result =
          runtime::Campaign(std::move(spec)).run(jobs, sinks);
      std::fprintf(stderr, "attacker %-21s schedule %-9s %zu trial(s) in "
                   "%.2f s\n",
                   attacker.name, schedule.name, result.trials,
                   result.wall_s.value());

      for (std::size_t d = 0; d < n_detectors; ++d) {
        Row row{&attacker, &schedule, kDetectors[d], sink.cells()[d]};
        const CellStats& s = row.stats;
        const double latency = s.latency_median_s();
        char latency_str[32];
        if (latency >= 0.0) {
          std::snprintf(latency_str, sizeof(latency_str), "%.2f", latency);
        } else {
          std::snprintf(latency_str, sizeof(latency_str), "n/a");
        }
        std::printf("%-21s %-9s %-33s %9.3f %11s %5zu\n", attacker.name,
                    schedule.name, row.detector, s.p_detect(), latency_str,
                    s.collisions);
        rows.push_back(std::move(row));
      }
    }
  }

  // CRA's breaking point, spelled out.
  std::size_t cra_blind = 0;
  for (const Row& row : rows) {
    if (std::strcmp(row.detector, "cra") == 0 && row.stats.p_detect() < 1.0) {
      ++cra_blind;
    }
  }
  std::printf(
      "\nshape: every attacker that radiates during challenge slots is "
      "caught at the first challenge inside the window; the entrainment "
      "attacker's acquisition delay only defers detection to the next "
      "challenge. The perfectly challenge-synchronized replay "
      "(entrain:replay=0) blinds CRA's consistency check under every "
      "schedule (%zu cra cell(s) below 1.0) and collides; the same attacker "
      "with transmitter leakage (leak=15) is recovered by the rx-power "
      "test.\n",
      cra_blind);

  std::ostringstream json;
  json << "{\"bench\":\"spoof_grid\",\"trials_per_cell\":" << trials_per_cell
       << ",\"cells\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const CellStats& s = row.stats;
    if (i > 0) json << ",";
    json << "{\"attacker\":\"" << row.attacker->name << "\",\"spec\":\""
         << row.attacker->spec << "\",\"schedule\":\"" << row.schedule->name
         << "\",\"detector\":\"" << row.detector
         << "\",\"trials\":" << s.trials << ",\"detected\":" << s.detected
         << ",\"p_detect\":";
    append_json_double(json, s.p_detect());
    json << ",\"latency_median_s\":";
    append_json_double(json, s.latency_median_s());
    json << ",\"collisions\":" << s.collisions << "}";
  }
  json << "]}";
  std::printf("\n%s\n", json.str().c_str());
  return 0;
}
