#include "runtime/sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "telemetry/telemetry.hpp"

namespace safe::runtime {

namespace {

/// Nearest-rank quantile of an ascending-sorted vector.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(std::llround(pos));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

const char* leader_name(core::LeaderScenario leader) {
  switch (leader) {
    case core::LeaderScenario::kConstantDecel: return "decel";
    case core::LeaderScenario::kDecelThenAccel: return "decel-accel";
  }
  return "unknown";
}

const char* attack_name(core::AttackKind attack) {
  switch (attack) {
    case core::AttackKind::kNone: return "none";
    case core::AttackKind::kDosJammer: return "dos";
    case core::AttackKind::kDelayInjection: return "delay";
  }
  return "unknown";
}

std::string to_jsonl(const TrialRecord& r) {
  std::string out;
  out.reserve(384);
  out += "{\"trial\":";
  out += std::to_string(r.trial_id);
  out += ",\"seed\":";
  out += std::to_string(r.scenario_seed);
  out += ",\"leader\":\"";
  out += leader_name(r.leader);
  out += "\",\"attack\":\"";
  out += attack_name(r.attack);
  out += "\",\"attack_spec\":";
  telemetry::append_escaped_json(out, r.attack_spec);
  out += ",\"onset_s\":";
  telemetry::append_double_json(out, r.attack_start_s.value());
  out += ",\"end_s\":";
  telemetry::append_double_json(out, r.attack_end_s.value());
  out += ",\"jammer_w\":";
  telemetry::append_double_json(out, r.jammer_power_w);
  out += ",\"fault\":";
  telemetry::append_escaped_json(out, r.fault_spec);
  out += ",\"detector\":";
  telemetry::append_escaped_json(out, r.detector_spec);
  out += ",\"defense\":";
  out += r.defense_enabled ? "true" : "false";
  out += ",\"max_holdover\":";
  out += std::to_string(r.max_holdover_steps);
  out += ",\"horizon\":";
  out += std::to_string(r.horizon_steps);
  out += ",\"collided\":";
  out += r.collided ? "true" : "false";
  out += ",\"collision_step\":";
  out += std::to_string(r.collision_step);
  out += ",\"detection_step\":";
  out += std::to_string(r.detection_step);
  out += ",\"latency_s\":";
  telemetry::append_double_json(out, r.detection_latency_s.value());
  out += ",\"min_gap_m\":";
  telemetry::append_double_json(out, r.min_gap_m.value());
  out += ",\"fp\":";
  out += std::to_string(r.false_positives);
  out += ",\"fn\":";
  out += std::to_string(r.false_negatives);
  out += ",\"tp\":";
  out += std::to_string(r.true_positives);
  out += ",\"tn\":";
  out += std::to_string(r.true_negatives);
  out += ",\"holdover_rmse_m\":";
  telemetry::append_double_json(out, r.holdover_rmse_m.value());
  out += ",\"holdover_steps\":";
  out += std::to_string(r.holdover_steps);
  out += ",\"safe_stop_steps\":";
  out += std::to_string(r.safe_stop_steps);
  out += ",\"nonfinite\":";
  out += std::to_string(r.nonfinite_controller_inputs);
  out += ",\"rejected_nonfinite\":";
  out += std::to_string(r.rejected_nonfinite);
  out += ",\"rejected_signal\":";
  out += std::to_string(r.rejected_signal);
  out += ",\"bridged\":";
  out += std::to_string(r.bridged_dropouts);
  out += ",\"resets\":";
  out += std::to_string(r.predictor_resets);
  out += ",\"degradation_max\":";
  telemetry::append_double_json(out, r.degradation_max);
  out += ",\"platoon\":";
  telemetry::append_escaped_json(out, r.platoon_spec);
  out += ",\"platoon_size\":";
  out += std::to_string(r.platoon_size);
  out += ",\"attacked_index\":";
  out += std::to_string(r.attacked_index);
  out += ",\"shock_depth\":";
  out += std::to_string(r.shock_depth);
  out += ",\"linf_amp\":";
  telemetry::append_double_json(out, r.linf_amplification);
  out += ",\"safe_stop_vehicles\":";
  out += std::to_string(r.safe_stop_vehicles);
  out += ",\"detected_vehicles\":";
  out += std::to_string(r.detected_vehicles);
  out += ",\"error\":";
  telemetry::append_escaped_json(out, r.error);
  out += "}";
  return out;
}

void JsonlWriter::consume(const TrialRecord& record) {
  out_ << to_jsonl(record) << '\n';
}

void JsonlWriter::finish() { out_.flush(); }

void SummaryAccumulator::Running::add(double value) {
  max = count == 0 ? value : std::max(max, value);
  sum += value;
  ++count;
}

double SummaryAccumulator::Running::mean() const {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void SummaryAccumulator::add(const TrialRecord& r) {
  ++trials_;
  if (!r.error.empty()) {
    ++errors_;
    return;  // a throwing trial has no trustworthy outcome fields
  }
  if (r.collided) ++collisions_;
  min_gap_samples_.push_back(r.min_gap_m.value());
  false_positives_ += r.false_positives;
  false_negatives_ += r.false_negatives;
  if (r.safe_stop_steps > 0) ++safe_stop_trials_;
  if (r.holdover_steps > 0) holdover_rmse_.add(r.holdover_rmse_m.value());
  if (r.platoon_size >= 2) {
    ++platoon_trials_;
    safe_stop_vehicles_ += r.safe_stop_vehicles;
    detected_vehicles_ += r.detected_vehicles;
    shock_depth_.add(static_cast<double>(r.shock_depth));
    linf_amplification_.add(r.linf_amplification);
  }
  const bool spec_attacked = !r.attack_spec.empty() && r.attack_spec != "none";
  if (spec_attacked) {
    ++spec_attacked_;
    if (r.detection_step >= 0) ++spec_detected_;
  }
  if (r.attack != core::AttackKind::kNone || spec_attacked) {
    ++attacked_;
    if (r.detection_step >= 0) {
      ++detected_;
      latency_samples_.push_back(r.detection_latency_s.value());
    } else {
      ++missed_;
    }
  }
}

CampaignSummary SummaryAccumulator::finalize() const {
  CampaignSummary s;
  s.trials = trials_;
  s.errors = errors_;
  s.collisions = collisions_;
  const std::size_t completed = trials_ - errors_;
  s.collision_rate = completed > 0 ? static_cast<double>(collisions_) /
                                         static_cast<double>(completed)
                                   : 0.0;
  s.attacked_trials = attacked_;
  s.detected = detected_;
  s.missed = missed_;
  s.false_positives = false_positives_;
  s.false_negatives = false_negatives_;
  s.safe_stop_trials = safe_stop_trials_;

  std::vector<double> latency = latency_samples_;
  if (!latency.empty()) {
    double sum = 0.0;
    for (const double v : latency) sum += v;  // trial order: deterministic
    s.latency_mean_s =
        units::Seconds{sum / static_cast<double>(latency.size())};
    std::sort(latency.begin(), latency.end());
    s.latency_p50_s = units::Seconds{quantile(latency, 0.50)};
    s.latency_p90_s = units::Seconds{quantile(latency, 0.90)};
    s.latency_max_s = units::Seconds{latency.back()};
  }

  std::vector<double> gaps = min_gap_samples_;
  if (!gaps.empty()) {
    double sum = 0.0;
    for (const double v : gaps) sum += v;
    s.min_gap_mean_m = units::Meters{sum / static_cast<double>(gaps.size())};
    std::sort(gaps.begin(), gaps.end());
    s.min_gap_min_m = units::Meters{gaps.front()};
    s.min_gap_p5_m = units::Meters{quantile(gaps, 0.05)};
    s.min_gap_p50_m = units::Meters{quantile(gaps, 0.50)};
  }

  s.platoon_trials = platoon_trials_;
  s.safe_stop_vehicles_total = safe_stop_vehicles_;
  s.detected_vehicles_total = detected_vehicles_;
  s.spec_attack_trials = spec_attacked_;
  s.spec_attack_detected = spec_detected_;
  s.shock_depth_mean = shock_depth_.mean();
  s.shock_depth_max = static_cast<std::size_t>(shock_depth_.max);
  s.linf_amplification_mean = linf_amplification_.mean();
  s.linf_amplification_max = linf_amplification_.max;

  s.holdover_trials = holdover_rmse_.count;
  s.holdover_rmse_mean_m = units::Meters{holdover_rmse_.mean()};
  s.holdover_rmse_max_m = units::Meters{holdover_rmse_.max};
  return s;
}

std::string format_summary(const CampaignSummary& s) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line),
                "trials            : %zu (%zu errored)\n", s.trials,
                s.errors);
  os << line;
  std::snprintf(line, sizeof(line),
                "collisions        : %zu (rate %.4f)\n", s.collisions,
                s.collision_rate);
  os << line;
  std::snprintf(line, sizeof(line),
                "attacked trials   : %zu (detected %zu, missed %zu)\n",
                s.attacked_trials, s.detected, s.missed);
  os << line;
  std::snprintf(line, sizeof(line),
                "CRA errors        : FP %zu, FN %zu\n", s.false_positives,
                s.false_negatives);
  os << line;
  std::snprintf(line, sizeof(line),
                "detection latency : mean %.2f s, p50 %.2f s, p90 %.2f s, "
                "max %.2f s\n",
                s.latency_mean_s.value(), s.latency_p50_s.value(),
                s.latency_p90_s.value(), s.latency_max_s.value());
  os << line;
  std::snprintf(line, sizeof(line),
                "min gap           : min %.2f m, p5 %.2f m, p50 %.2f m, "
                "mean %.2f m\n",
                s.min_gap_min_m.value(), s.min_gap_p5_m.value(),
                s.min_gap_p50_m.value(), s.min_gap_mean_m.value());
  os << line;
  std::snprintf(line, sizeof(line),
                "RLS holdover RMSE : mean %.3f m, max %.3f m over %zu "
                "trial(s) with holdover\n",
                s.holdover_rmse_mean_m.value(), s.holdover_rmse_max_m.value(),
                s.holdover_trials);
  os << line;
  std::snprintf(line, sizeof(line), "safe-stop trials  : %zu\n",
                s.safe_stop_trials);
  os << line;
  // Conditional so campaigns without a platoon axis keep their exact
  // pre-platoon summary bytes.
  if (s.platoon_trials > 0) {
    std::snprintf(line, sizeof(line), "platoon trials    : %zu\n",
                  s.platoon_trials);
    os << line;
    std::snprintf(line, sizeof(line),
                  "shock depth       : mean %.2f, max %zu vehicle(s)\n",
                  s.shock_depth_mean, s.shock_depth_max);
    os << line;
    std::snprintf(line, sizeof(line),
                  "string L-inf amp  : mean %.3f, max %.3f\n",
                  s.linf_amplification_mean, s.linf_amplification_max);
    os << line;
    std::snprintf(line, sizeof(line),
                  "cascade totals    : safe-stop vehicles %zu, detecting "
                  "vehicles %zu\n",
                  s.safe_stop_vehicles_total, s.detected_vehicles_total);
    os << line;
  }
  // Conditional for the same reason: enum-only campaigns keep their bytes.
  if (s.spec_attack_trials > 0) {
    std::snprintf(line, sizeof(line),
                  "spoofing trials   : %zu via --attack specs (detected "
                  "%zu, P(detect) %.4f)\n",
                  s.spec_attack_trials, s.spec_attack_detected,
                  static_cast<double>(s.spec_attack_detected) /
                      static_cast<double>(s.spec_attack_trials));
    os << line;
  }
  return os.str();
}

}  // namespace safe::runtime
