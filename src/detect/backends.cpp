#include "detect/backends.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace safe::detect {

namespace {

// The CRA backend keeps the paper's cra.* series (detection events,
// per-challenge scoring); every other backend reports under detect.*. Each
// set registers on first use, so a run never exports the other's zeros.
// All jobs-invariant.
struct CraMetrics {
  telemetry::MetricId challenges = telemetry::counter("cra.challenges");
  telemetry::MetricId detections = telemetry::counter("cra.detections");
  telemetry::MetricId clears = telemetry::counter("cra.clears");
  telemetry::MetricId false_positives =
      telemetry::counter("cra.false_positives");
  telemetry::MetricId false_negatives =
      telemetry::counter("cra.false_negatives");
};

const CraMetrics& cra_metrics() {
  static const CraMetrics m;
  return m;
}

struct DetectMetrics {
  telemetry::MetricId detections = telemetry::counter("detect.detections");
  telemetry::MetricId clears = telemetry::counter("detect.clears");
  telemetry::MetricId evaluated = telemetry::counter("detect.evaluated");
};

const DetectMetrics& detect_metrics() {
  static const DetectMetrics m;
  return m;
}

/// Counts a verdict's edge and marks it in the trace, tagged by backend.
void note_edges(const Verdict& v, const char* backend, std::int64_t step) {
  if (!v.attack_started && !v.attack_cleared) return;
  const DetectMetrics& m = detect_metrics();
  telemetry::add(v.attack_started ? m.detections : m.clears);
  telemetry::instant_event(
      v.attack_started ? "detect.attack_detected" : "detect.attack_cleared",
      "detect",
      telemetry::TraceArgs{}
          .text("backend", backend)
          .integer("step", step)
          .take());
}

estimation::InnovationGateOptions gate_options(const ResidualOptions& o) {
  estimation::InnovationGateOptions gate;
  gate.threshold = o.threshold;
  gate.min_samples = o.window;
  gate.variance_forgetting = o.variance_forgetting;
  return gate;
}

estimation::RlsArOptions ar_options(std::size_t order) {
  estimation::RlsArOptions options;
  options.order = order;
  return options;
}

/// One-step prediction without mutating the predictor: predict_next()
/// advances the free-run state, so peek through a clone that stays anchored
/// at the last observed sample.
double peek(const estimation::RlsArPredictor& p) {
  return p.clone()->predict_next();
}

}  // namespace

// --- CraBackend ------------------------------------------------------------

CraBackend::CraBackend(const cra::DetectorOptions& options)
    : DetectorBackend(1, options.clear_after_silent_challenges,
                      "cra-detection") {}

Verdict CraBackend::decide(const Observation& obs,
                           std::optional<bool> attack_actually_active) {
  if (!obs.challenge_slot) return hold(obs);
  const Verdict v = debounce(obs, obs.receiver_nonzero);
  if (v.attack_started || v.attack_cleared) {
    const CraMetrics& m = cra_metrics();
    telemetry::add(v.attack_started ? m.detections : m.clears);
    telemetry::instant_event(
        v.attack_started ? "cra.attack_detected" : "cra.attack_cleared",
        "cra", telemetry::TraceArgs{}.integer("step", obs.step).take());
  }
  if (attack_actually_active) {
    const bool active = *attack_actually_active;
    score(obs.receiver_nonzero, active);
    const CraMetrics& m = cra_metrics();
    telemetry::add(m.challenges);
    if (obs.receiver_nonzero != active) {
      telemetry::add(obs.receiver_nonzero ? m.false_positives
                                          : m.false_negatives);
    }
  }
  return v;
}

// --- ResidualBackend -------------------------------------------------------

ResidualBackend::TrustedLiveAr::TrustedLiveAr(std::size_t order)
    : trusted_distance(ar_options(order)),
      trusted_velocity(ar_options(order)),
      live_distance(ar_options(order)),
      live_velocity(ar_options(order)) {}

ResidualBackend::ResidualBackend(Model model, const ResidualOptions& options)
    : DetectorBackend(options.required_consecutive, options.clear_after_quiet,
                      model == Model::kFirstDifference ? "chi2-residual"
                                                       : "ar-residual"),
      options_(options),
      gate_distance_(gate_options(options)),
      gate_velocity_(gate_options(options)),
      model_(FirstDifference{}) {
  if (model == Model::kAutoregressive) {
    model_.emplace<TrustedLiveAr>(options.order);
  }
  if (!(options_.threshold > 0.0)) {
    throw std::invalid_argument("ResidualBackend: threshold must be > 0");
  }
}

ResidualOptions ResidualBackend::defaults(Model model) {
  ResidualOptions options;
  if (model == Model::kAutoregressive) {
    options.threshold = 9.21;
    options.required_consecutive = 3;
  }
  return options;
}

const char* ResidualBackend::tag() const {
  return std::holds_alternative<FirstDifference>(model_) ? "chi2" : "ar";
}

bool ResidualBackend::gate(double e_d, double e_v) {
  const bool out_d = gate_distance_.observe(e_d);
  const bool out_v = gate_velocity_.observe(e_v);
  return out_d || out_v;
}

ResidualBackend::Sample ResidualBackend::evaluate(const Observation& obs) {
  if (obs.challenge_slot) return {};  // no probe, nothing to test
  // Received power with no coherent echo at a probing epoch: the jamming
  // signature. No residual statistic needed.
  if (power_alarm(obs)) return {.evaluated = true, .alarmed = true};
  if (!obs.coherent_echo) return {};  // dropout: no claim either way
  const double y_d = obs.distance.value();
  const double y_v = obs.relative_velocity.value();
  if (auto* ar = std::get_if<TrustedLiveAr>(&model_)) {
    return autoregress(*ar, y_d, y_v);
  }
  return difference(std::get<FirstDifference>(model_), y_d, y_v);
}

ResidualBackend::Sample ResidualBackend::difference(FirstDifference& model,
                                                    double y_d, double y_v) {
  Sample sample;
  if (model.has_last) {
    const bool was_warmed = warmed();
    const bool outlier = gate(y_d - model.last_distance.value(),
                              y_v - model.last_velocity.value());
    // While clean, claims need a warmed-up variance; while attacked, quiet
    // samples must count toward clearance even during warm-up.
    sample.evaluated = was_warmed || under_attack();
    sample.alarmed = was_warmed && outlier;
  }
  model.last_distance = units::Meters{y_d};
  model.last_velocity = units::MetersPerSecond{y_v};
  model.has_last = true;
  return sample;
}

ResidualBackend::Sample ResidualBackend::autoregress(TrustedLiveAr& model,
                                                     double y_d, double y_v) {
  Sample sample;
  if (!under_attack()) {
    sample.evaluated = warmed();
    sample.alarmed = gate(y_d - peek(model.trusted_distance),
                          y_v - peek(model.trusted_velocity));
    if (!sample.alarmed) {
      // Only clean samples train the trusted model: an alarmed sample is
      // quarantined so a stealthy ramp cannot drag the reference along.
      model.trusted_distance.observe(y_d);
      model.trusted_velocity.observe(y_v);
    }
  } else {
    // Clearance check: the delivered stream is "quiet" when it is again
    // self-consistent under the live model that kept tracking it. As in
    // chi2, an evaluation before the gates warm up counts as quiet: they
    // are not fed while attacked, so their variance would stay at its floor.
    const double q_d = y_d - peek(model.live_distance);
    const double q_v = y_v - peek(model.live_velocity);
    const double stat = std::max(q_d * q_d / gate_distance_.variance(),
                                 q_v * q_v / gate_velocity_.variance());
    sample.evaluated = true;
    sample.alarmed = warmed() && stat > options_.threshold;
  }
  model.live_distance.observe(y_d);
  model.live_velocity.observe(y_v);
  return sample;
}

Verdict ResidualBackend::decide(const Observation& obs,
                                std::optional<bool> attack_actually_active) {
  // Scored: power-alarm epochs, and echo epochs once the gate is warmed or
  // an attack is declared (clearance holds are claims too), both as they
  // stood before this instant.
  const bool scored =
      attack_actually_active && !obs.challenge_slot &&
      (power_alarm(obs) ||
       (obs.coherent_echo && (warmed() || under_attack())));
  const Sample sample = evaluate(obs);
  Verdict v = hold(obs);
  if (sample.evaluated) {
    telemetry::add(detect_metrics().evaluated);
    v = debounce(obs, sample.alarmed);
    note_edges(v, tag(), obs.step);
    auto* ar = std::get_if<TrustedLiveAr>(&model_);
    if (v.attack_cleared && ar != nullptr) {
      // Re-acquire: the trusted model adopts the live one, which has been
      // tracking the (now clean again) delivered stream throughout.
      ar->trusted_distance = ar->live_distance;
      ar->trusted_velocity = ar->live_velocity;
    }
  }
  if (scored) score(v.under_attack, *attack_actually_active);
  return v;
}

void ResidualBackend::reset() {
  gate_distance_.reset();
  gate_velocity_.reset();
  if (auto* ar = std::get_if<TrustedLiveAr>(&model_)) {
    ar->trusted_distance.reset();
    ar->trusted_velocity.reset();
    ar->live_distance.reset();
    ar->live_velocity.reset();
  } else {
    model_ = FirstDifference{};
  }
  DetectorBackend::reset();
}

// --- FusionBackend ---------------------------------------------------------

FusionBackend::FusionBackend(std::vector<DetectorBackendPtr> children,
                             std::size_t quorum)
    : DetectorBackend(1, 1, "fusion-vote"),
      children_(std::move(children)),
      quorum_(quorum) {
  if (children_.empty()) {
    throw std::invalid_argument("FusionBackend: needs at least one child");
  }
  for (const auto& child : children_) {
    if (!child) throw std::invalid_argument("FusionBackend: null child");
  }
  if (quorum_ == 0 || quorum_ > children_.size()) {
    throw std::invalid_argument("FusionBackend: quorum outside [1, children]");
  }
}

std::string FusionBackend::name() const {
  std::string joined = "fusion(";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i > 0) joined += '+';
    joined += children_[i]->name();
  }
  joined += ')';
  return joined;
}

Verdict FusionBackend::decide(const Observation& obs,
                              std::optional<bool> attack_actually_active) {
  // Children observe unscored: the fusion's vote is the claim under test.
  std::size_t votes = 0;
  for (const auto& child : children_) {
    if (child->observe(obs).under_attack) ++votes;
  }
  const Verdict v = debounce(obs, votes >= quorum_);
  note_edges(v, "fusion", obs.step);
  if (attack_actually_active) score(v.under_attack, *attack_actually_active);
  return v;
}

void FusionBackend::reset() {
  for (const auto& child : children_) child->reset();
  DetectorBackend::reset();
}

}  // namespace safe::detect
