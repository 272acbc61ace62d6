// The DetectorBackend implementations (DESIGN.md §15).
//
//   * CraBackend      — Algorithm 2, the paper's challenge-response
//                       detector. The default.
//   * ResidualBackend — the `chi2` and `ar` specs: innovation-gated residual
//                       tests over the reported range and range rate, plus
//                       the jamming signature. No challenge hardware; they
//                       differ only in the residual model.
//   * FusionBackend   — quorum vote across child backends.
#pragma once

#include <cstddef>
#include <optional>
#include <variant>
#include <vector>

#include "detect/backend.hpp"
#include "estimation/innovation_gate.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::detect {

/// Algorithm 2, lines 7-9. Only challenge slots are evaluated: the probe
/// is suppressed there, so a non-zero receiver output is an attacker
/// radiating and declares at once (consecutive = 1), while
/// `clear_after_silent_challenges` silent ones in a row clear it. Echoes
/// between challenges are expected and make no claim, which is what makes
/// CRA false-positive-free. Scoring checks the raw output of each challenge
/// against the truth (the paper's no-FP/no-FN claim).
class CraBackend final : public DetectorBackend {
 public:
  /// Throws std::invalid_argument on clear_after_silent_challenges == 0.
  explicit CraBackend(const cra::DetectorOptions& options = {});

  [[nodiscard]] std::string name() const override { return "cra"; }

 private:
  Verdict decide(const Observation& obs,
                 std::optional<bool> attack_actually_active) override;
};

struct ResidualOptions {
  /// chi^2_1 quantile on the normalized squared residual (chi2: 6.63, the
  /// 99% point; ar: 9.21, trading a little latency for fewer noise-driven
  /// false alarms).
  double threshold = 6.63;
  /// Warm-up samples per channel before the gate may claim an outlier.
  std::size_t window = 8;
  /// Consecutive alarmed samples required to declare an attack (chi2: 2,
  /// ar: 3).
  std::size_t required_consecutive = 2;
  /// Consecutive quiet evaluated samples required to clear it.
  std::size_t clear_after_quiet = 2;
  /// Forgetting factor of the running residual variance.
  double variance_forgetting = 0.98;
  /// Treat a power alarm without a coherent echo (jamming signature) at a
  /// probing epoch as an alarmed sample.
  bool alarm_on_power = true;
  /// AR model order k, the regressor length per channel (ar only).
  std::size_t order = 4;
};

/// Residual detector: one InnovationGate per channel over the residuals of
/// the delivered (range, range-rate) stream against a model of that stream.
/// Self-contained: the reference is the stream's own history, never the
/// pipeline state. Two models:
///   * kFirstDifference (`chi2`) — each echo against the previous one.
///     Detects transients and jamming; a slow ramp walks under it.
///   * kAutoregressive (`ar`) — per channel a *trusted* RLS-AR(k) model,
///     trained only on samples accepted while clean and so frozen at the
///     pre-attack model during an attack, and a *live* one that tracks the
///     delivered stream unconditionally. Clearance asks that the delivered
///     stream be self-consistent again under the live model; on clearance
///     the trusted model re-acquires from the live one.
class ResidualBackend final : public DetectorBackend {
 public:
  enum class Model { kFirstDifference, kAutoregressive };

  /// Throws std::invalid_argument on threshold <= 0, a zero count, or a
  /// forgetting factor outside (0, 1].
  ResidualBackend(Model model, const ResidualOptions& options);

  /// Each model's defaults: chi2 threshold 6.63 and 2 consecutive, ar 9.21
  /// and 3.
  [[nodiscard]] static ResidualOptions defaults(Model model);

  [[nodiscard]] std::string name() const override { return tag(); }
  void reset() override;

 private:
  /// One instant's test: whether it makes a claim, and whether the claim
  /// is an alarm.
  struct Sample {
    bool evaluated = false;
    bool alarmed = false;
  };
  struct FirstDifference {
    units::Meters last_distance{0.0};
    units::MetersPerSecond last_velocity{0.0};
    bool has_last = false;
  };
  struct TrustedLiveAr {
    explicit TrustedLiveAr(std::size_t order);
    estimation::RlsArPredictor trusted_distance;
    estimation::RlsArPredictor trusted_velocity;
    estimation::RlsArPredictor live_distance;
    estimation::RlsArPredictor live_velocity;
  };

  Verdict decide(const Observation& obs,
                 std::optional<bool> attack_actually_active) override;
  [[nodiscard]] Sample evaluate(const Observation& obs);
  [[nodiscard]] Sample difference(FirstDifference& model, double y_d,
                                  double y_v);
  [[nodiscard]] Sample autoregress(TrustedLiveAr& model, double y_d,
                                   double y_v);
  /// Feeds one residual per channel to its gate; true when either flags.
  bool gate(double e_d, double e_v);
  [[nodiscard]] bool warmed() const {
    return gate_distance_.samples() >= options_.window;
  }
  [[nodiscard]] bool power_alarm(const Observation& obs) const {
    return options_.alarm_on_power && obs.receiver_nonzero &&
           !obs.coherent_echo;
  }
  [[nodiscard]] const char* tag() const;

  ResidualOptions options_;
  estimation::InnovationGate gate_distance_;
  estimation::InnovationGate gate_velocity_;
  std::variant<FirstDifference, TrustedLiveAr> model_;
};

/// Quorum vote across child backends: under attack while at least `quorum`
/// children are. Children consume every observation; the vote is the
/// alarm, debounced at one instant each way, and scoring covers every step
/// (the vote makes a claim at each one).
class FusionBackend final : public DetectorBackend {
 public:
  /// Throws std::invalid_argument on no children, a null child, or a quorum
  /// outside [1, children.size()].
  FusionBackend(std::vector<DetectorBackendPtr> children, std::size_t quorum);

  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  Verdict decide(const Observation& obs,
                 std::optional<bool> attack_actually_active) override;

  std::vector<DetectorBackendPtr> children_;
  std::size_t quorum_;
};

}  // namespace safe::detect
