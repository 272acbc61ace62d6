#include "core/lti_case.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/holdover.hpp"
#include "detect/backends.hpp"
#include "estimation/rls_predictor.hpp"

namespace safe::core {

using linalg::RMatrix;
using linalg::RVector;

LtiCaseResult::LtiCaseResult(std::size_t outputs)
    : trace([outputs] {
        std::vector<std::string> cols{"step", "challenge", "under_attack"};
        for (std::size_t i = 0; i < outputs; ++i) {
          cols.push_back("y_true_" + std::to_string(i));
          cols.push_back("y_used_" + std::to_string(i));
        }
        return cols;
      }()) {}

LtiSecureCase::LtiSecureCase(LtiCaseConfig config,
                             std::shared_ptr<const cra::ChallengeSchedule> schedule,
                             std::optional<LtiOutputAttack> attack)
    : config_(std::move(config)),
      schedule_(std::move(schedule)),
      attack_(std::move(attack)) {
  sim::validate_model(config_.model);
  if (!schedule_) {
    throw std::invalid_argument("LtiSecureCase: null schedule");
  }
  const std::size_t q = config_.model.c.rows();
  const std::size_t m = config_.model.b.cols();
  if (config_.feedback_gain.rows() != m || config_.feedback_gain.cols() != q) {
    throw std::invalid_argument("LtiSecureCase: feedback gain shape");
  }
  if (config_.reference_output.size() != q) {
    throw std::invalid_argument("LtiSecureCase: reference size");
  }
  if (config_.initial_state.size() != config_.model.a.rows()) {
    throw std::invalid_argument("LtiSecureCase: initial state size");
  }
  if (attack_ && attack_->value.size() != q) {
    throw std::invalid_argument("LtiSecureCase: attack value size");
  }
  if (config_.horizon_steps <= 0) {
    throw std::invalid_argument("LtiSecureCase: horizon must be > 0");
  }
}

LtiCaseResult LtiSecureCase::run() {
  const std::size_t q = config_.model.c.rows();
  const bool defended = config_.defense_enabled;
  sim::LtiSystem plant(config_.model, config_.initial_state,
                       config_.measurement_noise_stddev, config_.seed);
  detect::CraBackend detector;

  // Long holdovers amplify intercept noise in the differenced AR model;
  // slow forgetting keeps the learned drift rate near zero.
  estimation::RlsArOptions predictor_options;
  predictor_options.rls.forgetting_factor = 0.995;
  std::vector<estimation::SeriesPredictorPtr> predictors(q);
  for (auto& p : predictors) {
    p = std::make_unique<estimation::RlsArPredictor>(predictor_options);
  }
  Holdover holdover(std::move(predictors), std::vector<bool>(q, false),
                    config_.min_training_samples);

  LtiCaseResult result(q);

  for (std::int64_t k = 0; k < config_.horizon_steps; ++k) {
    const bool challenge = schedule_->is_challenge(k);
    const bool attack_active =
        attack_ &&
        attack_->window.contains(safe::units::Seconds{static_cast<double>(k)});

    // --- Sensor output y' (Eq. 4) with CRA probe gating.
    const RVector y_true = plant.true_output();
    RVector y_sensor(q);
    bool receiver_nonzero;
    if (challenge) {
      // Probe suppressed: a clean environment returns silence; an attacker
      // keeps injecting.
      if (attack_active) {
        y_sensor = attack_->value;  // r or y^a: the injected component alone
        receiver_nonzero = linalg::norm_inf(y_sensor) >
                           4.0 * (config_.measurement_noise_stddev + 1e-12);
      } else {
        receiver_nonzero = false;
      }
    } else {
      y_sensor = plant.measure();
      if (attack_active) {
        if (attack_->kind == LtiOutputAttack::Kind::kDos) {
          y_sensor = attack_->value;
        } else {
          y_sensor += attack_->value;
        }
      }
      receiver_nonzero = true;
    }

    detect::Observation obs;
    obs.step = k;
    obs.challenge_slot = challenge;
    obs.receiver_nonzero = receiver_nonzero;
    const detect::Verdict decision =
        detector.observe_scored(obs, attack_active);

    // --- Choose what the controller consumes: the last sensor reading, or
    // the estimate a defended loop holds over an attack or a challenge. An
    // undefended loop keeps its last reading at mute slots.
    if (!(defended && holdover.defend(k, decision)) && !challenge) {
      holdover.trust({y_sensor.data(), q});
    }
    RVector y_used(q);
    for (std::size_t i = 0; i < q; ++i) y_used[i] = holdover.last(i);

    // --- Static output feedback and plant update.
    const RVector error = config_.reference_output - y_used;
    const RVector u = config_.feedback_gain * error;
    plant.step(u);

    // --- Record.
    std::vector<double> row{static_cast<double>(k), challenge ? 1.0 : 0.0,
                            decision.under_attack ? 1.0 : 0.0};
    for (std::size_t i = 0; i < q; ++i) {
      row.push_back(y_true[i]);
      row.push_back(y_used[i]);
    }
    result.trace.append_row(row);

    for (std::size_t i = 0; i < q; ++i) {
      const double err = std::abs(y_true[i] - config_.reference_output[i]);
      if (k >= config_.horizon_steps / 2) {
        result.max_tracking_error = std::max(result.max_tracking_error, err);
      }
      if (k >= 3 * config_.horizon_steps / 4) {
        result.tail_tracking_error =
            std::max(result.tail_tracking_error, err);
      }
    }
  }

  result.detection_step = detector.detection_step();
  result.detection_stats = detector.stats();
  return result;
}

LtiCaseConfig make_dc_motor_case() {
  // First-order speed loop: x' = 0.9 x + 0.5 u, y = x. Proportional output
  // feedback u = 2 (ref - y) places the closed-loop pole at 0.9 - 1.0 =
  // -0.1 (well inside the unit circle).
  LtiCaseConfig cfg;
  cfg.model = sim::LtiModel{
      .a = RMatrix{{0.9}},
      .b = RMatrix{{0.5}},
      .c = RMatrix{{1.0}},
  };
  cfg.initial_state = RVector{0.0};
  cfg.feedback_gain = RMatrix{{2.0}};
  cfg.reference_output = RVector{1.0};
  cfg.measurement_noise_stddev = 0.005;
  return cfg;
}

LtiCaseConfig make_double_integrator_case() {
  // Position-velocity plant under PD output feedback:
  // u = kp (ref_p - p) + kv (0 - v); closed loop is a damped oscillator.
  LtiCaseConfig cfg;
  const double dt = 0.5;
  cfg.model = sim::LtiModel{
      .a = RMatrix{{1.0, dt}, {0.0, 1.0}},
      .b = RMatrix{{0.5 * dt * dt}, {dt}},
      .c = RMatrix{{1.0, 0.0}, {0.0, 1.0}},
  };
  cfg.initial_state = RVector{0.0, 0.0};
  cfg.feedback_gain = RMatrix{{0.3, 0.8}};
  cfg.reference_output = RVector{10.0, 0.0};
  cfg.measurement_noise_stddev = 0.01;
  return cfg;
}

}  // namespace safe::core
