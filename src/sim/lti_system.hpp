// Discrete-time linear time-invariant plant model (paper Section 3).
//
//   x_{k+1} = A x_k + B u_k            (Eq. 1)
//   y_k     = C x_k + v_k              (Eq. 2)
//
// with v_k ~ N(0, R) per-channel Gaussian measurement noise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/noise.hpp"

namespace safe::sim {

/// LTI system matrices. All three must be dimensionally consistent:
/// A: n x n, B: n x m, C: q x n.
struct LtiModel {
  linalg::RMatrix a;
  linalg::RMatrix b;
  linalg::RMatrix c;
};

/// Validates the shape constraints above; throws std::invalid_argument.
void validate_model(const LtiModel& model);

/// Stateful simulator for Eqs. 1-2.
class LtiSystem {
 public:
  /// `measurement_noise_stddev` is the per-channel sigma of v_k (0 disables
  /// noise); `seed` makes runs reproducible.
  LtiSystem(LtiModel model, linalg::RVector initial_state,
            double measurement_noise_stddev = 0.0, std::uint64_t seed = 0);

  /// Advances one step with input u_k; returns the *new* state x_{k+1}.
  const linalg::RVector& step(const linalg::RVector& u);

  /// Measurement y_k = C x_k + v_k at the current state.
  [[nodiscard]] linalg::RVector measure();

  /// Noise-free output C x_k.
  [[nodiscard]] linalg::RVector true_output() const;

  [[nodiscard]] const linalg::RVector& state() const { return x_; }
  [[nodiscard]] const LtiModel& model() const { return model_; }
  [[nodiscard]] std::size_t state_dim() const { return model_.a.rows(); }
  [[nodiscard]] std::size_t input_dim() const { return model_.b.cols(); }

  void reset(linalg::RVector initial_state);

 private:
  LtiModel model_;
  linalg::RVector x_;
  GaussianNoise noise_;
};

/// Observability matrix [C; CA; ...; CA^(n-1)] stacked row-wise.
linalg::RMatrix observability_matrix(const LtiModel& model);

/// True iff (A, C) is observable (full-rank observability matrix).
bool is_observable(const LtiModel& model);

}  // namespace safe::sim
