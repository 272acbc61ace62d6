#include "core/holdover.hpp"

#include <algorithm>
#include <stdexcept>

namespace safe::core {

Holdover::Holdover(std::vector<estimation::SeriesPredictorPtr> predictors,
                   std::vector<bool> clamped, std::size_t min_samples,
                   std::vector<double> initial)
    : estimate_(predictors.size()), min_samples_(min_samples) {
  const std::size_t n = predictors.size();
  if (clamped.size() != n || (!initial.empty() && initial.size() != n) ||
      std::ranges::any_of(predictors, [](const auto& p) { return !p; })) {
    throw std::invalid_argument("Holdover: null predictor or size mismatch");
  }
  channels_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Channel& c = channels_.emplace_back();
    c.predictor = std::move(predictors[i]);
    c.clamped = clamped[i];
    c.initial = c.last = initial.empty() ? 0.0 : initial[i];
  }
}

void Holdover::trust(std::span<const double> sample) {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i].predictor->observe(sample[i]);
    channels_[i].last = sample[i];
  }
  ++state_.trained;
  state_.trusted = true;
}

void Holdover::free_run() {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    estimate_[i] = channels_[i].predictor->predict_next();
  }
}

void Holdover::accept() {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& c = channels_[i];
    c.last = c.clamped ? std::max(estimate_[i], 0.0) : estimate_[i];
  }
}

void Holdover::restart() {
  for (Channel& c : channels_) c.predictor->reset();
  state_.trained = 0;
}

void Holdover::snapshot(std::int64_t step) {
  for (Channel& c : channels_) {
    c.saved = c.predictor->clone();
    c.saved_last = c.last;
  }
  saved_state_ = state_;
  saved_step_ = step;
}

void Holdover::rollback(std::int64_t detection_step) {
  if (!saved_step_) return;
  for (Channel& c : channels_) {
    c.predictor = c.saved->clone();
    c.last = c.saved_last;
  }
  state_ = saved_state_;
  // Untrained predictors free-run to zero, so a state that could not hold
  // replays nothing and its last values stand.
  if (!ready()) return;
  // The snapshot already covers its own slot: free-run from the next step.
  for (auto k = *saved_step_ + 1; k < detection_step; ++k) {
    free_run();
    accept();
  }
}

void Holdover::reset() {
  restart();
  for (Channel& c : channels_) c.last = c.initial;
  state_.trusted = false;
  saved_step_.reset();
}

}  // namespace safe::core
