#include "core/holdover.hpp"

#include <algorithm>
#include <stdexcept>

namespace safe::core {

Holdover::Holdover(std::vector<estimation::SeriesPredictorPtr> predictors,
                   std::vector<bool> clamped, std::vector<double> initial) {
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
  for (Channel& c : channels_) c.raw = c.predictor->predict_next();
}

void Holdover::accept() {
  for (Channel& c : channels_) {
    c.last = c.clamped ? std::max(c.raw, 0.0) : c.raw;
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

std::size_t Holdover::rollback(std::int64_t detection_step) {
  if (!saved_step_) return 0;
  for (Channel& c : channels_) {
    c.predictor = c.saved->clone();
    c.last = c.saved_last;
  }
  state_ = saved_state_;
  // The snapshot already covers its own slot: free-run from the next step.
  std::size_t replayed = 0;
  for (auto k = *saved_step_ + 1; k < detection_step; ++k, ++replayed) {
    advance();
  }
  return replayed;
}

void Holdover::reset() {
  restart();
  for (Channel& c : channels_) c.last = c.initial;
  state_.trusted = false;
  saved_step_.reset();
}

}  // namespace safe::core
