#include "detect/backend.hpp"

#include <stdexcept>

namespace safe::detect {

DetectorBackend::DetectorBackend(std::size_t consecutive, std::size_t clear,
                                 const char* cause)
    : consecutive_(consecutive), clear_(clear), cause_(cause) {
  if (consecutive_ == 0 || clear_ == 0) {
    throw std::invalid_argument(
        "DetectorBackend: consecutive and clear counts must be >= 1");
  }
}

void DetectorBackend::reset() {
  under_attack_ = false;
  alarms_ = 0;
  quiet_ = 0;
  detection_step_.reset();
  stats_ = cra::DetectionStats{};
}

Verdict DetectorBackend::hold(const Observation& obs) const {
  Verdict v;
  v.challenge_slot = obs.challenge_slot;
  v.under_attack = under_attack_;
  v.cause = cause_;
  return v;
}

Verdict DetectorBackend::debounce(const Observation& obs, bool alarmed) {
  Verdict v = hold(obs);
  if (!under_attack_) {
    alarms_ = alarmed ? alarms_ + 1 : 0;
    if (alarms_ >= consecutive_) {
      under_attack_ = true;
      detection_step_ = obs.step;
      alarms_ = 0;
      v.attack_started = true;
    }
  } else {
    quiet_ = alarmed ? 0 : quiet_ + 1;
    if (quiet_ >= clear_) {
      under_attack_ = false;
      quiet_ = 0;
      v.attack_cleared = true;
    }
  }
  v.under_attack = under_attack_;
  return v;
}

void DetectorBackend::score(bool claimed, bool attack_actually_active) {
  ++stats_.challenges;
  if (claimed && attack_actually_active) {
    ++stats_.true_positives;
  } else if (claimed) {
    ++stats_.false_positives;
  } else if (attack_actually_active) {
    ++stats_.false_negatives;
  } else {
    ++stats_.true_negatives;
  }
}

}  // namespace safe::detect
