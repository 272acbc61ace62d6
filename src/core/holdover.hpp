// Algorithm 1's RLS holdover under Algorithm 2's policy: the one copy that
// every defended scene runs (the radar pipeline, the Section 3 LTI case and
// park-assist).
//
// Each channel's predictor trains on every trusted sample. While no sample
// can be trusted the channels free-run, and a held estimate becomes the
// channel's last value. defend() applies the policy to one detector verdict:
// a verified-clean challenge snapshots the whole state (predictors, training
// count, target flag, last values); on detection the holdover restores a
// copy of the snapshot and replays the free-run up to the detecting step, so
// the samples recorded between attack onset and detection never reach it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "detect/backend.hpp"
#include "estimation/series_predictor.hpp"

namespace safe::core {

class Holdover {
  /// hold()'s default check: every free-run estimate is accepted.
  struct AcceptEstimate {
    constexpr bool operator()(std::span<const double>) const { return true; }
  };

 public:
  /// One channel per predictor. A `clamped` channel is a range: its
  /// free-run never goes below zero, in holdover and in the replay. The
  /// channels free-run once `min_samples` trusted samples have trained them.
  /// `initial` seeds the last values (zeros when empty). Throws
  /// std::invalid_argument on a null predictor or a size mismatch.
  Holdover(std::vector<estimation::SeriesPredictorPtr> predictors,
           std::vector<bool> clamped, std::size_t min_samples,
           std::vector<double> initial = {});

  /// A sample has been trusted (the pipeline's "target present").
  [[nodiscard]] bool trusted() const { return state_.trusted; }
  /// Channel `i`'s last trusted sample or held estimate.
  [[nodiscard]] double last(std::size_t i) const { return channels_[i].last; }

  /// Trains every channel on one trusted sample, which becomes the last
  /// values.
  void trust(std::span<const double> sample);

  /// One holdover step. Once trained, every channel free-runs one step and
  /// `check` judges the unclamped estimates: accepted, they become the last
  /// values (clamped on range channels); rejected, the predictors restart
  /// untrained and the last values stand. Untrained, the last values stand.
  template <typename Check = AcceptEstimate>
  void hold(Check&& check = {}) {
    if (!ready()) return;
    free_run();
    if (check(std::span<const double>(estimate_))) {
      accept();
    } else {
      restart();
    }
  }

  /// The policy for one detector verdict at `step`: roll back on
  /// detection, hold (with `check`) while attacked or at a challenge slot,
  /// and snapshot after holding at a verified-clean challenge. Returns
  /// whether the step held; otherwise the caller may trust its sample.
  template <typename Check = AcceptEstimate>
  bool defend(std::int64_t step, const detect::Verdict& verdict,
              Check&& check = {}) {
    if (verdict.attack_started) rollback(step);
    if (!verdict.under_attack && !verdict.challenge_slot) return false;
    hold(check);
    // The debounce never starts an attack without declaring it, so a
    // challenge slot outside an attack is verified clean.
    if (verdict.challenge_slot && !verdict.under_attack) snapshot(step);
    return true;
  }

  void reset();

 private:
  struct Channel {
    estimation::SeriesPredictorPtr predictor;
    estimation::SeriesPredictorPtr saved;  ///< The predictor at the snapshot.
    bool clamped = false;
    double initial = 0.0;
    double last = 0.0;
    double saved_last = 0.0;
  };
  struct State {
    std::size_t trained = 0;
    bool trusted = false;
  };

  /// The channels may free-run: a sample has been trusted and at least
  /// `min_samples` have trained the predictors since they last restarted.
  [[nodiscard]] bool ready() const {
    return state_.trusted && state_.trained >= min_samples_;
  }
  /// Free-runs every channel one step into estimate_.
  void free_run();
  /// estimate_, clamped on range channels, becomes the last values.
  void accept();
  /// The predictors restart and the training count returns to zero; the
  /// last values stay.
  void restart();
  /// Snapshots the state at the verified-clean challenge `step`, after that
  /// slot's own holdover step.
  void snapshot(std::int64_t step);
  /// Restores a copy of the snapshot, if any. When the restored state is
  /// ready, as hold() requires, it free-runs with no check over the steps
  /// between the snapshot and `detection_step`; otherwise (nothing trusted
  /// yet, or predictors restarted and not yet retrained) the restored last
  /// values stand and nothing is replayed.
  void rollback(std::int64_t detection_step);

  std::vector<Channel> channels_;
  std::vector<double> estimate_;  ///< The last free-run, unclamped.
  std::size_t min_samples_;
  State state_;
  State saved_state_;
  std::optional<std::int64_t> saved_step_;
};

}  // namespace safe::core
