// Algorithm 1's RLS holdover with its snapshot rollback: the one copy that
// every defended scene runs (the radar pipeline, the Section 3 LTI case and
// park-assist).
//
// Each channel's predictor trains on every trusted sample. While no sample
// can be trusted the channels free-run, and a held estimate becomes the
// channel's last trusted value. A verified-clean challenge snapshots the
// whole state (predictors, training count, target flag, last values); on
// detection the rollback restores a copy of the snapshot and replays the
// free-run up to the detecting step, so the samples recorded between attack
// onset and detection never reach the holdover.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "estimation/series_predictor.hpp"

namespace safe::core {

class Holdover {
 public:
  /// One channel per predictor. A `clamped` channel is a range: its
  /// free-run never goes below zero, in holdover and in the replay.
  /// `initial` seeds the last trusted values (zeros when empty). Throws
  /// std::invalid_argument on a null predictor or a size mismatch.
  Holdover(std::vector<estimation::SeriesPredictorPtr> predictors,
           std::vector<bool> clamped, std::vector<double> initial = {});

  /// A sample has been trusted (the pipeline's "target present").
  [[nodiscard]] bool trusted() const { return state_.trusted; }
  /// Trained enough to free-run: `min_samples` trusted samples since the
  /// last restart.
  [[nodiscard]] bool ready(std::size_t min_samples) const {
    return state_.trusted && state_.trained >= min_samples;
  }
  [[nodiscard]] double last(std::size_t i) const { return channels_[i].last; }
  /// Channel `i`'s estimate from the last free_run(), unclamped.
  [[nodiscard]] double raw(std::size_t i) const { return channels_[i].raw; }

  /// Trains every channel on one trusted sample, which becomes the last
  /// trusted values.
  void trust(std::span<const double> sample);

  /// Free-runs every channel one step (see raw()).
  void free_run();
  /// The last free_run() estimate, clamped on range channels, becomes the
  /// last trusted values.
  void accept();
  /// After a diverged free-run: the predictors restart and the training
  /// count returns to zero; the last trusted values stay.
  void restart();
  /// One holdover step: free_run() and accept() when ready(min_samples),
  /// else the last trusted values stand.
  void hold(std::size_t min_samples) { if (ready(min_samples)) advance(); }

  /// Snapshots the state at the verified-clean challenge `step`, after that
  /// slot's own free-run step.
  void snapshot(std::int64_t step);
  /// Restores a copy of the snapshot and replays the free-run over the steps
  /// between it and `detection_step`. Returns the number of steps replayed;
  /// without a snapshot nothing changes and it returns 0.
  std::size_t rollback(std::int64_t detection_step);

  void reset();

 private:
  struct Channel {
    estimation::SeriesPredictorPtr predictor;
    estimation::SeriesPredictorPtr saved;  ///< The predictor at the snapshot.
    bool clamped = false;
    double initial = 0.0;
    double last = 0.0;
    double saved_last = 0.0;
    double raw = 0.0;
  };
  struct State {
    std::size_t trained = 0;
    bool trusted = false;
  };

  /// One free-run step whose clamped estimate becomes the last values.
  void advance() { free_run(); accept(); }

  std::vector<Channel> channels_;
  State state_;
  State saved_state_;
  std::optional<std::int64_t> saved_step_;
};

}  // namespace safe::core
