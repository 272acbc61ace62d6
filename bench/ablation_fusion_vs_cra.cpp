// Baseline comparison: redundancy-based fusion detection (related work
// [8]-style, two sensors) vs the paper's CRA (one sensor, modified
// transmitter).
//
// Three phases over a decelerating-leader truth series:
//  A. delay spoof on the radar only    — fusion sees the disagreement fast;
//                                        CRA waits for the next challenge.
//  B. coordinated spoof on both sensors — fusion is structurally blind;
//                                        CRA still catches each sensor.
//  C. clean but noisy                  — fusion false-alarm rate vs
//                                        threshold; CRA has zero FPs by
//                                        construction.
#include <cstdio>
#include <random>

#include "cra/challenge.hpp"
#include "detect/backends.hpp"
#include "sensors/fusion_detector.hpp"

namespace {

using namespace safe;

struct PhaseResult {
  int fusion_detect_step = -1;
  int cra_detect_step = -1;
  int fusion_false_alarms = 0;
};

PhaseResult run_phase(bool attack_radar, bool attack_lidar, double noise_sigma,
                      double fusion_threshold, unsigned seed) {
  const int horizon = 300;
  const int onset = 180;
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, noise_sigma);

  sensors::FusionDetector fusion(
      {.disagreement_threshold_m = safe::units::Meters{fusion_threshold},
       .required_consecutive = 2});
  const auto schedule = cra::paper_challenge_schedule(horizon);
  detect::CraBackend cra_radar;

  PhaseResult result;
  for (int k = 0; k < horizon; ++k) {
    const double truth = 100.0 - 0.25 * k;
    const bool attacked = k >= onset;

    double radar_range = truth + noise(rng);
    double lidar_range = truth + noise(rng);
    if (attacked && attack_radar) radar_range += 6.0;
    if (attacked && attack_lidar) lidar_range += 6.0;

    // Fusion: always-on cross-check.
    const auto fd = fusion.observe(true, safe::units::Meters{radar_range},
                                   true, safe::units::Meters{lidar_range});
    const bool any_attack = attacked && (attack_radar || attack_lidar);
    if (fd.under_attack && !any_attack) ++result.fusion_false_alarms;
    if (fd.under_attack && any_attack && result.fusion_detect_step < 0) {
      result.fusion_detect_step = k;
    }

    // CRA on the radar: at challenge slots a spoofer (which replays
    // continuously) produces a non-zero output.
    detect::Observation obs;
    obs.step = k;
    obs.challenge_slot = schedule.is_challenge(k);
    obs.receiver_nonzero = !obs.challenge_slot || (attacked && attack_radar);
    const detect::Verdict cd = cra_radar.observe(obs);
    if (cd.attack_started && result.cra_detect_step < 0) {
      result.cra_detect_step = k;
    }
  }
  return result;
}

}  // namespace

int main() {
  std::printf(
      "Fusion (two sensors) vs CRA (one sensor + modified transmitter)\n"
      "truth: gap 100 -> 25 m over 300 s; spoof +6 m from k = 180; "
      "measurement noise sigma = 0.3 m\n\n");

  const auto a = run_phase(true, false, 0.3, 2.0, 1);
  std::printf(
      "A. radar-only spoof     : fusion detects at k = %d, CRA at k = %d\n",
      a.fusion_detect_step, a.cra_detect_step);

  const auto b = run_phase(true, true, 0.3, 2.0, 2);
  std::printf(
      "B. coordinated spoof    : fusion detects at k = %d (blind), CRA at "
      "k = %d\n",
      b.fusion_detect_step, b.cra_detect_step);

  std::printf("C. clean, false alarms over 300 s vs fusion threshold:\n");
  for (const double thr : {0.5, 0.8, 1.0, 1.5, 2.0}) {
    int alarms = 0;
    for (unsigned seed = 10; seed < 20; ++seed) {
      alarms += run_phase(false, false, 0.3, thr, seed).fusion_false_alarms;
    }
    std::printf("     threshold %.1f m -> %d fusion false-alarm steps "
                "(10 seeds); CRA: 0\n",
                thr, alarms);
  }

  std::printf(
      "\nshape: fusion wins on latency when only one channel is attacked, "
      "but needs a second sensor, is threshold-tuned (false alarms as the "
      "threshold approaches the noise), and is blind to coordinated "
      "spoofing. CRA pays a challenge-schedule latency but needs no "
      "redundancy and has no false positives/negatives — the trade the "
      "paper argues for.\n");
  return 0;
}
