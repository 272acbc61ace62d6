#include "attack/spec.hpp"

#include <stdexcept>
#include <utility>

#include "attack/delay_injection.hpp"
#include "attack/dos_jammer.hpp"
#include "attack/spoofers.hpp"

namespace safe::attack {

namespace {

/// Used by the internal builder to report instead of throwing.
struct BuildResult {
  spec::Check check;
  std::shared_ptr<AttackModel> attack;
};

/// The result of a build_* function: the check, plus the attack when it
/// passed and one is wanted.
template <typename Attack, typename Config>
BuildResult built(const spec::Params& params, bool want_attack,
                  const Config& config) {
  BuildResult result{params.finish(), nullptr};
  if (result.check.ok() && want_attack) {
    result.attack = std::make_shared<Attack>(config);
  }
  return result;
}

// The messages are built only on failure: scenario set-up builds the
// legacy enum's attacks through this path too.
void take_positive(spec::Params& params, const std::string& key,
                   double& out) {
  params.number(key, out);
  if (!(out > 0.0)) params.fail("`" + key + "` must be > 0");
}

void take_non_negative(spec::Params& params, const std::string& key,
                       double& out) {
  params.number(key, out);
  if (!(out >= 0.0)) params.fail("`" + key + "` must be >= 0");
}

BuildResult build_dos(spec::Params& params,
                      radar::JammerParameters jammer, bool want_attack) {
  double gain = jammer.antenna_gain_dbi.value();
  double bw = jammer.bandwidth_hz.value();
  take_positive(params, "power", jammer.peak_power_w);
  params.number("gain", gain);
  take_positive(params, "bw", bw);
  jammer.antenna_gain_dbi = units::Decibels{gain};
  jammer.bandwidth_hz = units::Hertz{bw};
  return built<DosJammerAttack>(params, want_attack, jammer);
}

BuildResult build_delay(spec::Params& params, bool want_attack) {
  DelayInjectionConfig config;
  double delay_ns = config.extra_delay_s.value() * 1.0e9;
  take_positive(params, "delay_ns", delay_ns);
  take_positive(params, "advantage", config.power_advantage);
  params.flag("evade", config.evades_challenges);
  config.extra_delay_s = units::Seconds{delay_ns * 1.0e-9};
  return built<DelayInjectionAttack>(params, want_attack, config);
}

BuildResult build_spoof(spec::Params& params, bool want_attack) {
  PhaseCoherentSpoofConfig config;
  double dr = config.range_offset_m.value();
  double df = config.doppler_shift_hz.value();
  params.number("dr", dr);
  params.number("df", df);
  take_positive(params, "coherence", config.coherence);
  params.require(config.coherence <= 1.0, "`coherence` must be in (0, 1]");
  take_positive(params, "gain", config.power_advantage);
  config.range_offset_m = units::Meters{dr};
  config.doppler_shift_hz = units::Hertz{df};
  return built<PhaseCoherentSpoofAttack>(params, want_attack, config);
}

BuildResult build_chirp(spec::Params& params, bool want_attack) {
  ChirpModificationConfig config;
  double offset = config.ghost_offset_m.value();
  take_positive(params, "slope", config.slope_ratio);
  params.number("offset", offset);
  take_positive(params, "gain", config.power_advantage);
  config.ghost_offset_m = units::Meters{offset};
  return built<ChirpModificationAttack>(params, want_attack, config);
}

BuildResult build_entrain(spec::Params& params, std::uint64_t seed,
                          bool want_attack) {
  ChirpEntrainmentConfig config;
  config.seed = seed;
  double jitter = config.timing_jitter_m.value();
  double ferr = config.freq_error_hz.value();
  double dr = config.range_offset_m.value();
  params.integer("acquire", config.acquire_slots, 1);
  take_non_negative(params, "jitter", jitter);
  params.number("ferr", ferr);
  params.number("dr", dr);
  take_positive(params, "gain", config.power_advantage);
  params.integer("replay", config.replay_delay_slots, 0, 64);
  take_non_negative(params, "leak", config.leak_noise_factor);
  config.timing_jitter_m = units::Meters{jitter};
  config.freq_error_hz = units::Hertz{ferr};
  config.range_offset_m = units::Meters{dr};
  return built<ChirpEntrainmentAttack>(params, want_attack, config);
}

BuildResult build(const std::string& text,
                  const radar::JammerParameters& jammer_defaults,
                  std::uint64_t seed, bool want_attack) {
  if (!attack_spec_enabled(text)) return {};  // no attack

  spec::Params params = spec::Params::named("attack spec", text);
  const std::string& kind = params.name();
  // "none" with parameters is a spec error, not a quiet no-op.
  if (!params.ok() || kind == "none") return {params.finish(), nullptr};
  if (kind == "dos") return build_dos(params, jammer_defaults, want_attack);
  if (kind == "delay") return build_delay(params, want_attack);
  if (kind == "spoof") return build_spoof(params, want_attack);
  if (kind == "chirp") return build_chirp(params, want_attack);
  if (kind == "entrain") return build_entrain(params, seed, want_attack);
  return {{spec::Status::kUnknown,
           "attack spec: unknown kind `" + kind +
               "` (none, dos, delay, spoof, chirp, entrain)"},
          nullptr};
}

}  // namespace

spec::Check check_attack_spec(const std::string& spec) {
  return build(spec, radar::JammerParameters{}, 0, /*want_attack=*/false)
      .check;
}

std::shared_ptr<AttackModel> make_attack(
    const std::string& spec, const radar::JammerParameters& jammer_defaults,
    std::uint64_t seed) {
  BuildResult result = build(spec, jammer_defaults, seed, /*want_attack=*/true);
  if (!result.check.ok()) throw std::invalid_argument(result.check.message);
  return std::move(result.attack);
}

bool attack_spec_enabled(const std::string& spec) {
  return !spec.empty() && spec != "none";
}

std::string attack_spec_help() {
  return "attack spec: <kind>[:<k=v,...>] with kinds "
         "dos(power,gain,bw) "
         "delay(delay_ns,advantage,evade) "
         "spoof(dr,df,coherence,gain) "
         "chirp(slope,offset,gain) "
         "entrain(acquire,jitter,ferr,dr,gain,replay,leak); empty or `none` "
         "= no attack";
}

}  // namespace safe::attack
