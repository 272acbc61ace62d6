#include "platoon/spec.hpp"

#include <stdexcept>

#include "attack/spec.hpp"
#include "detect/spec.hpp"
#include "fault/schedule.hpp"

namespace safe::platoon {

namespace {

/// Hard ceiling on the platoon length: 64 vehicles is far beyond any string
/// the propagation metrics are meaningful for, and bounds the per-trial
/// cost a campaign spec can demand.
constexpr std::size_t kMaxSize = 64;

/// A sub-spec key: `none` inherits (""), anything else must pass `check`.
void take_sub_spec(spec::Params& params, const std::string& key,
                   std::string& out,
                   spec::Check (*check)(const std::string&)) {
  std::string value;
  if (!params.take(key, value)) return;
  out = value == "none" ? std::string{} : value;
  const spec::Check sub = check(out);
  if (!sub.ok()) params.fail(sub.message);
}

spec::Check check_fault_sub_spec(const std::string& text) {
  try {
    (void)fault::parse_fault_spec(text);
  } catch (const std::invalid_argument& e) {
    return {spec::Status::kMalformed, e.what()};
  }
  return {};
}

/// One implementation behind the checker and the builder: a classification
/// that diverged from the parser would let malformed specs into campaigns
/// (or reject valid ones at the CLI), so both entry points share this.
spec::Check parse_into(const std::string& text, PlatoonOptions& out) {
  spec::Params params = spec::Params::pairs("platoon spec", text);
  const bool cutin_requested = params.has("cutin_into");
  const bool cutin_timed = params.has("cutin_start") && params.has("cutin_len");
  const bool cutin_keys = params.has("cutin_start") ||
                          params.has("cutin_len") || params.has("cutin_frac");

  params.integer("n", out.size, 2, kMaxSize);
  params.integer("attacked", out.attacked, 1);
  params.require(out.attacked < out.size,
                 "`attacked` must name a follower (1 <= attacked <= n-1)");
  params.flag("multi_target", out.multi_target);

  std::string controller;
  if (params.take("controller", controller)) {
    if (controller == "acc") {
      out.controller = core::FollowerController::kAccHierarchy;
    } else if (controller == "idm") {
      out.controller = core::FollowerController::kIdm;
    } else {
      params.fail("unknown controller `" + controller + "` (acc or idm)");
    }
  }
  take_sub_spec(params, "detector", out.detector_spec,
                detect::check_detector_spec);
  take_sub_spec(params, "attack", out.attack_spec, attack::check_attack_spec);
  take_sub_spec(params, "fault", out.fault_spec, check_fault_sub_spec);

  double gap = out.initial_gap_m.value();
  params.number("gap", gap);
  params.require(gap > 0.0 && gap <= 1.0e4,
                 "`gap` must be in (0, 10000] meters");
  out.initial_gap_m = units::Meters{gap};
  params.number("rcs_scale", out.second_target_rcs_scale);
  params.require(out.second_target_rcs_scale > 0.0 &&
                     out.second_target_rcs_scale <= 1.0,
                 "`rcs_scale` must be in (0, 1]");

  double cutin_start = 0.0;
  double cutin_len = 0.0;
  double cutin_frac = out.cutin.gap_fraction;
  params.integer("cutin_into", out.cutin.into, 1);
  params.number("cutin_start", cutin_start);
  params.number("cutin_len", cutin_len);
  params.number("cutin_frac", cutin_frac);
  params.require(cutin_requested || !cutin_keys,
                 "cutin_* keys require `cutin_into`");
  if (cutin_requested) {
    params.require(
        out.cutin.into < out.size,
        "`cutin_into` must name a follower (1 <= index <= n-1)");
    params.require(cutin_timed,
                   "`cutin_into` requires `cutin_start` and `cutin_len`");
    params.require(cutin_start >= 0.0, "`cutin_start` must be >= 0");
    params.require(cutin_len > 0.0, "`cutin_len` must be > 0");
    params.require(cutin_frac > 0.0 && cutin_frac < 1.0,
                   "`cutin_frac` must be in (0, 1)");
    out.cutin.start_s = units::Seconds{cutin_start};
    out.cutin.duration_s = units::Seconds{cutin_len};
    out.cutin.gap_fraction = cutin_frac;
  }
  return params.finish();
}

}  // namespace

spec::Check check_platoon_spec(const std::string& spec) {
  PlatoonOptions ignored;
  return parse_into(spec, ignored);
}

PlatoonOptions parse_platoon_spec(const std::string& spec) {
  PlatoonOptions options;
  const spec::Check check = parse_into(spec, options);
  if (!check.ok()) throw std::invalid_argument(check.message);
  return options;
}

std::string platoon_spec_help() {
  return "platoon spec: comma-separated key=value with keys "
         "n(2..64) attacked(1..n-1) controller(acc|idm) "
         "detector(<detect spec>, quoted if it has commas) "
         "fault(<fault spec>, quoted) attack(<attack spec>, quoted) "
         "gap(meters) multi_target(on|off) "
         "rcs_scale((0,1]) cutin_into cutin_start cutin_len "
         "cutin_frac((0,1)); e.g. \"n=8,attacked=3,detector=chi2\"; empty "
         "= the 2-vehicle pair case study";
}

}  // namespace safe::platoon
