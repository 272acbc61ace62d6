#include "detect/spec.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "detect/backends.hpp"

namespace safe::detect {

namespace {

/// Used by the internal builder to report instead of throwing.
struct BuildResult {
  spec::Check check;
  DetectorBackendPtr detector;
};

/// The result of a build_* function: the check, plus the backend when it
/// passed and one is wanted.
template <typename Backend, typename... Args>
BuildResult built(const spec::Params& params, bool want_detector,
                  const Args&... args) {
  BuildResult result{params.finish(), nullptr};
  if (result.check.ok() && want_detector) {
    result.detector = std::make_unique<Backend>(args...);
  }
  return result;
}

/// The residual-gate keys chi2 and ar share.
void take_gate(spec::Params& params, ResidualOptions& options) {
  params.number("threshold", options.threshold);
  params.require(options.threshold > 0.0, "`threshold` must be > 0");
  params.integer("window", options.window, 1);
  params.integer("consecutive", options.required_consecutive, 1);
  params.integer("clear", options.clear_after_quiet, 1);
  params.number("forgetting", options.variance_forgetting);
  params.require(
      options.variance_forgetting > 0.0 && options.variance_forgetting < 1.0,
      "`forgetting` must be in (0, 1)");
  double power = 1.0;
  params.number("power", power);
  params.require(power == 0.0 || power == 1.0, "`power` must be 0 or 1");
  options.alarm_on_power = power != 0.0;
}

BuildResult build(const std::string& text,
                  const cra::DetectorOptions& cra_defaults,
                  bool want_detector);

BuildResult build_fusion(spec::Params& params,
                         const cra::DetectorOptions& cra_defaults,
                         bool want_detector) {
  std::string members_raw;
  if (!params.take("members", members_raw)) {
    params.fail("fusion needs `members=a+b[+c]`");
  }
  std::vector<std::string> members;
  for (std::string& member :
       spec::split(members_raw, "+").value_or(std::vector<std::string>{})) {
    if (!member.empty()) members.push_back(std::move(member));
  }
  params.require(!members.empty(), "fusion members list is empty");
  std::size_t quorum = members.size() / 2 + 1;  // default: strict majority
  params.integer("quorum", quorum, 1);
  params.require(quorum <= members.size(),
                 "fusion quorum exceeds the member count");
  BuildResult result{params.finish(), nullptr};
  if (!result.check.ok()) return result;

  std::vector<DetectorBackendPtr> children;
  for (const std::string& name : members) {
    if (name == "fusion") {
      return {{spec::Status::kMalformed,
               "detector spec: fusion cannot nest fusion"},
              nullptr};
    }
    // Each member is a detector spec of its own, running its defaults.
    BuildResult child = build(name, cra_defaults, want_detector);
    if (!child.check.ok()) return child;
    if (want_detector) children.push_back(std::move(child.detector));
  }
  if (want_detector) {
    result.detector =
        std::make_unique<FusionBackend>(std::move(children), quorum);
  }
  return result;
}

BuildResult build(const std::string& text,
                  const cra::DetectorOptions& cra_defaults,
                  bool want_detector) {
  if (text.empty()) {
    BuildResult result;
    if (want_detector) {
      result.detector = std::make_unique<CraBackend>(cra_defaults);
    }
    return result;
  }
  spec::Params params = spec::Params::named("detector spec", text);
  const std::string& backend = params.name();
  if (!params.ok()) return {params.finish(), nullptr};
  if (backend == "cra") {
    cra::DetectorOptions options = cra_defaults;
    params.integer("clear", options.clear_after_silent_challenges, 1);
    return built<CraBackend>(params, want_detector, options);
  }
  if (backend == "chi2" || backend == "ar") {
    const ResidualBackend::Model model =
        backend == "chi2" ? ResidualBackend::Model::kFirstDifference
                          : ResidualBackend::Model::kAutoregressive;
    ResidualOptions options = ResidualBackend::defaults(model);
    if (model == ResidualBackend::Model::kAutoregressive) {
      params.integer("order", options.order, 1, 16);
    }
    take_gate(params, options);
    return built<ResidualBackend>(params, want_detector, model, options);
  }
  if (backend == "fusion") {
    return build_fusion(params, cra_defaults, want_detector);
  }
  return {{spec::Status::kUnknown, "detector spec: unknown backend `" +
                                       backend + "` (cra, chi2, ar, fusion)"},
          nullptr};
}

}  // namespace

spec::Check check_detector_spec(const std::string& spec) {
  return build(spec, cra::DetectorOptions{}, /*want_detector=*/false).check;
}

DetectorBackendPtr make_detector(const std::string& spec,
                                 const cra::DetectorOptions& cra_defaults) {
  BuildResult result = build(spec, cra_defaults, /*want_detector=*/true);
  if (!result.check.ok()) throw std::invalid_argument(result.check.message);
  return std::move(result.detector);
}

std::string detector_spec_help() {
  return "detector spec: <backend>[:<k=v,...>] with backends "
         "cra(clear) "
         "chi2(threshold,window,consecutive,clear,forgetting,power) "
         "ar(order,threshold,window,consecutive,clear,forgetting,power) "
         "fusion(members=a+b[+c],quorum); empty or `cra` = the paper's "
         "challenge-response detector";
}

}  // namespace safe::detect
