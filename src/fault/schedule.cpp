#include "fault/schedule.hpp"

#include <stdexcept>

#include "spec/spec.hpp"

namespace safe::fault {

void FaultSchedule::add(FaultInjectorPtr injector) {
  if (!injector) {
    throw std::invalid_argument("FaultSchedule::add: null injector");
  }
  injectors_.push_back(std::move(injector));
}

radar::RadarMeasurement FaultSchedule::apply(
    std::int64_t step, bool challenge_slot,
    radar::RadarMeasurement measurement) {
  if (challenge_slot) ++challenge_count_;
  FaultContext context;
  context.step = step;
  context.challenge_slot = challenge_slot;
  context.challenge_index = challenge_count_;
  context.seed = seed_;
  context.has_previous = previous_.has_value();
  if (previous_) context.previous = *previous_;

  for (const auto& injector : injectors_) {
    injector->apply(context, measurement);
  }
  previous_ = measurement;
  return measurement;
}

void FaultSchedule::reset() {
  previous_.reset();
  challenge_count_ = 0;
}

std::string FaultSchedule::name() const {
  if (injectors_.empty()) return "none";
  std::string joined;
  for (const auto& injector : injectors_) {
    if (!joined.empty()) joined += '+';
    joined += injector->name();
  }
  return joined;
}

namespace {

FaultInjectorPtr build_injector(const std::string& clause) {
  spec::Params params = spec::Params::named("fault spec", clause);
  FaultWindow window;
  params.integer("start", window.start);
  params.integer("len", window.length);
  params.integer("period", window.period);
  const std::string& kind = params.name();
  FaultInjectorPtr injector;
  if (kind == "dropout") {
    double prob = 1.0;
    params.number("prob", prob);
    params.require(prob >= 0.0 && prob <= 1.0, "`prob` must be in [0, 1]");
    injector = std::make_shared<DropoutBurstFault>(window, prob);
  } else if (kind == "stuck") {
    injector = std::make_shared<StuckAtFault>(window);
  } else if (kind == "nan" || kind == "inf") {
    injector = std::make_shared<NonFiniteFault>(window, kind == "inf");
  } else if (kind == "bias") {
    double slope = 0.5;
    double vslope = 0.0;
    params.number("slope", slope);
    params.number("vslope", vslope);
    injector = std::make_shared<BiasRampFault>(
        window, units::Meters{slope}, units::MetersPerSecond{vslope});
  } else if (kind == "quantize") {
    double step = 4.0;
    double max = 120.0;
    double vmax = 30.0;
    params.number("step", step);
    params.number("max", max);
    params.number("vmax", vmax);
    injector = std::make_shared<QuantizeSaturateFault>(
        window, units::Meters{step}, units::Meters{max},
        units::MetersPerSecond{vmax});
  } else if (kind == "flap") {
    injector = std::make_shared<ChallengeFlappingFault>(window);
  } else if (kind == "skip") {
    injector = std::make_shared<ClockSkipFault>(window);
  } else {
    params.fail("unknown injector `" + kind + "` in `" + clause + "`");
  }
  const spec::Check check = params.finish();
  if (!check.ok()) throw std::invalid_argument(check.message);
  return injector;
}

}  // namespace

FaultSchedule parse_fault_spec(const std::string& text, std::uint64_t seed) {
  FaultSchedule schedule(seed);
  if (text.empty() || text == "none") return schedule;
  const auto clauses = spec::split(text, ";+");
  if (!clauses) {
    throw std::invalid_argument("fault spec: unterminated quote in `" + text +
                                "`");
  }
  for (const std::string& clause : *clauses) {
    if (!clause.empty()) schedule.add(build_injector(clause));
  }
  return schedule;
}

std::string fault_spec_help() {
  return "fault spec: <kind>:<k=v,...>[;<kind>:...] with kinds "
         "dropout(start,len,period,prob) stuck(start,len,period) "
         "nan|inf(start,len,period) bias(start,len,period,slope,vslope) "
         "quantize(start,len,period,step,max,vmax) flap(start,len,period) "
         "skip(start,len,period); len=0 means unbounded";
}

}  // namespace safe::fault
