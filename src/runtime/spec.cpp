#include "runtime/spec.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "attack/spec.hpp"
#include "detect/spec.hpp"
#include "platoon/spec.hpp"
#include "spec/spec.hpp"

namespace safe::runtime {

namespace {

[[noreturn]] void fail(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("campaign spec: `" + entry + "`: " + why);
}

/// `text` without its `#` comments (to end of line, outside double quotes).
std::string strip_comments(const std::string& text) {
  std::string out;
  bool in_quotes = false;
  bool in_comment = false;
  for (const char c : text) {
    if (in_comment && c != '\n') continue;
    in_comment = false;
    if (c == '"') in_quotes = !in_quotes;
    if (!in_quotes && c == '#') {
      in_comment = true;
      continue;
    }
    out += c;
  }
  return out;
}

/// The trimmed, non-empty pieces of `text` between `seps` outside quotes.
std::vector<std::string> pieces(const std::string& entry,
                                const std::string& text, const char* seps) {
  const auto tokens = spec::split(text, seps);
  if (!tokens) fail(entry, "unterminated quote");
  std::vector<std::string> out;
  for (const std::string& token : *tokens) {
    std::string piece = spec::trim(token);
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

double parse_number(const std::string& entry, const std::string& token) {
  const auto value = spec::to_double(token);
  if (!value) fail(entry, "expected a finite number, got `" + token + "`");
  return *value;
}

std::uint64_t parse_count(const std::string& entry, const std::string& token,
                          std::uint64_t max) {
  const auto value = spec::to_uint(token, max);
  if (!value) {
    fail(entry, "expected an integer in [0, " + std::to_string(max) +
                    "], got `" + token + "`");
  }
  return *value;
}

bool parse_bool(const std::string& entry, const std::string& token) {
  const auto value = spec::to_bool(token);
  if (!value) fail(entry, "expected true/false/on/off, got `" + token + "`");
  return *value;
}

/// `uniform(a,b)` / `loguniform(a,b)`, or std::nullopt when the token is
/// not a distribution call at all.
std::optional<Distribution> try_parse_distribution(const std::string& entry,
                                                   const std::string& token) {
  const auto open = token.find('(');
  if (open == std::string::npos || token.back() != ')') return std::nullopt;
  const std::string name = spec::trim(token.substr(0, open));
  if (name != "uniform" && name != "loguniform") {
    fail(entry, "unknown distribution `" + name +
                    "` (expected uniform or loguniform)");
  }
  const std::string args =
      token.substr(open + 1, token.size() - open - 2);
  const auto comma = args.find(',');
  if (comma == std::string::npos) {
    fail(entry, "distribution needs two arguments: " + name + "(lo, hi)");
  }
  const double lo = parse_number(entry, spec::trim(args.substr(0, comma)));
  const double hi = parse_number(entry, spec::trim(args.substr(comma + 1)));
  try {
    return name == "uniform" ? Distribution::uniform(lo, hi)
                             : Distribution::log_uniform(lo, hi);
  } catch (const std::invalid_argument& e) {
    fail(entry, e.what());
  }
}

core::LeaderScenario parse_leader(const std::string& entry,
                                  const std::string& token) {
  if (token == "decel") return core::LeaderScenario::kConstantDecel;
  if (token == "decel-accel") return core::LeaderScenario::kDecelThenAccel;
  fail(entry, "unknown leader `" + token + "` (decel or decel-accel)");
}

core::AttackKind parse_attack(const std::string& entry,
                              const std::string& token) {
  if (token == "none") return core::AttackKind::kNone;
  if (token == "dos") return core::AttackKind::kDosJammer;
  if (token == "delay") return core::AttackKind::kDelayInjection;
  fail(entry, "unknown attack `" + token + "` (none, dos, delay)");
}

}  // namespace

CampaignSpec parse_campaign_spec(const std::string& text) {
  CampaignSpec spec;
  bool hardened = false;
  std::size_t max_holdover = 15;

  const std::string body = strip_comments(text);
  for (const std::string& entry : pieces(body, body, "\n;")) {
    const auto eq = entry.find('=');
    if (eq == std::string::npos) fail(entry, "expected key = value");
    const std::string key = spec::trim(entry.substr(0, eq));
    const std::vector<std::string> tokens =
        pieces(entry, entry.substr(eq + 1), "|");
    if (tokens.empty()) fail(entry, "empty value");
    const std::string first = spec::unquote(tokens.front());

    if (key == "trials") {
      spec.trials =
          static_cast<std::size_t>(parse_count(entry, first, SIZE_MAX));
    } else if (key == "seed") {
      spec.seed = parse_count(entry, first, UINT64_MAX);
    } else if (key == "horizon") {
      spec.base.horizon_steps =
          static_cast<std::int64_t>(parse_count(entry, first, INT64_MAX));
    } else if (key == "leader") {
      for (const auto& t : tokens) {
        spec.leaders.push_back(parse_leader(entry, spec::unquote(t)));
      }
    } else if (key == "attack") {
      // Bare legacy names keep the enum axis (and its exact cell mapping);
      // any parameterized token upgrades the whole list to the attack-spec
      // axis so one `attack =` entry stays one axis.
      bool all_legacy = true;
      for (const auto& t : tokens) {
        const std::string a = spec::unquote(t);
        if (a != "none" && a != "dos" && a != "delay") {
          all_legacy = false;
          break;
        }
      }
      for (const auto& t : tokens) {
        const std::string a = spec::unquote(t);
        if (all_legacy) {
          spec.attacks.push_back(parse_attack(entry, a));
          continue;
        }
        const std::string normalized = a == "none" ? std::string{} : a;
        // Same parse-time validation as `detector`: reject a bad attack
        // spec once here instead of erroring every trial on its cell.
        if (!normalized.empty()) {
          const spec::Check check = attack::check_attack_spec(normalized);
          if (!check.ok()) fail(entry, check.message);
        }
        spec.attack_specs.push_back(normalized);
      }
    } else if (key == "onset") {
      if (auto dist = try_parse_distribution(entry, first)) {
        spec.attack_onset_s = *dist;
      } else if (tokens.size() > 1) {
        for (const auto& t : tokens) {
          spec.attack_onsets_s.push_back(
              units::Seconds{parse_number(entry, spec::unquote(t))});
        }
      } else {
        spec.base.attack_start_s = units::Seconds{parse_number(entry, first)};
      }
    } else if (key == "end") {
      spec.base.attack_end_s = units::Seconds{parse_number(entry, first)};
    } else if (key == "duration") {
      if (auto dist = try_parse_distribution(entry, first)) {
        spec.attack_duration_s = *dist;
      } else {
        spec.attack_duration_s =
            Distribution::fixed(parse_number(entry, first));
      }
    } else if (key == "jammer_power_w" || key == "jammer_w") {
      if (auto dist = try_parse_distribution(entry, first)) {
        spec.jammer_power_w = *dist;
      } else if (tokens.size() > 1) {
        for (const auto& t : tokens) {
          spec.jammer_powers_w.push_back(parse_number(entry, spec::unquote(t)));
        }
      } else {
        spec.base.jammer.peak_power_w = parse_number(entry, first);
      }
    } else if (key == "fault") {
      for (const auto& t : tokens) {
        const std::string f = spec::unquote(t);
        spec.fault_specs.push_back(f == "none" ? std::string{} : f);
      }
    } else if (key == "detector") {
      for (const auto& t : tokens) {
        const std::string d = spec::unquote(t);
        const std::string normalized = d == "none" ? std::string{} : d;
        // Fail at parse time (with the detect module's message) instead of
        // erroring every trial that lands on the bad cell.
        const spec::Check check = detect::check_detector_spec(normalized);
        if (!check.ok()) fail(entry, check.message);
        spec.detector_specs.push_back(normalized);
      }
    } else if (key == "platoon") {
      for (const auto& t : tokens) {
        const std::string p = spec::unquote(t);
        const std::string normalized = p == "none" ? std::string{} : p;
        // Same parse-time validation as `detector`: reject a bad platoon
        // spec once here instead of erroring every trial on its cell.
        if (!normalized.empty()) {
          const spec::Check check = platoon::check_platoon_spec(normalized);
          if (!check.ok()) fail(entry, check.message);
        }
        spec.platoon_specs.push_back(normalized);
      }
    } else if (key == "defense") {
      if (tokens.size() > 1) {
        for (const auto& t : tokens) {
          spec.defenses.push_back(parse_bool(entry, spec::unquote(t)));
        }
      } else {
        spec.base.defense_enabled = parse_bool(entry, first);
      }
    } else if (key == "estimator") {
      if (first == "music") {
        spec.base.estimator = radar::BeatEstimator::kRootMusic;
      } else if (first == "fft") {
        spec.base.estimator = radar::BeatEstimator::kPeriodogram;
      } else {
        fail(entry, "unknown estimator `" + first + "` (music or fft)");
      }
    } else if (key == "hardened") {
      hardened = parse_bool(entry, first);
    } else if (key == "max_holdover") {
      max_holdover =
          static_cast<std::size_t>(parse_count(entry, first, SIZE_MAX));
      hardened = true;
    } else {
      fail(entry, "unknown key `" + key + "` (run `--spec help`)");
    }
  }

  if (hardened) {
    spec.base.pipeline = core::hardened_pipeline_options(max_holdover);
  }
  return spec;
}

std::string campaign_spec_help() {
  return
      "campaign spec language: `key = value` entries separated by newlines\n"
      "or `;`. `#` comments. `|`-separated values form a grid axis (crossed\n"
      "with the other grids, trial t -> cell t mod n_cells); uniform(a,b)\n"
      "and loguniform(a,b) declare randomized axes sampled per trial from\n"
      "the campaign seed. Double-quote a value to protect `;`/`|`/`#`.\n"
      "\n"
      "  trials = N            number of trials (campaign_cli --trials wins)\n"
      "  seed = N              master seed; every trial seed derives from it\n"
      "  horizon = K           simulation steps per trial (default 300)\n"
      "  leader = decel | decel-accel               grid\n"
      "  attack = none | dos | delay                grid (legacy enum), or\n"
      "  attack = \"spoof:coherence=0.9\" | \"entrain:replay=0\" | dos   grid\n"
      "                        (attack mini-language; any parameterized token\n"
      "                        upgrades the whole list to the spec axis)\n"
      "  onset = 182 | 60|100|140 | uniform(60,240) fixed / grid / random\n"
      "  end = 300             fixed attack end time [s]\n"
      "  duration = 90 | uniform(30,120)   attack end = onset + duration\n"
      "  jammer_power_w = 0.1 | 0.01|0.1|1 | loguniform(0.01,1)\n"
      "  fault = none | \"dropout:start=60,len=12\"   grid (fault mini-language)\n"
      "  detector = cra | \"chi2:threshold=9.21\" | ar   grid (detector spec\n"
      "                        mini-language; none/cra = paper CRA backend)\n"
      "  platoon = none | \"n=8,attacked=3\" | \"n=4,detector=chi2\"   grid\n"
      "                        (platoon mini-language; none = the pair scene)\n"
      "  defense = on | off | on|off   fixed or grid; raw data when off\n"
      "  estimator = music | fft   beat estimator (fft epoch ~7x faster)\n"
      "  hardened = true       use core::hardened_pipeline_options()\n"
      "  max_holdover = K      holdover budget; implies hardened = true\n";
}

}  // namespace safe::runtime
