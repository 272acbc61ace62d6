// Fuzz harness for the attack-spec mini-language parser.
//
// Contract under test: check_attack_spec() never throws and classifies
// every input as kOk / kMalformed / kUnknown with a diagnostic on the
// rejections; make_attack() throws std::invalid_argument exactly on the
// non-kOk inputs (never any other exception type) and otherwise returns a
// model (nullptr only for the ""/"none" no-attack specs). The harness
// cross-checks the two entry points on every input, so a checker/builder
// divergence is a finding, not just a crash.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "attack/spec.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string spec(reinterpret_cast<const char*>(data), size);
  const safe::spec::Check check = safe::attack::check_attack_spec(spec);
  try {
    const std::shared_ptr<safe::attack::AttackModel> attack =
        safe::attack::make_attack(spec);
    if (!check.ok()) {
      __builtin_trap();  // builder accepted what the checker rejected
    }
    if (!check.message.empty()) {
      __builtin_trap();  // kOk must not carry a diagnostic
    }
    // A spec naming an attack must build one; the no-attack specs must not.
    if (safe::attack::attack_spec_enabled(spec) != (attack != nullptr)) {
      __builtin_trap();
    }
  } catch (const std::invalid_argument&) {
    if (check.ok()) {
      __builtin_trap();  // checker accepted what the builder rejected
    }
    if (check.message.empty()) {
      __builtin_trap();  // rejections must carry a diagnostic
    }
  }
  return 0;
}
