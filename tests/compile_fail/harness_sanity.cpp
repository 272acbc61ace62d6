// MUST COMPILE: positive control for the compile-fail harness. If this one
// fails, the harness itself is broken (bad include path, bad -std flag) and
// every WILL_FAIL case above would "pass" for the wrong reason.
#include "radar/fmcw.hpp"
#include "sim/noise.hpp"
#include "units/units.hpp"

int main() {
  auto offset = safe::radar::spoofed_range_offset(safe::units::Seconds{40e-9});
  auto delay = safe::radar::injection_delay_for_offset(offset);
  (void)delay;
  safe::sim::MersenneTwister64 engine(1);  // seeded: compiles
  return static_cast<int>(engine() & 1U);
}
