// MUST NOT COMPILE: the library's noise engine has no default constructor,
// so every stream states the seed it comes from. The determinism lint's
// unseeded-engine rule matches only the <random> engine names; for the
// in-repo engine the type itself enforces the rule.
#include "sim/noise.hpp"

int main() {
  // error: no matching constructor for MersenneTwister64()
  safe::sim::MersenneTwister64 engine;
  return static_cast<int>(engine() & 1U);
}
