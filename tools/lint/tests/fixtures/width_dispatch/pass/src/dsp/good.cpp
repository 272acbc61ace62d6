// Fixture: a kernel called through the dispatcher, plus one suppressed
// occurrence. None may produce findings.
#include <cstddef>

#include "linalg/lanes.hpp"

namespace fixture {

struct Last {
  template <std::size_t L>
  [[gnu::always_inline]] static double run(const double* x) {
    return x[L - 1];
  }
};

double last(const double* x) { return lanes::dispatch<Last, 4>(x); }

// A deliberate, commented exception: __x86_64__  lint: allow(width-dispatch)

}  // namespace fixture
