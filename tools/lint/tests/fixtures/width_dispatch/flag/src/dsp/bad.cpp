// Fixture: a kernel that picks its own width. Each of the five marked
// lines must produce one width-dispatch finding.
#include <cstddef>

namespace fixture {

template <std::size_t L>
[[gnu::always_inline]] inline double kernel(const double* x) {
  return x[L - 1];
}

// An [[gnu::target("avx2")]] entry point, named in a comment.
#if defined(__x86_64__)
[[gnu::target("avx2")]] double four_wide(const double* x) {
  return kernel<4>(x);
}

__attribute__((target("avx512f"))) double eight_wide(const double* x) {
  return kernel<8>(x);
}

#pragma GCC target("avx2")
#endif

}  // namespace fixture
