// Fixture: the dispatcher itself may name targets and the architecture.
#pragma once

#include <cstddef>
#include <utility>

namespace fixture::lanes {

#if defined(__x86_64__)
template <typename Kernel, typename... Args>
[[gnu::target("avx2")]] auto avx2_thunk(Args&&... args) {
  return Kernel::template run<4>(std::forward<Args>(args)...);
}
#endif

}  // namespace fixture::lanes
