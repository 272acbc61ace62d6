#include "linalg/eigen_hermitian.hpp"

namespace safe::linalg::detail {

// The Jacobi sweeps at four lanes. The whole sweep loop runs inside the
// AVX2 entry point, rotations and the scalar work between them alike, so a
// rotation costs no call across targets.
#if defined(__x86_64__)
[[gnu::target("avx2")]] std::size_t four_lane_sweeps(JacobiPlanes<double>& m,
                                                     double threshold2,
                                                     double negligible,
                                                     std::size_t max_sweeps) {
  return jacobi_sweeps<4>(m, threshold2, negligible, max_sweeps);
}

[[gnu::target("avx2")]] std::size_t four_lane_sweeps(
    JacobiPlanes<std::complex<double>>& m, double threshold2,
    double negligible, std::size_t max_sweeps) {
  return jacobi_sweeps<4>(m, threshold2, negligible, max_sweeps);
}
#endif

}  // namespace safe::linalg::detail
