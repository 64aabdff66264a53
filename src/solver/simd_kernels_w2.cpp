// Width-1 and width-2 kernel tables, and the level → table lookup.
// Compiled with the project's baseline flags: on x86-64 that already
// includes SSE2, so Pack<2> is the hand-written __m128d specialisation;
// elsewhere it is the portable fallback. Pack<1> is the scalar tier.
#include "solver/simd_kernels.hpp"
#include "solver/simd_kernels_impl.hpp"

namespace tamp::solver::simdk {

constinit const KernelTable kKernelsW1 = make_kernel_table<1>();
constinit const KernelTable kKernelsW2 = make_kernel_table<2>();

const KernelTable& kernel_table(simd::Level level) {
  switch (level) {
    case simd::Level::avx2:
      return kKernelsW4;
    case simd::Level::sse2:
      return kKernelsW2;
    case simd::Level::scalar:
      break;
  }
  return kKernelsW1;
}

}  // namespace tamp::solver::simdk
