// Width-1 and width-2 kernel tables, and the level → table lookup.
// Compiled with the project's baseline flags. Pack<1> is the scalar
// tier; the 2-lane table exists only where those flags define __SSE2__
// (every x86-64 build), with Pack<2> the hand-written __m128d pack.
#include "solver/simd_kernels.hpp"
#include "solver/simd_kernels_impl.hpp"

namespace tamp::solver::simdk {

constinit const KernelTable kKernelsW1 = make_kernel_table<1>();
#if defined(__SSE2__)
constinit const KernelTable kKernelsW2 = make_kernel_table<2>();
#endif

const KernelTable& kernel_table(simd::Level level) {
  // The same guards as simd::level_runnable: a resolved level names a
  // table this build has.
  switch (level) {
#if defined(__x86_64__) || defined(__i386__)
    case simd::Level::avx2:
      return kKernelsW4;
#endif
#if defined(__SSE2__)
    case simd::Level::sse2:
      return kKernelsW2;
#endif
    default:
      return kKernelsW1;
  }
}

}  // namespace tamp::solver::simdk
