// Width-4 kernel table. CMake compiles this one TU with -mavx2 when the
// compiler accepts the flag (publishing TAMP_SIMD_MAVX2 so
// simd::level_runnable knows), making Pack<4> the hand-written __m256d
// specialisation with hardware gathers; without the flag it is the
// portable 4-lane fallback, runnable on any CPU. Everything
// ISA-sensitive here has internal linkage (see simd_kernels_impl.hpp) —
// only the table is exported, constinit so no AVX2 code runs at static
// initialisation, and a solver picks it only when simd::Level::avx2
// resolved runnable.
#include "solver/simd_kernels.hpp"
#include "solver/simd_kernels_impl.hpp"

namespace tamp::solver::simdk {

constinit const KernelTable kKernelsW4 = make_kernel_table<4>();

}  // namespace tamp::solver::simdk
