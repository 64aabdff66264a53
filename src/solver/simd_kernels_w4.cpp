// Width-4 kernel table, the avx2 tier. CMake builds this one TU, with
// -mavx2, only where the compiler accepts the flag, making Pack<4> the
// hand-written __m256d pack with hardware gathers. Everything
// ISA-sensitive here has internal linkage (see simd_kernels_impl.hpp) —
// only the table is exported, constinit so no AVX2 code runs at static
// initialisation, and a solver picks it only when simd::Level::avx2
// resolved runnable.
#include "solver/simd_kernels.hpp"
#include "solver/simd_kernels_impl.hpp"

namespace tamp::solver::simdk {

constinit const KernelTable kKernelsW4 = make_kernel_table<4>();

}  // namespace tamp::solver::simdk
