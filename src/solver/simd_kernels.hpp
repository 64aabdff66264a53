// Per-width tables of the solver streaming kernels.
//
// The three streaming sweeps — interior flux, boundary flux, cell
// update — are written once, as lane-width templates in
// simd_kernels_impl.hpp. Each solver picks its row of one width's table
// at construction (solver/fv_driver.hpp), for the level simd::resolve
// gives its config: width 1 is the scalar tier, width 2 the sse2 tier,
// width 4 the avx2 tier. The 4-lane table lives in its own translation
// unit so it can be compiled with -mavx2 without leaking AVX2 code into
// baseline objects: simd_kernels_w2.cpp exports the width-1 table and,
// where __SSE2__ is defined, the width-2 one; simd_kernels_w4.cpp, built
// only where the compiler takes -mavx2, the width-4 one. A tier without
// its table is never resolved to. All instantiate the same templates,
// so the tiers differ only in lane count, never in expression shape.
//
// KernelCtx is a plain pointer bundle into solver-owned storage; it
// borrows, never owns. Keep this header light: it is included from a TU
// built with wider -m flags, so anything defined here must be
// ISA-neutral (declarations and PODs only).
//
// Accumulator addressing: the solvers fold the two accumulator sides
// into one PaddedVars so the cell-update gather can pull either side
// through a single base pointer per variable. With nv state variables,
// side s of variable v is column s * nv + v. The flux kernels see the
// columns as acc0[v] / acc1[v]; the update kernel gathers from base
// acc0[v] at slot face + side * nv * stride.
#pragma once

#include "support/simd.hpp"
#include "support/types.hpp"

namespace tamp::solver::simdk {

/// Most state variables a kernel handles (the five Euler variables).
inline constexpr int kMaxVars = 5;

struct KernelCtx {
  double* u[kMaxVars] = {};     ///< cell state columns
  double* acc0[kMaxVars] = {};  ///< side-0 columns; update gather bases
  double* acc1[kMaxVars] = {};  ///< side-1 columns
  const index_t* face_a = nullptr;
  const index_t* face_b = nullptr;
  const double* nx = nullptr;
  const double* ny = nullptr;
  const double* nz = nullptr;
  const double* area = nullptr;
  const double* dist = nullptr;
  const double* inv_vol = nullptr;
  const eindex_t* xadj = nullptr;  ///< gather CSR offsets (num_cells + 1)
  const index_t* slot = nullptr;   ///< face + side * side_offset per entry
  const double* sign = nullptr;    ///< -1.0 (side 0) / +1.0 (side 1)
  double gamma = 0.0;              ///< Euler: ratio of specific heats
  double vx = 0.0, vy = 0.0, vz = 0.0;  ///< transport: advection velocity
  double diffusivity = 0.0;             ///< transport
  double ambient = 0.0;                 ///< transport: inflow value
};

/// Flux over the interior faces [begin, end) at face step dtf.
using InteriorFlux = void (*)(const KernelCtx&, index_t begin, index_t end,
                              double dtf);
/// Flux over the boundary faces [begin, end); returns the sub-range's
/// boundary tally (transport: net scalar outflow, a tolerance-only
/// diagnostic summed from lane partials; Euler: 0).
using BoundaryFlux = double (*)(const KernelCtx&, index_t begin, index_t end,
                                double dtf);
/// Gather-and-reset cell update over the cells [begin, end).
using CellUpdate = void (*)(const KernelCtx&, index_t begin, index_t end);

struct KernelSet {
  InteriorFlux interior = nullptr;
  BoundaryFlux boundary = nullptr;
  CellUpdate update = nullptr;
};

/// One lane width's kernels, one row per solver.
struct KernelTable {
  KernelSet euler;
  KernelSet transport;
};

extern const KernelTable kKernelsW1;  ///< scalar tier
extern const KernelTable kKernelsW2;  ///< sse2 tier (where __SSE2__)
extern const KernelTable kKernelsW4;  ///< avx2 tier (x86)

/// The table a resolved level runs (defined in simd_kernels_w2.cpp, so
/// no code of this header is compiled with the 4-lane TU's flags).
[[nodiscard]] const KernelTable& kernel_table(simd::Level level);

}  // namespace tamp::solver::simdk
