// Width-templated bodies of the streaming kernels. Included ONLY by the
// per-width translation units (simd_kernels_w2.cpp /
// simd_kernels_w4.cpp); everything here is in an anonymous namespace so
// each TU keeps its own copies compiled for its own -m flags (the same
// internal-linkage trick as support/simd_pack.hpp — no COMDAT merging
// of AVX2 bodies into baseline code).
//
// Equivalence contract (DESIGN.md "SIMD kernel contract"): every kernel
// is a lane-for-lane transcription of the per-object reference kernels'
// expression trees (EulerSolver/TransportSolver::flux_face,
// FvDriver::update_cell) — same association, same max/compare
// semantics, no FMA contraction, no horizontal reductions on the physics
// path. The Pack<1> instantiation is the scalar tier, and the wider
// tiers hand their remainders to it, so range splits never change
// results. Two deliberate differences from the per-object kernels, both
// documented at the use site: the Euler boundary kernel skips the inert
// side-1 deposit, and the transport boundary tally is a per-range sum
// (tolerance-only diagnostic by contract).
#pragma once

#include <cstddef>

#include "solver/simd_kernels.hpp"
#include "support/simd_pack.hpp"

namespace tamp::solver::simdk {
namespace {  // NOLINT — per-TU copies, see file header

template <int W>
using Pack = tamp::simd::Pack<W>;

/// Conserved Euler variables (KernelCtx's columns are sized for them).
constexpr int kEulerVars = kMaxVars;

/// Shared lanewise pieces of the Euler physics, mirroring euler.cpp's
/// kinetic() / wave_speed() / interior_flux() shapes exactly.
template <int W>
struct EulerMath {
  using P = Pack<W>;
  P gamma, gm1, half, floor12;

  explicit EulerMath(double gamma_in)
      : gamma(P::broadcast(gamma_in)),
        gm1(P::broadcast(gamma_in - 1.0)),
        half(P::broadcast(0.5)),
        floor12(P::broadcast(1e-12)) {}

  // 0.5 * (u1*u1 + u2*u2 + u3*u3) / u0, rho unclamped as in kinetic().
  P kinetic(const P u[kEulerVars]) const {
    return (half * (((u[1] * u[1]) + (u[2] * u[2])) + (u[3] * u[3]))) / u[0];
  }

  P pressure(const P u[kEulerVars]) const {
    return max(gm1 * (u[4] - kinetic(u)), floor12);
  }

  P wave_speed(const P u[kEulerVars]) const {
    const P rho = max(u[0], floor12);
    const P p = pressure(u);
    const P c = sqrt((gamma * p) / rho);
    const P speed =
        sqrt(((u[1] * u[1]) + (u[2] * u[2])) + (u[3] * u[3])) / rho;
    return speed + c;
  }

  // physical() from interior_flux: F(u)·n with clamped rho for velocity.
  void physical(const P u[kEulerVars], P nx, P ny, P nz,
                P f_out[kEulerVars]) const {
    const P rho = max(u[0], floor12);
    const P vx = u[1] / rho;
    const P vy = u[2] / rho;
    const P vz = u[3] / rho;
    const P p = pressure(u);
    const P un = ((vx * nx) + (vy * ny)) + (vz * nz);
    f_out[0] = rho * un;
    f_out[1] = (u[1] * un) + (p * nx);
    f_out[2] = (u[2] * un) + (p * ny);
    f_out[3] = (u[3] * un) + (p * nz);
    f_out[4] = (u[4] + p) * un;
  }
};

template <int W>
void euler_flux_interior_t(const KernelCtx& ctx, index_t begin,
                           index_t end, double dtf) {
  using P = Pack<W>;
  const EulerMath<W> m(ctx.gamma);
  const P dtfp = P::broadcast(dtf);
  index_t f = begin;
  for (; f + W <= end; f += W) {
    P ua[kEulerVars], ub[kEulerVars];
    for (int v = 0; v < kEulerVars; ++v) {
      ua[v] = P::gather(ctx.u[v], ctx.face_a + f);
      ub[v] = P::gather(ctx.u[v], ctx.face_b + f);
    }
    const P nx = P::load(ctx.nx + f);
    const P ny = P::load(ctx.ny + f);
    const P nz = P::load(ctx.nz + f);
    P fl[kEulerVars], fr[kEulerVars];
    m.physical(ua, nx, ny, nz, fl);
    m.physical(ub, nx, ny, nz, fr);
    // Rusanov: 0.5*(fl+fr) - (0.5*smax)*(ub-ua), as in interior_flux().
    const P hsmax = m.half * max(m.wave_speed(ua), m.wave_speed(ub));
    const P scale = P::load(ctx.area + f) * dtfp;
    for (int v = 0; v < kEulerVars; ++v) {
      const P flux = (m.half * (fl[v] + fr[v])) - (hsmax * (ub[v] - ua[v]));
      const P amount = flux * scale;
      (P::load(ctx.acc0[v] + f) + amount).store(ctx.acc0[v] + f);
      (P::load(ctx.acc1[v] + f) + amount).store(ctx.acc1[v] + f);
    }
  }
  if constexpr (W > 1)
    if (f < end) euler_flux_interior_t<1>(ctx, f, end, dtf);
}

template <int W>
double euler_flux_boundary_t(const KernelCtx& ctx, index_t begin,
                             index_t end, double dtf) {
  using P = Pack<W>;
  const EulerMath<W> m(ctx.gamma);
  const P dtfp = P::broadcast(dtf);
  const P zero = P::broadcast(0.0);
  index_t f = begin;
  for (; f + W <= end; f += W) {
    P ua[kEulerVars];
    for (int v = 0; v < kEulerVars; ++v)
      ua[v] = P::gather(ctx.u[v], ctx.face_a + f);
    const P nx = P::load(ctx.nx + f);
    const P ny = P::load(ctx.ny + f);
    const P nz = P::load(ctx.nz + f);
    // Slip wall (wall_flux): only momentum feels the wall pressure.
    const P p = m.pressure(ua);
    const P flux[kEulerVars] = {zero, p * nx, p * ny, p * nz, zero};
    const P scale = P::load(ctx.area + f) * dtfp;
    // Side 0 only: the side-1 deposit of a boundary face is inert (no
    // cell gathers it — see layout.hpp), so every tier skips it; only
    // the per-object reference flux_face makes it.
    for (int v = 0; v < kEulerVars; ++v) {
      const P amount = flux[v] * scale;
      (P::load(ctx.acc0[v] + f) + amount).store(ctx.acc0[v] + f);
    }
  }
  if constexpr (W > 1)
    if (f < end) euler_flux_boundary_t<1>(ctx, f, end, dtf);
  return 0.0;
}

template <int W>
void transport_flux_interior_t(const KernelCtx& ctx, index_t begin,
                               index_t end, double dtf) {
  using P = Pack<W>;
  const P vx = P::broadcast(ctx.vx);
  const P vy = P::broadcast(ctx.vy);
  const P vz = P::broadcast(ctx.vz);
  const P dtfp = P::broadcast(dtf);
  const P zero = P::broadcast(0.0);
  const P diff = P::broadcast(ctx.diffusivity);
  index_t f = begin;
  for (; f + W <= end; f += W) {
    const P nx = P::load(ctx.nx + f);
    const P ny = P::load(ctx.ny + f);
    const P nz = P::load(ctx.nz + f);
    const P un = ((vx * nx) + (vy * ny)) + (vz * nz);
    const P phi_a = P::gather(ctx.u[0], ctx.face_a + f);
    const P phi_b = P::gather(ctx.u[0], ctx.face_b + f);
    // un * (un >= 0 ? phi_a : phi_b): >= is the same ordered compare.
    P flux = un * P::select(ge(un, zero), phi_a, phi_b);
    if (ctx.diffusivity > 0)
      flux = flux - ((diff * (phi_b - phi_a)) / P::load(ctx.dist + f));
    const P amount = (flux * P::load(ctx.area + f)) * dtfp;
    (P::load(ctx.acc0[0] + f) + amount).store(ctx.acc0[0] + f);
    (P::load(ctx.acc1[0] + f) + amount).store(ctx.acc1[0] + f);
  }
  if constexpr (W > 1)
    if (f < end) transport_flux_interior_t<1>(ctx, f, end, dtf);
}

template <int W>
double transport_flux_boundary_t(const KernelCtx& ctx, index_t begin,
                                 index_t end, double dtf) {
  using P = Pack<W>;
  const P vx = P::broadcast(ctx.vx);
  const P vy = P::broadcast(ctx.vy);
  const P vz = P::broadcast(ctx.vz);
  const P dtfp = P::broadcast(dtf);
  const P zero = P::broadcast(0.0);
  const P ambient = P::broadcast(ctx.ambient);
  P net_lanes = zero;
  double net = 0.0;
  index_t f = begin;
  for (; f + W <= end; f += W) {
    const P nx = P::load(ctx.nx + f);
    const P ny = P::load(ctx.ny + f);
    const P nz = P::load(ctx.nz + f);
    const P un = ((vx * nx) + (vy * ny)) + (vz * nz);
    const P phi_a = P::gather(ctx.u[0], ctx.face_a + f);
    const P flux = un * P::select(ge(un, zero), phi_a, ambient);
    const P amount = (flux * P::load(ctx.area + f)) * dtfp;
    (P::load(ctx.acc0[0] + f) + amount).store(ctx.acc0[0] + f);
    net_lanes = net_lanes + amount;
  }
  // Horizontal sum — allowed here only because the boundary tally is a
  // tolerance-compared diagnostic, never physics.
  net = net_lanes.hsum();
  if constexpr (W > 1)
    if (f < end) net += transport_flux_boundary_t<1>(ctx, f, end, dtf);
  return net;
}

/// Gather-CSR cell update, shared by both solvers (NV = number of
/// state/accumulator variables; transport is NV = 1). Vector path: W
/// consecutive cells with equal face counts d and contiguous CSR rows
/// form a W×d block whose slots are read with stride-d gathers; the
/// accumulator reset is fused in as scalar zero-stores (no scatter in
/// AVX2). Any cell breaking the uniform-degree pattern — and the final
/// cells of the range — runs the one-cell body, which is the per-object
/// update_cell's arithmetic in CSR order.
template <int W, int NV>
void update_cells_t(const KernelCtx& ctx, index_t begin, index_t end) {
  using P = Pack<W>;
  double* const* u = ctx.u;
  double* const* acc = ctx.acc0;
  const double* inv_vol = ctx.inv_vol;
  const eindex_t* xadj = ctx.xadj;
  const index_t* slot = ctx.slot;
  const double* sign = ctx.sign;
  const auto scalar_cell = [&](index_t c) {
    const double inv_v = inv_vol[c];
    for (eindex_t k = xadj[c]; k < xadj[c + 1]; ++k) {
      const double s = sign[k];
      for (int v = 0; v < NV; ++v) {
        u[v][c] += (s * acc[v][slot[k]]) * inv_v;
        acc[v][slot[k]] = 0.0;
      }
    }
  };
  index_t c = begin;
  if constexpr (W > 1) {
    while (c + W <= end) {
      const eindex_t k0 = xadj[c];
      const eindex_t deg = xadj[c + 1] - k0;
      bool uniform = true;
      for (int l = 2; l <= W; ++l)
        if (xadj[c + l] != k0 + static_cast<eindex_t>(l) * deg) {
          uniform = false;
          break;
        }
      if (!uniform) {
        scalar_cell(c);
        ++c;
        continue;
      }
      const auto d = static_cast<std::ptrdiff_t>(deg);
      const index_t* sl = slot + k0;
      const double* sg = sign + k0;
      const P inv_v = P::load(inv_vol + c);
      P uv[NV];
      for (int v = 0; v < NV; ++v) uv[v] = P::load(u[v] + c);
      for (std::ptrdiff_t j = 0; j < d; ++j) {
        const P s = P::load_strided(sg + j, d);
        for (int v = 0; v < NV; ++v) {
          const P a = P::gather(acc[v], sl + j, d);
          // u += (sign * acc) * inv_v, as in update_cell.
          uv[v] = uv[v] + ((s * a) * inv_v);
        }
      }
      for (int v = 0; v < NV; ++v) uv[v].store(u[v] + c);
      for (eindex_t k = k0; k < k0 + static_cast<eindex_t>(W) * deg; ++k)
        for (int v = 0; v < NV; ++v) acc[v][slot[k]] = 0.0;
      c += W;
    }
  }
  for (; c < end; ++c) scalar_cell(c);
}

/// The kernel table of lane width W.
template <int W>
constexpr KernelTable make_kernel_table() {
  return {{euler_flux_interior_t<W>, euler_flux_boundary_t<W>,
           update_cells_t<W, kEulerVars>},
          {transport_flux_interior_t<W>, transport_flux_boundary_t<W>,
           update_cells_t<W, 1>}};
}

}  // namespace
}  // namespace tamp::solver::simdk
