// Passive scalar transport (advection–diffusion) with adaptive time
// stepping — the library's second solver.
//
// Solves ∂φ/∂t + ∇·(u φ) = D ∇²φ for a passive scalar φ carried by a
// constant velocity field u, on the same temporal-level machinery as the
// Euler solver: first-order upwind convective flux + two-point diffusive
// flux, integrated through per-side face accumulators so the scheme is
// exactly conservative and its task-parallel execution is race-free
// under the class dependencies. Boundaries are upwind inflow/outflow
// (inflow carries the configured ambient value; diffusive wall flux is
// zero), and the outflowed scalar is tracked so that
// total_scalar() + net_boundary_outflow() is an exact invariant.
//
// Why a second solver: it exercises the partitioning → task-graph →
// runtime path with a different kernel set and admits sharp analytic
// properties the Euler equations do not — a discrete maximum principle
// (upwind+diffusion create no new extrema under the CFL bound) and exact
// scalar-mass conservation, both asserted by the property tests.
#pragma once

#include <atomic>
#include <optional>

#include "mesh/mesh.hpp"
#include "solver/fv_driver.hpp"
#include "support/simd.hpp"

namespace tamp::solver {

struct TransportConfig {
  mesh::Vec3 velocity{1.0, 0.0, 0.0};  ///< constant advecting field
  double diffusivity = 0.0;            ///< D ≥ 0
  /// Scalar value carried by inflow boundary faces.
  double ambient = 0.0;
  /// Safety factor on the combined advective + diffusive step bound.
  double cfl = 0.2;
  level_t max_levels = 4;
  /// SIMD tier for the streaming kernels (same semantics as
  /// SolverConfig::simd: unset means TAMP_SIMD).
  std::optional<simd::Level> simd;
};

/// Levels, iteration and task execution come from FvDriver; the state
/// is the one variable φ.
class TransportSolver : public FvDriver<TransportSolver> {
public:
  TransportSolver(mesh::Mesh& mesh, TransportConfig config = {});

  /// φ = value everywhere.
  void initialize_uniform(double value);
  /// Superimpose a Gaussian blob.
  void add_blob(mesh::Vec3 center, double radius, double amplitude);
  /// Set one cell directly.
  void set_value(index_t cell, double value);

  /// Σ V·φ corrected by in-flight accumulators (scalar pending on a
  /// boundary face counts as already departed).
  [[nodiscard]] double total_scalar() const;
  /// Cumulative scalar that crossed the boundary (outflow − inflow).
  /// total_scalar() + net_boundary_outflow() is constant to rounding.
  [[nodiscard]] double net_boundary_outflow() const {
    return boundary_net_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double value(index_t cell) const {
    return u_.at(0, kernel_cell(cell));
  }
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;
  [[nodiscard]] bool values_finite() const;

private:
  friend class FvDriver<TransportSolver>;
  static constexpr int kVars = 1;
  static constexpr auto kKernels = &simdk::KernelTable::transport;

  /// CFL · min(h/|u|, h²/(6D)) with h the cube root of the cell volume.
  [[nodiscard]] double stable_step(index_t c) const;
  /// Per-object reference flux of mesh face f (serial path).
  void flux_face(index_t f, double dtf);
  /// One atomic add per face task (the tally is a diagnostic, compared
  /// within a tolerance, never bitwise).
  void add_boundary_tally(double tally) {
    if (tally != 0.0)
      boundary_net_.fetch_add(tally, std::memory_order_relaxed);
  }

  TransportConfig config_;
  /// Atomic: boundary face tasks of different classes may run
  /// concurrently and all credit the same counter.
  std::atomic<double> boundary_net_{0.0};
};

extern template class FvDriver<TransportSolver>;

}  // namespace tamp::solver
