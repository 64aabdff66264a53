// Explicit compressible-Euler finite-volume solver with adaptive
// time stepping — the FLUSEPA-substitute core.
//
// Space: cell-centred finite volumes, Rusanov (local Lax–Friedrichs)
// fluxes, slip-wall boundaries. Time: the paper's temporal-level scheme —
// cell c advances with Δt·2^τ(c), an iteration spans 2^τmax subiterations,
// faces refresh at the finer neighbour's rate.
//
// Flux coupling across level interfaces uses per-side face accumulators:
// a face flux evaluation integrates F·area·Δt_face into both sides'
// accumulators; a cell update gathers and resets *its* side. This makes
// the scheme exactly conservative at the discrete level (the invariant
// Σ V·U − Σ A_side0 + Σ A_side1 is constant to rounding at every instant)
// and — together with the task graph's class dependencies — data-race-free
// under parallel task execution: every accumulator slot has exactly one
// writing task class, ordered against its readers by the DAG.
//
// The time integrator within a subiteration is forward Euler; FLUSEPA's
// Heun (second order) changes per-update cost, not task-graph structure
// (see DESIGN.md). A synchronous Heun integrator is provided for
// single-level meshes and used by the accuracy tests.
#pragma once

#include <array>
#include <optional>

#include "mesh/mesh.hpp"
#include "solver/fv_driver.hpp"
#include "support/simd.hpp"
#include "taskgraph/generate.hpp"

namespace tamp::solver {

/// Number of conserved variables: ρ, ρu, ρv, ρw, ρE.
inline constexpr int kNumVars = 5;

using State = std::array<double, kNumVars>;

struct SolverConfig {
  double gamma = 1.4;  ///< ratio of specific heats
  /// CFL number for the per-cell time-step bound. The level-interface
  /// coupling consumes fluxes with up to one full cell-step of lag, which
  /// empirically halves the stable CFL versus synchronous integration —
  /// hence the conservative default (0.4 is stable on single-level
  /// meshes; FLUSEPA's Heun + flux-correction scheme tolerates more).
  double cfl = 0.2;
  level_t max_levels = 4;  ///< cap on the number of temporal levels
  /// SIMD tier for the streaming kernels, resolved once at construction
  /// (simd::resolve): unset means TAMP_SIMD, and a tier the build or CPU
  /// lacks clamps down. `scalar` forces the width-1 kernels.
  std::optional<simd::Level> simd;
};

/// Levels, iteration and task execution come from FvDriver.
class EulerSolver : public FvDriver<EulerSolver> {
public:
  /// Binds to `mesh` (whose temporal levels assign_temporal_levels()
  /// rewrites). The mesh must outlive the solver.
  EulerSolver(mesh::Mesh& mesh, SolverConfig config = {});

  // --- state initialisation -------------------------------------------------

  /// Uniform primitive state everywhere.
  void initialize_uniform(double rho, mesh::Vec3 velocity, double pressure);

  /// Superimpose a Gaussian density/pressure pulse (isentropic-ish bump).
  void add_pulse(mesh::Vec3 center, double radius, double relative_amplitude);

  // --- execution ---------------------------------------------------------------

  /// Synchronous second-order Heun iteration; requires a single-level
  /// mesh (used by accuracy tests).
  void run_iteration_heun();

  // --- observables ----------------------------------------------------------------

  /// Conservation invariant: Σ V·U corrected by in-flight accumulators.
  /// Exactly constant across updates for mass and energy (slip walls add
  /// momentum through wall pressure).
  [[nodiscard]] State conserved_totals() const;

  [[nodiscard]] double cell_density(index_t c) const {
    return u_.at(0, kernel_cell(c));
  }
  /// Raw conserved state of one cell (for bitwise-equality assertions).
  [[nodiscard]] State cell_state(index_t c) const {
    const index_t k = kernel_cell(c);
    return {u_.at(0, k), u_.at(1, k), u_.at(2, k), u_.at(3, k), u_.at(4, k)};
  }
  [[nodiscard]] double cell_pressure(index_t c) const;
  [[nodiscard]] mesh::Vec3 cell_velocity(index_t c) const;
  [[nodiscard]] double max_density() const;
  [[nodiscard]] bool state_is_finite() const;

  // --- cost calibration -------------------------------------------------------------

  /// Measure seconds per face-flux evaluation and per cell update by
  /// timing the kernels on this mesh (used to calibrate CostModel for the
  /// production experiment, Fig 13).
  [[nodiscard]] taskgraph::CostModel measure_cost_model(int repetitions = 3);

private:
  friend class FvDriver<EulerSolver>;
  static constexpr int kVars = kNumVars;
  static constexpr auto kKernels = &simdk::KernelTable::euler;

  /// CFL · h / (|u| + c) with h the cube root of the cell volume.
  [[nodiscard]] double stable_step(index_t c) const;
  /// Per-object reference flux of mesh face f (serial path).
  void flux_face(index_t f, double dtf);
  /// Euler tracks no boundary tally (its boundary kernels return 0).
  void add_boundary_tally(double /*tally*/) {}
  State wall_flux(const State& inside, mesh::Vec3 n) const;
  State interior_flux(const State& left, const State& right,
                      mesh::Vec3 n) const;
  [[nodiscard]] double wave_speed(const State& u) const;

  SolverConfig config_;
};

extern template class FvDriver<EulerSolver>;

}  // namespace tamp::solver
