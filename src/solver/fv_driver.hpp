// The finite-volume driver both solvers share: everything of an explicit
// temporal-adaptive iteration that does not depend on the physics.
//
// The paper's task decomposition (Algorithm 1) depends on subiteration,
// temporal level, object type and locality, never on the equations. So
// one driver owns the kernel data path (geometry pack, padded state and
// face accumulators, gather tables, the streaming kernels picked once
// from the per-width tables), the level quantisation, the serial
// reference iteration, the task plan and body, and the per-object cell
// update. A solver derives from FvDriver<Solver> and supplies only its
// physics, resolved statically (the scattered task loop makes no
// virtual or indirect call per object):
//
//   static constexpr int kVars;         state variables per cell
//   static constexpr auto kKernels;     its row of simdk::KernelTable
//   double stable_step(index_t c);      per-cell explicit step bound
//   void flux_face(index_t f, double dtf);  per-object reference flux
//   void add_boundary_tally(double);    a boundary sweep's tally
//
// plus the physics constants of ctx_, set in its constructor. Member
// definitions live in fv_driver_impl.hpp; each solver's translation unit
// instantiates its own driver.
#pragma once

#include <memory>
#include <vector>

#include "mesh/mesh.hpp"
#include "runtime/runtime.hpp"
#include "solver/layout.hpp"
#include "solver/simd_kernels.hpp"
#include "support/simd.hpp"
#include "taskgraph/generate.hpp"

namespace tamp::solver {

template <class Physics>
class FvDriver {
public:
  // ctx_ points into this object's buffers: a move keeps them in
  // place, a copy would not.
  FvDriver(const FvDriver&) = delete;
  FvDriver& operator=(const FvDriver&) = delete;
  FvDriver(FvDriver&&) noexcept = default;

  /// Quantise the per-cell stable steps onto the ×2 level ladder, write
  /// the levels into the mesh, and fix Δt0 (the finest step). Returns
  /// the level vector.
  std::vector<level_t> assign_temporal_levels();

  [[nodiscard]] double dt0() const { return dt0_; }
  [[nodiscard]] double time() const { return time_; }

  /// One full iteration (2^τmax subiterations), serial reference order:
  /// subiterations ascending, phases descending, faces before cells.
  void run_iteration();

  /// One full iteration executed as a task graph on the threaded runtime.
  /// Produces bitwise the same physics as run_iteration() (object lists
  /// are deterministic, and each object is touched by exactly one task).
  runtime::ExecutionReport run_iteration_tasks(
      const std::vector<part_t>& domain_of_cell, part_t ndomains,
      const std::vector<part_t>& domain_to_process,
      const runtime::RuntimeConfig& runtime_config);

  /// One iteration as a reusable (graph, body) pair for custom execution
  /// — the race verifier, adversarial-schedule sweeps, per-subiteration
  /// slicing. Running `body` once per task in any DAG-consistent order
  /// advances this solver exactly like run_iteration_tasks(); call
  /// note_tasks_complete() afterwards to advance the clock. The body
  /// shares ownership of its object lists and stays valid as long as the
  /// solver does, independent of the struct or graph.
  struct IterationTasks {
    taskgraph::TaskGraph graph;
    runtime::TaskBody body;
  };
  IterationTasks make_iteration_tasks(
      const std::vector<part_t>& domain_of_cell, part_t ndomains);

  /// Bind a task body to a pre-built (graph, class map) pair — the
  /// asynchronous pipeline generates the graph on the prep stage and
  /// binds it here at the iteration boundary, without regenerating
  /// anything. `graph` and `*classes` must come from one
  /// generate_task_graph call on a mesh whose topology and temporal
  /// levels match this solver's mesh at bind time. Tasks whose class is
  /// one contiguous id run stream it through the kernel table; scattered
  /// classes walk their object list with the per-object kernels.
  runtime::TaskBody make_iteration_body(
      const taskgraph::TaskGraph& graph,
      std::shared_ptr<const taskgraph::ClassMap> classes);

  /// Advance the solver clock after an externally-executed iteration's
  /// tasks all ran.
  void note_tasks_complete();

  /// The SIMD tier the streaming kernels actually run (config request
  /// resolved against the CPU at construction).
  [[nodiscard]] simd::Level simd_level() const { return simd_level_; }

protected:
  /// Binds to `mesh` (whose temporal levels assign_temporal_levels()
  /// rewrites). The mesh must outlive the solver.
  FvDriver(mesh::Mesh& mesh, level_t max_levels, simd::Request simd);

  /// Per-object reference cell update: gathers and resets the cell's
  /// side of every adjacent face accumulator, in mesh.cell_faces order,
  /// recording its accesses inline when instrumented.
  void update_cell(index_t c);

  /// Column of the combined accumulator holding side `side` of variable v.
  [[nodiscard]] static int acc_col(int side, int v) {
    return side * Physics::kVars + v;
  }

  mesh::Mesh& mesh_;
  /// Cell state, padded SoA: u_.var(v)[cell].
  PaddedVars u_;
  /// Face accumulators, both sides folded into one buffer so the update
  /// gather reaches either side from one base pointer per variable: side
  /// s of variable v is acc_.var(acc_col(s, v))[face].
  PaddedVars acc_;
  /// Pointers into the buffers above for the streaming kernels; the
  /// solver fills in its physics constants.
  simdk::KernelCtx ctx_;
  double dt0_ = 0;
  double time_ = 0;

private:
  Physics& physics() { return static_cast<Physics&>(*this); }

  level_t max_levels_;
  KernelGeometry geom_;
  /// Gather addressing (layout.hpp): per-CSR-entry combined-buffer slot
  /// and ±1 side sign.
  std::vector<index_t> gather_slot_;
  std::vector<double> gather_sign_;
  simd::Level simd_level_;
  simdk::KernelSet kernels_;
};

}  // namespace tamp::solver
