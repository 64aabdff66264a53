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
// physics, resolved statically:
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
//
// Kernel layout. The driver keeps its kernel data — geometry pack,
// gather tables, state u_ and accumulators acc_ — in a class-contiguous
// order it chooses and owns (layout.hpp class_layout), so every task
// streams its class as a few runs of kernel ids through the kernel
// table. The caller's mesh, the task graph and its class map, and every
// public accessor keep mesh ids; layout_ maps them. Each bind cuts the
// class lists into runs under the current layout and relays the data out
// when those runs exceed a fresh layout's by more than one per
// kObjectsPerExtraRun objects — the construction-time mesh order falls
// under the same rule at the first bind. A bind of the map already bound
// reuses its runs; a bind handed the class moves from the bound map
// (taskgraph::ClassDelta, as the iteration pipeline's patched snapshots
// carry) re-cuts only the lists they touch (update_class_runs); any
// other bind walks every list (build_class_runs). Both give the same
// runs, so the relayouts fall on the same binds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mesh/mesh.hpp"
#include "runtime/runtime.hpp"
#include "solver/layout.hpp"
#include "solver/simd_kernels.hpp"
#include "support/simd.hpp"
#include "taskgraph/generate.hpp"

namespace tamp::solver {

/// A bind relays the kernel data out when its class map's runs exceed a
/// fresh layout's by more than one per this many objects (cells +
/// faces). Chosen by measurement: on the 200k-cell cylinder drifting 5 %
/// per iteration, 8 gave the lowest bind + solve time per iteration of
/// {4, 6, 8, 12, 16, 32, 64} over 100 iterations; 16 and above relay out
/// so often that the ~37 ms relayouts outweigh the faster solve. The
/// cadence follows how many cells change level: on the benchmark's 30-s
/// cylinder leg, 3, 7 and 11 relayouts in iterations 0–29, 30–59 and
/// 60–89, then 15 in every 30 iterations (every second bind) as
/// cells_changed per iteration grew from 1.7k to 9.8k.
inline constexpr std::int64_t kObjectsPerExtraRun = 8;

/// The kernel layout as of the last bind.
struct LayoutStats {
  std::uint64_t relayouts = 0;  ///< relayouts since construction
  /// Binds since construction whose runs came from class moves
  /// (update_class_runs) rather than a walk of every list.
  std::uint64_t derived_binds = 0;
  std::size_t runs = 0;         ///< runs the bound class map streams as
  std::size_t fresh_runs = 0;   ///< runs a layout built from it would give
  index_t objects = 0;          ///< cells + faces

  [[nodiscard]] double objects_per_run() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(objects) / static_cast<double>(runs);
  }
};

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
  /// shares ownership of its run lists, independent of the struct or
  /// graph, and stays valid until the solver relays its data out (see
  /// make_iteration_body).
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
  /// levels match this solver's mesh at bind time, and its lists must
  /// cover every cell and face once. Every task streams its class as
  /// kernel-id runs through the kernel table. The bind may relay the
  /// kernel data out (see the file comment); a body is valid until the
  /// next relayout, and one run after it throws precondition_error — so
  /// run each body before binding the next. When `delta` holds the moves
  /// from the map bound last to `*classes`, the bind costs O(runs +
  /// moves) instead of O(objects); a delta from any other map is
  /// ignored.
  runtime::TaskBody make_iteration_body(
      const taskgraph::TaskGraph& graph,
      std::shared_ptr<const taskgraph::ClassMap> classes,
      const taskgraph::ClassDelta* delta = nullptr);

  /// Advance the solver clock after an externally-executed iteration's
  /// tasks all ran.
  void note_tasks_complete();

  /// The SIMD tier the streaming kernels actually run (the config's
  /// level resolved at construction).
  [[nodiscard]] simd::Level simd_level() const { return simd_level_; }

  [[nodiscard]] const LayoutStats& layout_stats() const { return stats_; }

  /// The kernel layout (old = mesh id, new = kernel id) and the bound
  /// map's runs under it (null before the first bind): what a check of
  /// a bind against build_class_runs compares.
  [[nodiscard]] const MeshPermutation& kernel_layout() const {
    return layout_;
  }
  [[nodiscard]] const ClassRuns* bound_runs() const { return runs_.get(); }

protected:
  /// Binds to `mesh` (whose temporal levels assign_temporal_levels()
  /// rewrites). The mesh must outlive the solver.
  FvDriver(mesh::Mesh& mesh, level_t max_levels,
           std::optional<simd::Level> simd);

  /// Per-object reference cell update of mesh cell c: gathers and
  /// resets the cell's side of every adjacent face accumulator, in
  /// mesh.cell_faces order.
  void update_cell(index_t c);

  /// Kernel id of mesh cell c / mesh face f under the current layout.
  [[nodiscard]] index_t kernel_cell(index_t c) const {
    return layout_.cell_old_to_new[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] index_t kernel_face(index_t f) const {
    return layout_.face_old_to_new[static_cast<std::size_t>(f)];
  }

  /// Column of the combined accumulator holding side `side` of variable v.
  [[nodiscard]] static int acc_col(int side, int v) {
    return side * Physics::kVars + v;
  }

  mesh::Mesh& mesh_;
  /// Cell state in kernel order, padded SoA: u_.var(v)[kernel_cell(c)].
  PaddedVars u_;
  /// Face accumulators in kernel order, both sides folded into one
  /// buffer so the update gather reaches either side from one base
  /// pointer per variable: side s of variable v is
  /// acc_.var(acc_col(s, v))[kernel_face(f)].
  PaddedVars acc_;
  /// Pointers into the buffers above for the streaming kernels; the
  /// solver fills in its physics constants.
  simdk::KernelCtx ctx_;
  double dt0_ = 0;
  double time_ = 0;

private:
  Physics& physics() { return static_cast<Physics&>(*this); }

  /// Point ctx_'s arrays at the kernel data.
  void point_kernel_ctx();
  /// Cut the class lists into runs under the current layout — from
  /// `delta` when it applies to the bound map — relaying the data out
  /// when the rule says so; reuses the previous bind's runs when
  /// `classes` is the bound map itself.
  void bind_layout(std::shared_ptr<const taskgraph::ClassMap> classes,
                   const taskgraph::ClassDelta* delta);
  /// Move the kernel data into class_layout(classes) order; returns the
  /// map's runs under it.
  ClassRuns relayout(const taskgraph::ClassMap& classes);

  level_t max_levels_;
  /// old = mesh id, new = kernel id.
  MeshPermutation layout_;
  KernelGeometry geom_;
  simd::Level simd_level_;
  simdk::KernelSet kernels_;
  /// The last bind's class map and its runs under layout_ (the bodies
  /// bound since share the runs).
  std::shared_ptr<const taskgraph::ClassMap> bound_classes_;
  std::shared_ptr<const ClassRuns> runs_;
  /// Bumped by every relayout; a body runs only at its bind's epoch.
  std::uint64_t layout_epoch_ = 0;
  LayoutStats stats_;
};

}  // namespace tamp::solver
