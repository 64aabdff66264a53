// High-level experiment pipeline: mesh → partition → task graph → schedule.
//
// Two entry points live here:
//
//  * run_on_mesh() — the one-shot pipeline the paper figures are written
//    against: configure a RunConfig, read the outcome (with
//    prepare_on_mesh()/simulate_plan() as its two stages, separately
//    callable so a prepared plan can be scored on its own).
//
//  * run_iteration_pipeline() — the asynchronous two-stage *iteration*
//    pipeline: a real solver advances iteration i on the threaded
//    runtime while iteration i+1's preparation (temporal-level evolve →
//    incremental repartition → task-graph build → runtime bookkeeping)
//    runs as a background task on the work-stealing pool, handing over
//    immutable IterationSnapshots through a depth-1 queue. Overlapped
//    mode is bitwise identical to sync mode at every thread count; see
//    DESIGN.md "Asynchronous pipeline" for the ownership and determinism
//    contract.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "partition/incremental.hpp"
#include "partition/strategy.hpp"
#include "runtime/runtime.hpp"
#include "sim/doctor.hpp"
#include "sim/simulate.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/patch.hpp"

namespace tamp::solver {
class EulerSolver;
class TransportSolver;
}  // namespace tamp::solver

namespace tamp::core {

/// Everything needed to turn a mesh into a simulated execution.
struct RunConfig {
  partition::Strategy strategy = partition::Strategy::sc_oc;
  part_t ndomains = 16;
  part_t nprocesses = 4;
  /// Workers per process; 0 = unbounded (Fig 6 mode).
  int workers_per_process = 4;
  partition::DomainMapping mapping = partition::DomainMapping::block;
  sim::Policy policy = sim::Policy::eager_fifo;
  taskgraph::CostModel cost;
  sim::CommModel comm;  ///< zero by default (idealised FLUSIM)
  simtime_t task_overhead = 0;  ///< per-task runtime cost (see SimOptions)
  /// Run the §IX fragment-repair post-processing on the decomposition
  /// before generating the task graph.
  bool repair_fragments = false;
  int num_iterations = 1;
  double partition_tolerance = 0.05;
  /// Worker threads for the decomposition (partition::Options::num_threads):
  /// >0 = that many, 0 = TAMP_PARTITION_THREADS env (default serial). The
  /// decomposition is bit-identical at every thread count.
  int partition_threads = 0;
  std::uint64_t seed = 1;
};

/// Full outcome of one pipeline run.
struct RunOutcome {
  partition::DomainDecomposition decomposition;
  taskgraph::TaskGraph graph;
  std::vector<part_t> domain_to_process;
  sim::SimResult sim;

  [[nodiscard]] simtime_t makespan() const { return sim.makespan; }
  [[nodiscard]] double occupancy() const { return sim.occupancy(); }
  /// Cross-process communication estimate (paper Fig 11b): the number of
  /// task dependency edges whose endpoints run on different processes
  /// (sim::message_statistics' crossing_edges).
  [[nodiscard]] weight_t comm_volume() const;
};

/// Run the pipeline on an existing mesh (reuse the mesh across strategies
/// to compare them on identical input, as all paper figures do).
RunOutcome run_on_mesh(const mesh::Mesh& mesh, const RunConfig& config);

/// The preparation half of run_on_mesh(): decomposition (+ optional
/// repair), task graph, process map — everything except the simulation.
/// Deterministic in (mesh, config) alone.
struct RunPlan {
  partition::DomainDecomposition decomposition;
  taskgraph::TaskGraph graph;
  std::vector<part_t> domain_to_process;
};
RunPlan prepare_on_mesh(const mesh::Mesh& mesh, const RunConfig& config);

/// The scoring half: simulate a prepared plan under `config`'s cluster /
/// policy / communication knobs.
sim::SimResult simulate_plan(const RunPlan& plan, const RunConfig& config);

/// One-line human summary ("SC_OC: makespan=…, occupancy=…%").
std::string summarize(const RunOutcome& outcome);

// --- asynchronous iteration pipeline ---------------------------------------

enum class PipelineMode { sync, overlap };
[[nodiscard]] const char* to_string(PipelineMode m);
/// Parse "sync" | "overlap".
PipelineMode parse_pipeline_mode(const std::string& name);

/// How prep builds each iteration's task graph.
///
///   off       — generate from scratch every iteration (the unpatched
///               behaviour; also the reference the others must match).
///   automatic — diff-based patching (taskgraph::GraphPatcher) with a
///               full-rebuild fallback above the dirty-fraction
///               threshold. Bit-identical to `off` by construction.
///   oracle    — automatic plus the per-iteration equivalence oracle:
///               every patched graph is checked against a from-scratch
///               rebuild (invariant_error on divergence). Testing /
///               debugging mode; costs a full rebuild per iteration.
enum class PatchPolicy { off, automatic, oracle };
[[nodiscard]] const char* to_string(PatchPolicy p);
/// Parse "off" | "auto" | "oracle".
PatchPolicy parse_patch_policy(const std::string& name);

/// Seeded stage-boundary fault injection: throw a runtime_failure at the
/// entry of one pipeline stage of one iteration ("taskgraph:2" = the
/// task-graph build of snapshot 2). The test hook proving the pipeline
/// drains, rethrows exactly once, and leaks no tasks.
struct PipelineFault {
  enum class Stage : std::uint8_t { none, evolve, repartition, taskgraph,
                                    solve };
  Stage stage = Stage::none;
  int iteration = -1;
};
[[nodiscard]] const char* to_string(PipelineFault::Stage s);
/// Parse "stage:iteration" (stage ∈ evolve|repartition|taskgraph|solve).
PipelineFault parse_pipeline_fault(const std::string& spec);
/// The TAMP_PIPELINE_FAULT environment hook; Stage::none when unset.
PipelineFault pipeline_fault_from_env();

/// Everything iteration i's solve needs, frozen by the prep stage —
/// published once, then immutable. The fingerprint seals levels,
/// domain assignment and graph shape at publish time, and a second seal
/// the class moves; every consumer re-verifies both, so a leaked mutable
/// reference that changes any of them is caught at the next stage
/// boundary (invariant_error).
struct IterationSnapshot {
  int iteration = 0;
  std::vector<level_t> levels;  ///< temporal levels this iteration runs at
  partition::DomainDecomposition decomposition;
  taskgraph::TaskGraph graph;
  /// The previous snapshot's map itself when the patch was a no-op.
  std::shared_ptr<const taskgraph::ClassMap> classes;
  /// The patcher's class moves from the previous snapshot's map to
  /// `classes` (base empty when the graph was generated or rebuilt from
  /// scratch): what lets the solver's bind re-cut only the lists they
  /// touch. Sealed by class_delta_seal.
  taskgraph::ClassDelta class_delta;
  std::vector<part_t> domain_to_process;
  runtime::PreparedGraph prepared;  ///< launch bookkeeping, pre-derived
  /// Prep provenance (zero for snapshot 0, which evolves nothing).
  mesh::EvolveStats evolve;
  partition::IncrementalReport repartition;
  /// How this snapshot's graph was produced (patched vs rebuilt) and at
  /// what dirty fraction; default-initialised when PatchPolicy::off.
  taskgraph::PatchStats patch;
  /// Per-task dirty mask from the patcher (empty when PatchPolicy::off
  /// or for full rebuilds of snapshot 0): the region the race verifier
  /// re-certifies on patched graphs (verify::check_races_region).
  std::vector<char> dirty_tasks;
  std::uint64_t fingerprint = 0;  ///< seal over levels/assignment/graph
  /// Seal over class_delta's moves, apart from `fingerprint` so that
  /// every patch policy publishes the same fingerprint; verified with it.
  std::uint64_t class_delta_seal = 0;
};

struct IterationPipelineConfig {
  PipelineMode mode = PipelineMode::sync;
  int num_iterations = 4;
  /// Per-iteration temporal-level drift fed to mesh::evolve_levels
  /// (paper §III-A: levels evolve slowly — keep this small).
  double drift = 0.05;
  partition::Strategy strategy = partition::Strategy::mc_tl;
  part_t ndomains = 16;
  part_t nprocesses = 1;
  int workers_per_process = 4;
  partition::DomainMapping mapping = partition::DomainMapping::block;
  double partition_tolerance = 0.05;
  /// Threads for the prep pool and the initial decomposition; 0 =
  /// TAMP_PARTITION_THREADS env (overlap mode floors the pool at 2 so a
  /// worker exists to run prep behind the driver's solve).
  int threads = 0;
  std::uint64_t seed = 1;
  /// Forwarded to the solve stage's runtime config (adversarial-schedule
  /// sweeps of the overlapped pipeline).
  runtime::AdversarialSchedule adversarial;
  PipelineFault fault;  ///< Stage::none = no injection
  /// Task-graph production policy (see PatchPolicy). `automatic` is safe
  /// as the default because patched graphs are bit-identical to rebuilt
  /// ones — the cross-mode determinism gates hold regardless.
  PatchPolicy patch = PatchPolicy::automatic;
  /// Dirty-cell fraction above which a patch falls back to a rebuild.
  double patch_threshold = 0.05;
};

/// Per-iteration stage timeline (seconds since pipeline start).
struct PipelineIterationStats {
  int iteration = 0;
  double prep_start = 0, prep_end = 0;    ///< this snapshot's prep stage
  double solve_start = 0, solve_end = 0;  ///< this snapshot's solve stage
  index_t cells_changed = 0;    ///< evolve drift (0 for snapshot 0)
  index_t migrated_cells = 0;   ///< incremental repartition movement
  double max_domain_migration = 0;  ///< worst per-domain migrated fraction
  double dirty_fraction = 0;    ///< cells_changed / total cells
  bool graph_patched = false;   ///< task graph diff-patched (vs rebuilt)
  bool decomposition_reused = false;  ///< zero drift: previous assignment
                                      ///< reused verbatim, no repartition
  /// The repartition left every domain within its allowance
  /// (IncrementalReport::balanced; carried over by a reused assignment,
  /// true for snapshot 0, which no repartition made).
  bool balanced = true;
};

struct PipelineRunReport {
  std::vector<PipelineIterationStats> iterations;
  sim::StageOverlapReport overlap;
};

/// How the pipeline drives a solver, expressed as hooks so Euler and
/// transport (and tests' instrumented wrappers) share one driver:
/// make_body binds a snapshot's pre-built (graph, classes, class delta)
/// to the solver — called on the driver thread *after* the snapshot's
/// levels were applied to the live mesh; note_complete advances the solver
/// clock; observer (optional) runs after each iteration's solve with the
/// consumed snapshot and the runtime report.
struct SolverHooks {
  std::function<runtime::TaskBody(const IterationSnapshot&)> make_body;
  std::function<void()> note_complete;
  std::function<void(const IterationSnapshot&,
                     const runtime::ExecutionReport&)>
      observer;
};

/// Run `config.num_iterations` solver iterations over an evolving mesh.
/// `live_mesh` is the mesh the solver is bound to; its temporal levels
/// must be assigned (solver assign_temporal_levels()) before the call.
/// The pipeline keeps a private planning copy: prep stages mutate only
/// the copy, the live mesh changes only at iteration boundaries on the
/// driver thread (set_cell_levels from the consumed snapshot), so
/// overlap mode shares no mutable state between concurrent stages and
/// is bitwise identical to sync mode by construction.
///
/// Exceptions: the first stage failure (or injected fault) cancels
/// outstanding prep at the next stage boundary, drains the pool, and is
/// rethrown exactly once; an earlier iteration's solve failure wins over
/// a concurrent later prep failure.
PipelineRunReport run_iteration_pipeline(mesh::Mesh& live_mesh,
                                         const IterationPipelineConfig& config,
                                         const SolverHooks& hooks);

/// Standard hooks for the two solvers (tests/examples/benches). The
/// optional `wrap_body` decorates each iteration's task body (the race
/// verifier's instrument()).
SolverHooks euler_pipeline_hooks(
    solver::EulerSolver& solver,
    std::function<runtime::TaskBody(runtime::TaskBody,
                                    const IterationSnapshot&)>
        wrap_body = nullptr);
SolverHooks transport_pipeline_hooks(
    solver::TransportSolver& solver,
    std::function<runtime::TaskBody(runtime::TaskBody,
                                    const IterationSnapshot&)>
        wrap_body = nullptr);

}  // namespace tamp::core
