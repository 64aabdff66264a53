#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/cache.hpp"
#include "partition/repair.hpp"
#include "solver/euler.hpp"
#include "solver/transport.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace tamp::core {

weight_t cross_process_edges(const taskgraph::TaskGraph& graph,
                             const std::vector<part_t>& domain_to_process) {
  // The paper's estimate (§VI, Fig 11b): "a communication is considered
  // to be an edge of the task graph connecting two nodes whose domains
  // are distributed across two different processes".
  weight_t edges = 0;
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const part_t pt =
        domain_to_process[static_cast<std::size_t>(graph.task(t).domain)];
    for (const index_t s : graph.successors(t)) {
      const part_t ps =
          domain_to_process[static_cast<std::size_t>(graph.task(s).domain)];
      if (ps != pt) ++edges;
    }
  }
  return edges;
}

weight_t RunOutcome::comm_volume() const {
  return cross_process_edges(graph, domain_to_process);
}

RunPlan prepare_on_mesh(const mesh::Mesh& mesh, const RunConfig& config) {
  TAMP_EXPECTS(config.ndomains >= config.nprocesses,
               "need at least one domain per process");
  TAMP_TRACE_SCOPE("pipeline/prepare_on_mesh");
  RunPlan plan;

  {
    TAMP_TRACE_SCOPE("pipeline/partition");
    partition::StrategyOptions sopts;
    sopts.strategy = config.strategy;
    sopts.ndomains = config.ndomains;
    sopts.nprocesses = config.nprocesses;
    sopts.partitioner.tolerance = config.partition_tolerance;
    sopts.partitioner.seed = config.seed;
    sopts.partitioner.num_threads = config.partition_threads;
    plan.decomposition = partition::decompose(mesh, sopts);
  }
  if (config.repair_fragments) {
    TAMP_TRACE_SCOPE("pipeline/repair");
    const auto g = partition::build_strategy_graph(
        mesh, config.strategy == partition::Strategy::hybrid
                  ? partition::Strategy::mc_tl
                  : config.strategy);
    partition::repair_fragments(g, plan.decomposition.domain_of_cell,
                                config.ndomains);
    partition::update_census(mesh, plan.decomposition);
  }
  TAMP_METRIC_GAUGE_SET("pipeline.level_imbalance",
                        plan.decomposition.level_imbalance());
  TAMP_METRIC_GAUGE_SET("pipeline.cost_imbalance",
                        plan.decomposition.cost_imbalance());
  TAMP_METRIC_GAUGE_SET("pipeline.edge_cut", plan.decomposition.edge_cut);

  {
    TAMP_TRACE_SCOPE("pipeline/taskgraph");
    taskgraph::GenerateOptions gopts;
    gopts.cost = config.cost;
    gopts.num_iterations = config.num_iterations;
    plan.graph = taskgraph::generate_task_graph(
        mesh, plan.decomposition.domain_of_cell, config.ndomains, gopts);
  }

  {
    TAMP_TRACE_SCOPE("pipeline/map");
    plan.domain_to_process = partition::map_domains_to_processes(
        config.ndomains, config.nprocesses, config.mapping);
  }
  return plan;
}

sim::SimResult simulate_plan(const RunPlan& plan, const RunConfig& config) {
  TAMP_TRACE_SCOPE("pipeline/simulate");
  sim::SimOptions simopts;
  simopts.cluster.num_processes = config.nprocesses;
  simopts.cluster.workers_per_process = config.workers_per_process;
  simopts.policy = config.policy;
  simopts.comm = config.comm;
  simopts.task_overhead = config.task_overhead;
  simopts.seed = config.seed;
  return sim::simulate(plan.graph, plan.domain_to_process, simopts);
}

RunOutcome run_on_mesh(const mesh::Mesh& mesh, const RunConfig& config) {
  TAMP_TRACE_SCOPE("pipeline/run_on_mesh");
  RunPlan plan = prepare_on_mesh(mesh, config);
  RunOutcome out;
  out.sim = simulate_plan(plan, config);
  out.decomposition = std::move(plan.decomposition);
  out.graph = std::move(plan.graph);
  out.domain_to_process = std::move(plan.domain_to_process);
  TAMP_METRIC_GAUGE_SET("pipeline.makespan", out.makespan());
  TAMP_METRIC_GAUGE_SET("pipeline.occupancy", out.occupancy());
  return out;
}

std::string summarize(const RunOutcome& outcome) {
  std::ostringstream os;
  os.precision(4);
  os << "makespan=" << outcome.makespan()
     << " occupancy=" << outcome.occupancy() * 100.0 << "%"
     << " tasks=" << outcome.graph.num_tasks()
     << " deps=" << outcome.graph.num_dependencies()
     << " cut=" << outcome.decomposition.edge_cut
     << " cost_imb=" << outcome.decomposition.cost_imbalance()
     << " level_imb=" << outcome.decomposition.level_imbalance();
  return os.str();
}

// --- asynchronous iteration pipeline ---------------------------------------

const char* to_string(PipelineMode m) {
  switch (m) {
    case PipelineMode::sync: return "sync";
    case PipelineMode::overlap: return "overlap";
  }
  return "?";
}

PipelineMode parse_pipeline_mode(const std::string& name) {
  if (name == "sync") return PipelineMode::sync;
  if (name == "overlap") return PipelineMode::overlap;
  throw precondition_error("unknown pipeline mode '" + name +
                           "' (expected sync | overlap)");
}

const char* to_string(PatchPolicy p) {
  switch (p) {
    case PatchPolicy::off: return "off";
    case PatchPolicy::automatic: return "auto";
    case PatchPolicy::oracle: return "oracle";
  }
  return "?";
}

PatchPolicy parse_patch_policy(const std::string& name) {
  if (name == "off") return PatchPolicy::off;
  if (name == "auto") return PatchPolicy::automatic;
  if (name == "oracle") return PatchPolicy::oracle;
  throw precondition_error("unknown patch policy '" + name +
                           "' (expected off | auto | oracle)");
}

const char* to_string(PipelineFault::Stage s) {
  switch (s) {
    case PipelineFault::Stage::none: return "none";
    case PipelineFault::Stage::evolve: return "evolve";
    case PipelineFault::Stage::repartition: return "repartition";
    case PipelineFault::Stage::taskgraph: return "taskgraph";
    case PipelineFault::Stage::solve: return "solve";
  }
  return "?";
}

PipelineFault parse_pipeline_fault(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  TAMP_EXPECTS(colon != std::string::npos && colon > 0 &&
                   colon + 1 < spec.size(),
               "pipeline fault spec must be stage:iteration");
  const std::string stage = spec.substr(0, colon);
  PipelineFault fault;
  if (stage == "evolve") fault.stage = PipelineFault::Stage::evolve;
  else if (stage == "repartition")
    fault.stage = PipelineFault::Stage::repartition;
  else if (stage == "taskgraph") fault.stage = PipelineFault::Stage::taskgraph;
  else if (stage == "solve") fault.stage = PipelineFault::Stage::solve;
  else
    throw precondition_error(
        "unknown pipeline fault stage '" + stage +
        "' (expected evolve | repartition | taskgraph | solve)");
  const std::string iter = spec.substr(colon + 1);
  char* tail = nullptr;
  const long v = std::strtol(iter.c_str(), &tail, 10);
  TAMP_EXPECTS(tail != iter.c_str() && *tail == '\0' && v >= 0,
               "pipeline fault iteration must be a non-negative integer");
  fault.iteration = static_cast<int>(v);
  return fault;
}

PipelineFault pipeline_fault_from_env() {
  const char* env = std::getenv("TAMP_PIPELINE_FAULT");
  if (env == nullptr || *env == '\0') return {};
  return parse_pipeline_fault(env);
}

namespace {

void maybe_fault(const PipelineFault& fault, PipelineFault::Stage stage,
                 int iteration) {
  if (fault.stage == stage && fault.iteration == iteration)
    throw runtime_failure(std::string("injected pipeline fault at ") +
                          to_string(stage) + ":" + std::to_string(iteration));
}

// FNV-1a (support/hash.hpp), folded over everything a snapshot's
// consumers depend on.
std::uint64_t snapshot_fingerprint(const IterationSnapshot& s) {
  std::uint64_t h = kFnv1aOffset;
  fnv1a_span(h, s.levels.data(), s.levels.size());
  fnv1a_span(h, s.decomposition.domain_of_cell.data(),
             s.decomposition.domain_of_cell.size());
  fnv1a_span(h, s.domain_to_process.data(), s.domain_to_process.size());
  fnv1a_span(h, s.prepared.process_of.data(), s.prepared.process_of.size());
  fnv1a_span(h, s.prepared.initial_pending.data(),
             s.prepared.initial_pending.size());
  const index_t ntasks = s.graph.num_tasks();
  fnv1a_span(h, &ntasks, 1);
  for (index_t t = 0; t < ntasks; ++t) {
    const taskgraph::Task& task = s.graph.task(t);
    fnv1a_span(h, &task.domain, 1);
    fnv1a_span(h, &task.level, 1);
    fnv1a_span(h, &task.subiteration, 1);
    for (const index_t succ : s.graph.successors(t)) fnv1a_span(h, &succ, 1);
  }
  return h;
}

void verify_snapshot(const IterationSnapshot& s, const char* where) {
  if (snapshot_fingerprint(s) != s.fingerprint)
    throw invariant_error("pipeline snapshot " +
                          std::to_string(s.iteration) +
                          " was mutated after publication (detected at " +
                          where +
                          ") — snapshots are immutable between stages");
}

/// State shared by prep stages across the run: the planning mesh (the
/// only mesh prep ever mutates — the live mesh belongs to the solve
/// stage) and the fixed strategy-graph flavour.
struct PrepContext {
  mesh::Mesh planning;
  partition::Strategy graph_strategy;
  /// Incremental task-graph patcher (PatchPolicy != off). Owned by the
  /// prep stream: the depth-1 handoff guarantees applies never overlap.
  std::unique_ptr<taskgraph::GraphPatcher> patcher;
};

/// Shared tail of the taskgraph stage: produce (graph, classes, patch
/// provenance) for a snapshot, either from scratch or via the patcher.
void build_snapshot_graph(PrepContext& ctx,
                          const IterationPipelineConfig& config,
                          IterationSnapshot& snap,
                          PipelineIterationStats& stats) {
  auto classes = std::make_shared<taskgraph::ClassMap>();
  if (config.patch == PatchPolicy::off) {
    snap.graph = taskgraph::generate_task_graph(
        ctx.planning, snap.decomposition.domain_of_cell, config.ndomains, {},
        classes.get());
  } else {
    if (ctx.patcher == nullptr) {
      taskgraph::GraphPatcher::Options popts;
      popts.max_dirty_fraction = config.patch_threshold;
      popts.oracle = config.patch == PatchPolicy::oracle;
      ctx.patcher = std::make_unique<taskgraph::GraphPatcher>(
          ctx.planning, snap.decomposition.domain_of_cell, config.ndomains,
          popts);
    } else {
      ctx.patcher->apply(ctx.planning, snap.decomposition.domain_of_cell);
    }
    // Copying the patcher's graph/ClassMap is memcpy-speed — far cheaper
    // than the classification + sort a rebuild would redo — and keeps
    // the published snapshot immutable while the patcher keeps evolving.
    snap.graph = ctx.patcher->graph();
    *classes = ctx.patcher->classes();
    snap.patch = ctx.patcher->last_stats();
    snap.dirty_tasks = ctx.patcher->dirty_tasks();
    stats.graph_patched = snap.patch.patched;
  }
  snap.classes = std::move(classes);
  snap.domain_to_process = partition::map_domains_to_processes(
      config.ndomains, config.nprocesses, config.mapping);
  snap.prepared = runtime::prepare_execution(snap.graph,
                                             snap.domain_to_process,
                                             config.nprocesses);
}

std::shared_ptr<const IterationSnapshot> prep_snapshot(
    PrepContext& ctx, const IterationPipelineConfig& config,
    const IterationSnapshot& prev, const int iter,
    const std::atomic<bool>& cancel, const Stopwatch& clock,
    PipelineIterationStats& stats) {
  TAMP_TRACE_SCOPE("pipeline/prep");
  stats.iteration = iter;
  stats.prep_start = clock.seconds();
  // Cancellation (a concurrent solve failure) is checked at every stage
  // boundary; an abandoned prep publishes nothing.
  if (cancel.load(std::memory_order_acquire)) return nullptr;
  maybe_fault(config.fault, PipelineFault::Stage::evolve, iter);
  verify_snapshot(prev, "prep entry");

  auto snap = std::make_shared<IterationSnapshot>();
  snap->iteration = iter;
  {
    TAMP_TRACE_SCOPE("pipeline/evolve");
    // Per-iteration stream: the drift drawn for iteration i never
    // depends on how many Rng draws earlier iterations made.
    Rng rng(mix_seed(config.seed, 0x9E3779B97F4A7C15ULL,
                     static_cast<std::uint64_t>(iter)));
    snap->evolve = mesh::evolve_levels(ctx.planning, config.drift, rng);
    snap->levels = ctx.planning.cell_levels();
  }
  stats.cells_changed = snap->evolve.cells_changed;

  if (cancel.load(std::memory_order_acquire)) return nullptr;
  maybe_fault(config.fault, PipelineFault::Stage::repartition, iter);
  stats.dirty_fraction =
      static_cast<double>(snap->evolve.cells_changed) /
      static_cast<double>(std::max<index_t>(ctx.planning.num_cells(), 1));
  obs::gauge("partition.dirty_fraction").set(stats.dirty_fraction);
  if (snap->evolve.cells_changed == 0) {
    TAMP_TRACE_SCOPE("pipeline/repartition");
    // Zero drift: no vertex weight changed, so the previous assignment
    // is reused verbatim — no strategy graph, no repartition run.
    snap->decomposition = prev.decomposition;
    snap->repartition = {};
    snap->repartition.cut_before = snap->repartition.cut_after =
        prev.decomposition.edge_cut;
    snap->repartition.reused_verbatim = true;
    stats.decomposition_reused = true;
    stats.migrated_cells = 0;
  } else {
    TAMP_TRACE_SCOPE("pipeline/repartition");
    const graph::Csr g =
        partition::build_strategy_graph(ctx.planning, ctx.graph_strategy);
    std::vector<part_t> part = prev.decomposition.domain_of_cell;
    partition::IncrementalOptions iopts;
    iopts.tolerance = config.partition_tolerance;
    iopts.seed = mix_seed(config.seed, 0xDA942042E4DD58B5ULL,
                          static_cast<std::uint64_t>(iter));
    iopts.dirty_vertices = snap->evolve.cells_changed;
    snap->repartition = partition::incremental_repartition(
        g, part, config.ndomains, iopts);
    // Migration census on the worker's scratch arena: per-domain counts
    // of cells that left their old domain, against the old population —
    // the worst per-domain fraction is what a distributed run would
    // actually ship from one node.
    ScratchArena& arena = thread_scratch_arena();
    arena.reset();
    const auto nd = static_cast<std::size_t>(config.ndomains);
    index_t* moved = arena.alloc<index_t>(nd);
    index_t* total = arena.alloc<index_t>(nd);
    std::fill(moved, moved + nd, index_t{0});
    std::fill(total, total + nd, index_t{0});
    const std::vector<part_t>& old = prev.decomposition.domain_of_cell;
    for (std::size_t c = 0; c < part.size(); ++c) {
      const auto od = static_cast<std::size_t>(old[c]);
      ++total[od];
      if (part[c] != old[c]) ++moved[od];
    }
    for (std::size_t d = 0; d < nd; ++d)
      if (total[d] > 0)
        stats.max_domain_migration =
            std::max(stats.max_domain_migration,
                     static_cast<double>(moved[d]) /
                         static_cast<double>(total[d]));
    stats.migrated_cells = snap->repartition.migrated_vertices;
    snap->decomposition.domain_of_cell = std::move(part);
    snap->decomposition.ndomains = config.ndomains;
    partition::update_census(ctx.planning, snap->decomposition);
  }

  if (cancel.load(std::memory_order_acquire)) return nullptr;
  maybe_fault(config.fault, PipelineFault::Stage::taskgraph, iter);
  {
    TAMP_TRACE_SCOPE("pipeline/taskgraph");
    build_snapshot_graph(ctx, config, *snap, stats);
  }
  snap->fingerprint = snapshot_fingerprint(*snap);
  stats.prep_end = clock.seconds();
  return snap;
}

std::shared_ptr<const IterationSnapshot> initial_snapshot(
    PrepContext& ctx, const IterationPipelineConfig& config,
    const int partition_threads, const Stopwatch& clock,
    PipelineIterationStats& stats) {
  TAMP_TRACE_SCOPE("pipeline/prep");
  stats.iteration = 0;
  stats.prep_start = clock.seconds();
  // Snapshot 0 partitions from scratch — no previous assignment to evolve
  // from — but walks the same fault schedule so every stage × iteration
  // pair is injectable.
  maybe_fault(config.fault, PipelineFault::Stage::evolve, 0);
  auto snap = std::make_shared<IterationSnapshot>();
  snap->iteration = 0;
  snap->levels = ctx.planning.cell_levels();

  maybe_fault(config.fault, PipelineFault::Stage::repartition, 0);
  {
    TAMP_TRACE_SCOPE("pipeline/partition");
    partition::StrategyOptions sopts;
    sopts.strategy = config.strategy;
    sopts.ndomains = config.ndomains;
    sopts.nprocesses = config.nprocesses;
    sopts.partitioner.tolerance = config.partition_tolerance;
    sopts.partitioner.seed = config.seed;
    sopts.partitioner.num_threads = partition_threads;
    if (config.cache != nullptr) {
      // Service warm path: a mesh with this content + these parameters
      // was decomposed before (possibly by a concurrent pipeline) — the
      // cache hit replaces the whole multilevel run with a hash lookup.
      const auto cached =
          partition::decompose_cached(ctx.planning, sopts, config.cache);
      snap->decomposition = cached->decomposition;
    } else {
      snap->decomposition = partition::decompose(ctx.planning, sopts);
    }
  }

  maybe_fault(config.fault, PipelineFault::Stage::taskgraph, 0);
  {
    TAMP_TRACE_SCOPE("pipeline/taskgraph");
    build_snapshot_graph(ctx, config, *snap, stats);
  }
  snap->fingerprint = snapshot_fingerprint(*snap);
  stats.prep_end = clock.seconds();
  return snap;
}

double interval_overlap(double a0, double a1, double b0, double b1) {
  const double lo = std::max(a0, b0);
  const double hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0.0;
}

}  // namespace

PipelineRunReport run_iteration_pipeline(mesh::Mesh& live_mesh,
                                         const IterationPipelineConfig& config,
                                         const SolverHooks& hooks) {
  TAMP_EXPECTS(config.num_iterations >= 1, "need at least one iteration");
  TAMP_EXPECTS(config.ndomains >= config.nprocesses,
               "need at least one domain per process");
  TAMP_EXPECTS(config.drift >= 0 && config.drift <= 1,
               "drift is a probability");
  TAMP_EXPECTS(static_cast<bool>(hooks.make_body) &&
                   static_cast<bool>(hooks.note_complete),
               "solver hooks must provide make_body and note_complete");
  TAMP_TRACE_SCOPE("pipeline/run_iterations");

  const int n = config.num_iterations;
  const bool overlapped = config.mode == PipelineMode::overlap;
  const int partition_threads = resolve_num_threads(config.threads);
  // Overlap needs at least one worker besides the driver; the pool size
  // matches the initial decomposition's thread count when that is larger
  // so ThreadPool::shared() is asked for one consistent size per run.
  ThreadPool* pool =
      overlapped ? ThreadPool::shared(std::max(2, partition_threads)) : nullptr;

  PipelineRunReport report;
  report.iterations.assign(static_cast<std::size_t>(n), {});
  const Stopwatch clock;

  // Prep owns a private planning mesh; the live mesh is only touched at
  // iteration boundaries on this (the driver) thread.
  PrepContext ctx{live_mesh,
                  config.strategy == partition::Strategy::hybrid
                      ? partition::Strategy::mc_tl
                      : config.strategy};
  std::atomic<bool> cancel{false};

  std::shared_ptr<const IterationSnapshot> current = initial_snapshot(
      ctx, config, partition_threads, clock, report.iterations[0]);

  for (int i = 0; i < n; ++i) {
    PipelineIterationStats& it = report.iterations[static_cast<std::size_t>(i)];
    // Depth-1 handoff: at most one prep is ever in flight, and it is
    // joined before the next launches.
    ThreadPool::TaskHandle handle;
    std::shared_ptr<std::shared_ptr<const IterationSnapshot>> slot;
    if (i + 1 < n && pool != nullptr) {
      slot = std::make_shared<std::shared_ptr<const IterationSnapshot>>();
      handle = pool->submit_background(
          [&ctx, &config, &cancel, &clock, &report, slot, prev = current,
           next = i + 1] {
            *slot = prep_snapshot(
                ctx, config, *prev, next, cancel, clock,
                report.iterations[static_cast<std::size_t>(next)]);
          });
    }

    try {
      maybe_fault(config.fault, PipelineFault::Stage::solve, i);
      verify_snapshot(*current, "solve entry");
      live_mesh.set_cell_levels(current->levels);
      const runtime::TaskBody body = hooks.make_body(*current);
      runtime::RuntimeConfig rc;
      rc.num_processes = config.nprocesses;
      rc.workers_per_process = config.workers_per_process;
      rc.adversarial = config.adversarial;
      it.solve_start = clock.seconds();
      const runtime::ExecutionReport exec =
          runtime::execute(current->graph, current->prepared, rc, body);
      it.solve_end = clock.seconds();
      hooks.note_complete();
      if (hooks.observer) hooks.observer(*current, exec);
      // Catches a consumer (body, observer) that held onto a mutable
      // reference: the seal must still match after the solve window.
      verify_snapshot(*current, "solve exit");
    } catch (...) {
      // Drain before rethrowing: cancel the in-flight prep, wait for it,
      // and swallow its error — the earlier iteration's failure is the
      // one the caller sees, exactly once.
      cancel.store(true, std::memory_order_release);
      if (handle != nullptr) {
        try {
          pool->wait(handle);
        } catch (...) {
        }
      }
      throw;
    }

    if (i + 1 < n) {
      if (handle != nullptr) {
        pool->wait(handle);  // rethrows a prep-stage failure (drained: the
                             // failing task already completed by throwing)
        current = *slot;
        TAMP_ENSURE(current != nullptr,
                    "prep abandoned without a pipeline cancellation");
      } else {
        // Sync mode (or no pool): prep runs here, after the solve — the
        // exact stage order the overlapped schedule must reproduce.
        current = prep_snapshot(
            ctx, config, *current, i + 1, cancel, clock,
            report.iterations[static_cast<std::size_t>(i + 1)]);
      }
    }
  }

  // Stage-overlap accounting for the doctor: hidden = prep time spent
  // under the previous iteration's solve.
  sim::StageOverlapReport& ov = report.overlap;
  ov.iterations = n;
  ov.overlapped = overlapped;
  ov.wall_seconds = clock.seconds();
  index_t cells_changed = 0, migrated = 0;
  double max_migration = 0;
  int patched = 0, reused = 0;
  for (int i = 0; i < n; ++i) {
    const PipelineIterationStats& it =
        report.iterations[static_cast<std::size_t>(i)];
    ov.prep_seconds += it.prep_end - it.prep_start;
    ov.solve_seconds += it.solve_end - it.solve_start;
    cells_changed += it.cells_changed;
    migrated += it.migrated_cells;
    max_migration = std::max(max_migration, it.max_domain_migration);
    patched += it.graph_patched ? 1 : 0;
    reused += it.decomposition_reused ? 1 : 0;
    if (i >= 1) {
      const PipelineIterationStats& prev =
          report.iterations[static_cast<std::size_t>(i - 1)];
      ov.hideable_prep_seconds += it.prep_end - it.prep_start;
      ov.hidden_seconds += interval_overlap(it.prep_start, it.prep_end,
                                            prev.solve_start, prev.solve_end);
    }
  }
  sim::publish_stage_overlap_metrics(ov);
  // Once-per-run summary gauges, published unconditionally (obs::gauge,
  // not the TAMP_METRIC_* macros): the cross-mode determinism gate in
  // tools/pipeline_smoke.sh reads them from Release builds that compile
  // the tracing macros out.
  obs::gauge("pipeline.cells_changed.total")
      .set(static_cast<double>(cells_changed));
  obs::gauge("pipeline.migrated_cells.total")
      .set(static_cast<double>(migrated));
  obs::gauge("pipeline.max_domain_migration").set(max_migration);
  obs::gauge("pipeline.patched_iterations").set(static_cast<double>(patched));
  obs::gauge("pipeline.reused_decompositions")
      .set(static_cast<double>(reused));
  return report;
}

namespace {

/// The one body behind both solvers' hooks.
template <class Solver>
SolverHooks solver_pipeline_hooks(
    Solver& solver,
    std::function<runtime::TaskBody(runtime::TaskBody,
                                    const IterationSnapshot&)>
        wrap_body) {
  SolverHooks hooks;
  hooks.make_body = [&solver, wrap = std::move(wrap_body)](
                        const IterationSnapshot& snap) {
    runtime::TaskBody body = solver.make_iteration_body(snap.graph,
                                                        snap.classes);
    return wrap ? wrap(std::move(body), snap) : body;
  };
  hooks.note_complete = [&solver] { solver.note_tasks_complete(); };
  return hooks;
}

}  // namespace

SolverHooks euler_pipeline_hooks(
    solver::EulerSolver& solver,
    std::function<runtime::TaskBody(runtime::TaskBody,
                                    const IterationSnapshot&)>
        wrap_body) {
  return solver_pipeline_hooks(solver, std::move(wrap_body));
}

SolverHooks transport_pipeline_hooks(
    solver::TransportSolver& solver,
    std::function<runtime::TaskBody(runtime::TaskBody,
                                    const IterationSnapshot&)>
        wrap_body) {
  return solver_pipeline_hooks(solver, std::move(wrap_body));
}

}  // namespace tamp::core
