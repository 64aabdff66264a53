#include "leg.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "mesh/evolve.hpp"
#include "mesh/levels.hpp"
#include "partition/incremental.hpp"
#include "partition/strategy.hpp"
#include "record.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/patch.hpp"
#include "workloads.hpp"

namespace e2e {

using tamp::index_t;
using tamp::level_t;
using tamp::part_t;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename F>
double time_call(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Σ_c 2^(τmax − τ_c): the paper's operating cost of one iteration, i.e.
/// the cell updates it performs.
double cell_updates(const std::vector<level_t>& levels) {
  const level_t top = *std::max_element(levels.begin(), levels.end());
  double sum = 0;
  for (const level_t tau : levels)
    sum += static_cast<double>(tamp::mesh::operating_cost(tau, top));
  return sum;
}

long long vm_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1;
}

/// Runtime and solver numbers of one measured execution.
struct ExecutionAnalysis {
  double busy_share = 0;
  /// Median over tasks of start − max(last predecessor's end, the
  /// worker's previous task's end); launch (t = 0) when neither exists.
  double dispatch_p50_s = 0;
  double face_task_s = 0, faces = 0;  ///< Σ face-task time / objects
  double cell_task_s = 0, cells = 0;
};

ExecutionAnalysis analyse(const tamp::taskgraph::TaskGraph& graph,
                          const tamp::runtime::ExecutionReport& rep) {
  ExecutionAnalysis a;
  a.busy_share = rep.occupancy();

  const auto nworkers = static_cast<std::size_t>(rep.num_processes) *
                        static_cast<std::size_t>(rep.workers_per_process);
  std::vector<std::vector<index_t>> by_worker(nworkers);
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const auto& s = rep.spans[static_cast<std::size_t>(t)];
    by_worker[static_cast<std::size_t>(s.process) *
                  static_cast<std::size_t>(rep.workers_per_process) +
              static_cast<std::size_t>(s.worker)]
        .push_back(t);
    const double d = s.end - s.start;
    const auto& task = graph.task(t);
    if (task.type == tamp::taskgraph::ObjectType::face) {
      a.face_task_s += d;
      a.faces += static_cast<double>(task.num_objects);
    } else {
      a.cell_task_s += d;
      a.cells += static_cast<double>(task.num_objects);
    }
  }
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(graph.num_tasks()));
  for (auto& tasks : by_worker) {
    std::sort(tasks.begin(), tasks.end(), [&rep](index_t x, index_t y) {
      return rep.spans[static_cast<std::size_t>(x)].start <
             rep.spans[static_cast<std::size_t>(y)].start;
    });
    double prev_end = 0;
    for (const index_t t : tasks) {
      const auto& s = rep.spans[static_cast<std::size_t>(t)];
      double ready = prev_end;
      for (const index_t p : graph.predecessors(t))
        ready = std::max(ready, rep.spans[static_cast<std::size_t>(p)].end);
      lat.push_back(std::max(0.0, s.start - ready));
      prev_end = s.end;
    }
  }
  if (!lat.empty()) {
    const auto mid = lat.begin() + static_cast<std::ptrdiff_t>(lat.size() / 2);
    std::nth_element(lat.begin(), mid, lat.end());
    a.dispatch_p50_s = *mid;
  }
  return a;
}

// The pipeline's per-iteration RNG stream tags (core/pipeline.cpp). Should
// they change, the replay reports mismatching levels or assignments
// instead of silently timing different work.
constexpr std::uint64_t kEvolveStream = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kRepartitionStream = 0xDA942042E4DD58B5ULL;

/// Re-runs each iteration's prep stages through the layers' public
/// functions, on the inputs the pipeline produced, to time them one by
/// one. Owns private copies (mesh, patcher, previous assignment) so the
/// pipeline's own state is never touched.
class PrepReplay {
public:
  PrepReplay(const tamp::mesh::Mesh& live,
             const tamp::core::IterationSnapshot& snap0,
             const tamp::core::IterationPipelineConfig& cfg)
      : cfg_(cfg), mesh_(live), prev_part_(snap0.decomposition.domain_of_cell) {
    tamp::partition::StrategyOptions sopts;
    sopts.strategy = cfg.strategy;
    sopts.ndomains = cfg.ndomains;
    sopts.nprocesses = cfg.nprocesses;
    sopts.partitioner.tolerance = cfg.partition_tolerance;
    sopts.partitioner.seed = cfg.seed;
    decompose_s_ = time_call([&] {
      const auto dd = tamp::partition::decompose(mesh_, sopts);
      decompose_matches_ =
          dd.domain_of_cell == snap0.decomposition.domain_of_cell;
    });
    tamp::taskgraph::GraphPatcher::Options popts;
    popts.max_dirty_fraction = cfg.patch_threshold;
    patcher_.emplace(mesh_, snap0.decomposition.domain_of_cell, cfg.ndomains,
                     popts);
  }

  [[nodiscard]] double decompose_seconds() const { return decompose_s_; }
  [[nodiscard]] bool decompose_matches() const { return decompose_matches_; }

  struct Spans {
    double evolve = 0, strategy_graph = 0, incremental = 0, patch = 0,
           rebuild = 0, prepare = 0;
    bool matches = true;  ///< levels, assignment and graph reproduced
  };

  Spans replay(const tamp::core::IterationSnapshot& snap) {
    Spans s;
    const auto iter = static_cast<std::uint64_t>(snap.iteration);
    tamp::Rng rng(tamp::mix_seed(cfg_.seed, kEvolveStream, iter));
    s.evolve =
        time_call([&] { tamp::mesh::evolve_levels(mesh_, cfg_.drift, rng); });
    if (mesh_.cell_levels() != snap.levels) {
      s.matches = false;
      mesh_.set_cell_levels(snap.levels);
    }
    // The same branch the pipeline takes: unchanged levels reuse the
    // previous assignment without a strategy graph or repartition.
    if (snap.evolve.cells_changed != 0) {
      std::optional<tamp::graph::Csr> g;
      s.strategy_graph = time_call([&] {
        g.emplace(tamp::partition::build_strategy_graph(mesh_, cfg_.strategy));
      });
      tamp::partition::IncrementalOptions iopts;
      iopts.tolerance = cfg_.partition_tolerance;
      iopts.seed = tamp::mix_seed(cfg_.seed, kRepartitionStream, iter);
      iopts.dirty_vertices = snap.evolve.cells_changed;
      std::vector<part_t> part = prev_part_;
      s.incremental = time_call([&] {
        tamp::partition::incremental_repartition(*g, part, cfg_.ndomains,
                                                 iopts);
      });
      s.matches = s.matches && part == snap.decomposition.domain_of_cell;
    }
    const std::vector<part_t>& assignment = snap.decomposition.domain_of_cell;
    s.patch = time_call([&] { patcher_->apply(mesh_, assignment); });
    s.matches = s.matches &&
                patcher_->fingerprint() ==
                    tamp::taskgraph::GraphPatcher::fingerprint(snap.graph,
                                                               *snap.classes);
    s.rebuild = time_call([&] {
      tamp::taskgraph::ClassMap classes;
      const auto g = tamp::taskgraph::generate_task_graph(
          mesh_, assignment, cfg_.ndomains, {}, &classes);
      static_cast<void>(g);
    });
    s.prepare = time_call([&] {
      const auto prepared = tamp::runtime::prepare_execution(
          snap.graph, snap.domain_to_process, cfg_.nprocesses);
      static_cast<void>(prepared);
    });
    prev_part_ = assignment;
    return s;
  }

private:
  tamp::core::IterationPipelineConfig cfg_;
  tamp::mesh::Mesh mesh_;
  std::vector<part_t> prev_part_;
  std::optional<tamp::taskgraph::GraphPatcher> patcher_;
  double decompose_s_ = 0;
  bool decompose_matches_ = false;
};

/// Thrown by the observer to end a time-bounded leg at an iteration
/// boundary; the pipeline drains and rethrows it like any hook failure.
struct StopLeg {};

}  // namespace

int run_leg(const LegOptions& opts) {
  const Clock::time_point leg_start = Clock::now();
  const WorkloadSpec& spec = find_workload(opts.workload);
  Instance inst(spec, opts.seed, opts.scale);
  const tamp::core::IterationPipelineConfig cfg =
      pipeline_config(spec, opts.iterations, opts.processes, opts.workers);

  tamp::core::SolverHooks hooks = inst.hooks();
  const auto bind = hooks.make_body;
  double bind_s = 0;
  Clock::time_point last_observer_exit{};
  Clock::time_point window_start{};
  int completed = -1;  // last iteration whose observer ran
  std::optional<PrepReplay> replay;

  hooks.make_body = [&](const tamp::core::IterationSnapshot& snap) {
    const Clock::time_point t0 = Clock::now();
    if (snap.iteration == opts.poison_at) inst.poison();
    tamp::runtime::TaskBody body = bind(snap);
    if (snap.iteration == opts.stall_at)
      body = [](index_t) {
        for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
      };
    const Clock::time_point t1 = Clock::now();
    bind_s = seconds_between(t0, t1);
    if (snap.iteration == 0)
      Record("setup")
          .num("setup_s", seconds_between(leg_start, t1))
          .num("mesh_s", inst.mesh_seconds())
          .num("init_s", inst.init_seconds())
          .integer("cells", inst.mesh().num_cells())
          .integer("faces", inst.mesh().num_faces())
          .integer("levels", inst.mesh().max_level() + 1)
          .emit();
    return body;
  };

  hooks.observer = [&](const tamp::core::IterationSnapshot& snap,
                       const tamp::runtime::ExecutionReport& rep) {
    const Clock::time_point solve_end = Clock::now();
    const double drift = inst.conservation_drift();
    Record r("iter");
    r.integer("i", snap.iteration);
    if (snap.iteration > 0)
      r.num("wall_ms", 1e3 * seconds_between(last_observer_exit, solve_end));
    r.num("bind_ms", 1e3 * bind_s)
        .num("exec_ms", 1e3 * rep.wall_seconds)
        .num("cell_updates", cell_updates(snap.levels))
        .flag("finite", inst.state_finite())
        .num("conservation_drift", drift)
        .integer("tasks", snap.graph.num_tasks())
        .integer("dependencies", snap.graph.num_dependencies())
        .integer("cells_changed", snap.evolve.cells_changed)
        .integer("migrated_cells", snap.repartition.migrated_vertices)
        .flag("patched", snap.patch.patched)
        .flag("reused", snap.repartition.reused_verbatim);
    if (snap.iteration == opts.fingerprint_at)
      r.str("fingerprint", [&] {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(inst.state_fingerprint()));
        return std::string(buf);
      }());
    if (opts.traced) {
      const ExecutionAnalysis a = analyse(snap.graph, rep);
      r.num("busy_share", a.busy_share)
          .num("dispatch_us", 1e6 * a.dispatch_p50_s)
          .num("face_task_s", a.face_task_s)
          .num("faces", a.faces)
          .num("cell_task_s", a.cell_task_s)
          .num("cells", a.cells)
          .num("face_bytes", a.faces * inst.bytes_per_face())
          .num("cell_bytes", a.cells * inst.bytes_per_cell())
          .num("edge_cut", static_cast<double>(snap.decomposition.edge_cut))
          .num("level_imbalance", snap.decomposition.level_imbalance());
      if (snap.iteration == 0) {
        replay.emplace(inst.mesh(), snap, cfg);
        r.num("decompose_s", replay->decompose_seconds())
            .flag("replay_matches", replay->decompose_matches());
      } else {
        const PrepReplay::Spans s = replay->replay(snap);
        r.num("evolve_ms", 1e3 * s.evolve)
            .num("strategy_graph_ms", 1e3 * s.strategy_graph)
            .num("incremental_ms", 1e3 * s.incremental)
            .num("patch_ms", 1e3 * s.patch)
            .num("rebuild_ms", 1e3 * s.rebuild)
            .num("prepare_ms", 1e3 * s.prepare)
            .flag("replay_matches", s.matches);
      }
    }
    r.emit();
    completed = snap.iteration;
    last_observer_exit = Clock::now();
    if (snap.iteration == opts.warmup) window_start = last_observer_exit;
    if (opts.seconds > 0 && snap.iteration >= opts.warmup + opts.min_timed &&
        seconds_between(window_start, last_observer_exit) >= opts.seconds)
      throw StopLeg{};
  };

  int code = 0;
  try {
    const tamp::core::PipelineRunReport report =
        tamp::core::run_iteration_pipeline(inst.mesh(), cfg, hooks);
    std::vector<double> prep_ms, solve_ms;
    for (const auto& it : report.iterations) {
      prep_ms.push_back(1e3 * (it.prep_end - it.prep_start));
      solve_ms.push_back(1e3 * (it.solve_end - it.solve_start));
    }
    Record("stages").nums("prep_ms", prep_ms).nums("solve_ms", solve_ms).emit();
  } catch (const StopLeg&) {
    // Time-bounded leg: its window is over.
  } catch (const std::exception& e) {
    Record("error").integer("i", completed + 1).str("what", e.what()).emit();
    code = 1;
  }
  Record("end")
      .integer("vm_hwm_kb", vm_hwm_kb())
      .str("simd", tamp::simd::to_string(tamp::simd::resolve()))
      .str("compiler", __VERSION__)
      .integer("hardware_threads",
               static_cast<long long>(std::thread::hardware_concurrency()))
      .emit();
  return code;
}

}  // namespace e2e
