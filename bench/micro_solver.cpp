// Solver kernel microbenchmark: flux and cell-update sweep throughput
// per SIMD tier. Runs the real Euler task bodies — the same code
// run_iteration_tasks() executes — over every face task and every cell
// task of one full temporal-adaptive iteration, on the nozzle and cube
// meshes as decomposed. The solver streams each task's objects in its
// own class-contiguous kernel layout (solver/fv_driver.hpp), so the
// sweeps measure the streaming kernels whatever the mesh numbering.
//
// Emits solver.flux_gcells_per_s / solver.update_gcells_per_s gauges
// (headline = nozzle, scalar kernels) plus per-(mesh × tier) rows with
// solver.simd_speedup.<mesh>[.<level>] gauges, measured against the
// scalar row of the same mesh, and a tamp-metrics-v1 snapshot under
// TAMP_BENCH_METRICS_DIR for tamp-report gating.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "partition/strategy.hpp"
#include "solver/euler.hpp"
#include "support/cli.hpp"
#include "support/simd.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "taskgraph/taskgraph.hpp"

namespace {

using namespace tamp;

/// The flusim initial condition: uniform flow plus a density pulse at
/// the mesh centroid, which grades the CFL timestep and so produces a
/// realistic multi-level temporal-class structure.
void init_state(solver::EulerSolver& es, const mesh::Mesh& m) {
  es.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  mesh::Vec3 lo = m.cell_centroid(0), hi = lo, mean{};
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Vec3 p = m.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    mean = mean + p;
  }
  mean = (1.0 / static_cast<double>(m.num_cells())) * mean;
  es.add_pulse(mean, std::max(0.2 * distance(lo, hi), 1e-3), 0.3);
}

struct SweepTiming {
  double face_objects = 0;  ///< face visits in one iteration's flux tasks
  double cell_objects = 0;  ///< cell visits in one iteration's update tasks
  double flux_seconds = 0;  ///< best-of-reps full flux sweep
  double update_seconds = 0;

  [[nodiscard]] double flux_gobj_s() const {
    return face_objects / flux_seconds * 1e-9;
  }
  [[nodiscard]] double update_gobj_s() const {
    return cell_objects / update_seconds * 1e-9;
  }
  /// Combined flux+update sweep throughput (the acceptance metric).
  [[nodiscard]] double combined_gobj_s() const {
    return (face_objects + cell_objects) / (flux_seconds + update_seconds) *
           1e-9;
  }
};

/// Times the face-task and cell-task sweeps of one iteration separately.
/// Running all flux bodies then all update bodies is not a DAG-consistent
/// order, so the resulting *values* are not one physical iteration — but
/// each body is the exact production kernel over its exact object set,
/// which is what we are timing. State is re-pulsed before every rep so
/// the inputs stay finite and identical across reps and tiers.
SweepTiming time_sweeps(solver::EulerSolver& es, const mesh::Mesh& m,
                        const solver::EulerSolver::IterationTasks& iter,
                        int reps) {
  std::vector<index_t> face_tasks, cell_tasks;
  SweepTiming r;
  for (index_t t = 0; t < iter.graph.num_tasks(); ++t) {
    const taskgraph::Task& task = iter.graph.task(t);
    if (task.type == taskgraph::ObjectType::face) {
      face_tasks.push_back(t);
      r.face_objects += static_cast<double>(task.num_objects);
    } else {
      cell_tasks.push_back(t);
      r.cell_objects += static_cast<double>(task.num_objects);
    }
  }
  double best_flux = std::numeric_limits<double>::max();
  double best_update = best_flux;
  for (int rep = 0; rep < reps; ++rep) {
    init_state(es, m);
    Stopwatch swf;
    for (const index_t t : face_tasks) iter.body(t);
    best_flux = std::min(best_flux, swf.seconds());
    Stopwatch swu;
    for (const index_t t : cell_tasks) iter.body(t);
    best_update = std::min(best_update, swu.seconds());
  }
  r.flux_seconds = best_flux;
  r.update_seconds = best_update;
  return r;
}

void bench_mesh(mesh::TestMeshKind kind, const CliParser& cli,
                TablePrinter& table) {
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  mesh::Mesh m = bench::make_bench_mesh(kind, cli.get_double("scale"), seed);
  const std::string mesh_name = mesh::to_string(kind);

  // Temporal levels come from the real CFL estimate (not the generator's
  // synthetic ones) so the class structure matches a production run; the
  // strategy then partitions with those levels in its constraints.
  {
    solver::EulerSolver tmp(m);
    init_state(tmp, m);
    tmp.assign_temporal_levels();
  }
  partition::StrategyOptions sopts;
  sopts.strategy = partition::parse_strategy(cli.get("strategy"));
  sopts.ndomains = static_cast<part_t>(cli.get_int("domains"));
  sopts.partitioner.seed = seed;
  const auto dd = partition::decompose(m, sopts);

  const int reps = static_cast<int>(cli.get_int("reps"));
  double scalar_rate = 0.0;  // the scalar row, first of runnable_levels()
  double best_simd = 1.0;    // best simd_speedup over the lane sweep
  for (const simd::Level level : simd::runnable_levels()) {
    solver::SolverConfig scfg;
    scfg.simd = level;
    solver::EulerSolver es(m, scfg);
    init_state(es, m);
    // Per-cell CFL reads only cell-local geometry and state, so this
    // re-derives exactly the levels the partitioner saw.
    es.assign_temporal_levels();
    const auto iter = es.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
    const SweepTiming t = time_sweeps(es, m, iter, reps);

    const std::string level_name = simd::to_string(level);
    const bool scalar = level == simd::Level::scalar;
    // Scalar rows carry the mesh name only; SIMD rows append the level.
    const std::string suffix = "." + mesh_name + (scalar ? "" : "." + level_name);
    obs::gauge("solver.flux_gcells_per_s" + suffix).set(t.flux_gobj_s());
    obs::gauge("solver.update_gcells_per_s" + suffix).set(t.update_gobj_s());
    if (scalar) {
      scalar_rate = t.combined_gobj_s();
      if (kind == mesh::TestMeshKind::nozzle) {
        // Headline gauges: scalar kernels, nozzle.
        obs::gauge("solver.flux_gcells_per_s").set(t.flux_gobj_s());
        obs::gauge("solver.update_gcells_per_s").set(t.update_gobj_s());
      }
    }
    const double simd_speedup = t.combined_gobj_s() / scalar_rate;
    obs::gauge("solver.simd_speedup." + mesh_name + "." + level_name)
        .set(simd_speedup);
    best_simd = std::max(best_simd, simd_speedup);
    table.row({mesh_name, level_name, std::to_string(m.num_cells()),
               fmt_double(t.flux_gobj_s(), 3), fmt_double(t.update_gobj_s(), 3),
               fmt_double(t.combined_gobj_s(), 3),
               fmt_double(simd_speedup, 2)});
  }
  // Best lane over the sweep — the acceptance gauge the CI perf smoke
  // gates (≥ 1.5× vs the scalar kernels on at least one mesh).
  obs::gauge("solver.simd_speedup." + mesh_name).set(best_simd);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("micro_solver — flux/update sweep throughput by SIMD tier");
  bench::add_common_options(cli);
  cli.option("domains", "16", "domains for the on-the-fly decomposition");
  cli.option("strategy", "mc_tl", "partitioning strategy");
  cli.option("reps", "8", "timed repetitions; best rep is reported");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("micro_solver: Euler kernel sweeps x SIMD lanes (1 thread)",
                "§V task bodies; arXiv:1704.01144 locality sensitivity");
  try {
    TablePrinter t(
        "sweep throughput (Gobjects/s, best of reps; speedup vs scalar)");
    t.header({"mesh", "simd", "cells", "flux", "update", "combined",
              "speedup"});
    bench_mesh(mesh::TestMeshKind::nozzle, cli, t);
    bench_mesh(mesh::TestMeshKind::cube, cli, t);
    t.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "micro_solver: " << e.what() << '\n';
    return 1;
  }
  bench::dump_bench_metrics("micro_solver");
  return 0;
}
