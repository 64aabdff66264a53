// Solver kernel microbenchmark: flux and cell-update sweep throughput,
// mesh-order input vs the locality-renumbered mesh (partition/reorder,
// see DESIGN.md "Locality renumbering"). Runs the real Euler task bodies
// — the same code run_iteration_tasks() executes — over every face task
// and every cell task of one full temporal-adaptive iteration, on the
// nozzle and cube meshes. The solver lays its kernel data out class by
// class whatever the mesh numbering (solver/fv_driver.hpp), so the
// mesh-order row streams through the solver's own layout too and
// layout_speedup ≈ 1 is expected; it was the per-object list walk's
// cost before the solver owned its layout.
//
// Emits solver.flux_gcells_per_s / solver.update_gcells_per_s /
// solver.layout gauges (headline = nozzle, locality layout, scalar
// kernels) plus per-(mesh × layout) and layout-speedup gauges, a SIMD
// lane sweep on the locality layout (scalar/sse2/avx2 rows with
// solver.simd_speedup.<mesh>[.<level>] gauges, measured against the
// locality-scalar row), and a tamp-metrics-v1 snapshot under
// TAMP_BENCH_METRICS_DIR for tamp-report gating.
#include <algorithm>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mesh/generators.hpp"
#include "obs/metrics.hpp"
#include "partition/reorder.hpp"
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
/// the inputs stay finite and identical across reps and layouts.
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
  double baseline = 0.0;         // mesh-order, scalar (the PR-5 "before")
  double locality_scalar = 0.0;  // locality layout, scalar kernels
  double best_simd = 1.0;        // best simd_speedup over the lane sweep
  for (const partition::Reorder layout :
       {partition::Reorder::none, partition::Reorder::locality}) {
    const std::string layout_name = partition::to_string(layout);
    const bool permuted = layout == partition::Reorder::locality;
    auto rd = permuted ? partition::reorder_for_locality(m, dd.domain_of_cell,
                                                         dd.ndomains)
                       : partition::ReorderedDecomposition{
                             mesh::permute_mesh(
                                 m, mesh::identity_permutation(m)),
                             mesh::identity_permutation(m), dd.domain_of_cell};
    // Lane sweep rides the locality layout only; the mesh-order row
    // stays scalar, the baseline layout_speedup divides by.
    const std::vector<simd::Level> levels =
        permuted ? simd::runnable_levels()
                 : std::vector<simd::Level>{simd::Level::scalar};
    for (const simd::Level level : levels) {
      solver::SolverConfig scfg;
      scfg.simd = level == simd::Level::avx2   ? simd::Request::avx2
                  : level == simd::Level::sse2 ? simd::Request::sse2
                                               : simd::Request::scalar;
      solver::EulerSolver es(rd.mesh, scfg);
      init_state(es, rd.mesh);
      // Per-cell CFL reads only cell-local geometry and state, so this
      // re-derives exactly the levels the partitioner saw, renumbered.
      es.assign_temporal_levels();
      const auto iter =
          es.make_iteration_tasks(rd.domain_of_cell, dd.ndomains);
      const SweepTiming t = time_sweeps(es, rd.mesh, iter, reps);

      const std::string level_name = simd::to_string(level);
      const bool scalar = level == simd::Level::scalar;
      // Scalar rows keep the PR-5 gauge names; SIMD rows append the
      // level so snapshots stay comparable across PRs.
      const std::string suffix =
          "." + mesh_name + "." + layout_name + (scalar ? "" : "." + level_name);
      obs::gauge("solver.flux_gcells_per_s" + suffix).set(t.flux_gobj_s());
      obs::gauge("solver.update_gcells_per_s" + suffix).set(t.update_gobj_s());
      double speedup = 1.0;
      if (!permuted) {
        baseline = t.combined_gobj_s();
      } else {
        speedup = t.combined_gobj_s() / baseline;
        if (scalar) {
          locality_scalar = t.combined_gobj_s();
          obs::gauge("solver.layout_speedup." + mesh_name).set(speedup);
          if (kind == mesh::TestMeshKind::nozzle) {
            // Headline gauges: locality layout, scalar kernels, nozzle.
            obs::gauge("solver.flux_gcells_per_s").set(t.flux_gobj_s());
            obs::gauge("solver.update_gcells_per_s").set(t.update_gobj_s());
            obs::gauge("solver.layout").set(1);  // 0 = none, 1 = locality
          }
        }
        // SIMD speedup is measured against the locality-scalar row (the
        // layout win is already booked in layout_speedup).
        const double simd_speedup = t.combined_gobj_s() / locality_scalar;
        obs::gauge("solver.simd_speedup." + mesh_name + "." + level_name)
            .set(simd_speedup);
        best_simd = std::max(best_simd, simd_speedup);
      }
      table.row({mesh_name, layout_name, level_name,
                 std::to_string(rd.mesh.num_cells()),
                 fmt_double(t.flux_gobj_s(), 3),
                 fmt_double(t.update_gobj_s(), 3),
                 fmt_double(t.combined_gobj_s(), 3),
                 permuted ? fmt_double(speedup, 2) : std::string("1.00")});
    }
  }
  // Best lane over the sweep — the acceptance gauge the CI perf smoke
  // gates (≥ 1.5× vs the locality-scalar kernels on at least one mesh).
  obs::gauge("solver.simd_speedup." + mesh_name).set(best_simd);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("micro_solver — flux/update sweep throughput by data layout");
  bench::add_common_options(cli);
  cli.option("domains", "16", "domains for the on-the-fly decomposition");
  cli.option("strategy", "mc_tl", "partitioning strategy");
  cli.option("reps", "8", "timed repetitions; best rep is reported");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("micro_solver: Euler kernel sweeps, mesh-order vs locality "
                "layout x SIMD lanes (1 thread)",
                "§V task bodies; arXiv:1704.01144 locality sensitivity");
  try {
    TablePrinter t(
        "sweep throughput (Gobjects/s, best of reps; speedup vs mesh-order)");
    t.header({"mesh", "layout", "simd", "cells", "flux", "update", "combined",
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
