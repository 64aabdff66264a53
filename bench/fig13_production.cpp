// Reproduces Fig 13: the production validation. The paper runs full
// FLUSEPA (real kernels, StarPU + MPI overheads, communication) on
// PPRIME_NOZZLE and still gains ~20 % with MC_TL.
//
// Our production stand-in executes the *real* finite-volume Euler kernels
// task-by-task through the threaded runtime on a geometrically consistent
// graded mesh, measures every task's actual duration, then replays those
// measured durations through the event simulator on the paper's cluster
// configuration (6 processes x 4 cores) with a non-zero communication
// model. This keeps real kernel cost variation (cache effects, per-level
// population differences) and overhead modelling in the comparison —
// the single-core box cannot time a genuinely parallel run.
#include "bench_common.hpp"
#include "runtime/runtime.hpp"
#include "solver/euler.hpp"
#include "support/gantt.hpp"

using namespace tamp;

namespace {

taskgraph::TaskGraph with_measured_costs(
    const taskgraph::TaskGraph& g,
    const std::vector<runtime::ExecutionReport::Span>& spans,
    double units_per_second) {
  std::vector<taskgraph::Task> tasks = g.tasks();
  std::vector<std::vector<index_t>> deps(tasks.size());
  for (index_t t = 0; t < g.num_tasks(); ++t) {
    const auto st = static_cast<std::size_t>(t);
    tasks[st].cost = std::max(
        (spans[st].end - spans[st].start) * units_per_second, 1e-9);
    deps[st].assign(g.predecessors(t).begin(), g.predecessors(t).end());
  }
  return taskgraph::TaskGraph(std::move(tasks), deps);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fig13_production — production-style validation (Fig 13)");
  bench::add_common_options(cli);
  cli.option("grid", "36", "graded production mesh resolution per axis");
  cli.option("domains", "12", "number of domains");
  cli.option("processes", "6", "MPI processes");
  cli.option("workers", "4", "cores per process");
  cli.option("comm-latency-us", "30", "per-message latency modelled, µs");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner(
      "Fig 13 — production run with real kernels + communication model",
      "paper: MC_TL keeps a ~20% gain inside production FLUSEPA, "
      "overheads included");

  const auto n = static_cast<index_t>(cli.get_int("grid"));
  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const int workers = static_cast<int>(cli.get_int("workers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  TablePrinter t;
  t.header({"strategy", "measured kernel time", "simulated makespan",
            "occupancy", "tasks"});
  double makespans[2] = {0, 0};
  int row = 0;
  const std::string dir = bench::artifact_dir(cli);
  GanttTrace traces[2];

  for (const auto strategy :
       {partition::Strategy::sc_oc, partition::Strategy::mc_tl}) {
    // Fresh mesh + state per strategy so both see identical physics.
    mesh::Mesh m = mesh::make_graded_box_mesh(n, n, n, 1.06);
    solver::EulerSolver solver(m);
    solver.initialize_uniform(1.0, {0.05, 0, 0}, 1.0);
    solver.add_pulse({2.0, 2.0, 2.0}, 1.5, 0.15);
    solver.assign_temporal_levels();

    partition::StrategyOptions sopts;
    sopts.strategy = strategy;
    sopts.ndomains = ndomains;
    sopts.partitioner.seed = seed;
    const auto dd = partition::decompose(m, sopts);

    const auto graph =
        taskgraph::generate_task_graph(m, dd.domain_of_cell, ndomains);

    // Serial execution with real kernels, timing every task. The solver
    // regenerates the same deterministic task graph internally, so its
    // spans align with `graph`'s task ids. Three iterations are measured
    // and each task keeps its minimum duration — the standard defence
    // against timer noise on a shared machine (task costs depend on
    // object counts, not state values, so the minimum is representative).
    const std::vector<part_t> serial_map(
        static_cast<std::size_t>(ndomains), 0);
    runtime::RuntimeConfig rcfg;  // 1 process, 1 worker
    runtime::ExecutionReport report = solver.run_iteration_tasks(
        dd.domain_of_cell, ndomains, serial_map, rcfg);
    for (int rep = 1; rep < 3; ++rep) {
      const runtime::ExecutionReport again = solver.run_iteration_tasks(
          dd.domain_of_cell, ndomains, serial_map, rcfg);
      for (std::size_t t = 0; t < report.spans.size(); ++t) {
        const double d_old =
            report.spans[t].end - report.spans[t].start;
        const double d_new = again.spans[t].end - again.spans[t].start;
        if (d_new < d_old) {
          report.spans[t].start = 0;
          report.spans[t].end = d_new;
        } else {
          report.spans[t].start = 0;
          report.spans[t].end = d_old;
        }
      }
      report.wall_seconds = std::min(report.wall_seconds, again.wall_seconds);
    }

    // Replay measured durations on the paper's cluster with comm costs.
    const taskgraph::TaskGraph measured =
        with_measured_costs(graph, report.spans, 1e6);  // µs units
    sim::SimOptions simopts;
    simopts.cluster.num_processes = nproc;
    simopts.cluster.workers_per_process = workers;
    simopts.comm.latency = cli.get_double("comm-latency-us");
    simopts.comm.per_object = 0.002;  // µs per halo object
    const auto d2p = partition::map_domains_to_processes(
        ndomains, nproc, partition::DomainMapping::block);
    const sim::SimResult sr = sim::simulate(measured, d2p, simopts);

    makespans[row] = sr.makespan;
    traces[row] = sr.gantt(measured, true,
                           std::string(partition::to_string(strategy)) +
                               " (measured kernel costs + comm)");
    t.row({partition::to_string(strategy),
           fmt_double(report.wall_seconds * 1e3, 1) + " ms",
           fmt_double(sr.makespan / 1e3, 2) + " ms",
           fmt_percent(sr.occupancy()), fmt_count(graph.num_tasks())});
    ++row;
  }
  t.print(std::cout);
  const double gain = 1.0 - makespans[1] / makespans[0];
  std::cout << "MC_TL production-style gain: " << fmt_percent(gain)
            << " (paper: ~20%, overheads and communication included)\n";
  write_gantt_comparison_svg(traces[0], traces[1], dir + "/fig13_traces.svg");
  std::cout << "Traces in " << dir << "/fig13_traces.svg\n";
  bench::dump_bench_metrics("fig13_production");
  return 0;
}
