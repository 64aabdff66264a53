// Reproduces Fig 5: validates the FLUSIM-style simulator against a real
// task-runtime execution of the same task graph.
//
// The paper runs FLUSEPA (StarPU + MPI) and FLUSIM with identical
// parameters (PPRIME_NOZZLE, 12 domains, 6 processes x 4 cores, SC_OC)
// and observes the same scheduling patterns with ~20 % difference in
// iteration time. Here the "real" execution is the threaded runtime
// running calibrated synthetic kernels; the simulator predicts its
// makespan from the cost model. We report prediction error and emit both
// Gantt traces.
#include "bench_common.hpp"
#include "runtime/runtime.hpp"
#include "sim/measured.hpp"
#include "sim/trace_json.hpp"
#include "support/gantt.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("fig5_sim_vs_runtime — simulator accuracy (paper Fig 5)");
  bench::add_common_options(cli);
  cli.option("domains", "12", "number of domains");
  cli.option("processes", "6", "emulated MPI processes");
  cli.option("workers", "4", "workers per process");
  cli.option("spin-us", "20",
             "wall microseconds per cost unit in the runtime execution");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("Fig 5 — FLUSIM vs real runtime execution",
                "identical parametrisation: PPRIME_NOZZLE, 12 domains, 6 "
                "MPI processes x 4 cores, SC_OC; paper sees ~20% gap, same "
                "patterns");

  const auto m = bench::make_bench_mesh(
      mesh::TestMeshKind::nozzle, cli.get_double("scale"),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const int workers = static_cast<int>(cli.get_int("workers"));

  core::RunConfig cfg;
  cfg.strategy = partition::Strategy::sc_oc;
  cfg.ndomains = ndomains;
  cfg.nprocesses = nproc;
  cfg.workers_per_process = workers;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::RunOutcome out = core::run_on_mesh(m, cfg);

  // Real execution: calibrated busy-spin bodies through the runtime,
  // flight recorder armed so the measured run carries its own telemetry.
  const double spin = cli.get_double("spin-us") * 1e-6;
  runtime::RuntimeConfig rcfg;
  rcfg.num_processes = nproc;
  rcfg.workers_per_process = workers;
  rcfg.flight.enabled = true;
  const runtime::ExecutionReport report = runtime::execute(
      out.graph, out.domain_to_process, rcfg,
      runtime::make_synthetic_body(out.graph, spin));
  runtime::publish_execution_metrics(out.graph, report);

  const double predicted_seconds = out.sim.makespan * spin;
  const double gap =
      (report.wall_seconds - predicted_seconds) / report.wall_seconds;

  TablePrinter t;
  t.header({"execution", "makespan", "occupancy"});
  t.row({"FLUSIM prediction", fmt_double(predicted_seconds, 3) + " s",
         fmt_percent(out.sim.occupancy())});
  t.row({"runtime (threads)", fmt_double(report.wall_seconds, 3) + " s",
         fmt_percent(report.occupancy())});
  t.print(std::cout);
  std::cout << "Prediction gap: " << fmt_percent(std::abs(gap))
            << " (paper reports ~20% between FLUSEPA and FLUSIM; on a "
               "single-core box thread timeslicing inflates the measured "
               "run, so treat the gap qualitatively)\n";

  // Quantified Fig 5: the same comparison as divergence.* gauges, gated
  // by tamp-report in CI so simulator drift fails loudly.
  const sim::DivergenceReport div =
      sim::compare_sim_to_measured(out.graph, out.sim, report, spin);
  sim::print_divergence_report(std::cout, div);
  sim::publish_divergence_metrics(div);

  const std::string dir = bench::artifact_dir(cli);
  write_gantt_comparison_svg(
      sim::to_sim_result(report).gantt(out.graph, /*per_worker=*/true,
                                       "runtime execution (threads)"),
      out.sim.gantt(out.graph, true, "FLUSIM prediction"),
      dir + "/fig5_traces.svg");
  obs::save_text(sim::to_chrome_trace_merged(out.graph, report),
                 dir + "/fig5_runtime.trace.json");
  std::cout << "Traces written to " << dir << "/fig5_traces.svg and "
            << dir << "/fig5_runtime.trace.json\n";
  bench::dump_bench_metrics("fig5_sim_vs_runtime");
  return 0;
}
