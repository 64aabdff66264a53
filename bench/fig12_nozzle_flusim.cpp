// Reproduces Fig 12: FLUSIM comparison on PPRIME_NOZZLE with the Fig 5
// configuration (12 domains, 6 processes x 4 cores). The paper reports a
// smaller but still considerable improvement of ~20 % for MC_TL — the
// nozzle's 3-level structure is less pathological than CYLINDER's 4.
#include "bench_common.hpp"
#include "support/gantt.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("fig12_nozzle_flusim — PPRIME_NOZZLE in FLUSIM (Fig 12)");
  bench::add_common_options(cli);
  cli.option("domains", "12", "number of domains");
  cli.option("processes", "6", "MPI processes");
  cli.option("workers", "4", "cores per process");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("Fig 12 — PPRIME_NOZZLE, 12 domains, 6 processes x 4 cores",
                "MC_TL improves the nozzle iteration by ~20% in FLUSIM");

  const auto m = bench::make_bench_mesh(
      mesh::TestMeshKind::nozzle, cli.get_double("scale"),
      static_cast<std::uint64_t>(cli.get_int("seed")));

  core::RunConfig cfg;
  cfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
  cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
  cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  cfg.strategy = partition::Strategy::sc_oc;
  const auto oc = core::run_on_mesh(m, cfg);
  cfg.strategy = partition::Strategy::mc_tl;
  const auto tl = core::run_on_mesh(m, cfg);

  TablePrinter t;
  t.header({"strategy", "makespan", "occupancy", "tasks", "cut"});
  t.row({"SC_OC", fmt_double(oc.makespan(), 0), fmt_percent(oc.occupancy()),
         fmt_count(oc.graph.num_tasks()), fmt_count(oc.decomposition.edge_cut)});
  t.row({"MC_TL", fmt_double(tl.makespan(), 0), fmt_percent(tl.occupancy()),
         fmt_count(tl.graph.num_tasks()), fmt_count(tl.decomposition.edge_cut)});
  t.print(std::cout);

  const double gain = 1.0 - tl.makespan() / oc.makespan();
  std::cout << "MC_TL saves " << fmt_percent(gain)
            << " of the iteration (paper: ~20%).\n";

  const std::string dir = bench::artifact_dir(cli);
  write_gantt_comparison_svg(
      oc.sim.gantt(oc.graph, true, "PPRIME_NOZZLE SC_OC"),
      tl.sim.gantt(tl.graph, true, "PPRIME_NOZZLE MC_TL"),
      dir + "/fig12_traces.svg");
  std::cout << "Traces in " << dir << "/fig12_traces.svg\n";
  bench::dump_bench_metrics("fig12_nozzle_flusim");
  return 0;
}
