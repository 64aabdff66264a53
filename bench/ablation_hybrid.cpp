// Ablation of the paper's §VII perspective: the dual-phase HYBRID
// strategy (MC_TL across processes, then SC_OC inside each process
// domain) against plain SC_OC and MC_TL, on CYLINDER and PPRIME_NOZZLE.
//
// Expected: HYBRID recovers most of MC_TL's makespan advantage at a
// fraction of its inter-process communication — the "favorable
// compromise" the paper's preliminary results suggest.
#include "bench_common.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("ablation_hybrid — dual-phase partitioning (§VII)");
  bench::add_common_options(cli);
  cli.option("domains", "64", "number of domains");
  cli.option("processes", "16", "MPI processes");
  cli.option("worker-counts", "2,8", "cores-per-process values to sweep");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner(
      "§VII — HYBRID dual-phase partitioning ablation",
      "HYBRID balances levels per process but keeps SC_OC granularity "
      "inside; at modest core counts it matches MC_TL at far less "
      "communication — the paper's 'favorable compromise'. At high core "
      "counts its level-segregated subdomains starve workers within a "
      "phase and the advantage fades.");

  std::vector<int> worker_counts;
  {
    std::string list = cli.get("worker-counts");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      worker_counts.push_back(std::stoi(list.substr(pos, comma - pos)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  for (const auto kind :
       {mesh::TestMeshKind::cylinder, mesh::TestMeshKind::nozzle}) {
    const auto m = bench::make_bench_mesh(
        kind, cli.get_double("scale"),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    for (const int workers : worker_counts) {
      TablePrinter t(std::string(mesh::paper_stats(kind).name) + " — " +
                     std::to_string(workers) + " cores/process");
      t.header({"strategy", "makespan", "occupancy", "cross-proc edges",
                "mesh cut", "level imb."});
      for (const auto strategy :
           {partition::Strategy::sc_oc, partition::Strategy::mc_tl,
            partition::Strategy::hybrid}) {
        core::RunConfig cfg;
        cfg.strategy = strategy;
        cfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
        cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
        cfg.workers_per_process = workers;
        cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        const auto out = core::run_on_mesh(m, cfg);
        t.row({partition::to_string(strategy), fmt_double(out.makespan(), 0),
               fmt_percent(out.occupancy()), fmt_count(out.comm_volume()),
               fmt_count(out.decomposition.edge_cut),
               fmt_double(out.decomposition.level_imbalance(), 2)});
      }
      t.print(std::cout);
      std::cout << '\n';
    }
  }
  std::cout << "Shape check: at the low core count HYBRID's makespan is "
               "within a few percent of MC_TL's with roughly half the "
               "cross-process edges.\n";
  bench::dump_bench_metrics("ablation_hybrid");
  return 0;
}
