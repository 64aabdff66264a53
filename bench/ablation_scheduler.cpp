// Scheduler ablation backing §III-C: no scheduling policy rescues the
// SC_OC task graph — the makespan spread across policies is small
// compared to the SC_OC → MC_TL gap.
#include "bench_common.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("ablation_scheduler — policies cannot fix the graph (§III-C)");
  bench::add_common_options(cli);
  cli.option("domains", "64", "number of domains");
  cli.option("processes", "16", "MPI processes");
  cli.option("workers", "8", "cores per process");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("§III-C — scheduling policy ablation on CYLINDER",
                "policy choice moves makespan by a few percent; the "
                "partitioning strategy moves it by ~2x");

  const auto m = bench::make_bench_mesh(
      mesh::TestMeshKind::cylinder, cli.get_double("scale"),
      static_cast<std::uint64_t>(cli.get_int("seed")));

  TablePrinter t;
  t.header({"strategy", "policy", "makespan", "occupancy"});
  double best_oc = 0, best_tl = 0;
  for (const auto strategy :
       {partition::Strategy::sc_oc, partition::Strategy::mc_tl}) {
    for (const auto policy :
         {sim::Policy::eager_fifo, sim::Policy::eager_lifo,
          sim::Policy::critical_path, sim::Policy::random_order}) {
      core::RunConfig cfg;
      cfg.strategy = strategy;
      cfg.policy = policy;
      cfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
      cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
      cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
      cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      const auto out = core::run_on_mesh(m, cfg);
      t.row({partition::to_string(strategy), sim::to_string(policy),
             fmt_double(out.makespan(), 0), fmt_percent(out.occupancy())});
      double& best =
          strategy == partition::Strategy::sc_oc ? best_oc : best_tl;
      if (best == 0 || out.makespan() < best) best = out.makespan();
    }
  }
  t.print(std::cout);
  std::cout << "Best SC_OC (any policy): " << fmt_double(best_oc, 0)
            << "  vs best MC_TL: " << fmt_double(best_tl, 0) << "  — ratio "
            << fmt_double(best_oc / best_tl, 2)
            << "x.\nShape check: even the smartest policy on SC_OC loses "
               "to plain FIFO on MC_TL.\n";
  bench::dump_bench_metrics("ablation_scheduler");
  return 0;
}
