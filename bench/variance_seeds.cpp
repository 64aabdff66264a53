// Robustness experiment: the MC_TL speedup is a property of the
// partitioning objective, not of one lucky partition. Re-runs the Fig 9
// configuration over several partitioner seeds and reports
// mean ± standard deviation of the speedup — a statistical check the
// paper (single production runs) could not afford.
#include "bench_common.hpp"
#include "support/stats.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("variance_seeds — speedup stability across partitioner seeds");
  bench::add_common_options(cli);
  cli.option("domains", "64", "number of domains");
  cli.option("processes", "16", "MPI processes");
  cli.option("workers", "8", "cores per process");
  cli.option("trials", "5", "independent partitioner seeds");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("multi-seed robustness of the MC_TL speedup",
                "the Fig 9 result repeated over independent partitioner "
                "seeds: the speedup distribution should be tight and "
                "bounded away from 1");

  const int trials = static_cast<int>(cli.get_int("trials"));
  TablePrinter t;
  t.header({"mesh", "speedup mean", "stddev", "min", "max",
            "MC_TL occupancy mean"});
  for (const auto kind :
       {mesh::TestMeshKind::cylinder, mesh::TestMeshKind::cube}) {
    const auto m = bench::make_bench_mesh(
        kind, cli.get_double("scale"),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    std::vector<double> speedups, occupancies;
    for (int trial = 0; trial < trials; ++trial) {
      core::RunConfig cfg;
      cfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
      cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
      cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
      cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed")) +
                 1000003ULL * static_cast<std::uint64_t>(trial);
      cfg.strategy = partition::Strategy::sc_oc;
      const auto oc = core::run_on_mesh(m, cfg);
      cfg.strategy = partition::Strategy::mc_tl;
      const auto tl = core::run_on_mesh(m, cfg);
      speedups.push_back(oc.makespan() / tl.makespan());
      occupancies.push_back(tl.occupancy());
    }
    const SampleStats sp = summarize_sample(speedups);
    const SampleStats oc = summarize_sample(occupancies);
    t.row({mesh::paper_stats(kind).name, fmt_double(sp.mean, 2) + "x",
           fmt_double(sp.stddev, 3), fmt_double(sp.min, 2),
           fmt_double(sp.max, 2), fmt_percent(oc.mean)});
  }
  t.print(std::cout);
  std::cout << "Shape check: min speedup stays well above 1; the spread is "
               "a few percent of the mean.\n";
  bench::dump_bench_metrics("variance_seeds");
  return 0;
}
