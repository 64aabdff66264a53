// Ablation adding the geometric baseline from the paper's related work:
// a Hilbert space-filling-curve partitioner (Zoltan-style / reference
// [1]). SFC balances its single weight perfectly and is far faster than
// multilevel partitioning, but knows nothing about temporal levels — its
// schedules behave like SC_OC's, underlining that MC_TL's gain comes from
// level awareness, not from partitioner quality.
#include "bench_common.hpp"
#include "partition/sfc.hpp"
#include "support/stopwatch.hpp"
#include "taskgraph/generate.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("ablation_sfc_baseline — geometric SFC vs multilevel");
  bench::add_common_options(cli);
  cli.option("domains", "64", "number of domains");
  cli.option("processes", "16", "MPI processes");
  cli.option("workers", "8", "cores per process");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("related work — Hilbert-SFC geometric baseline",
                "geometric methods (Zoltan, Cartesian-CFD SFC) ignore "
                "connectivity and temporal levels: fast and cost-balanced, "
                "but their task graphs starve like SC_OC's");

  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto m = bench::make_bench_mesh(mesh::TestMeshKind::cylinder,
                                        cli.get_double("scale"), seed);
  const auto d2p = partition::map_domains_to_processes(
      ndomains, nproc, partition::DomainMapping::block);
  const auto g_oc = partition::build_strategy_graph(m, partition::Strategy::sc_oc);
  const auto g_tl = partition::build_strategy_graph(m, partition::Strategy::mc_tl);

  TablePrinter t("CYLINDER, " + std::to_string(ndomains) + " domains");
  t.header({"partitioner", "time", "cut", "cost imb.", "level imb.",
            "makespan", "occupancy"});

  auto add_row = [&](const std::string& name,
                     const std::vector<part_t>& domains, double seconds) {
    const auto graph = taskgraph::generate_task_graph(m, domains, ndomains);
    sim::SimOptions simopts;
    simopts.cluster.num_processes = nproc;
    simopts.cluster.workers_per_process =
        static_cast<int>(cli.get_int("workers"));
    const auto sr = sim::simulate(graph, d2p, simopts);
    t.row({name, fmt_double(seconds, 2) + " s",
           fmt_count(partition::edge_cut(m.dual_graph(), domains)),
           fmt_double(partition::max_imbalance(g_oc, domains, ndomains), 2),
           fmt_double(partition::max_imbalance(g_tl, domains, ndomains), 2),
           fmt_double(sr.makespan, 0), fmt_percent(sr.occupancy())});
  };

  {
    ScopedTimer timer("bench.partition.seconds");
    const auto part = partition::sfc_partition_operating_cost(m, ndomains);
    add_row("SFC (Hilbert, OC weights)", part, timer.stop());
  }
  for (const auto strategy :
       {partition::Strategy::sc_oc, partition::Strategy::mc_tl}) {
    partition::StrategyOptions sopts;
    sopts.strategy = strategy;
    sopts.ndomains = ndomains;
    sopts.partitioner.seed = seed;
    ScopedTimer timer("bench.partition.seconds");
    const auto dd = partition::decompose(m, sopts);
    add_row(std::string("multilevel ") + partition::to_string(strategy),
            dd.domain_of_cell, timer.stop());
  }
  t.print(std::cout);
  std::cout << "Shape check: SFC is fastest with a fine cost balance but "
               "its level imbalance — and therefore makespan — lands in "
               "SC_OC territory; only MC_TL fixes the schedule.\n";
  bench::dump_bench_metrics("ablation_sfc_baseline");
  return 0;
}
