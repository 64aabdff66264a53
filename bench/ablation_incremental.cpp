// Ablation of incremental repartitioning under temporal-level drift —
// the production regime behind the paper's §III-A premise ("the temporal
// levels of the cells experience minimal evolution across iterations").
//
// Simulates a sequence of level-drift steps and compares, at each step,
// repartitioning from scratch (best quality, massive data migration)
// against incremental repartitioning (previous assignment + targeted
// moves). The reproduction target: incremental keeps the MC_TL schedule
// quality within a few percent at a small fraction of the migration.
#include "bench_common.hpp"
#include "mesh/evolve.hpp"
#include "partition/incremental.hpp"
#include "taskgraph/generate.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("ablation_incremental — repartitioning under level drift");
  bench::add_common_options(cli);
  cli.option("domains", "32", "number of domains");
  cli.option("processes", "8", "MPI processes");
  cli.option("workers", "4", "cores per process");
  cli.option("steps", "5", "drift steps");
  cli.option("drift", "0.08", "per-step boundary-cell drift probability");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("incremental repartitioning under temporal-level drift",
                "levels evolve slowly (§III-A); incremental updates should "
                "hold MC_TL's makespan at a fraction of the migration cost "
                "of scratch repartitioning");

  auto m = bench::make_bench_mesh(mesh::TestMeshKind::cylinder,
                                  cli.get_double("scale"),
                                  static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const auto d2p = partition::map_domains_to_processes(
      ndomains, nproc, partition::DomainMapping::block);

  auto makespan_of = [&](const std::vector<part_t>& domains) {
    const auto graph = taskgraph::generate_task_graph(m, domains, ndomains);
    sim::SimOptions simopts;
    simopts.cluster.num_processes = nproc;
    simopts.cluster.workers_per_process =
        static_cast<int>(cli.get_int("workers"));
    return sim::simulate(graph, d2p, simopts).makespan;
  };

  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = ndomains;
  sopts.partitioner.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  auto dd = partition::decompose(m, sopts);
  std::vector<part_t> incremental = dd.domain_of_cell;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")) + 17);
  TablePrinter t;
  t.header({"step", "cells drifted", "scratch makespan", "scratch migration",
            "incremental makespan", "incremental migration"});
  const int steps = static_cast<int>(cli.get_int("steps"));
  for (int step = 1; step <= steps; ++step) {
    const auto drift =
        mesh::evolve_levels(m, cli.get_double("drift"), rng);

    // Scratch: full repartition with a fresh seed (labels unrelated to
    // the previous assignment — as a production run would experience).
    const std::vector<part_t> previous = incremental;
    sopts.partitioner.seed += 101;
    const auto scratch = partition::decompose(m, sopts);
    index_t scratch_moved = 0;
    for (index_t c = 0; c < m.num_cells(); ++c)
      if (scratch.domain_of_cell[static_cast<std::size_t>(c)] !=
          previous[static_cast<std::size_t>(c)])
        ++scratch_moved;

    // Incremental.
    const auto g =
        partition::build_strategy_graph(m, partition::Strategy::mc_tl);
    const auto report =
        partition::incremental_repartition(g, incremental, ndomains);

    t.row({std::to_string(step), fmt_count(drift.cells_changed),
           fmt_double(makespan_of(scratch.domain_of_cell), 0),
           fmt_count(scratch_moved), fmt_double(makespan_of(incremental), 0),
           fmt_count(report.migrated_vertices)});
  }
  t.print(std::cout);
  std::cout << "Shape check: incremental migration is a small fraction of "
               "scratch migration while the makespans stay comparable.\n";
  bench::dump_bench_metrics("ablation_incremental");
  return 0;
}
