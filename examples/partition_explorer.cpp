// Partition explorer: an interactive-style CLI for studying how strategy,
// domain count and tolerance shape a decomposition — the tool you reach
// for before committing a production partitioning choice.
//
// Run:  ./partition_explorer --mesh cube --strategy mc_tl --domains 32
#include <iostream>

#include "graph/components.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "partition/strategy.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("partition_explorer — inspect a domain decomposition");
  cli.option("mesh", "cube", "cylinder | cube | nozzle | path to .tamp-mesh");
  cli.option("cells", "50000", "generated mesh size (ignored for files)");
  cli.option("strategy", "mc_tl", "sc_cells | sc_oc | mc_tl | hybrid");
  cli.option("domains", "32", "number of domains");
  cli.option("processes", "8", "processes (HYBRID first phase, mapping)");
  cli.option("tolerance", "0.05", "per-constraint balance tolerance");
  cli.option("seed", "1", "partitioner seed");
  cli.flag("save-partition", "write <mesh>_partition.csv with cell→domain");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  // Accept either a generator name or a mesh file produced by save_mesh().
  mesh::Mesh m = [&] {
    const std::string name = cli.get("mesh");
    try {
      mesh::TestMeshSpec spec;
      spec.target_cells = static_cast<index_t>(cli.get_int("cells"));
      return mesh::make_test_mesh(mesh::parse_test_mesh_kind(name), spec);
    } catch (const precondition_error&) {
      std::cout << "loading mesh file " << name << "\n";
      return mesh::load_mesh(name);
    }
  }();

  partition::StrategyOptions opts;
  opts.strategy = partition::parse_strategy(cli.get("strategy"));
  opts.ndomains = static_cast<part_t>(cli.get_int("domains"));
  opts.nprocesses = static_cast<part_t>(cli.get_int("processes"));
  opts.partitioner.tolerance = cli.get_double("tolerance");
  opts.partitioner.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto dd = partition::decompose(m, opts);

  std::cout << "mesh: " << m.num_cells() << " cells / " << m.num_faces()
            << " faces / " << static_cast<int>(m.max_level()) + 1
            << " levels;  strategy " << partition::to_string(opts.strategy)
            << ", " << opts.ndomains << " domains\n\n";

  TablePrinter t("per-domain census");
  std::vector<std::string> head{"domain"};
  for (level_t l = 0; l < dd.num_levels; ++l)
    head.push_back("t=" + std::to_string(l));
  head.push_back("cost");
  head.push_back("fragments");
  t.header(head);
  const auto fragments = graph::part_fragment_counts(
      m.dual_graph(), dd.domain_of_cell, dd.ndomains);
  for (part_t d = 0; d < dd.ndomains; ++d) {
    std::vector<std::string> row{std::to_string(d)};
    for (level_t l = 0; l < dd.num_levels; ++l)
      row.push_back(fmt_count(dd.cells_in(d, l)));
    row.push_back(fmt_count(dd.total_cost(d)));
    row.push_back(std::to_string(fragments[static_cast<std::size_t>(d)]));
    t.row(row);
  }
  t.print(std::cout);

  index_t extra = 0;
  for (const index_t f : fragments) extra += f - 1;
  std::cout << "edge cut: " << fmt_count(dd.edge_cut)
            << "   cost imbalance: " << fmt_double(dd.cost_imbalance(), 3)
            << "   level imbalance: " << fmt_double(dd.level_imbalance(), 3)
            << "   disconnected fragments: +" << extra
            << " (paper §IX: multi-criteria partitions fragment more)\n";

  if (cli.get_flag("save-partition")) {
    TablePrinter csv;
    csv.header({"cell", "domain"});
    for (index_t c = 0; c < m.num_cells(); ++c)
      csv.row({std::to_string(c),
               std::to_string(dd.domain_of_cell[static_cast<std::size_t>(c)])});
    csv.write_csv("partition.csv");
    std::cout << "cell→domain map written to partition.csv\n";
  }
  return 0;
}
