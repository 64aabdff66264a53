// Reproduces Table I: the per-temporal-level census (#Cells, %Cells,
// %Computation) of the CYLINDER, CUBE and PPRIME_NOZZLE meshes, printed
// side by side with the paper's numbers.
#include "bench_common.hpp"
#include "mesh/levels.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("table1_meshes — reproduce paper Table I (test meshes)");
  bench::add_common_options(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  const double scale = cli.get_double("scale");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  bench::banner("Table I — test mesh census",
                "three Airbus meshes; %Computation follows #cells x "
                "2^(tmax-t) from the operating-cost model");

  for (const auto kind :
       {mesh::TestMeshKind::cylinder, mesh::TestMeshKind::cube,
        mesh::TestMeshKind::nozzle}) {
    const mesh::Mesh m = bench::make_bench_mesh(kind, scale, seed);
    const mesh::LevelCensus census = mesh::level_census(m);
    const auto& paper = mesh::paper_stats(kind);

    TablePrinter t(std::string(paper.name) + "  (generated " +
                   fmt_count(m.num_cells()) + " cells; paper " +
                   fmt_count(paper.total_cells) + ")");
    std::vector<std::string> head{"row"};
    for (level_t l = 0; l < census.num_levels(); ++l)
      head.push_back("t=" + std::to_string(l));
    t.header(head);

    std::vector<std::string> cells{"#Cells"}, pcells{"%Cells"},
        pcomp{"%Computation"}, paper_pcells{"%Cells (paper)"};
    for (level_t l = 0; l < census.num_levels(); ++l) {
      cells.push_back(
          fmt_count(census.cells_per_level[static_cast<std::size_t>(l)]));
      pcells.push_back(fmt_percent(census.cell_fraction(l)));
      pcomp.push_back(fmt_percent(census.computation_fraction(l)));
      paper_pcells.push_back(
          fmt_percent(paper.level_fractions[static_cast<std::size_t>(l)]));
    }
    t.row(cells).row(pcells).row(pcomp).separator().row(paper_pcells);
    t.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Shape check: %Computation rows must match the paper's "
               "(4.4/11.3/43.2/41.2, 9.7/38.6/0.4/51.3, 28.4/38.3/33.3) —\n"
               "they follow analytically from the %Cells rows, which the "
               "generators match by construction.\n";
  bench::dump_bench_metrics("table1_meshes");
  return 0;
}
