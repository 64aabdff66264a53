// Reproduces Fig 7 (SC_OC) and Fig 10 (MC_TL): per-process operating
// costs broken down by temporal level (panel a) and per-subiteration
// cumulative computation per process (panel b), CYLINDER, 16 domains.
//
// The paper's observation: SC_OC balances the *total* bar heights while
// their level composition diverges wildly (processes 10-15 almost pure
// τ=3), so each process works in only a few subiterations. MC_TL makes
// every bar's composition identical, and every subiteration balanced.
#include "bench_common.hpp"
#include "taskgraph/generate.hpp"

using namespace tamp;

namespace {

void census_for(const mesh::Mesh& m, partition::Strategy strategy,
                part_t nproc, std::uint64_t seed, const std::string& fig,
                const std::string& dir) {
  core::RunConfig cfg;
  cfg.strategy = strategy;
  cfg.ndomains = nproc;  // paper: one domain per process in this figure
  cfg.nprocesses = nproc;
  cfg.workers_per_process = 32;
  cfg.seed = seed;
  const core::RunOutcome out = core::run_on_mesh(m, cfg);
  const auto& dd = out.decomposition;

  TablePrinter ta(fig + "a — operating cost by temporal level per process (" +
                  std::string(partition::to_string(strategy)) + ")");
  std::vector<std::string> head{"process"};
  for (level_t l = 0; l < dd.num_levels; ++l)
    head.push_back("t=" + std::to_string(l));
  head.push_back("total");
  ta.header(head);
  for (part_t p = 0; p < nproc; ++p) {
    std::vector<std::string> row{std::to_string(p)};
    for (level_t l = 0; l < dd.num_levels; ++l)
      row.push_back(fmt_count(dd.cost_in(p, l)));
    row.push_back(fmt_count(dd.total_cost(p)));
    ta.row(row);
  }
  ta.print(std::cout);
  std::cout << "cost imbalance: " << fmt_double(dd.cost_imbalance(), 3)
            << "   level imbalance: " << fmt_double(dd.level_imbalance(), 3)
            << "\n\n";

  const auto work = taskgraph::work_per_process_subiteration(
      out.graph, out.domain_to_process, nproc);
  const auto nsub = static_cast<index_t>(work.size() / static_cast<std::size_t>(nproc));
  TablePrinter tb(fig + "b — computation per subiteration per process (" +
                  std::string(partition::to_string(strategy)) + ")");
  std::vector<std::string> headb{"process"};
  for (index_t s = 0; s < nsub; ++s) headb.push_back("s" + std::to_string(s));
  tb.header(headb);
  index_t silent_cells = 0;
  for (part_t p = 0; p < nproc; ++p) {
    std::vector<std::string> row{std::to_string(p)};
    for (index_t s = 0; s < nsub; ++s) {
      const double w = work[static_cast<std::size_t>(p) * nsub +
                            static_cast<std::size_t>(s)];
      if (w == 0) ++silent_cells;
      row.push_back(fmt_double(w, 0));
    }
    tb.row(row);
  }
  tb.print(std::cout);
  std::cout << "process-subiterations with zero work: " << silent_cells
            << " / " << nproc * nsub << "\n\n";

  TablePrinter csv;
  csv.header({"process", "subiteration", "work"});
  for (part_t p = 0; p < nproc; ++p)
    for (index_t s = 0; s < nsub; ++s)
      csv.row({std::to_string(p), std::to_string(s),
               fmt_double(work[static_cast<std::size_t>(p) * nsub +
                               static_cast<std::size_t>(s)],
                          1)});
  csv.write_csv(dir + "/" + fig + "b_" +
                std::string(partition::to_string(strategy)) + ".csv");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "fig7_fig10_domain_census — domain characteristics under SC_OC "
      "(Fig 7) and MC_TL (Fig 10)");
  bench::add_common_options(cli);
  cli.option("processes", "16", "MPI processes (one domain each)");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("Fig 7 / Fig 10 — CYLINDER domain census, 16 processes",
                "SC_OC: balanced totals, wildly uneven level mix, "
                "subiteration starvation; MC_TL: every level and every "
                "subiteration balanced");

  const auto m = bench::make_bench_mesh(
      mesh::TestMeshKind::cylinder, cli.get_double("scale"),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string dir = bench::artifact_dir(cli);

  census_for(m, partition::Strategy::sc_oc, nproc, seed, "fig7", dir);
  census_for(m, partition::Strategy::mc_tl, nproc, seed, "fig10", dir);

  std::cout << "Shape check: SC_OC rows are near-single-level and its 'b' "
               "table is full of zeros; MC_TL rows mix all levels and its "
               "'b' table has none.\n";
  bench::dump_bench_metrics("fig7_fig10_domain_census");
  return 0;
}
