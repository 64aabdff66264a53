// Installed-jet-noise style workflow — the paper's motivating scenario.
//
// Mirrors how FLUSEPA is operated at Airbus on the PPRIME nozzle case:
// generate/load the nozzle mesh, decide a domain count from the target
// cluster, partition with the production strategy, inspect the predicted
// iteration schedule, and only then commit compute hours. The example
// compares the legacy SC_OC setup against MC_TL for a user-specified
// cluster and writes the trace pair an engineer would eyeball.
//
// Run:  ./jet_noise_pipeline [--cells 150000 --processes 8 --workers 8]
#include <iostream>

#include "core/pipeline.hpp"
#include "graph/components.hpp"
#include "support/cli.hpp"
#include "support/gantt.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("jet_noise_pipeline — plan a PPRIME-style production run");
  cli.option("cells", "120000", "nozzle mesh size (cells)");
  cli.option("processes", "8", "MPI processes of the booking");
  cli.option("workers", "8", "cores per process");
  cli.option("domains-per-process", "4", "granularity knob");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  mesh::TestMeshSpec spec;
  spec.target_cells = static_cast<index_t>(cli.get_int("cells"));
  const mesh::Mesh nozzle = mesh::make_nozzle_mesh(spec);
  const auto nproc = static_cast<part_t>(cli.get_int("processes"));
  const auto ndom =
      nproc * static_cast<part_t>(cli.get_int("domains-per-process"));

  std::cout << "PPRIME-style nozzle: " << nozzle.num_cells() << " cells, "
            << static_cast<int>(nozzle.max_level()) + 1
            << " temporal levels; cluster: " << nproc << " processes x "
            << cli.get_int("workers") << " cores, " << ndom << " domains\n\n";

  TablePrinter t("predicted iteration (work units; lower is better)");
  t.header({"strategy", "makespan", "occupancy", "est. messages",
            "domain fragments"});
  core::RunOutcome outcomes[2];
  int i = 0;
  for (const auto strategy :
       {partition::Strategy::sc_oc, partition::Strategy::mc_tl}) {
    core::RunConfig cfg;
    cfg.strategy = strategy;
    cfg.ndomains = ndom;
    cfg.nprocesses = nproc;
    cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
    outcomes[i] = core::run_on_mesh(nozzle, cfg);
    const auto& out = outcomes[i];

    // Fragmentation check (paper §IX: constrained partitions tend to
    // produce disconnected domains → more interfaces).
    const auto fragments = graph::part_fragment_counts(
        nozzle.dual_graph(), out.decomposition.domain_of_cell, ndom);
    index_t extra_fragments = 0;
    for (const index_t f : fragments) extra_fragments += f - 1;

    t.row({partition::to_string(strategy), fmt_double(out.makespan(), 0),
           fmt_percent(out.occupancy()), fmt_count(out.comm_volume()),
           "+" + std::to_string(extra_fragments)});
    ++i;
  }
  t.print(std::cout);

  const double gain = 1.0 - outcomes[1].makespan() / outcomes[0].makespan();
  std::cout << "\nSwitching this booking to MC_TL saves "
            << fmt_percent(gain) << " of every iteration.\n";

  write_gantt_comparison_svg(
      outcomes[0].sim.gantt(outcomes[0].graph, false, "SC_OC plan"),
      outcomes[1].sim.gantt(outcomes[1].graph, false, "MC_TL plan"),
      "jet_noise_plan.svg");
  std::cout << "Schedule comparison written to jet_noise_plan.svg\n";
  return 0;
}
