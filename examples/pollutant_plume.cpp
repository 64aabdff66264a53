// Pollutant plume: the scalar transport solver in a realistic setting.
//
// A contaminant blob is released near the refined corner of a graded
// domain and advected/diffused downstream. The adaptive scheme updates
// the small source-region cells every subiteration and the coarse
// far-field rarely; the run executes as an MC_TL-partitioned task graph
// on the threaded runtime, and the invariant "inside + departed" is
// printed every iteration.
//
// Run:  ./pollutant_plume [--grid 20 --iterations 10]
#include <iostream>

#include "mesh/generators.hpp"
#include "partition/strategy.hpp"
#include "solver/transport.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("pollutant_plume — adaptive scalar transport demo");
  cli.option("grid", "20", "cells per axis of the graded box");
  cli.option("iterations", "10", "iterations to run");
  cli.option("domains", "8", "domains for task execution");
  cli.option("wind", "1.0", "wind speed along +x");
  cli.option("diffusivity", "0.05", "turbulent diffusivity");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  const auto n = static_cast<index_t>(cli.get_int("grid"));
  mesh::Mesh m = mesh::make_graded_box_mesh(n, n, n, 1.12);

  solver::TransportConfig cfg;
  cfg.velocity = {cli.get_double("wind"), 0.0, 0.0};
  cfg.diffusivity = cli.get_double("diffusivity");
  solver::TransportSolver s(m, cfg);
  s.initialize_uniform(0.0);
  s.add_blob({1.5, 1.5, 1.5}, 1.0, 10.0);  // release near the fine corner
  s.assign_temporal_levels();

  std::cout << "graded box " << n << "^3, " << m.num_cells() << " cells, "
            << static_cast<int>(m.max_level()) + 1
            << " temporal levels; wind " << cli.get_double("wind")
            << ", D = " << cli.get_double("diffusivity") << "\n\n";

  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = ndomains;
  const auto dd = partition::decompose(m, sopts);
  const auto d2p = partition::map_domains_to_processes(
      ndomains, 2, partition::DomainMapping::block);
  runtime::RuntimeConfig rc;
  rc.num_processes = 2;
  rc.workers_per_process = 2;

  const double initial = s.total_scalar() + s.net_boundary_outflow();
  TablePrinter t("plume evolution (task-parallel, MC_TL decomposition)");
  t.header({"iter", "time", "peak", "inside", "departed", "invariant drift"});
  for (int it = 1; it <= static_cast<int>(cli.get_int("iterations")); ++it) {
    s.run_iteration_tasks(dd.domain_of_cell, ndomains, d2p, rc);
    const double inside = s.total_scalar();
    const double out = s.net_boundary_outflow();
    t.row({std::to_string(it), fmt_double(s.time(), 3),
           fmt_double(s.max_value(), 4), fmt_double(inside, 3),
           fmt_double(out, 3),
           fmt_double(std::abs(inside + out - initial) / initial, 15)});
  }
  t.print(std::cout);
  std::cout << "The plume spreads and exits downstream; the invariant "
               "(inside + departed) holds to rounding at every step.\n";
  return 0;
}
