// Adaptive finite-volume solver demo: a blast-like pressure pulse in a
// graded box, integrated with the temporal-level scheme and executed as a
// task graph on the threaded runtime — the full FLUSEPA-substitute stack.
//
// Prints per-iteration conservation and wavefront diagnostics so the
// adaptive machinery is observable: coarse far-field cells update 2^τ
// times less often yet all cells land on the same physical time.
//
// Run:  ./adaptive_solver_demo [--grid 24 --iterations 6]
#include <iostream>

#include "mesh/generators.hpp"
#include "partition/strategy.hpp"
#include "solver/euler.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("adaptive_solver_demo — blast pulse with adaptive stepping");
  cli.option("grid", "24", "cells per axis of the graded box");
  cli.option("iterations", "6", "solver iterations to run");
  cli.option("domains", "8", "domains for the task-based execution");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  const auto n = static_cast<index_t>(cli.get_int("grid"));
  mesh::Mesh m = mesh::make_graded_box_mesh(n, n, n, 1.12);

  solver::EulerSolver s(m);
  s.initialize_uniform(1.0, {0, 0, 0}, 1.0);
  s.add_pulse({1.5, 1.5, 1.5}, 1.0, 0.4);  // blast at the refined corner
  s.assign_temporal_levels();

  std::cout << "graded box " << n << "^3: " << m.num_cells() << " cells, "
            << static_cast<int>(m.max_level()) + 1
            << " temporal levels, dt0 = " << s.dt0() << "\n";
  const auto census = mesh::level_census(m);
  for (level_t l = 0; l < census.num_levels(); ++l)
    std::cout << "  level " << static_cast<int>(l) << ": "
              << census.cells_per_level[static_cast<std::size_t>(l)]
              << " cells (updates every " << (1 << l) << " subiterations)\n";

  const auto ndomains = static_cast<part_t>(cli.get_int("domains"));
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = ndomains;
  const auto dd = partition::decompose(m, sopts);
  const auto d2p = partition::map_domains_to_processes(
      ndomains, 2, partition::DomainMapping::block);
  runtime::RuntimeConfig rcfg;
  rcfg.num_processes = 2;
  rcfg.workers_per_process = 2;

  const solver::State initial = s.conserved_totals();
  TablePrinter t("task-parallel adaptive integration");
  t.header({"iter", "time", "max density", "mass drift", "energy drift",
            "tasks run", "runtime occupancy"});
  const int iterations = static_cast<int>(cli.get_int("iterations"));
  for (int it = 1; it <= iterations; ++it) {
    const auto report =
        s.run_iteration_tasks(dd.domain_of_cell, ndomains, d2p, rcfg);
    const solver::State now = s.conserved_totals();
    t.row({std::to_string(it), fmt_double(s.time(), 4),
           fmt_double(s.max_density(), 4),
           fmt_double(std::abs(now[0] - initial[0]) / initial[0], 15),
           fmt_double(std::abs(now[4] - initial[4]) / initial[4], 15),
           std::to_string(report.spans.size()),
           fmt_percent(report.occupancy())});
  }
  t.print(std::cout);
  std::cout << "Mass/energy drift stays at rounding level: the per-side "
               "face accumulators make the adaptive scheme exactly "
               "conservative, even mid-subcycle.\n";
  return 0;
}
