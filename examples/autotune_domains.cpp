// Granularity advisor: pick the number of domains for a target machine —
// the paper's §IX perspective ("automatically determine the best domain
// granularity with respect to the target machine's number of cores").
//
// Run:  ./autotune_domains [--mesh nozzle --processes 8 --workers 4]
#include <iostream>

#include "core/autotune.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("autotune_domains — choose domain granularity for a machine");
  cli.option("mesh", "cylinder", "cylinder | cube | nozzle");
  cli.option("cells", "60000", "mesh size");
  cli.option("processes", "8", "MPI processes of the target machine");
  cli.option("workers", "4", "cores per process");
  cli.option("strategy", "mc_tl", "partitioning strategy");
  cli.option("comm-latency", "20", "modelled latency per message (work units)");
  cli.option("task-overhead", "2", "modelled runtime cost per task");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  mesh::TestMeshSpec spec;
  spec.target_cells = static_cast<index_t>(cli.get_int("cells"));
  const mesh::Mesh m =
      mesh::make_test_mesh(mesh::parse_test_mesh_kind(cli.get("mesh")), spec);

  core::AutotuneOptions opts;
  opts.strategy = partition::parse_strategy(cli.get("strategy"));
  opts.nprocesses = static_cast<part_t>(cli.get_int("processes"));
  opts.workers_per_process = static_cast<int>(cli.get_int("workers"));
  opts.comm.latency = cli.get_double("comm-latency");
  opts.task_overhead = cli.get_double("task-overhead");
  const core::AutotuneResult r = core::suggest_domain_count(m, opts);

  std::cout << "machine: " << opts.nprocesses << " processes x "
            << opts.workers_per_process << " cores; mesh " << m.num_cells()
            << " cells; strategy " << partition::to_string(opts.strategy)
            << "\n\n";
  TablePrinter t("granularity sweep (comm-aware makespan decides)");
  t.header({"domains", "makespan", "ideal (no comm)", "messages",
            "occupancy", ""});
  for (const auto& row : r.sweep) {
    t.row({std::to_string(row.ndomains), fmt_double(row.makespan, 0),
           fmt_double(row.ideal_makespan, 0),
           fmt_count(row.cross_process_edges), fmt_percent(row.occupancy),
           row.ndomains == r.best_ndomains ? "<== pick" : ""});
  }
  t.print(std::cout);
  std::cout << "\nRecommended: " << r.best_ndomains << " domains ("
            << r.best_ndomains / opts.nprocesses
            << " per process). Finer decompositions keep improving the "
               "ideal schedule but lose it back to per-task overhead and "
               "message latency.\n";
  return 0;
}
