// Reproduces Fig 11: behaviour of both strategies as the number of
// domains grows, on CYLINDER and CUBE with 16 processes x 32 cores.
//   (a) performance ratio  makespan(SC_OC) / makespan(MC_TL)
//   (b) estimated interprocess communication (task-graph edges whose
//       endpoints run on different processes)
//
// Expected shapes: MC_TL wins at every domain count; the ratio shrinks
// as domains get smaller (finer granularity lets SC_OC pipeline across
// subiterations); MC_TL's communication is consistently higher.
#include "bench_common.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("fig11_domain_sweep — ratio and comm vs #domains (Fig 11)");
  bench::add_common_options(cli);
  cli.option("processes", "16", "MPI processes");
  cli.option("workers", "32", "cores per process");
  cli.option("domain-counts", "32,64,128,256,512",
             "comma-separated list of domain counts");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("Fig 11 — strategy comparison vs number of domains",
                "(a) MC_TL/SC_OC performance ratio decays toward 1 with "
                "domain count; (b) MC_TL communicates more");

  std::vector<part_t> counts;
  {
    std::string list = cli.get("domain-counts");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      counts.push_back(static_cast<part_t>(
          std::stoi(list.substr(pos, comma - pos))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const std::string dir = bench::artifact_dir(cli);
  TablePrinter csv;
  csv.header({"mesh", "domains", "scoc_makespan", "mctl_makespan", "ratio",
              "scoc_comm", "mctl_comm"});

  for (const auto kind :
       {mesh::TestMeshKind::cylinder, mesh::TestMeshKind::cube}) {
    const auto m = bench::make_bench_mesh(
        kind, cli.get_double("scale"),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    TablePrinter t(std::string(mesh::paper_stats(kind).name));
    t.header({"domains", "SC_OC", "MC_TL", "ratio (11a)", "SC_OC comm",
              "MC_TL comm (11b)"});
    for (const part_t nd : counts) {
      core::RunConfig cfg;
      cfg.ndomains = nd;
      cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
      cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
      cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      if (nd < cfg.nprocesses) continue;

      cfg.strategy = partition::Strategy::sc_oc;
      const auto oc = core::run_on_mesh(m, cfg);
      cfg.strategy = partition::Strategy::mc_tl;
      const auto tl = core::run_on_mesh(m, cfg);

      const double ratio = oc.makespan() / tl.makespan();
      t.row({std::to_string(nd), fmt_double(oc.makespan(), 0),
             fmt_double(tl.makespan(), 0), fmt_double(ratio, 2),
             fmt_count(oc.comm_volume()), fmt_count(tl.comm_volume())});
      csv.row({mesh::to_string(kind), std::to_string(nd),
               fmt_double(oc.makespan(), 1), fmt_double(tl.makespan(), 1),
               fmt_double(ratio, 3), fmt_count(oc.comm_volume()),
               fmt_count(tl.comm_volume())});
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  csv.write_csv(dir + "/fig11_sweep.csv");
  std::cout << "Series written to " << dir << "/fig11_sweep.csv\n"
            << "Shape check: ratio > 1 everywhere, decreasing with domain "
               "count; MC_TL comm column dominates SC_OC's.\n";
  bench::dump_bench_metrics("fig11_domain_sweep");
  return 0;
}
