// Reproduces Fig 9: FLUSIM executions of CYLINDER and CUBE with 128
// domains on 16 processes x 32 cores — SC_OC (top) vs MC_TL (bottom)
// traces showing the ~2x acceleration.
#include "bench_common.hpp"
#include "sim/trace_json.hpp"
#include "support/gantt.hpp"

using namespace tamp;

int main(int argc, char** argv) {
  CliParser cli("fig9_speedup_traces — SC_OC vs MC_TL traces (paper Fig 9)");
  bench::add_common_options(cli);
  cli.option("domains", "128", "number of domains");
  cli.option("processes", "16", "MPI processes");
  cli.option("workers", "32", "cores per process");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner("Fig 9 — 128 domains on 16 processes x 32 cores",
                "acceleration factor ~2 on both CYLINDER and CUBE");

  const std::string dir = bench::artifact_dir(cli);
  TablePrinter t;
  t.header({"mesh", "SC_OC makespan", "MC_TL makespan", "speedup",
            "SC_OC occ.", "MC_TL occ."});

  for (const auto kind :
       {mesh::TestMeshKind::cylinder, mesh::TestMeshKind::cube}) {
    const auto m = bench::make_bench_mesh(
        kind, cli.get_double("scale"),
        static_cast<std::uint64_t>(cli.get_int("seed")));
    core::RunConfig cfg;
    cfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
    cfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
    cfg.workers_per_process = static_cast<int>(cli.get_int("workers"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    cfg.strategy = partition::Strategy::sc_oc;
    const auto oc = core::run_on_mesh(m, cfg);
    cfg.strategy = partition::Strategy::mc_tl;
    const auto tl = core::run_on_mesh(m, cfg);

    t.row({mesh::paper_stats(kind).name, fmt_double(oc.makespan(), 0),
           fmt_double(tl.makespan(), 0),
           fmt_double(oc.makespan() / tl.makespan(), 2) + "x",
           fmt_percent(oc.occupancy()), fmt_percent(tl.occupancy())});

    const std::string base =
        dir + "/fig9_" + std::string(mesh::to_string(kind));
    write_gantt_comparison_svg(
        oc.sim.gantt(oc.graph, false, std::string(mesh::paper_stats(kind).name) + " SC_OC"),
        tl.sim.gantt(tl.graph, false, std::string(mesh::paper_stats(kind).name) + " MC_TL"),
        base + ".svg");
    // Full per-worker schedules for chrome://tracing / Perfetto.
    obs::save_text(sim::to_chrome_trace(oc.graph, oc.sim),
                   base + "_scoc.trace.json");
    obs::save_text(sim::to_chrome_trace(tl.graph, tl.sim),
                   base + "_mctl.trace.json");
  }
  t.print(std::cout);
  std::cout << "Shape check: speedup well above 1 on both meshes (paper: "
               "~2x); MC_TL occupancy far higher.\nTraces in " << dir
            << "/fig9_*.svg\n";
  bench::dump_bench_metrics("fig9_speedup_traces");
  return 0;
}
