// tamp_e2e — the end-to-end benchmark's binary. run.py starts one process
// per leg (and one for the machine probe) and aggregates their records.
//
//   tamp_e2e probe [--threads 1] [--array-mib 0]
//   tamp_e2e leg --workload NAME --seed N --iterations N [--processes 1]
//                [--workers 1] [--warmup W --seconds S --min-timed M]
//                [--traced] [--scale 1] [--fingerprint-at I]
//                [--stall-at I] [--poison-at I]
#include <exception>
#include <iostream>
#include <string>

#include "leg.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  tamp::CliParser cli(
      "TAMP end-to-end benchmark binary (driven by e2ebench/run.py)");
  cli.positional("mode", "probe | leg");
  cli.option("threads", "1", "probe: threads for the STREAM triad");
  cli.option("array-mib", "0",
             "probe: MiB per array (0 = four times the last-level cache)");
  cli.option("workload", "", "leg: workload name");
  cli.option("seed", "1", "leg: input seed");
  cli.option("scale", "1", "leg: mesh size relative to the benchmark's");
  cli.option("iterations", "1", "leg: pipeline iterations, 0 included");
  cli.option("warmup", "0", "leg: iterations after 0 before the timed window");
  cli.option("seconds", "0",
             "leg: stop once the timed window lasted this long (0 = never)");
  cli.option("min-timed", "0", "leg: timed iterations before stopping");
  cli.option("processes", "1", "leg: emulated processes");
  cli.option("workers", "1", "leg: workers per process");
  cli.flag("traced", "leg: time the layers (separate from timed legs)");
  cli.option("fingerprint-at", "-1",
             "leg: report the state fingerprint after this iteration");
  cli.option("stall-at", "-1", "leg self-test: this solve never finishes");
  cli.option("poison-at", "-1",
             "leg self-test: make the state non-finite before this solve");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get("mode") == "probe")
      return e2e::run_probe(
          static_cast<int>(cli.get_int("threads")),
          static_cast<std::size_t>(cli.get_int("array-mib")));
    if (cli.get("mode") != "leg") {
      std::cerr << "unknown mode '" << cli.get("mode") << "'\n";
      return 2;
    }
    e2e::LegOptions opts;
    opts.workload = cli.get("workload");
    opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opts.scale = cli.get_double("scale");
    opts.iterations = static_cast<int>(cli.get_int("iterations"));
    opts.warmup = static_cast<int>(cli.get_int("warmup"));
    opts.seconds = cli.get_double("seconds");
    opts.min_timed = static_cast<int>(cli.get_int("min-timed"));
    opts.processes = static_cast<tamp::part_t>(cli.get_int("processes"));
    opts.workers = static_cast<int>(cli.get_int("workers"));
    opts.traced = cli.get_flag("traced");
    opts.fingerprint_at = static_cast<int>(cli.get_int("fingerprint-at"));
    opts.stall_at = static_cast<int>(cli.get_int("stall-at"));
    opts.poison_at = static_cast<int>(cli.get_int("poison-at"));
    return e2e::run_leg(opts);
  } catch (const std::exception& e) {
    std::cerr << "tamp_e2e: " << e.what() << '\n';
    return 2;
  }
}
