// Asynchronous-pipeline scaling matrix: the real Euler solver advanced
// over an evolving mesh by core::run_iteration_pipeline, sync vs overlap
// mode at 1/2/4/8 workers. Overlap hides each iteration's prep stage
// (temporal-level evolve → incremental repartition → task-graph build)
// under the previous iteration's solve; the matrix reports the wall-clock
// speedup, overlap efficiency, and hidden prep seconds per thread count —
// and asserts in-process that every configuration produced *bitwise
// identical* solver state (the pipeline's correctness bar; see
// tests/test_pipeline_async.cpp for the adversarial version).
//
// Emits pipeline.overlap_speedup.t<W> / overlap_efficiency.t<W> /
// prep_hidden_seconds.t<W> gauges plus the pipeline.bitwise_equal
// verdict, and a tamp-metrics-v1 snapshot under TAMP_BENCH_METRICS_DIR
// for tamp-report gating (headline: t4).
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "solver/euler.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace tamp;

struct ModeRun {
  std::vector<std::uint64_t> state_hash;  ///< one per iteration
  core::PipelineRunReport report;
  double wall_seconds = 0;
};

std::uint64_t hash_state(const solver::EulerSolver& es, const mesh::Mesh& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const solver::State s = es.cell_state(c);
    for (const double v : s) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h ^= bits;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

ModeRun run_mode(index_t cells, std::uint64_t seed, core::PipelineMode mode,
                 int workers, int iterations, double drift) {
  mesh::TestMeshSpec spec;
  spec.target_cells = cells;
  spec.seed = seed;
  mesh::Mesh m = mesh::make_test_mesh(mesh::TestMeshKind::cylinder, spec);
  solver::EulerSolver es(m);
  es.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  mesh::Vec3 lo = m.cell_centroid(0), hi = lo, mean{};
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Vec3 p = m.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    mean = mean + p;
  }
  mean = (1.0 / static_cast<double>(m.num_cells())) * mean;
  es.add_pulse(mean, std::max(0.2 * distance(lo, hi), 1e-3), 0.3);
  es.assign_temporal_levels();

  core::IterationPipelineConfig cfg;
  cfg.mode = mode;
  cfg.num_iterations = iterations;
  cfg.drift = drift;
  cfg.ndomains = 16;
  cfg.nprocesses = 1;
  cfg.workers_per_process = workers;
  // The prep stage is one serial background task: a 2-slot pool (driver +
  // one worker) hosts it at any solver width without oversubscribing.
  cfg.threads = 2;
  cfg.seed = seed;

  ModeRun run;
  core::SolverHooks hooks = core::euler_pipeline_hooks(es);
  hooks.observer = [&run, &es, &m](const core::IterationSnapshot&,
                                   const runtime::ExecutionReport&) {
    run.state_hash.push_back(hash_state(es, m));
  };
  const Stopwatch watch;
  run.report = core::run_iteration_pipeline(m, cfg, hooks);
  run.wall_seconds = watch.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "micro_overlap — async iteration pipeline, sync vs overlap scaling");
  bench::add_common_options(cli);
  cli.option("cells", "60000", "mesh cells");
  cli.option("iterations", "6", "pipeline iterations per configuration");
  cli.option("drift", "0.05", "per-iteration temporal-level drift");
  cli.option("reps", "3", "repetitions per configuration; best wall is kept");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  bench::banner(
      "micro_overlap: solve(i) overlapped with prep(i+1) on the "
      "work-stealing pool, threads x {sync, overlap}",
      "§VIII production integration: repartitioning off the critical path");
  try {
    const auto cells = static_cast<index_t>(cli.get_int("cells"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const int iterations =
        std::max(2, static_cast<int>(cli.get_int("iterations")));
    const double drift = cli.get_double("drift");
    const int reps = std::max(1, static_cast<int>(cli.get_int("reps")));
    // Best-of-reps damps scheduler noise, and the sync/overlap legs are
    // interleaved per rep so a background-load spike cannot penalize one
    // mode's whole block (the verdicts are re-checked on every rep; wall
    // clock and overlap accounting come from the best rep of each mode).
    const auto best_pair = [&](int workers) {
      std::pair<ModeRun, ModeRun> best;
      for (int r = 0; r < reps; ++r) {
        ModeRun s =
            run_mode(cells, seed, core::PipelineMode::sync, workers,
                     iterations, drift);
        ModeRun o =
            run_mode(cells, seed, core::PipelineMode::overlap, workers,
                     iterations, drift);
        if (r == 0 || s.wall_seconds < best.first.wall_seconds)
          best.first = std::move(s);
        if (r == 0 || o.wall_seconds < best.second.wall_seconds)
          best.second = std::move(o);
      }
      return best;
    };

    TablePrinter t("pipeline wall clock by mode (same physics, bitwise)");
    t.header({"workers", "sync ms", "overlap ms", "speedup", "hidden ms",
              "efficiency"});
    bool all_bitwise_equal = true;
    std::vector<std::uint64_t> reference;
    for (const int workers : {1, 2, 4, 8}) {
      auto [sync, over] = best_pair(workers);
      if (reference.empty()) reference = sync.state_hash;
      all_bitwise_equal = all_bitwise_equal &&
                          sync.state_hash == reference &&
                          over.state_hash == reference;

      const double speedup = over.wall_seconds > 0
                                 ? sync.wall_seconds / over.wall_seconds
                                 : 0.0;
      const sim::StageOverlapReport& ov = over.report.overlap;
      t.row({std::to_string(workers), fmt_double(sync.wall_seconds * 1e3, 1),
             fmt_double(over.wall_seconds * 1e3, 1), fmt_double(speedup, 3),
             fmt_double(ov.hidden_seconds * 1e3, 1),
             fmt_percent(ov.overlap_efficiency())});
      const std::string suffix = ".t" + std::to_string(workers);
      obs::gauge("pipeline.overlap_speedup" + suffix).set(speedup);
      obs::gauge("pipeline.overlap_efficiency" + suffix)
          .set(ov.overlap_efficiency());
      obs::gauge("pipeline.prep_hidden_seconds" + suffix)
          .set(ov.hidden_seconds);
    }
    t.print(std::cout);
    obs::gauge("pipeline.bitwise_equal").set(all_bitwise_equal ? 1.0 : 0.0);
    std::cout << "bitwise identical across modes and thread counts: "
              << (all_bitwise_equal ? "yes" : "NO") << '\n';
    if (!all_bitwise_equal) {
      std::cerr << "micro_overlap: state diverged between configurations\n";
      bench::dump_bench_metrics("micro_overlap");
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "micro_overlap: " << e.what() << '\n';
    return 1;
  }
  bench::dump_bench_metrics("micro_overlap");
  return 0;
}
