// flusim — a standalone clone of the paper's FLUSIM tool (§III-A).
//
// "As inputs, FLUSIM takes a cluster configuration, the mesh with the
// temporal level of each cell, a domain decomposition, and a scheduling
// strategy."  This executable takes exactly those four things:
//
//   ./flusim --mesh m.tmesh --partition p.tpart
//            --processes 6 --workers 4 --policy eager
//
// (generate the input files with partition_explorer/save_mesh, or pass
// --mesh cylinder to synthesise one and --partition-strategy mc_tl to
// partition on the fly). Outputs the makespan, per-process statistics,
// and optional SVG / chrome-trace files.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>

#include "core/pipeline.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/io.hpp"
#include "partition/strategy.hpp"
#include "runtime/perf_report.hpp"
#include "runtime/runtime.hpp"
#include "sim/analysis.hpp"
#include "sim/doctor.hpp"
#include "sim/measured.hpp"
#include "sim/messages.hpp"
#include "sim/simulate.hpp"
#include "sim/trace_json.hpp"
#include "sim/whatif.hpp"
#include "solver/euler.hpp"
#include "solver/layout.hpp"
#include "solver/transport.hpp"
#include "support/cli.hpp"
#include "support/gantt.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"
#include "taskgraph/generate.hpp"
#include "verify/verifier.hpp"

int main(int argc, char** argv) {
  using namespace tamp;
  CliParser cli("flusim — emulate one solver iteration on a virtual cluster");
  cli.option("mesh", "cylinder",
             "mesh file (tamp-mesh) or generator name cylinder|cube|nozzle");
  cli.option("cells", "50000", "generated mesh size (generators only)");
  cli.option("partition", "",
             "partition file (tamp-partition); empty = partition on the fly");
  cli.option("partition-strategy", "mc_tl",
             "strategy when partitioning on the fly");
  cli.option("domains", "16", "domains when partitioning on the fly");
  cli.option("threads", "0",
             "partitioner threads; 0 = TAMP_PARTITION_THREADS env (default "
             "serial). Any value gives a bit-identical decomposition");
  cli.option("simd", "",
             "SIMD tier for the solver streaming kernels: auto | avx2 | "
             "sse2 | scalar (default: TAMP_SIMD env, else auto; a tier the "
             "build or CPU lacks clamps down)");
  cli.option("processes", "4", "emulated MPI processes");
  cli.option("workers", "4", "workers per process; 0 = unbounded");
  cli.option("policy", "eager", "eager | lifo | cp | random");
  cli.option("comm-latency", "0", "latency per crossing edge (work units)");
  cli.option("iterations", "1", "iterations to emulate");
  cli.option("pipeline", "",
             "run the asynchronous iteration pipeline instead of the one-shot "
             "simulation: sync | overlap. A real solver advances --iterations "
             "iterations over an evolving mesh; overlap hides each "
             "iteration's evolve/repartition/taskgraph prep under the "
             "previous solve. Bitwise identical output in both modes");
  cli.option("pipeline-solver", "euler",
             "solver driven by --pipeline: euler | transport");
  cli.option("drift", "0.05",
             "per-iteration temporal-level drift for --pipeline");
  cli.option("patch", "auto",
             "task-graph production for --pipeline: off = rebuild every "
             "iteration, auto = diff-based patching with rebuild fallback "
             "(bit-identical to off), oracle = auto plus a per-iteration "
             "equivalence check against a from-scratch rebuild");
  cli.option("seed", "1", "seed for --pipeline evolve/repartition streams");
  cli.option("svg", "", "write a Gantt SVG here");
  cli.option("chrome-trace", "",
             "write a chrome://tracing JSON here (task spans merged with "
             "pipeline-phase spans; with --pipeline, its stage spans)");
  cli.option("metrics", "", "write a metrics JSON snapshot here");
  cli.flag("doctor",
           "diagnose the schedule: realized critical path, idle blame "
           "(dependency-wait vs starvation vs tail), doctor.* gauges");
  cli.option("doctor-csv", "",
             "write the per-(process x subiteration) blame breakdown here "
             "(with --execute: the measured run's breakdown)");
  cli.option("doctor-svg", "",
             "write the idle-blame heatmap SVG here (with --execute: the "
             "measured run's heatmap)");
  cli.flag("execute",
           "also run the graph for real on the threaded runtime (calibrated "
           "busy-spin bodies, flight recorder armed), diagnose the *measured* "
           "schedule, and report sim-vs-real divergence (divergence.* and "
           "doctor.measured.* gauges)");
  cli.option("spin-us", "5",
             "wall microseconds per cost unit for --execute task bodies");
  cli.option("execute-svg", "", "write the measured run's Gantt SVG here");
  cli.option("execute-chrome-trace", "",
             "write the measured run's chrome://tracing JSON here (task "
             "spans plus flight counter tracks: ready-queue depth, idle "
             "workers)");
  cli.option("perf", "on",
             "hardware-counter attribution for --execute: on | clock | off. "
             "Degrades to clock-only or nothing where perf_event is denied; "
             "the TAMP_PERF env var caps it the same way");
  cli.flag("what-if",
           "replay the measured schedule with Coz-style per-class virtual "
           "speedups (k = 0.9 / 0.75 / 0.5) and rank task classes by "
           "predicted makespan savings (whatif.* gauges; implies --execute)");
  cli.flag("per-worker", "Gantt rows per worker instead of per process");
  cli.flag("verify-races",
           "instrumented mode: run one real Euler iteration under a sweep of "
           "adversarial schedules, record every task's cell/accumulator "
           "accesses, and report any conflicting pair the DAG leaves "
           "unordered (exit 2 if conflicts are found)");
  cli.option("verify-schedules", "4",
             "schedules swept by --verify-races (first is plain FIFO, the "
             "rest adversarial)");
  cli.option("verify-seed", "1", "base seed for the adversarial schedules");
  cli.option("verify-delay-us", "0",
             "max per-task dequeue jitter for the adversarial schedules "
             "(microseconds)");
  if (!cli.parse_or_exit(argc, argv)) return 0;

  // Asking for a trace implies wanting the pipeline spans in it: arm the
  // session before any pipeline work runs.
  if (!cli.get("chrome-trace").empty() || !cli.get("metrics").empty())
    obs::set_tracing_enabled(true);

  try {
    // Every solver config this run builds (verify path included) carries
    // --simd; `auto` parses to a concrete level, so it overrides
    // TAMP_SIMD too.
    std::optional<simd::Level> simd_level;
    if (!cli.get("simd").empty())
      simd_level = simd::parse_level(cli.get("simd"));

    // --- inputs -------------------------------------------------------------
    mesh::Mesh m = [&] {
      const std::string name = cli.get("mesh");
      try {
        mesh::TestMeshSpec spec;
        spec.target_cells = static_cast<index_t>(cli.get_int("cells"));
        return mesh::make_test_mesh(mesh::parse_test_mesh_kind(name), spec);
      } catch (const precondition_error&) {
        return mesh::load_mesh(name);
      }
    }();

    // Verification runs the real Euler solver, so its temporal levels
    // (not the generator's synthetic ones) must be on the mesh before the
    // partitioner sees it.
    std::optional<solver::EulerSolver> euler;
    const auto init_euler = [&euler, &simd_level](mesh::Mesh& mm) {
      solver::SolverConfig config;
      config.simd = simd_level;
      euler.emplace(mm, config);
      euler->initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
      mesh::Vec3 lo = mm.cell_centroid(0), hi = lo, mean{};
      for (index_t c = 0; c < mm.num_cells(); ++c) {
        const mesh::Vec3 p = mm.cell_centroid(c);
        lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
        hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
        mean = mean + p;
      }
      mean = (1.0 / static_cast<double>(mm.num_cells())) * mean;
      euler->add_pulse(mean, std::max(0.2 * distance(lo, hi), 1e-3), 0.3);
    };
    // --- asynchronous iteration pipeline ------------------------------------
    if (!cli.get("pipeline").empty()) {
      if (!cli.get("partition").empty())
        throw precondition_error(
            "--pipeline repartitions incrementally every iteration; it is "
            "incompatible with a fixed --partition file");

      core::IterationPipelineConfig pcfg;
      pcfg.mode = core::parse_pipeline_mode(cli.get("pipeline"));
      pcfg.num_iterations =
          std::max(1, static_cast<int>(cli.get_int("iterations")));
      pcfg.drift = cli.get_double("drift");
      pcfg.strategy = partition::parse_strategy(cli.get("partition-strategy"));
      pcfg.ndomains = static_cast<part_t>(cli.get_int("domains"));
      pcfg.nprocesses = static_cast<part_t>(cli.get_int("processes"));
      pcfg.workers_per_process =
          std::max(1, static_cast<int>(cli.get_int("workers")));
      pcfg.threads = static_cast<int>(cli.get_int("threads"));
      pcfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      pcfg.patch = core::parse_patch_policy(cli.get("patch"));
      pcfg.fault = core::pipeline_fault_from_env();

      const bool races = cli.get_flag("verify-races");
      if (races) {
        pcfg.adversarial.enabled = true;
        pcfg.adversarial.seed =
            static_cast<std::uint64_t>(cli.get_int("verify-seed"));
        pcfg.adversarial.max_delay_seconds =
            cli.get_double("verify-delay-us") * 1e-6;
      }

      // Each iteration's body is instrumented against a fresh access log
      // (the task graph changes every iteration); the observer settles the
      // race verdict before the next snapshot is consumed. On a patched
      // snapshot only the dirty region (patched tasks + one dependency
      // hop) is recorded: the partial log is still checked against the
      // FULL graph's reachability, so the verdict is sound, while the
      // recording/merge cost scales with the drift instead of the mesh.
      // Untouched pairs are certified by the previous full verification
      // plus the patcher's bit-identity guarantee.
      std::shared_ptr<verify::AccessLog> plog;
      std::size_t race_conflicts = 0, race_pairs = 0;
      std::size_t region_recertified = 0, region_tasks_total = 0;
      std::function<runtime::TaskBody(runtime::TaskBody,
                                      const core::IterationSnapshot&)>
          wrap;
      if (races)
        wrap = [&plog, &region_recertified, &region_tasks_total](
                   runtime::TaskBody body,
                   const core::IterationSnapshot& snap) {
          plog = std::make_shared<verify::AccessLog>(snap.graph.num_tasks());
          const bool partial =
              snap.patch.patched &&
              snap.dirty_tasks.size() ==
                  static_cast<std::size_t>(snap.graph.num_tasks());
          if (!partial) return verify::instrument(body, *plog);
          auto region = std::make_shared<const std::vector<char>>(
              verify::region_closure(snap.graph, snap.dirty_tasks));
          ++region_recertified;
          for (const char r : *region) region_tasks_total += r != 0 ? 1 : 0;
          return runtime::TaskBody(
              [body = std::move(body), log = plog, region](index_t t) {
                if ((*region)[static_cast<std::size_t>(t)] != 0) {
                  const verify::TaskRecordScope scope(*log, t);
                  body(t);
                } else {
                  body(t);
                }
              });
        };

      std::optional<solver::TransportSolver> transport;
      core::SolverHooks hooks;
      const std::string solver_name = cli.get("pipeline-solver");
      if (solver_name == "euler") {
        init_euler(m);
        euler->assign_temporal_levels();
        hooks = core::euler_pipeline_hooks(*euler, wrap);
      } else if (solver_name == "transport") {
        solver::TransportConfig config;
        config.simd = simd_level;
        transport.emplace(m, config);
        transport->initialize_uniform(0.0);
        mesh::Vec3 lo = m.cell_centroid(0), hi = lo, mean{};
        for (index_t c = 0; c < m.num_cells(); ++c) {
          const mesh::Vec3 p = m.cell_centroid(c);
          lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
          hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
          mean = mean + p;
        }
        mean = (1.0 / static_cast<double>(m.num_cells())) * mean;
        transport->add_blob(mean, std::max(0.2 * distance(lo, hi), 1e-3), 1.0);
        transport->assign_temporal_levels();
        hooks = core::transport_pipeline_hooks(*transport, wrap);
      } else {
        throw precondition_error("unknown --pipeline-solver '" + solver_name +
                                 "' (expected euler | transport)");
      }
      if (races)
        hooks.observer = [&](const core::IterationSnapshot& snap,
                             const runtime::ExecutionReport&) {
          const verify::RaceReport rep = verify::check_races(snap.graph, *plog);
          race_pairs += rep.pairs_checked;
          if (!rep.clean()) {
            std::cout << rep.summary(snap.graph);
            race_conflicts += rep.conflicts.size();
          }
          plog.reset();
        };

      const core::PipelineRunReport prun =
          core::run_iteration_pipeline(m, pcfg, hooks);

      std::cout << "pipeline: " << core::to_string(pcfg.mode) << " mode, "
                << pcfg.num_iterations << " iterations of " << solver_name
                << " on " << m.num_cells() << " cells;  " << pcfg.ndomains
                << " domains on " << pcfg.nprocesses << " process(es) x "
                << pcfg.workers_per_process << " workers\n";
      TablePrinter pt("per-iteration stages");
      pt.header({"iter", "prep ms", "solve ms", "cells changed", "migrated",
                 "max migration", "dirty", "graph"});
      for (const core::PipelineIterationStats& it : prun.iterations)
        pt.row({std::to_string(it.iteration),
                fmt_double((it.prep_end - it.prep_start) * 1e3, 2),
                fmt_double((it.solve_end - it.solve_start) * 1e3, 2),
                std::to_string(it.cells_changed),
                std::to_string(it.migrated_cells),
                fmt_percent(it.max_domain_migration),
                fmt_percent(it.dirty_fraction),
                it.graph_patched ? "patched" : "rebuilt"});
      pt.print(std::cout);
      sim::print_stage_overlap(std::cout, prun.overlap);

      if (!cli.get("metrics").empty())
        obs::save_text(
            obs::metrics_to_json(obs::Registry::instance().snapshot()),
            cli.get("metrics"));
      // The pipeline has no one task graph to merge: its trace is the
      // session's stage spans.
      if (!cli.get("chrome-trace").empty())
        obs::save_text(
            obs::to_chrome_trace(obs::TraceSession::instance().snapshot()),
            cli.get("chrome-trace"));
      if (races) {
        std::cout << "verify: " << race_pairs << " pairs checked across "
                  << pcfg.num_iterations << " iteration graphs\n";
        if (region_recertified > 0)
          std::cout << "verify: " << region_recertified
                    << " patched graph(s) re-certified on their dirty "
                       "region only ("
                    << region_tasks_total << " region tasks recorded)\n";
        if (race_conflicts > 0) {
          std::cout << "verify: " << race_conflicts
                    << " unordered conflicting task pair(s)\n";
          return 2;
        }
        std::cout << "verify: clean — every conflicting access pair is "
                     "ordered by the task graph\n";
      }
      return 0;
    }

    if (cli.get_flag("verify-races")) {
      init_euler(m);
      euler->assign_temporal_levels();
    }

    part_t ndomains = 0;
    std::vector<part_t> domain_of_cell;
    if (!cli.get("partition").empty()) {
      domain_of_cell = partition::load_partition(cli.get("partition"), ndomains);
      if (domain_of_cell.size() != static_cast<std::size_t>(m.num_cells()))
        throw runtime_failure("partition file does not match the mesh");
    } else {
      partition::StrategyOptions sopts;
      sopts.strategy =
          partition::parse_strategy(cli.get("partition-strategy"));
      sopts.ndomains = static_cast<part_t>(cli.get_int("domains"));
      sopts.partitioner.num_threads = static_cast<int>(cli.get_int("threads"));
      const auto dd = partition::decompose(m, sopts);
      ndomains = dd.ndomains;
      domain_of_cell = dd.domain_of_cell;
    }

    const auto nproc = static_cast<part_t>(cli.get_int("processes"));
    const auto d2p = partition::map_domains_to_processes(
        ndomains, nproc, partition::DomainMapping::block);

    // --- race verification ------------------------------------------------------
    if (euler) {
      const auto iter = euler->make_iteration_tasks(domain_of_cell, ndomains);
      verify::AccessLog log(iter.graph.num_tasks());
      const runtime::TaskBody instrumented =
          verify::instrument(iter.body, log);
      const auto schedules =
          std::max<long long>(1, cli.get_int("verify-schedules"));
      const solver::State before = euler->conserved_totals();
      runtime::RuntimeConfig rc;
      rc.num_processes = nproc;
      rc.workers_per_process =
          std::max(1, static_cast<int>(cli.get_int("workers")));
      for (long long k = 0; k < schedules; ++k) {
        // Schedule 0 is the production FIFO order; the rest draw random
        // ready-task picks (plus optional jitter) from distinct seeds.
        rc.adversarial.enabled = k > 0;
        rc.adversarial.seed =
            static_cast<std::uint64_t>(cli.get_int("verify-seed")) +
            static_cast<std::uint64_t>(k);
        rc.adversarial.max_delay_seconds =
            cli.get_double("verify-delay-us") * 1e-6;
        runtime::execute(iter.graph, d2p, rc, instrumented);
        euler->note_tasks_complete();
      }
      const solver::State after = euler->conserved_totals();
      const verify::RaceReport report = verify::check_races(iter.graph, log);
      std::cout << "verify: " << iter.graph.num_tasks() << " tasks, "
                << schedules << " schedules, " << report.accesses
                << " distinct accesses, " << report.pairs_checked
                << " pairs checked (simd "
                << simd::to_string(euler->simd_level()) << ")\n"
                << "conservation drift: mass "
                << std::abs(after[0] - before[0]) << "  energy "
                << std::abs(after[4] - before[4]) << '\n';
      if (!euler->state_is_finite())
        std::cout << "note: solver state went non-finite (synthetic test "
                     "meshes are not exactly closed, so the physics can "
                     "blow up); the race verdict below is unaffected — it "
                     "depends on access sets, not values\n";
      if (!report.clean()) {
        std::cout << report.summary(iter.graph);
        std::cout << "verify: " << report.conflicts.size()
                  << " unordered conflicting task pair(s)\n";
        return 2;
      }
      std::cout << "verify: clean — every conflicting access pair is "
                   "ordered by the task graph\n";
      return 0;
    }

    // --- task graph + simulation ----------------------------------------------
    taskgraph::GenerateOptions gopts;
    gopts.num_iterations = static_cast<int>(cli.get_int("iterations"));
    const auto graph =
        taskgraph::generate_task_graph(m, domain_of_cell, ndomains, gopts);

    sim::SimOptions simopts;
    simopts.cluster.num_processes = nproc;
    simopts.cluster.workers_per_process =
        static_cast<int>(cli.get_int("workers"));
    simopts.policy = sim::parse_policy(cli.get("policy"));
    simopts.comm.latency = cli.get_double("comm-latency");
    const sim::SimResult result = sim::simulate(graph, d2p, simopts);

    // --- report ----------------------------------------------------------------
    const auto msgs = sim::message_statistics(graph, d2p);
    std::cout << "mesh: " << m.num_cells() << " cells, "
              << static_cast<int>(m.max_level()) + 1 << " levels;  "
              << ndomains << " domains on " << nproc << " processes\n"
              << "tasks: " << graph.num_tasks()
              << "  dependencies: " << graph.num_dependencies()
              << "  critical path: " << fmt_double(graph.critical_path(), 0)
              << "\nmakespan: " << fmt_double(result.makespan, 0)
              << " work units   occupancy: " << fmt_percent(result.occupancy())
              << "\nmessages: " << fmt_count(msgs.messages)
              << " (volume " << fmt_count(msgs.volume) << " objects over "
              << msgs.process_pairs << " process pairs)\n";

    TablePrinter t("per-process");
    t.header({"process", "busy", "idle", "idle blocks", "longest block"});
    for (part_t p = 0; p < nproc; ++p) {
      const auto blocks = sim::idle_blocks(result, p);
      t.row({std::to_string(p),
             fmt_double(result.busy_per_process[static_cast<std::size_t>(p)], 0),
             fmt_percent(result.idle_fraction(p)),
             std::to_string(blocks.count), fmt_double(blocks.longest, 0)});
    }
    t.print(std::cout);

    const bool execute = cli.get_flag("execute") || cli.get_flag("what-if");
    const bool want_doctor = cli.get_flag("doctor") ||
                             !cli.get("doctor-csv").empty() ||
                             !cli.get("doctor-svg").empty();
    if (want_doctor) {
      const sim::DoctorReport doc = sim::diagnose(graph, result, simopts.comm);
      // Publish gauges before a --metrics snapshot is taken so the
      // doctor.* values land in the exported JSON for tamp-report.
      sim::publish_doctor_metrics(graph, doc);
      if (cli.get_flag("doctor")) sim::print_doctor_report(std::cout, graph, doc);
      // With --execute the CSV/SVG artifacts describe the measured run
      // (written below); without it they describe the simulation.
      if (!execute) {
        if (!cli.get("doctor-csv").empty())
          obs::save_text(sim::doctor_blame_csv(doc), cli.get("doctor-csv"));
        if (!cli.get("doctor-svg").empty())
          sim::write_doctor_heatmap_svg(doc, cli.get("doctor-svg"));
      }
    }

    // --- real execution + divergence ---------------------------------------
    if (execute) {
      runtime::RuntimeConfig rcfg;
      rcfg.num_processes = nproc;
      rcfg.workers_per_process =
          std::max(1, static_cast<int>(cli.get_int("workers")));
      rcfg.flight.enabled = true;
      const std::string perf_mode = cli.get("perf");
      rcfg.perf.enabled = perf_mode != "off";
      rcfg.perf.max_tier = perf_mode == "clock" ? obs::PerfTier::clock_only
                                                : obs::PerfTier::hardware;
      const double spin = cli.get_double("spin-us") * 1e-6;
      const runtime::ExecutionReport report = runtime::execute(
          graph, d2p, rcfg, runtime::make_synthetic_body(graph, spin));
      runtime::publish_execution_metrics(graph, report);

      const obs::FlightSummary fs = obs::summarize(*report.flight);
      std::cout << "measured: " << fmt_double(report.wall_seconds * 1e3, 2)
                << " ms wall   occupancy: " << fmt_percent(report.occupancy())
                << "   flight events: " << fs.events << " (" << fs.dropped
                << " dropped, " << report.flight->memory_bytes() / 1024
                << " KiB rings)\n";

      if (rcfg.perf.enabled) {
        const runtime::PerfProfile perf = runtime::aggregate_perf(graph, report);
        runtime::print_perf_profile(std::cout, perf);
        if (perf.live())
          std::cout << "streaming-traffic model for GB/s context: "
                    << fmt_double(
                           solver::streaming_bytes_per_cell_update(
                               solver::kNumVars), 0)
                    << " B/cell-update, "
                    << fmt_double(
                           solver::streaming_bytes_per_face_flux(
                               solver::kNumVars), 0)
                    << " B/face-flux\n";
      }

      if (want_doctor) {
        const sim::DoctorReport mdoc = sim::diagnose_measured(graph, report);
        sim::publish_doctor_metrics(graph, mdoc, "doctor.measured.");
        if (cli.get_flag("doctor")) {
          std::cout << "-- measured run --\n";
          sim::print_doctor_report(std::cout, graph, mdoc);
        }
        if (!cli.get("doctor-csv").empty())
          obs::save_text(sim::doctor_blame_csv(mdoc), cli.get("doctor-csv"));
        if (!cli.get("doctor-svg").empty())
          sim::write_doctor_heatmap_svg(mdoc, cli.get("doctor-svg"));
      }

      const sim::DivergenceReport div =
          sim::compare_sim_to_measured(graph, result, report, spin);
      sim::print_divergence_report(std::cout, div);
      sim::publish_divergence_metrics(div);

      if (cli.get_flag("what-if")) {
        const sim::WhatIfReport whatif = sim::what_if(graph, report);
        sim::print_whatif_report(std::cout, whatif);
        sim::publish_whatif_metrics(whatif);
      }

      if (!cli.get("execute-svg").empty())
        write_gantt_svg(sim::to_sim_result(report).gantt(
                            graph, /*per_worker=*/true,
                            "flusim --execute (measured)"),
                        cli.get("execute-svg"));
      if (!cli.get("execute-chrome-trace").empty())
        obs::save_text(sim::to_chrome_trace_merged(graph, report),
                       cli.get("execute-chrome-trace"));
    }

    if (!cli.get("svg").empty())
      write_gantt_svg(result.gantt(graph, cli.get_flag("per-worker"), "flusim"),
                      cli.get("svg"));
    if (!cli.get("chrome-trace").empty())
      obs::save_text(sim::to_chrome_trace_merged(graph, result),
                     cli.get("chrome-trace"));
    if (!cli.get("metrics").empty())
      obs::save_text(obs::metrics_to_json(obs::Registry::instance().snapshot()),
                     cli.get("metrics"));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "flusim: " << e.what() << '\n';
    return 1;
  }
}
