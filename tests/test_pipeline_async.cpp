// The asynchronous iteration pipeline's correctness bar (DESIGN.md
// "Asynchronous pipeline"): overlapped mode is *bitwise identical* to
// sync mode at every thread count, under adversarial schedules, for both
// solvers — and failures (injected at every stage boundary) drain the
// pipeline, rethrow exactly once, and leak no tasks.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "core/pipeline.hpp"
#include "solver/euler.hpp"
#include "solver/transport.hpp"
#include "support/thread_pool.hpp"

namespace tamp::core {
namespace {

constexpr index_t kCells = 4000;
constexpr int kIterations = 4;

mesh::Mesh test_mesh() {
  mesh::TestMeshSpec spec;
  spec.target_cells = kCells;
  return mesh::make_test_mesh(mesh::TestMeshKind::cylinder, spec);
}

std::uint64_t hash_doubles(std::uint64_t h, const double* vals,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &vals[i], sizeof bits);
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

IterationPipelineConfig base_config(PipelineMode mode, int workers) {
  IterationPipelineConfig cfg;
  cfg.mode = mode;
  cfg.num_iterations = kIterations;
  cfg.ndomains = 8;
  cfg.nprocesses = 2;
  cfg.workers_per_process = workers;
  cfg.threads = workers;
  cfg.seed = 7;
  return cfg;
}

/// One full Euler pipeline run: returns the per-iteration state hash
/// (bit patterns of every cell's conserved state, in cell order) plus
/// the report — the whole observable output of the run.
struct EulerRun {
  std::vector<std::uint64_t> state_hash;  ///< one per iteration
  std::vector<index_t> cells_changed;
  std::vector<index_t> migrated;
  PipelineRunReport report;
};

EulerRun run_euler(const IterationPipelineConfig& cfg) {
  mesh::Mesh m = test_mesh();
  solver::EulerSolver solver(m);
  solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  solver.add_pulse(m.cell_centroid(0), 0.5, 0.3);
  solver.assign_temporal_levels();

  EulerRun run;
  SolverHooks hooks = euler_pipeline_hooks(solver);
  hooks.observer = [&run, &solver, &m](const IterationSnapshot&,
                                       const runtime::ExecutionReport&) {
    std::uint64_t h = 1469598103934665603ULL;
    for (index_t c = 0; c < m.num_cells(); ++c) {
      const solver::State s = solver.cell_state(c);
      h = hash_doubles(h, s.data(), s.size());
    }
    run.state_hash.push_back(h);
  };
  run.report = run_iteration_pipeline(m, cfg, hooks);
  for (const PipelineIterationStats& it : run.report.iterations) {
    run.cells_changed.push_back(it.cells_changed);
    run.migrated.push_back(it.migrated_cells);
  }
  return run;
}

TEST(PipelineAsync, EulerBitwiseIdenticalAcrossModesAndThreadCounts) {
  const EulerRun ref = run_euler(base_config(PipelineMode::sync, 1));
  ASSERT_EQ(ref.state_hash.size(), static_cast<std::size_t>(kIterations));
  for (const PipelineMode mode : {PipelineMode::sync, PipelineMode::overlap}) {
    for (const int workers : {1, 2, 4, 8}) {
      const EulerRun run = run_euler(base_config(mode, workers));
      EXPECT_EQ(run.state_hash, ref.state_hash)
          << to_string(mode) << " workers=" << workers;
      EXPECT_EQ(run.cells_changed, ref.cells_changed);
      EXPECT_EQ(run.migrated, ref.migrated);
    }
  }
}

TEST(PipelineAsync, EulerBitwiseUnderAdversarialSchedules) {
  const EulerRun ref = run_euler(base_config(PipelineMode::sync, 1));
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    IterationPipelineConfig cfg = base_config(PipelineMode::overlap, 4);
    cfg.adversarial.enabled = true;
    cfg.adversarial.seed = seed;
    const EulerRun run = run_euler(cfg);
    EXPECT_EQ(run.state_hash, ref.state_hash) << "adversarial seed " << seed;
  }
}

TEST(PipelineAsync, TransportBitwiseIdenticalAcrossModes) {
  const auto run_transport = [](const IterationPipelineConfig& cfg) {
    mesh::Mesh m = test_mesh();
    solver::TransportSolver solver(m);
    solver.initialize_uniform(0.0);
    solver.add_blob(m.cell_centroid(0), 0.5, 1.0);
    solver.assign_temporal_levels();
    std::vector<std::uint64_t> hashes;
    SolverHooks hooks = transport_pipeline_hooks(solver);
    hooks.observer = [&](const IterationSnapshot&,
                         const runtime::ExecutionReport&) {
      std::uint64_t h = 1469598103934665603ULL;
      for (index_t c = 0; c < m.num_cells(); ++c) {
        const double v = solver.value(c);
        h = hash_doubles(h, &v, 1);
      }
      hashes.push_back(h);
    };
    run_iteration_pipeline(m, cfg, hooks);
    return hashes;
  };
  const auto ref = run_transport(base_config(PipelineMode::sync, 1));
  ASSERT_EQ(ref.size(), static_cast<std::size_t>(kIterations));
  for (const int workers : {1, 4})
    EXPECT_EQ(run_transport(base_config(PipelineMode::overlap, workers)), ref)
        << "workers=" << workers;
}

TEST(PipelineAsync, SnapshotMutationIsDetected) {
  // Each mutation changes one byte of a published snapshot, in a different
  // part of what the seal folds: its first and last level (with 4,140
  // cells the last one is a tail byte after the 64-bit words), the middle
  // of the assignment, a task-graph edge and the launch bookkeeping.
  using Mutation = std::function<void(IterationSnapshot&)>;
  const std::pair<const char*, Mutation> mutations[] = {
      {"first level",
       [](IterationSnapshot& s) {
         s.levels[0] = static_cast<level_t>(s.levels[0] + 1);
       }},
      {"last level",
       [](IterationSnapshot& s) {
         ASSERT_NE(s.levels.size() % 8, 0U) << "the last level is no tail byte";
         s.levels.back() = static_cast<level_t>(s.levels.back() ^ 1);
       }},
      {"middle domain",
       [](IterationSnapshot& s) {
         std::vector<part_t>& d = s.decomposition.domain_of_cell;
         d[d.size() / 2] ^= 1;
       }},
      {"successor id",
       [](IterationSnapshot& s) {
         for (index_t t = 0; t < s.graph.num_tasks(); ++t) {
           const auto succ = s.graph.successors(t);
           if (succ.empty()) continue;
           const_cast<index_t&>(succ[0]) ^= 1;
           return;
         }
         FAIL() << "no task has a successor";
       }},
      {"task process",
       [](IterationSnapshot& s) {
         std::vector<part_t>& p = s.prepared.process_of;
         p[p.size() / 2] ^= 1;
       }},
      {"class move",
       [](IterationSnapshot& s) {
         taskgraph::ClassMoves& m = s.class_delta.moves;
         for (taskgraph::ClassIdLists* l :
              {&m.faces_joined, &m.faces_left, &m.cells_joined,
               &m.cells_left}) {
           if (l->ids.empty()) continue;
           l->ids[l->ids.size() / 2] ^= 1;
           return;
         }
         FAIL() << "the last snapshot carries no class move";
       }},
  };
  for (const PipelineMode mode : {PipelineMode::sync, PipelineMode::overlap}) {
    for (const auto& [what, mutate] : mutations) {
      mesh::Mesh m = test_mesh();
      solver::EulerSolver solver(m);
      solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
      solver.assign_temporal_levels();
      SolverHooks hooks = euler_pipeline_hooks(solver);
      // A consumer that holds onto a mutable reference and scribbles on
      // the published snapshot: the seal re-check at solve exit catches
      // it. It scribbles after the last solve, when no overlapped prep
      // reads the snapshot, so the test itself races with nothing.
      hooks.observer = [&mutate = mutate](const IterationSnapshot& snap,
                                          const runtime::ExecutionReport&) {
        if (snap.iteration == kIterations - 1)
          mutate(const_cast<IterationSnapshot&>(snap));
      };
      EXPECT_THROW(run_iteration_pipeline(m, base_config(mode, 2), hooks),
                   invariant_error)
          << what << ", " << to_string(mode);
    }
  }
}

TEST(PipelineAsync, FaultInjectionAtEveryStageBoundaryDrainsAndRethrowsOnce) {
  using Stage = PipelineFault::Stage;
  for (const PipelineMode mode : {PipelineMode::sync, PipelineMode::overlap}) {
    for (const Stage stage :
         {Stage::evolve, Stage::repartition, Stage::taskgraph, Stage::solve}) {
      for (const int iter : {0, 1, kIterations - 1}) {
        mesh::Mesh m = test_mesh();
        solver::EulerSolver solver(m);
        solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
        solver.assign_temporal_levels();
        IterationPipelineConfig cfg = base_config(mode, 4);
        cfg.fault.stage = stage;
        cfg.fault.iteration = iter;

        // Every task ever queued on the shared pool has finished running.
        // Poll briefly before calling it a leak: only a task that stays
        // queued or never returns keeps the count above zero.
        ThreadPool* pool = ThreadPool::shared(4);
        const auto settle = [pool] {
          for (int spin = 0; spin < 2000 && pool->outstanding() != 0; ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return pool->outstanding() == 0;
        };
        ASSERT_TRUE(settle()) << "pool not quiescent before the run";
        try {
          run_iteration_pipeline(m, cfg, euler_pipeline_hooks(solver));
          FAIL() << "fault " << to_string(stage) << ":" << iter << " ("
                 << to_string(mode) << ") did not surface";
        } catch (const runtime_failure& e) {
          const std::string expect = std::string("injected pipeline fault at ") +
                                     to_string(stage) + ":" +
                                     std::to_string(iter);
          EXPECT_EQ(std::string(e.what()), expect) << to_string(mode);
        }
        // Leak check: nothing is still sitting in a deque or the
        // background FIFO after the failure drained the pipeline.
        EXPECT_TRUE(settle())
            << to_string(stage) << ":" << iter << " " << to_string(mode);
      }
    }
  }
}

TEST(PipelineAsync, SolveFailureWinsOverConcurrentPrep) {
  // The solve of iteration 1 fails while iteration 2's prep is in
  // flight: the pipeline cancels the prep, drains, and the caller sees
  // the *solve* failure — exactly once, never the prep's state.
  mesh::Mesh m = test_mesh();
  solver::EulerSolver solver(m);
  solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  solver.assign_temporal_levels();
  IterationPipelineConfig cfg = base_config(PipelineMode::overlap, 4);
  cfg.fault.stage = PipelineFault::Stage::solve;
  cfg.fault.iteration = 1;
  try {
    run_iteration_pipeline(m, cfg, euler_pipeline_hooks(solver));
    FAIL() << "solve fault did not surface";
  } catch (const runtime_failure& e) {
    EXPECT_STREQ(e.what(), "injected pipeline fault at solve:1");
  }
  // The pipeline is reusable after a failure: a clean run still matches
  // the reference bitwise (no poisoned pool / leaked planning state).
  const EulerRun ref = run_euler(base_config(PipelineMode::sync, 1));
  const EulerRun again = run_euler(base_config(PipelineMode::overlap, 4));
  EXPECT_EQ(again.state_hash, ref.state_hash);
}

TEST(PipelineAsync, OverlapReportInvariants) {
  const EulerRun sync = run_euler(base_config(PipelineMode::sync, 4));
  const EulerRun over = run_euler(base_config(PipelineMode::overlap, 4));
  const sim::StageOverlapReport& s = sync.report.overlap;
  const sim::StageOverlapReport& o = over.report.overlap;

  EXPECT_FALSE(s.overlapped);
  EXPECT_TRUE(o.overlapped);
  EXPECT_EQ(s.iterations, kIterations);
  EXPECT_EQ(o.iterations, kIterations);
  // Sync interleaves prep strictly after solve: nothing can be hidden.
  EXPECT_DOUBLE_EQ(s.hidden_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.overlap_efficiency(), 0.0);
  for (const sim::StageOverlapReport* r : {&s, &o}) {
    EXPECT_GE(r->hidden_seconds, 0.0);
    EXPECT_LE(r->hidden_seconds, r->hideable_prep_seconds + 1e-9);
    EXPECT_LE(r->hideable_prep_seconds, r->prep_seconds + 1e-9);
    EXPECT_GE(r->overlap_efficiency(), 0.0);
    EXPECT_LE(r->overlap_efficiency(), 1.0 + 1e-9);
    EXPECT_GE(r->wall_seconds, 0.0);
    EXPECT_GE(r->exposed_seconds(), -1e-9);
  }
  for (const EulerRun* run : {&sync, &over})
    for (const PipelineIterationStats& it : run->report.iterations) {
      EXPECT_GE(it.prep_end, it.prep_start);
      EXPECT_GE(it.solve_end, it.solve_start);
      // Depth-1 handoff: solve i never starts before its prep published.
      EXPECT_GE(it.solve_start, it.prep_end - 1e-9) << it.iteration;
    }
}

TEST(PipelineAsync, PreparedGraphExecutionMatchesDirectExecution) {
  // runtime::execute(graph, prepared, ...) is the pipeline's hot path;
  // it must be observationally identical to the one-shot overload.
  const auto run_once = [](bool prepared_path) {
    mesh::Mesh m = test_mesh();
    solver::EulerSolver solver(m);
    solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
    solver.add_pulse(m.cell_centroid(0), 0.5, 0.3);
    solver.assign_temporal_levels();
    partition::StrategyOptions sopts;
    sopts.ndomains = 8;
    const auto dd = partition::decompose(m, sopts);
    const auto d2p = partition::map_domains_to_processes(
        dd.ndomains, 2, partition::DomainMapping::block);
    const auto iter = solver.make_iteration_tasks(dd.domain_of_cell,
                                                  dd.ndomains);
    runtime::RuntimeConfig rc;
    rc.num_processes = 2;
    rc.workers_per_process = 2;
    if (prepared_path) {
      const runtime::PreparedGraph prep =
          runtime::prepare_execution(iter.graph, d2p, 2);
      runtime::execute(iter.graph, prep, rc, iter.body);
    } else {
      runtime::execute(iter.graph, d2p, rc, iter.body);
    }
    solver.note_tasks_complete();
    std::uint64_t h = 1469598103934665603ULL;
    for (index_t c = 0; c < m.num_cells(); ++c) {
      const solver::State s = solver.cell_state(c);
      h = hash_doubles(h, s.data(), s.size());
    }
    return h;
  };
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(PipelineAsync, ModeAndFaultParsing) {
  EXPECT_EQ(parse_pipeline_mode("sync"), PipelineMode::sync);
  EXPECT_EQ(parse_pipeline_mode("overlap"), PipelineMode::overlap);
  EXPECT_THROW(parse_pipeline_mode("async"), precondition_error);
  EXPECT_STREQ(to_string(PipelineMode::overlap), "overlap");

  const PipelineFault f = parse_pipeline_fault("repartition:3");
  EXPECT_EQ(f.stage, PipelineFault::Stage::repartition);
  EXPECT_EQ(f.iteration, 3);
  EXPECT_THROW(parse_pipeline_fault("repartition"), precondition_error);
  EXPECT_THROW(parse_pipeline_fault("repartition:-1"), precondition_error);
  EXPECT_THROW(parse_pipeline_fault("warp:1"), precondition_error);
  EXPECT_THROW(parse_pipeline_fault(":2"), precondition_error);
  // 2^32 + 1 must not wrap to iteration 1.
  EXPECT_THROW(parse_pipeline_fault("taskgraph:4294967297"),
               precondition_error);
  EXPECT_THROW(parse_pipeline_fault("taskgraph:1x"), precondition_error);

  ASSERT_EQ(setenv("TAMP_PIPELINE_FAULT", "solve:2", 1), 0);
  const PipelineFault env = pipeline_fault_from_env();
  EXPECT_EQ(env.stage, PipelineFault::Stage::solve);
  EXPECT_EQ(env.iteration, 2);
  ASSERT_EQ(unsetenv("TAMP_PIPELINE_FAULT"), 0);
  EXPECT_EQ(pipeline_fault_from_env().stage, PipelineFault::Stage::none);
}

TEST(PipelineAsync, RejectsBadConfig) {
  mesh::Mesh m = test_mesh();
  solver::EulerSolver solver(m);
  solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  solver.assign_temporal_levels();
  const SolverHooks hooks = euler_pipeline_hooks(solver);

  IterationPipelineConfig cfg = base_config(PipelineMode::sync, 2);
  cfg.num_iterations = 0;
  EXPECT_THROW(run_iteration_pipeline(m, cfg, hooks), precondition_error);
  cfg = base_config(PipelineMode::sync, 2);
  cfg.drift = 1.5;
  EXPECT_THROW(run_iteration_pipeline(m, cfg, hooks), precondition_error);
  cfg = base_config(PipelineMode::sync, 2);
  cfg.ndomains = 1;
  cfg.nprocesses = 2;
  EXPECT_THROW(run_iteration_pipeline(m, cfg, hooks), precondition_error);
  cfg = base_config(PipelineMode::sync, 2);
  EXPECT_THROW(run_iteration_pipeline(m, cfg, SolverHooks{}),
               precondition_error);
}

/// A run that also captures each consumed snapshot's fingerprint — the
/// seal over levels, assignment, graph and classes.
struct SealedRun {
  EulerRun run;
  std::vector<std::uint64_t> fingerprints;
};

SealedRun run_euler_sealed(IterationPipelineConfig cfg) {
  SealedRun out;
  mesh::Mesh m = test_mesh();
  solver::EulerSolver solver(m);
  solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
  solver.add_pulse(m.cell_centroid(0), 0.5, 0.3);
  solver.assign_temporal_levels();
  SolverHooks hooks = euler_pipeline_hooks(solver);
  hooks.observer = [&out, &solver, &m](const IterationSnapshot& snap,
                                       const runtime::ExecutionReport&) {
    out.fingerprints.push_back(snap.fingerprint);
    std::uint64_t h = 1469598103934665603ULL;
    for (index_t c = 0; c < m.num_cells(); ++c) {
      const solver::State s = solver.cell_state(c);
      h = hash_doubles(h, s.data(), s.size());
    }
    out.run.state_hash.push_back(h);
  };
  out.run.report = run_iteration_pipeline(m, cfg, hooks);
  return out;
}

TEST(PipelineAsync, PatchPolicyModesAreBitwiseIdentical) {
  // off = rebuild every graph; auto = diff-patch; oracle = patch AND
  // prove each patch against a rebuild. All three must publish identical
  // snapshots (fingerprints) and identical physics (state hashes).
  IterationPipelineConfig cfg = base_config(PipelineMode::sync, 2);
  cfg.drift = 0.02;
  cfg.patch = PatchPolicy::off;
  const SealedRun off = run_euler_sealed(cfg);
  cfg.patch = PatchPolicy::automatic;
  const SealedRun aut = run_euler_sealed(cfg);
  cfg.patch = PatchPolicy::oracle;
  const SealedRun ora = run_euler_sealed(cfg);

  EXPECT_EQ(off.fingerprints, aut.fingerprints);
  EXPECT_EQ(off.fingerprints, ora.fingerprints);
  EXPECT_EQ(off.run.state_hash, aut.run.state_hash);
  EXPECT_EQ(off.run.state_hash, ora.run.state_hash);

  bool any_patched = false;
  for (const PipelineIterationStats& it : aut.run.report.iterations)
    any_patched |= it.graph_patched;
  EXPECT_TRUE(any_patched);
  for (const PipelineIterationStats& it : off.run.report.iterations)
    EXPECT_FALSE(it.graph_patched);
}

// A patch that moves nothing publishes the previous snapshot's class map
// itself (the bind then reuses its runs by pointer); a drifting patch
// publishes a new map with the moves from the previous one.
TEST(PipelineAsync, NoOpPatchSharesThePreviousClassMap) {
  for (const double drift : {0.0, 0.02}) {
    mesh::Mesh m = test_mesh();
    solver::EulerSolver solver(m);
    solver.initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
    solver.assign_temporal_levels();
    std::vector<std::shared_ptr<const taskgraph::ClassMap>> maps;
    std::vector<bool> delta_from_previous;
    SolverHooks hooks = euler_pipeline_hooks(solver);
    hooks.observer = [&](const IterationSnapshot& snap,
                         const runtime::ExecutionReport&) {
      delta_from_previous.push_back(
          !maps.empty() && snap.class_delta.applies_to(maps.back()));
      maps.push_back(snap.classes);
    };
    IterationPipelineConfig cfg = base_config(PipelineMode::sync, 2);
    cfg.drift = drift;
    const PipelineRunReport report = run_iteration_pipeline(m, cfg, hooks);
    ASSERT_EQ(maps.size(), static_cast<std::size_t>(kIterations));
    for (std::size_t i = 1; i < maps.size(); ++i) {
      if (drift == 0.0) {
        EXPECT_EQ(maps[i], maps[0]) << "iteration " << i;
      } else if (report.iterations[i].graph_patched) {
        EXPECT_NE(maps[i], maps[i - 1]) << "iteration " << i;
        EXPECT_TRUE(delta_from_previous[i]) << "iteration " << i;
      }
    }
  }
}

TEST(PipelineAsync, ZeroDriftReusesDecompositionVerbatim) {
  IterationPipelineConfig cfg = base_config(PipelineMode::sync, 2);
  cfg.drift = 0.0;
  const SealedRun r = run_euler_sealed(cfg);
  ASSERT_EQ(r.run.report.iterations.size(),
            static_cast<std::size_t>(kIterations));
  for (std::size_t i = 1; i < r.run.report.iterations.size(); ++i) {
    const PipelineIterationStats& it = r.run.report.iterations[i];
    EXPECT_TRUE(it.decomposition_reused) << "iteration " << i;
    EXPECT_EQ(it.dirty_fraction, 0.0) << "iteration " << i;
    EXPECT_EQ(it.migrated_cells, 0) << "iteration " << i;
    EXPECT_TRUE(it.graph_patched) << "iteration " << i;  // noop patch
  }
}

}  // namespace
}  // namespace tamp::core
