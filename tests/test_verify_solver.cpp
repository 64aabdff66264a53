// Solver-level race verification and adversarial-schedule fuzzing:
// bitwise determinism of the task-parallel solvers under hostile
// schedules, conservation at every subiteration boundary of a genuinely
// parallel run, mutation testing of the checker (a dropped ordering edge
// is always flagged), and a clean sweep across meshes × partitioning
// strategies proving the generated DAGs order every conflicting access.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mesh/generators.hpp"
#include "partition/strategy.hpp"
#include "solver/euler.hpp"
#include "solver/transport.hpp"
#include "support/rng.hpp"
#include "verify/graph_edit.hpp"
#include "verify/reachability.hpp"
#include "verify/verifier.hpp"

namespace tamp::verify {
namespace {

using solver::EulerSolver;
using solver::State;
using solver::TransportSolver;

struct Decomposition {
  std::vector<part_t> domain_of_cell;
  part_t ndomains = 0;
  std::vector<part_t> d2p;
};

Decomposition decompose(mesh::Mesh& m, partition::Strategy strategy,
                        part_t ndomains, part_t nproc) {
  partition::StrategyOptions sopts;
  sopts.strategy = strategy;
  sopts.ndomains = ndomains;
  const auto dd = partition::decompose(m, sopts);
  return {dd.domain_of_cell, dd.ndomains,
          partition::map_domains_to_processes(dd.ndomains, nproc,
                                              partition::DomainMapping::block)};
}

/// One (workers, seed, jitter) point of the adversarial sweep.
struct Schedule {
  int workers;
  std::uint64_t seed;
  double max_delay_seconds;
};

constexpr Schedule kSweep[] = {
    {1, 1, 0.0},    {2, 2, 0.0},    {2, 3, 50e-6}, {4, 4, 0.0},
    {4, 5, 50e-6},  {2, 6, 50e-6},  {4, 7, 0.0},   {1, 8, 50e-6},
};

runtime::RuntimeConfig adversarial_config(const Schedule& s, part_t nproc) {
  runtime::RuntimeConfig rc;
  rc.num_processes = nproc;
  rc.workers_per_process = s.workers;
  rc.adversarial.enabled = true;
  rc.adversarial.seed = s.seed;
  rc.adversarial.max_delay_seconds = s.max_delay_seconds;
  return rc;
}

// --- adversarial determinism -------------------------------------------------

TEST(VerifySolver, EulerBitwiseDeterministicUnderAdversarialSchedules) {
  // Twin solvers on twin meshes: serial reference vs task execution under
  // eight hostile schedules. Every object is touched by exactly one task
  // per activation and object lists are deterministic, so the final state
  // must match the serial run bit for bit — any divergence means the
  // schedule leaked into the arithmetic, i.e. a race.
  mesh::Mesh m1 = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  mesh::Mesh m2 = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  EulerSolver serial(m1), tasked(m2);
  for (EulerSolver* s : {&serial, &tasked}) {
    s->initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
    s->add_pulse({1.5, 1.0, 0.8}, 0.8, 0.25);
    s->assign_temporal_levels();
  }
  const auto dd = decompose(m2, partition::Strategy::mc_tl, 4, 2);

  int k = 0;
  for (const Schedule& sched : kSweep) {
    serial.run_iteration();
    const auto iter = tasked.make_iteration_tasks(dd.domain_of_cell,
                                                  dd.ndomains);
    runtime::execute(iter.graph, dd.d2p, adversarial_config(sched, 2),
                     iter.body);
    tasked.note_tasks_complete();
    for (index_t c = 0; c < m1.num_cells(); ++c) {
      const State a = serial.cell_state(c), b = tasked.cell_state(c);
      for (int v = 0; v < solver::kNumVars; ++v)
        ASSERT_EQ(a[static_cast<std::size_t>(v)],
                  b[static_cast<std::size_t>(v)])
            << "schedule " << k << " cell " << c << " var " << v;
    }
    ++k;
  }
  EXPECT_EQ(serial.time(), tasked.time());
}

TEST(VerifySolver, TransportBitwiseDeterministicUnderAdversarialSchedules) {
  mesh::Mesh m1 = mesh::make_graded_box_mesh(7, 6, 5, 1.3);
  mesh::Mesh m2 = mesh::make_graded_box_mesh(7, 6, 5, 1.3);
  solver::TransportConfig tc;
  tc.velocity = {0.8, 0.3, 0.0};
  tc.diffusivity = 0.02;
  TransportSolver serial(m1, tc), tasked(m2, tc);
  for (TransportSolver* s : {&serial, &tasked}) {
    s->initialize_uniform(0.1);
    s->add_blob({1.0, 1.0, 0.8}, 0.7, 1.0);
    s->assign_temporal_levels();
  }
  const auto dd = decompose(m2, partition::Strategy::sc_oc, 4, 2);

  int k = 0;
  for (const Schedule& sched : kSweep) {
    serial.run_iteration();
    const auto iter = tasked.make_iteration_tasks(dd.domain_of_cell,
                                                  dd.ndomains);
    runtime::execute(iter.graph, dd.d2p, adversarial_config(sched, 2),
                     iter.body);
    tasked.note_tasks_complete();
    for (index_t c = 0; c < m1.num_cells(); ++c)
      ASSERT_EQ(serial.value(c), tasked.value(c))
          << "schedule " << k << " cell " << c;
    ++k;
  }
}

// --- conservation under concurrency ------------------------------------------

TEST(VerifySolver, ConservationHoldsAtEverySubiterationBoundary) {
  // Slice one iteration's DAG into per-subiteration induced subgraphs and
  // execute each slice adversarially in parallel. Dependency paths between
  // tasks of the same subiteration never leave that subiteration, so this
  // is a valid (conservative) schedule of the full graph — and between
  // slices the solver state is quiescent, so the conservation invariant
  // can be probed mid-iteration while the run is genuinely concurrent.
  mesh::Mesh m = mesh::make_graded_box_mesh(8, 8, 6, 1.25);
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.0, 0.0}, 1.0);
  s.add_pulse({1.2, 1.2, 0.9}, 0.9, 0.3);
  s.assign_temporal_levels();
  const auto dd = decompose(m, partition::Strategy::hybrid, 4, 2);
  const State start = s.conserved_totals();

  for (int it = 0; it < 2; ++it) {
    const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
    index_t nsub = 0;
    for (index_t t = 0; t < iter.graph.num_tasks(); ++t)
      nsub = std::max(nsub, iter.graph.task(t).subiteration + 1);
    for (index_t sub = 0; sub < nsub; ++sub) {
      std::vector<char> keep(static_cast<std::size_t>(iter.graph.num_tasks()));
      for (index_t t = 0; t < iter.graph.num_tasks(); ++t)
        keep[static_cast<std::size_t>(t)] =
            iter.graph.task(t).subiteration == sub ? 1 : 0;
      const InducedSubgraph slice = filter_tasks(iter.graph, keep);
      AccessLog log(slice.graph.num_tasks());
      const runtime::TaskBody body = instrument(
          [&](index_t t) {
            iter.body(slice.original_task[static_cast<std::size_t>(t)]);
          },
          log);
      runtime::execute(
          slice.graph, dd.d2p,
          adversarial_config({2, 40 + static_cast<std::uint64_t>(sub), 20e-6},
                             2),
          body);
      // Each slice's DAG must itself order its conflicting accesses.
      EXPECT_TRUE(check_races(slice.graph, log).clean())
          << "iter " << it << " subiteration " << sub;
      const State now = s.conserved_totals();
      EXPECT_NEAR(now[0], start[0], 1e-10 * std::abs(start[0]))
          << "iter " << it << " subiteration " << sub;
      EXPECT_NEAR(now[4], start[4], 1e-10 * std::abs(start[4]))
          << "iter " << it << " subiteration " << sub;
    }
    s.note_tasks_complete();
  }
}

// --- mutation testing: no false negatives ------------------------------------

TEST(VerifySolver, RemovedOrderingEdgeIsAlwaysFlagged) {
  // Drop one dependency edge at a time. If the mutated graph still orders
  // the pair through another path the removal is harmless; otherwise the
  // checker MUST report the severed pair — that edge was load-bearing.
  mesh::Mesh m = mesh::make_graded_box_mesh(7, 6, 5, 1.3);
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.0, 0.0}, 1.0);
  s.add_pulse({1.0, 1.0, 0.8}, 0.8, 0.2);
  s.assign_temporal_levels();
  const auto dd = decompose(m, partition::Strategy::mc_tl, 4, 2);
  const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);

  std::vector<std::pair<index_t, index_t>> edges =
      dependency_edges(iter.graph);
  Rng rng(2026);
  rng.shuffle(edges);

  int mutations = 0, redundant = 0;
  for (const auto& [u, v] : edges) {
    if (mutations >= 6) break;
    const taskgraph::TaskGraph mutated = remove_dependency(iter.graph, u, v);
    if (Reachability(mutated).reachable(u, v)) {
      ++redundant;  // another path still orders the pair
      continue;
    }
    AccessLog log(mutated.num_tasks());
    collect_serial(mutated, iter.body, log);
    const RaceReport report = check_races(mutated, log);
    bool pair_reported = false;
    for (const Conflict& c : report.conflicts)
      pair_reported |= c.first == std::min(u, v) && c.second == std::max(u, v);
    EXPECT_TRUE(pair_reported)
        << "dropping " << u << " -> " << v << " ("
        << iter.graph.task(u).label() << " -> " << iter.graph.task(v).label()
        << ") was not flagged; " << report.conflicts.size()
        << " conflicts reported";
    ++mutations;
  }
  EXPECT_GE(mutations, 6) << "graph too redundant to mutate (" << redundant
                          << " redundant edges)";
}

TEST(VerifySolver, RogueWriteIsFlagged) {
  // A task body that scribbles on state it never declared: every task
  // writes cell 0. The unmutated DAG cannot order all those writers, so
  // the checker must object.
  mesh::Mesh m = mesh::make_graded_box_mesh(6, 5, 4, 1.3);
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.0, 0.0, 0.0}, 1.0);
  s.assign_temporal_levels();
  const auto dd = decompose(m, partition::Strategy::sc_oc, 3, 1);
  const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
  AccessLog log(iter.graph.num_tasks());
  collect_serial(
      iter.graph,
      [&](index_t t) {
        iter.body(t);
        record_write(ObjectKind::cell_state, 0);
      },
      log);
  const RaceReport report = check_races(iter.graph, log);
  ASSERT_FALSE(report.clean());
  bool cell_conflict = false;
  for (const Conflict& c : report.conflicts)
    cell_conflict |= c.kind == ObjectKind::cell_state;
  EXPECT_TRUE(cell_conflict);
}

// --- clean sweep: no false positives ------------------------------------------

void expect_clean_euler(mesh::Mesh& m, partition::Strategy strategy,
                        part_t ndomains, const std::string& what) {
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
  s.assign_temporal_levels();
  const auto dd = decompose(m, strategy, ndomains, 2);
  const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
  AccessLog log(iter.graph.num_tasks());
  collect_serial(iter.graph, iter.body, log);
  const RaceReport report = check_races(iter.graph, log);
  EXPECT_TRUE(report.clean()) << what << ":\n" << report.summary(iter.graph);
}

void expect_clean_transport(mesh::Mesh& m, partition::Strategy strategy,
                            part_t ndomains, const std::string& what) {
  solver::TransportConfig tc;
  tc.velocity = {1.0, 0.2, 0.0};
  tc.diffusivity = 0.01;
  TransportSolver s(m, tc);
  s.initialize_uniform(0.5);
  s.assign_temporal_levels();
  const auto dd = decompose(m, strategy, ndomains, 2);
  const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
  AccessLog log(iter.graph.num_tasks());
  collect_serial(iter.graph, iter.body, log);
  const RaceReport report = check_races(iter.graph, log);
  EXPECT_TRUE(report.clean()) << what << ":\n" << report.summary(iter.graph);
}

TEST(VerifySolver, CleanSweepAcrossMeshesAndStrategies) {
  // ≥20 (mesh, strategy, ndomains, solver) combinations, all of which
  // must produce a conflict-free report: the task generator's dependency
  // rules cover every access the kernels actually perform.
  const partition::Strategy strategies[] = {partition::Strategy::sc_oc,
                                            partition::Strategy::mc_tl,
                                            partition::Strategy::hybrid};
  int combos = 0;
  for (const auto strategy : strategies) {
    const std::string tag = partition::to_string(strategy);
    {
      mesh::Mesh m = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
      expect_clean_euler(m, strategy, 4, "euler graded_box(8,6,5) " + tag);
      ++combos;
    }
    {
      mesh::Mesh m = mesh::make_graded_box_mesh(6, 6, 6, 1.35);
      expect_clean_euler(m, strategy, 6, "euler graded_box(6,6,6) " + tag);
      ++combos;
    }
    {
      mesh::Mesh m = mesh::make_lattice_mesh(6, 5, 4);
      expect_clean_euler(m, strategy, 3, "euler lattice(6,5,4) " + tag);
      ++combos;
    }
    for (const char* kind : {"cube", "cylinder", "nozzle"}) {
      mesh::TestMeshSpec spec;
      spec.target_cells = 700;
      spec.seed = 7 + combos;
      mesh::Mesh m =
          mesh::make_test_mesh(mesh::parse_test_mesh_kind(kind), spec);
      expect_clean_euler(m, strategy, 4,
                         std::string("euler ") + kind + " " + tag);
      ++combos;
    }
    {
      mesh::Mesh m = mesh::make_graded_box_mesh(7, 5, 5, 1.3);
      expect_clean_transport(m, strategy, 4,
                             "transport graded_box(7,5,5) " + tag);
      ++combos;
    }
  }
  EXPECT_GE(combos, 20);
}

}  // namespace
}  // namespace tamp::verify
