// Golden fingerprints of the partitioner's output. No other test pins
// what decompose, incremental_repartition or repair_fragments return: the
// task-graph goldens use integer-rule domains, and the end-to-end state
// fingerprint does not depend on the decomposition. The input is a
// graded box whose temporal levels come from an integer rule, so every
// vertex and edge weight the partitioner sees derives from topology and
// levels alone, never from floating-point geometry. Each case hashes the
// assignment (FNV-1a, support/hash.hpp) together with its edge cut. A
// refactor of partition/ must leave these values unchanged; only a change
// meant to alter the decomposition re-records them, and says so.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "partition/incremental.hpp"
#include "partition/repair.hpp"
#include "partition/strategy.hpp"
#include "support/hash.hpp"

namespace tamp::partition {
namespace {

constexpr index_t kNx = 16, kNy = 12, kNz = 8;
constexpr part_t kDomains = 8;
constexpr part_t kProcesses = 2;

/// 16×12×8 graded box; levels 0..3 rise along the i+2j+k diagonal.
mesh::Mesh golden_box() {
  mesh::Mesh m = mesh::make_graded_box_mesh(kNx, kNy, kNz, 1.2);
  std::vector<level_t> levels(static_cast<std::size_t>(m.num_cells()));
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const index_t i = c % kNx, j = (c / kNx) % kNy, k = c / (kNx * kNy);
    levels[static_cast<std::size_t>(c)] =
        static_cast<level_t>(std::min<index_t>(3, (i + 2 * j + k) / 10));
  }
  m.set_cell_levels(std::move(levels));
  return m;
}

std::uint64_t fingerprint(const std::vector<part_t>& part, weight_t cut) {
  return Fnv1a().add_vector(part).add(cut).value();
}

StrategyOptions serial_options(Strategy strategy, Method method) {
  StrategyOptions o;
  o.strategy = strategy;
  o.ndomains = kDomains;
  o.nprocesses = kProcesses;
  o.partitioner.method = method;
  o.partitioner.num_threads = 1;
  return o;
}

std::string name(Strategy strategy, Method method) {
  return std::string(to_string(strategy)) +
         (method == Method::kway_direct ? " kway_direct" : " rb");
}

TEST(PartitionGolden, Decompose) {
  struct Case {
    Strategy strategy;
    Method method;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {Strategy::sc_oc, Method::recursive_bisection, 0x004e71c34a22c55bULL},
      {Strategy::sc_oc, Method::kway_direct, 0x7b558a9fe2e0f775ULL},
      {Strategy::mc_tl, Method::recursive_bisection, 0x25835f31404c77cfULL},
      {Strategy::mc_tl, Method::kway_direct, 0x66e927f41ee940ceULL},
      {Strategy::hybrid, Method::recursive_bisection, 0x86a37e90b9312556ULL},
      {Strategy::hybrid, Method::kway_direct, 0x5fe977066083d280ULL},
  };
  const mesh::Mesh box = golden_box();
  for (const Case& gc : cases) {
    const DomainDecomposition dd =
        decompose(box, serial_options(gc.strategy, gc.method));
    EXPECT_EQ(fingerprint(dd.domain_of_cell, dd.edge_cut), gc.expected)
        << name(gc.strategy, gc.method);
  }
}

TEST(PartitionGolden, IncrementalRepartitionAfterDriftSteps) {
  struct Case {
    Strategy strategy;
    std::uint64_t after_step[2];
  };
  const Case cases[] = {
      {Strategy::sc_oc, {0xc8715266ad492f5eULL, 0xc8715266ad492f5eULL}},
      {Strategy::mc_tl, {0xcf733dee1e1b7f11ULL, 0xf7316846669058deULL}},
  };
  for (const Case& gc : cases) {
    mesh::Mesh box = golden_box();
    std::vector<part_t> part =
        decompose(box, serial_options(gc.strategy,
                                      Method::recursive_bisection))
            .domain_of_cell;
    Rng rng(7);
    index_t migrated = 0;
    for (int step = 1; step <= 2; ++step) {
      mesh::evolve_levels(box, 0.2, rng);
      const graph::Csr g = build_strategy_graph(box, gc.strategy);
      IncrementalOptions opts;
      opts.seed = static_cast<std::uint64_t>(step);
      migrated +=
          incremental_repartition(g, part, kDomains, opts).migrated_vertices;
      EXPECT_EQ(fingerprint(part, edge_cut(g, part)),
                gc.after_step[step - 1])
          << to_string(gc.strategy) << ", step " << step;
    }
    // The drift must make the rebalancer and the refinement move cells,
    // or the pin would not cover them.
    EXPECT_GT(migrated, 0) << to_string(gc.strategy);
  }
}

TEST(PartitionGolden, RepairFragmentsOnMcTl) {
  struct Case {
    Method method;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {Method::recursive_bisection, 0xcef1d1b26ffccdd0ULL},
      {Method::kway_direct, 0x26b67dd28032ef12ULL},
  };
  const mesh::Mesh box = golden_box();
  const graph::Csr g = build_strategy_graph(box, Strategy::mc_tl);
  for (const Case& gc : cases) {
    std::vector<part_t> part =
        decompose(box, serial_options(Strategy::mc_tl, gc.method))
            .domain_of_cell;
    const RepairReport rep = repair_fragments(g, part, kDomains);
    EXPECT_EQ(fingerprint(part, rep.cut_after), gc.expected)
        << name(Strategy::mc_tl, gc.method) << ", " << rep.fragments_before
        << " fragments before, " << rep.vertices_moved << " cells moved";
  }
}

/// The golden box at levels 0..2 (the same diagonal rule, capped at 2)
/// plus a level-3 cell whose six face neighbours are level 2, inside the
/// level-1 band. The drift soon erodes that island, lowering the maximum
/// level, which every strategy graph is built for.
mesh::Mesh island_box() {
  mesh::Mesh m = mesh::make_graded_box_mesh(kNx, kNy, kNz, 1.2);
  std::vector<level_t> levels(static_cast<std::size_t>(m.num_cells()));
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const index_t i = c % kNx, j = (c / kNx) % kNy, k = c / (kNx * kNy);
    levels[static_cast<std::size_t>(c)] =
        static_cast<level_t>(std::min<index_t>(2, (i + 2 * j + k) / 10));
  }
  const auto cell = [](index_t i, index_t j, index_t k) {
    return static_cast<std::size_t>(i + kNx * (j + kNy * k));
  };
  levels[cell(5, 3, 4)] = 3;
  for (const auto& [di, dj, dk] : std::array<std::array<index_t, 3>, 6>{
           {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1},
            {0, 0, -1}}})
    levels[cell(5 + di, 3 + dj, 4 + dk)] = 2;
  m.set_cell_levels(std::move(levels));
  return m;
}

/// run_iteration_pipeline on island_box() with solver hooks that do
/// nothing, so every snapshot's decomposition comes from the initial
/// decompose (snapshot 0) and then from the pipeline's own strategy graph
/// and incremental_repartition under drift. `observe` sees each snapshot.
core::PipelineRunReport run_without_solver(
    Strategy strategy, double drift, int iterations,
    const std::function<void(const core::IterationSnapshot&)>& observe) {
  mesh::Mesh box = island_box();
  core::IterationPipelineConfig cfg;
  cfg.mode = core::PipelineMode::sync;
  cfg.num_iterations = iterations;
  cfg.drift = drift;
  cfg.strategy = strategy;
  cfg.ndomains = kDomains;
  cfg.nprocesses = kProcesses;
  cfg.workers_per_process = 1;
  cfg.threads = 1;
  cfg.seed = 2;
  core::SolverHooks hooks;
  hooks.make_body = [](const core::IterationSnapshot&) {
    return runtime::TaskBody([](index_t) {});
  };
  hooks.note_complete = [] {};
  hooks.observer = [&](const core::IterationSnapshot& snap,
                       const runtime::ExecutionReport&) { observe(snap); };
  return core::run_iteration_pipeline(box, cfg, hooks);
}

// The pipeline's repartition branch end to end.
TEST(PartitionGolden, PipelineDecompositionUnderDrift) {
  constexpr int kIterations = 8;
  constexpr int kDropIteration = 2;  // the island is gone after this evolve
  struct Case {
    Strategy strategy;
    bool migrates;  ///< false: no rebalancing move is ever feasible
    std::uint8_t balanced;  ///< bit i: iteration i ends within allowances
    std::uint64_t expected[kIterations];
  };
  const Case cases[] = {
      {Strategy::mc_tl,
       true,
       0x07,
       {0x93f9278b889de287ULL, 0x552cdddb46977e25ULL, 0xb33e254107741208ULL,
        0x29fdfe6c6a6f6288ULL, 0xa08cfd7ccca1b865ULL, 0xa08cfd7ccca1b865ULL,
        0xa08cfd7ccca1b865ULL, 0xa08cfd7ccca1b865ULL}},
      {Strategy::sc_oc,
       true,
       0x8f,
       {0x7ca307826692487fULL, 0x0fd075ce878bb075ULL, 0xf6a5b94700db4ac4ULL,
        0xe4206e8813bca189ULL, 0xd58caeb1a41b6e78ULL, 0x7f11704feb4dce4fULL,
        0xb1ed3afbcadb9befULL, 0xafc9806bb78a8decULL}},
      // HYBRID's domains are repartitioned on the MC_TL graph, where its
      // SC_OC second phase left them too unequal for any single move to
      // fit: every iteration keeps snapshot 0's assignment.
      {Strategy::hybrid,
       false,
       0x01,
       {0xfa5f019497bb4bdbULL, 0xfa5f019497bb4bdbULL, 0xfa5f019497bb4bdbULL,
        0xfa5f019497bb4bdbULL, 0xfa5f019497bb4bdbULL, 0xfa5f019497bb4bdbULL,
        0xfa5f019497bb4bdbULL, 0xfa5f019497bb4bdbULL}},
  };
  for (const Case& gc : cases) {
    std::vector<std::uint64_t> got;
    std::vector<level_t> max_level;
    index_t migrated = 0;
    const auto observe = [&](const core::IterationSnapshot& snap) {
      got.push_back(fingerprint(snap.decomposition.domain_of_cell,
                                snap.decomposition.edge_cut));
      max_level.push_back(
          *std::max_element(snap.levels.begin(), snap.levels.end()));
      migrated += snap.repartition.migrated_vertices;
    };
    const core::PipelineRunReport report =
        run_without_solver(gc.strategy, 0.3, kIterations, observe);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kIterations));
    for (int it = 0; it < kIterations; ++it) {
      EXPECT_EQ(got[static_cast<std::size_t>(it)], gc.expected[it])
          << to_string(gc.strategy) << ", iteration " << it << std::hex
          << " got 0x" << got[static_cast<std::size_t>(it)];
      // At this drift the rebalancer often finds no feasible move: the
      // stats say so instead of staying silent.
      EXPECT_EQ(report.iterations[static_cast<std::size_t>(it)].balanced,
                ((gc.balanced >> it) & 1) != 0)
          << to_string(gc.strategy) << ", iteration " << it;
    }
    // One evolve lowers the maximum level, so the strategy graph loses a
    // constraint (MC_TL) or rescales every weight (SC_OC): the pin covers
    // a graph rebuilt for new levels as well as refreshed ones.
    EXPECT_EQ(max_level[kDropIteration - 1], 3) << to_string(gc.strategy);
    EXPECT_EQ(max_level[kDropIteration], 2) << to_string(gc.strategy);
    EXPECT_EQ(migrated > 0, gc.migrates) << to_string(gc.strategy);
  }
}

// A step that changes no level reuses the previous assignment, and with it
// the previous repartition's verdict on balance: HYBRID's repartitions
// here never restore balance, and at this drift some steps change nothing.
TEST(PipelineBalance, ReusedAssignmentKeepsItsVerdict) {
  const core::PipelineRunReport report =
      run_without_solver(Strategy::hybrid, 0.005, 8,
                         [](const core::IterationSnapshot&) {});
  int carried = 0;
  for (std::size_t i = 1; i < report.iterations.size(); ++i) {
    const core::PipelineIterationStats& it = report.iterations[i];
    const bool before = report.iterations[i - 1].balanced;
    if (!it.decomposition_reused) continue;
    EXPECT_EQ(it.balanced, before) << "iteration " << i;
    if (!before) ++carried;
  }
  EXPECT_GT(carried, 0) << "no reused assignment followed an unbalanced one";
}

}  // namespace
}  // namespace tamp::partition
