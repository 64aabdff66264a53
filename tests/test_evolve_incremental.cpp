// Tests of level evolution and incremental repartitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "mesh/levels.hpp"
#include "partition/incremental.hpp"
#include "partition/strategy.hpp"

namespace tamp {
namespace {

mesh::Mesh graded_test_mesh(index_t cells = 8000) {
  mesh::TestMeshSpec spec;
  spec.target_cells = cells;
  return mesh::make_cylinder_mesh(spec);
}

TEST(Evolve, ZeroDriftChangesNothing) {
  auto m = graded_test_mesh(3000);
  const auto before = m.cell_levels();
  Rng rng(1);
  const auto stats = mesh::evolve_levels(m, 0.0, rng);
  EXPECT_EQ(stats.cells_changed, 0);
  EXPECT_GT(stats.eligible_cells, 0);
  EXPECT_EQ(m.cell_levels(), before);
}

TEST(Evolve, DriftMovesOnlyBoundaryCellsByOneLevel) {
  auto m = graded_test_mesh(3000);
  const auto before = m.cell_levels();
  Rng rng(2);
  const auto stats = mesh::evolve_levels(m, 0.5, rng);
  EXPECT_GT(stats.cells_changed, 0);
  EXPECT_LE(stats.cells_changed, stats.eligible_cells);
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const int delta = std::abs(m.cell_level(c) - before[static_cast<std::size_t>(c)]);
    EXPECT_LE(delta, 1) << "cell " << c;
  }
  // Levels stay in range.
  EXPECT_LE(m.max_level(), 3);
}

TEST(Evolve, SmallDriftIsMinimalEvolution) {
  // The paper's premise: levels barely change between iterations.
  auto m = graded_test_mesh(6000);
  Rng rng(3);
  const auto stats = mesh::evolve_levels(m, 0.02, rng);
  EXPECT_LT(static_cast<double>(stats.cells_changed),
            0.02 * static_cast<double>(m.num_cells()));
}

TEST(Evolve, Deterministic) {
  auto m1 = graded_test_mesh(2000);
  auto m2 = graded_test_mesh(2000);
  Rng a(7), b(7);
  mesh::evolve_levels(m1, 0.3, a);
  mesh::evolve_levels(m2, 0.3, b);
  EXPECT_EQ(m1.cell_levels(), m2.cell_levels());
}

/// The whole-mesh drift loop evolve_levels ran before LevelEvolver: the
/// reference every evolver step must reproduce, draw for draw.
mesh::EvolveStats reference_evolve(mesh::Mesh& mesh, double drift, Rng& rng) {
  const index_t n = mesh.num_cells();
  const level_t max_level = mesh.max_level();
  std::vector<level_t> next(mesh.cell_levels());
  mesh::EvolveStats stats;
  for (index_t c = 0; c < n; ++c) {
    const level_t mine = mesh.cell_level(c);
    std::array<level_t, 8> other{};
    std::size_t count = 0;
    for (const index_t f : mesh.cell_faces(c)) {
      const index_t nb = mesh.face_other_cell(f, c);
      if (nb == invalid_index) continue;
      const level_t ln = mesh.cell_level(nb);
      if (ln != mine && count < other.size()) other[count++] = ln;
    }
    if (count == 0) continue;
    ++stats.eligible_cells;
    if (rng.uniform() >= drift) continue;
    const level_t target = other[static_cast<std::size_t>(rng.below(count))];
    const level_t stepped = static_cast<level_t>(mine + (target > mine ? 1 : -1));
    next[static_cast<std::size_t>(c)] = std::clamp<level_t>(stepped, 0, max_level);
    if (next[static_cast<std::size_t>(c)] != mine) ++stats.cells_changed;
  }
  mesh.set_cell_levels(std::move(next));
  return stats;
}

TEST(Evolve, SteppedEvolverIsBitwiseTheOneShotEvolve) {
  // Cylinder, graded box (levels from the CFL rule) and a one-level
  // lattice, at drift 0, 0.05 and 1: after every one of 200 steps the
  // stepped evolver, a fresh evolve_levels and the whole-mesh reference
  // loop agree on the levels, the changed cells, the counts and max_level.
  std::vector<std::pair<const char*, mesh::Mesh>> meshes;
  meshes.emplace_back("cylinder", graded_test_mesh(2500));
  mesh::Mesh box = mesh::make_graded_box_mesh(12, 10, 8, 1.3);
  mesh::assign_levels_by_cfl(box, 4);
  meshes.emplace_back("graded box", std::move(box));
  meshes.emplace_back("one level", mesh::make_lattice_mesh(9, 8, 7));
  for (const auto& [name, start] : meshes) {
    ASSERT_GT(start.num_cells(), 0);
    for (const double drift : {0.0, 0.05, 1.0}) {
      mesh::Mesh stepped = start, oneshot = start, reference = start;
      mesh::LevelEvolver evolver(stepped);
      index_t total_changed = 0;
      for (int step = 0; step < 200; ++step) {
        const std::uint64_t seed = mix_seed(5, static_cast<std::uint64_t>(step));
        Rng a(seed), b(seed), c(seed);
        const std::vector<level_t> before = stepped.cell_levels();
        const mesh::EvolveStats sa = evolver.step(stepped, drift, a);
        const mesh::EvolveStats sb = mesh::evolve_levels(oneshot, drift, b);
        const mesh::EvolveStats sc = reference_evolve(reference, drift, c);
        const std::string where = std::string(name) + " drift " +
                                  std::to_string(drift) + " step " +
                                  std::to_string(step);
        ASSERT_EQ(stepped.cell_levels(), reference.cell_levels()) << where;
        ASSERT_EQ(oneshot.cell_levels(), reference.cell_levels()) << where;
        ASSERT_EQ(sa.cells_changed, sc.cells_changed) << where;
        ASSERT_EQ(sb.cells_changed, sc.cells_changed) << where;
        ASSERT_EQ(sa.eligible_cells, sc.eligible_cells) << where;
        ASSERT_EQ(sb.eligible_cells, sc.eligible_cells) << where;
        std::vector<index_t> diff;
        for (index_t x = 0; x < stepped.num_cells(); ++x)
          if (stepped.cell_level(x) != before[static_cast<std::size_t>(x)])
            diff.push_back(x);
        ASSERT_EQ(evolver.changed(), diff) << where;
        ASSERT_EQ(stepped.max_level(), reference.max_level()) << where;
        ASSERT_EQ(stepped.max_level(),
                  *std::max_element(stepped.cell_levels().begin(),
                                    stepped.cell_levels().end()))
            << where;
        total_changed += sa.cells_changed;
      }
      if (drift == 0.0 || std::string(name) == "one level")
        EXPECT_EQ(total_changed, 0) << name << " drift " << drift;
      else
        EXPECT_GT(total_changed, 0) << name << " drift " << drift;
    }
  }
}

TEST(Incremental, RestoresBalanceAfterDrift) {
  auto m = graded_test_mesh();
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = 8;
  auto dd = partition::decompose(m, sopts);

  // Drift the levels, rebuild the (changed) weighted graph, repartition
  // incrementally from the old assignment.
  Rng rng(11);
  mesh::evolve_levels(m, 0.2, rng);
  const auto g = partition::build_strategy_graph(m, partition::Strategy::mc_tl);
  const auto report =
      partition::incremental_repartition(g, dd.domain_of_cell, 8);
  EXPECT_LE(report.imbalance_after, report.imbalance_before + 1e-12);
  // Migration touches a minority of the mesh.
  EXPECT_LT(report.migrated_vertices, m.num_cells() / 4);
}

TEST(Incremental, NoChangeNoMigration) {
  auto m = graded_test_mesh(4000);
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::sc_oc;
  sopts.ndomains = 4;
  auto dd = partition::decompose(m, sopts);
  const auto g = partition::build_strategy_graph(m, partition::Strategy::sc_oc);
  const weight_t cut0 = partition::edge_cut(g, dd.domain_of_cell);
  const auto report =
      partition::incremental_repartition(g, dd.domain_of_cell, 4);
  // Already balanced: phase 1 does nothing; phase 2 may still polish the
  // cut, but never worsen it.
  EXPECT_LE(report.cut_after, cut0);
  EXPECT_LE(report.migrated_vertices, m.num_cells() / 10);
}

TEST(Incremental, ZeroDirtyVerticesReusesAssignmentVerbatim) {
  auto m = graded_test_mesh(4000);
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::sc_oc;
  sopts.ndomains = 4;
  auto dd = partition::decompose(m, sopts);
  const auto g = partition::build_strategy_graph(m, partition::Strategy::sc_oc);
  const auto before = dd.domain_of_cell;
  partition::IncrementalOptions iopts;
  iopts.dirty_vertices = 0;
  const auto report =
      partition::incremental_repartition(g, dd.domain_of_cell, 4, iopts);
  EXPECT_TRUE(report.reused_verbatim);
  EXPECT_EQ(report.migrated_vertices, 0);
  EXPECT_EQ(dd.domain_of_cell, before);  // not a single cell moved
  EXPECT_EQ(report.cut_before, report.cut_after);
  EXPECT_EQ(report.imbalance_before, report.imbalance_after);
  // The normal path (dirty unknown) does NOT take the shortcut.
  const auto full = partition::incremental_repartition(g, dd.domain_of_cell, 4);
  EXPECT_FALSE(full.reused_verbatim);
}

TEST(Incremental, MigratesFarLessThanScratchRepartition) {
  auto m = graded_test_mesh();
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = 8;
  auto dd = partition::decompose(m, sopts);
  const auto old_part = dd.domain_of_cell;

  Rng rng(13);
  mesh::evolve_levels(m, 0.1, rng);
  const auto g = partition::build_strategy_graph(m, partition::Strategy::mc_tl);

  // Incremental.
  auto inc_part = old_part;
  const auto report = partition::incremental_repartition(g, inc_part, 8);

  // Scratch (new seed → essentially unrelated labels).
  sopts.partitioner.seed = 999;
  const auto scratch = partition::decompose(m, sopts);
  index_t scratch_moved = 0;
  for (index_t c = 0; c < m.num_cells(); ++c)
    if (scratch.domain_of_cell[static_cast<std::size_t>(c)] !=
        old_part[static_cast<std::size_t>(c)])
      ++scratch_moved;

  EXPECT_LT(report.migrated_vertices, scratch_moved / 4);
}

/// Two paths, `a` and `b` vertices long, with no edge between them.
graph::Csr two_paths(index_t a, index_t b) {
  graph::Builder builder(a + b);
  for (index_t v = 0; v + 1 < a; ++v) builder.add_edge(v, v + 1);
  for (index_t v = a; v + 1 < a + b; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

TEST(Incremental, ReportsWhenBalanceIsNotRestored) {
  // Each component lies wholly in one part, 10 against 30 vertices: part 1
  // is over its allowance, but no vertex of it has a neighbour elsewhere,
  // so no move exists and the assignment stays as it was.
  const graph::Csr g = two_paths(10, 30);
  std::vector<part_t> part(40, 1);
  std::fill(part.begin(), part.begin() + 10, 0);
  const std::vector<part_t> before = part;
  const auto report = partition::incremental_repartition(g, part, 2);
  EXPECT_FALSE(report.balanced);
  EXPECT_EQ(part, before);
  EXPECT_EQ(report.migrated_vertices, 0);
  EXPECT_DOUBLE_EQ(report.imbalance_after, 1.5);

  // Joined into one path, the same split can be rebalanced.
  graph::Builder builder(40);
  for (index_t v = 0; v + 1 < 40; ++v) builder.add_edge(v, v + 1);
  const graph::Csr path = builder.build();
  part = before;
  const auto joined = partition::incremental_repartition(path, part, 2);
  EXPECT_TRUE(joined.balanced);
  EXPECT_GT(joined.migrated_vertices, 0);
  EXPECT_EQ(joined.cut_after, partition::edge_cut(path, part));
}

TEST(Incremental, ValidatesInput) {
  const auto g = graph::make_grid_graph(4, 4);
  std::vector<part_t> wrong(3, 0);
  EXPECT_THROW(
      (void)partition::incremental_repartition(g, wrong, 2),
      precondition_error);
}

}  // namespace
}  // namespace tamp
