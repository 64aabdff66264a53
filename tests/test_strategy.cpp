// Tests for the SC_CELLS / SC_OC / MC_TL / HYBRID strategies and the
// domain→process mapping — the paper's §IV/§V behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "partition/incremental.hpp"
#include "partition/strategy.hpp"
#include "support/rng.hpp"

namespace tamp::partition {
namespace {

mesh::Mesh small_cylinder() {
  mesh::TestMeshSpec spec;
  spec.target_cells = 6000;
  return mesh::make_cylinder_mesh(spec);
}

TEST(StrategyParse, RoundTrip) {
  EXPECT_EQ(parse_strategy("sc_oc"), Strategy::sc_oc);
  EXPECT_EQ(parse_strategy("SC_OC"), Strategy::sc_oc);
  EXPECT_EQ(parse_strategy("mc_tl"), Strategy::mc_tl);
  EXPECT_EQ(parse_strategy("sc_cells"), Strategy::sc_cells);
  EXPECT_EQ(parse_strategy("hybrid"), Strategy::hybrid);
  EXPECT_THROW(parse_strategy("magic"), precondition_error);
  EXPECT_STREQ(to_string(Strategy::mc_tl), "MC_TL");
}

TEST(StrategyGraph, ScOcUsesOperatingCosts) {
  const auto m = small_cylinder();
  const auto g = build_strategy_graph(m, Strategy::sc_oc);
  EXPECT_EQ(g.num_constraints(), 1);
  for (index_t c = 0; c < m.num_cells(); ++c)
    EXPECT_EQ(g.vertex_weights(c)[0],
              mesh::operating_cost(m.cell_level(c), m.max_level()));
}

TEST(StrategyGraph, McTlUsesBinaryIndicators) {
  const auto m = small_cylinder();
  const auto g = build_strategy_graph(m, Strategy::mc_tl);
  EXPECT_EQ(g.num_constraints(), static_cast<int>(m.max_level()) + 1);
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const auto w = g.vertex_weights(c);
    weight_t sum = 0;
    for (const weight_t x : w) sum += x;
    EXPECT_EQ(sum, 1);
    EXPECT_EQ(w[static_cast<std::size_t>(m.cell_level(c))], 1);
  }
}

void expect_same_graph(const graph::Csr& refreshed, const graph::Csr& built,
                       const std::string& what) {
  EXPECT_EQ(refreshed.num_constraints(), built.num_constraints()) << what;
  EXPECT_EQ(refreshed.xadj(), built.xadj()) << what;
  EXPECT_EQ(refreshed.adjncy(), built.adjncy()) << what;
  EXPECT_EQ(refreshed.adjwgt(), built.adjwgt()) << what;
  EXPECT_EQ(refreshed.vwgt(), built.vwgt()) << what;
}

// The pipeline's persistent graph: after drift steps (in-place weight
// rewrites) and after hand-set changes of the maximum level (rebuilds),
// the refreshed graph is the one build_strategy_graph makes from scratch.
TEST(StrategyGraph, RefreshEqualsRebuild) {
  for (const Strategy s :
       {Strategy::sc_cells, Strategy::sc_oc, Strategy::mc_tl}) {
    const std::string name = to_string(s);
    mesh::Mesh m = small_cylinder();
    StrategyGraph persistent(s);
    expect_same_graph(persistent.refresh(m), build_strategy_graph(m, s),
                      name + " first refresh");
    const eindex_t* topology = persistent.refresh(m).xadj().data();
    Rng rng(5);
    for (int step = 1; step <= 4; ++step) {
      ASSERT_GT(mesh::evolve_levels(m, 0.3, rng).cells_changed, 0);
      const graph::Csr& g = persistent.refresh(m);
      expect_same_graph(g, build_strategy_graph(m, s),
                        name + " drift step " + std::to_string(step));
      EXPECT_EQ(g.xadj().data(), topology)
          << name << ": rebuilt, not refreshed";
    }

    std::vector<level_t> levels = m.cell_levels();
    const level_t top = m.max_level();
    ASSERT_GE(top, 2);
    // Lower the maximum level: every top-level cell steps down.
    for (level_t& l : levels)
      if (l == top) l = static_cast<level_t>(top - 1);
    m.set_cell_levels(levels);
    ASSERT_EQ(m.max_level(), top - 1);
    expect_same_graph(persistent.refresh(m), build_strategy_graph(m, s),
                      name + " lowered maximum");
    // A change below the maximum, refreshed in place.
    levels[1] = static_cast<level_t>(levels[1] == 0 ? 1 : 0);
    m.set_cell_levels(levels);
    expect_same_graph(persistent.refresh(m), build_strategy_graph(m, s),
                      name + " change below the maximum");
    // Raise the maximum past the original one.
    levels[0] = static_cast<level_t>(top + 1);
    m.set_cell_levels(levels);
    ASSERT_EQ(m.max_level(), top + 1);
    expect_same_graph(persistent.refresh(m), build_strategy_graph(m, s),
                      name + " raised maximum");
  }
}

// The same with the changed cells handed in (the pipeline's form): drift
// steps refresh only the listed cells; a lowered and a raised maximum
// level rebuild.
TEST(StrategyGraph, ListRefreshEqualsRebuild) {
  for (const Strategy s :
       {Strategy::sc_cells, Strategy::sc_oc, Strategy::mc_tl}) {
    const std::string name = to_string(s);
    mesh::Mesh m = small_cylinder();
    StrategyGraph persistent(s);
    mesh::LevelEvolver evolver(m);
    expect_same_graph(persistent.refresh(m, {}), build_strategy_graph(m, s),
                      name + " first refresh");
    const eindex_t* topology = persistent.refresh(m, {}).xadj().data();
    for (int step = 1; step <= 4; ++step) {
      Rng rng(mix_seed(5, static_cast<std::uint64_t>(step)));
      ASSERT_GT(evolver.step(m, 0.3, rng).cells_changed, 0);
      const graph::Csr& g = persistent.refresh(m, evolver.changed());
      expect_same_graph(g, build_strategy_graph(m, s),
                        name + " drift step " + std::to_string(step));
      EXPECT_EQ(g.xadj().data(), topology)
          << name << ": rebuilt, not refreshed";
    }
    const level_t top = m.max_level();
    ASSERT_GE(top, 2);
    std::vector<index_t> cells;
    std::vector<level_t> lowered;
    for (index_t c = 0; c < m.num_cells(); ++c)
      if (m.cell_level(c) == top) {
        cells.push_back(c);
        lowered.push_back(static_cast<level_t>(top - 1));
      }
    m.set_cell_levels(cells, lowered);
    ASSERT_EQ(m.max_level(), top - 1);
    expect_same_graph(persistent.refresh(m, cells), build_strategy_graph(m, s),
                      name + " lowered maximum");
    const std::vector<index_t> first{0};
    const std::vector<level_t> raised{static_cast<level_t>(top + 1)};
    m.set_cell_levels(first, raised);
    ASSERT_EQ(m.max_level(), top + 1);
    expect_same_graph(persistent.refresh(m, first), build_strategy_graph(m, s),
                      name + " raised maximum");
  }
}

// The census the pipeline keeps from the changed and migrated cells
// equals update_census's recount after every iteration: drift steps with
// incremental repartitions, and a step that lowers the maximum level.
TEST(Census, ChangedCellUpdateEqualsTheRecount) {
  mesh::Mesh m = small_cylinder();
  StrategyOptions sopts;
  sopts.strategy = Strategy::mc_tl;
  sopts.ndomains = 8;
  DomainDecomposition dd = decompose(m, sopts);
  StrategyGraph persistent(Strategy::mc_tl);
  index_t migrated_total = 0;
  bool lowered_maximum = false;
  for (int it = 0; it < 30; ++it) {
    const std::vector<level_t> old_levels = m.cell_levels();
    const std::vector<part_t> old_domains = dd.domain_of_cell;
    std::vector<index_t> changed;
    if (it == 15) {
      std::vector<level_t> lowered;
      const level_t top = m.max_level();
      for (index_t c = 0; c < m.num_cells(); ++c)
        if (m.cell_level(c) == top) {
          changed.push_back(c);
          lowered.push_back(static_cast<level_t>(top - 1));
        }
      m.set_cell_levels(changed, lowered);
      ASSERT_EQ(m.max_level(), top - 1);
      lowered_maximum = true;
    } else {
      mesh::LevelEvolver evolver(m);
      Rng rng(mix_seed(9, static_cast<std::uint64_t>(it)));
      evolver.step(m, 0.2, rng);
      changed = evolver.changed();
    }
    IncrementalOptions iopts;
    iopts.seed = static_cast<std::uint64_t>(it) + 1;
    const IncrementalReport report = incremental_repartition(
        persistent.refresh(m, changed), dd.domain_of_cell, 8, iopts);
    std::vector<index_t> moved;
    for (index_t c = 0; c < m.num_cells(); ++c)
      if (dd.domain_of_cell[static_cast<std::size_t>(c)] !=
          old_domains[static_cast<std::size_t>(c)])
        moved.push_back(c);
    ASSERT_EQ(report.migrated, moved) << "iteration " << it;
    migrated_total += report.migrated_vertices;

    update_census(m, dd, old_levels, old_domains, changed, report.migrated);
    DomainDecomposition recount = dd;
    update_census(m, recount);
    ASSERT_EQ(dd.num_levels, recount.num_levels) << "iteration " << it;
    ASSERT_EQ(dd.cells_by_level, recount.cells_by_level) << "iteration " << it;
    ASSERT_EQ(dd.edge_cut, recount.edge_cut) << "iteration " << it;
  }
  EXPECT_TRUE(lowered_maximum);
  EXPECT_GT(migrated_total, 0) << "no repartition migrated a cell";
}

TEST(StrategyGraph, HybridHasNoSingleGraph) {
  const auto m = small_cylinder();
  EXPECT_THROW(build_strategy_graph(m, Strategy::hybrid), precondition_error);
}

TEST(Decompose, CoversAllDomains) {
  const auto m = small_cylinder();
  for (const Strategy s :
       {Strategy::sc_cells, Strategy::sc_oc, Strategy::mc_tl}) {
    StrategyOptions opts;
    opts.strategy = s;
    opts.ndomains = 8;
    const DomainDecomposition dd = decompose(m, opts);
    ASSERT_EQ(dd.domain_of_cell.size(), static_cast<std::size_t>(m.num_cells()));
    std::vector<index_t> count(8, 0);
    for (const part_t d : dd.domain_of_cell) {
      ASSERT_GE(d, 0);
      ASSERT_LT(d, 8);
      ++count[static_cast<std::size_t>(d)];
    }
    for (part_t d = 0; d < 8; ++d) EXPECT_GT(count[static_cast<std::size_t>(d)], 0);
  }
}

TEST(Decompose, CensusConsistent) {
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.strategy = Strategy::sc_oc;
  opts.ndomains = 4;
  const DomainDecomposition dd = decompose(m, opts);
  index_t total = 0;
  for (part_t d = 0; d < 4; ++d)
    for (level_t l = 0; l < dd.num_levels; ++l) total += dd.cells_in(d, l);
  EXPECT_EQ(total, m.num_cells());
  // total_cost sums per-level costs.
  for (part_t d = 0; d < 4; ++d) {
    weight_t sum = 0;
    for (level_t l = 0; l < dd.num_levels; ++l) sum += dd.cost_in(d, l);
    EXPECT_EQ(sum, dd.total_cost(d));
  }
}

TEST(Decompose, ScOcBalancesCostButNotLevels) {
  // The paper's core observation (Fig 7): operating costs balance while
  // temporal-level populations diverge wildly.
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.strategy = Strategy::sc_oc;
  opts.ndomains = 16;
  const DomainDecomposition dd = decompose(m, opts);
  EXPECT_LE(dd.cost_imbalance(), 1.35);
  EXPECT_GE(dd.level_imbalance(), 2.0);  // badly spread level classes
}

TEST(Decompose, McTlBalancesLevels) {
  // The paper's contribution (Fig 10): every level class spread evenly.
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.strategy = Strategy::mc_tl;
  opts.ndomains = 16;
  const DomainDecomposition dd = decompose(m, opts);
  EXPECT_LE(dd.level_imbalance(), 2.0);
  // And since balancing every level balances their weighted sum, the
  // operating cost stays reasonable too.
  EXPECT_LE(dd.cost_imbalance(), 1.6);
}

TEST(Decompose, McTlBeatsScOcOnLevelBalance) {
  const auto m = small_cylinder();
  StrategyOptions oc, tl;
  oc.strategy = Strategy::sc_oc;
  tl.strategy = Strategy::mc_tl;
  oc.ndomains = tl.ndomains = 12;
  EXPECT_LT(decompose(m, tl).level_imbalance(),
            decompose(m, oc).level_imbalance());
}

TEST(Decompose, McTlCutsMoreEdges) {
  // Paper Fig 11b: the price of level balance is a larger interface.
  const auto m = small_cylinder();
  StrategyOptions oc, tl;
  oc.strategy = Strategy::sc_oc;
  tl.strategy = Strategy::mc_tl;
  oc.ndomains = tl.ndomains = 16;
  EXPECT_GT(decompose(m, tl).edge_cut, decompose(m, oc).edge_cut);
}

TEST(Decompose, SingleDomainTrivial) {
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.ndomains = 1;
  const DomainDecomposition dd = decompose(m, opts);
  EXPECT_EQ(dd.edge_cut, 0);
  EXPECT_DOUBLE_EQ(dd.cost_imbalance(), 1.0);
}

TEST(Decompose, SingleLevelMcTlEqualsScOc) {
  // With one temporal level MC_TL's single level indicator and SC_OC's
  // operating cost are both 1 per cell: the same graph, the same split.
  auto m = small_cylinder();
  m.set_cell_levels(
      std::vector<level_t>(static_cast<std::size_t>(m.num_cells()), 0));
  StrategyOptions oc, tl;
  oc.strategy = Strategy::sc_oc;
  tl.strategy = Strategy::mc_tl;
  oc.ndomains = tl.ndomains = 8;
  oc.nprocesses = tl.nprocesses = 2;
  const DomainDecomposition a = decompose(m, oc);
  const DomainDecomposition b = decompose(m, tl);
  EXPECT_EQ(a.domain_of_cell, b.domain_of_cell);
  EXPECT_EQ(a.edge_cut, b.edge_cut);
}

TEST(Hybrid, RefinesWithinProcessDomains) {
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.strategy = Strategy::hybrid;
  opts.ndomains = 16;
  opts.nprocesses = 4;
  const DomainDecomposition dd = decompose(m, opts);
  EXPECT_EQ(dd.ndomains, 16);
  std::vector<index_t> count(16, 0);
  for (const part_t d : dd.domain_of_cell) {
    ASSERT_GE(d, 0);
    ASSERT_LT(d, 16);
    ++count[static_cast<std::size_t>(d)];
  }
  for (part_t d = 0; d < 16; ++d) EXPECT_GT(count[static_cast<std::size_t>(d)], 0);

  // Process groups (blocks of 4 domains) must balance temporal levels
  // like MC_TL does across processes.
  const level_t nlev = dd.num_levels;
  std::vector<index_t> per_proc(static_cast<std::size_t>(4 * nlev), 0);
  for (part_t d = 0; d < 16; ++d)
    for (level_t l = 0; l < nlev; ++l)
      per_proc[static_cast<std::size_t>((d / 4) * nlev + l)] += dd.cells_in(d, l);
  for (level_t l = 0; l < nlev; ++l) {
    index_t total = 0, worst = 0;
    for (part_t p = 0; p < 4; ++p) {
      total += per_proc[static_cast<std::size_t>(p * nlev + l)];
      worst = std::max(worst, per_proc[static_cast<std::size_t>(p * nlev + l)]);
    }
    if (total < 400) continue;  // tiny classes carry slack
    EXPECT_LE(static_cast<double>(worst) * 4.0 / static_cast<double>(total), 2.0)
        << "level " << static_cast<int>(l);
  }
}

TEST(Hybrid, RequiresDivisibleDomainCount) {
  const auto m = small_cylinder();
  StrategyOptions opts;
  opts.strategy = Strategy::hybrid;
  opts.ndomains = 10;
  opts.nprocesses = 4;
  EXPECT_THROW(decompose(m, opts), precondition_error);
}

TEST(Mapping, BlockAndRoundRobin) {
  const auto block = map_domains_to_processes(8, 3, DomainMapping::block);
  EXPECT_EQ(block, (std::vector<part_t>{0, 0, 0, 1, 1, 1, 2, 2}));
  const auto rr = map_domains_to_processes(8, 3, DomainMapping::round_robin);
  EXPECT_EQ(rr, (std::vector<part_t>{0, 1, 2, 0, 1, 2, 0, 1}));
  EXPECT_THROW(map_domains_to_processes(2, 4, DomainMapping::block),
               precondition_error);
}

}  // namespace
}  // namespace tamp::partition
