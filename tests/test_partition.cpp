// End-to-end tests of partition_graph(): coverage, balance, cut quality,
// determinism, multi-constraint behaviour, k-way method.
#include <gtest/gtest.h>

#include <set>

#include "graph/builder.hpp"
#include "partition/partition.hpp"

namespace tamp::partition {
namespace {

TEST(Partition, SinglePartIsIdentity) {
  const auto g = graph::make_grid_graph(4, 4);
  Options o;
  o.nparts = 1;
  const Result r = partition_graph(g, o);
  EXPECT_EQ(r.edge_cut, 0);
  for (const part_t p : r.part) EXPECT_EQ(p, 0);
}

TEST(Partition, CoversAllParts) {
  const auto g = graph::make_grid_graph(20, 20);
  Options o;
  o.nparts = 7;  // non-power-of-two
  const Result r = partition_graph(g, o);
  std::set<part_t> used(r.part.begin(), r.part.end());
  EXPECT_EQ(used.size(), 7u);
  for (const part_t p : r.part) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 7);
  }
}

TEST(Partition, BalancedBisectionOfGrid) {
  const auto g = graph::make_grid_graph(32, 32);
  Options o;
  o.nparts = 2;
  const Result r = partition_graph(g, o);
  EXPECT_LE(r.max_imbalance(), 1.06);
  // A 32×32 grid bisects with cut 32; multilevel should get close.
  EXPECT_LE(r.edge_cut, 48);
}

TEST(Partition, ReportedMetricsConsistent) {
  const auto g = graph::make_grid_graph(16, 16);
  Options o;
  o.nparts = 4;
  const Result r = partition_graph(g, o);
  EXPECT_EQ(r.edge_cut, edge_cut(g, r.part));
  EXPECT_EQ(r.loads, part_loads(g, r.part, 4));
  EXPECT_NEAR(r.max_imbalance(), max_imbalance(g, r.part, 4), 1e-12);
}

TEST(Partition, DeterministicForSeed) {
  const auto g = graph::make_grid_graph(24, 24);
  Options o;
  o.nparts = 8;
  o.seed = 99;
  const Result a = partition_graph(g, o);
  const Result b = partition_graph(g, o);
  EXPECT_EQ(a.part, b.part);
  o.seed = 100;
  const Result c = partition_graph(g, o);
  EXPECT_NE(a.part, c.part);  // different seed explores different space
}

TEST(Partition, RejectsBadArguments) {
  const auto g = graph::make_grid_graph(3, 3);
  Options o;
  o.nparts = 0;
  EXPECT_THROW(partition_graph(g, o), precondition_error);
  o.nparts = 10;  // more parts than vertices
  EXPECT_THROW(partition_graph(g, o), precondition_error);
}

TEST(Partition, WeightedVerticesBalanceByWeight) {
  // Half the vertices carry weight 3, half weight 1; a 2-way split must
  // balance weight, not counts.
  graph::Builder b(16, 1);
  for (index_t v = 0; v + 1 < 16; ++v) b.add_edge(v, v + 1);
  for (index_t v = 0; v < 8; ++v) b.set_vertex_weight(v, 0, 3);
  const auto g = b.build();
  Options o;
  o.nparts = 2;
  const Result r = partition_graph(g, o);
  EXPECT_LE(r.max_imbalance(), 1.25);  // 32 total, slack allows ±3
}

TEST(Partition, MultiConstraintBalancesBothClasses) {
  // 2 constraints, classes interleaved along a path: both must split.
  graph::Builder b(64, 2);
  for (index_t v = 0; v + 1 < 64; ++v) b.add_edge(v, v + 1);
  for (index_t v = 0; v < 64; ++v) {
    b.set_vertex_weights(
        v, std::vector<weight_t>{v % 2 == 0 ? weight_t{1} : weight_t{0},
                                 v % 2 == 0 ? weight_t{0} : weight_t{1}});
  }
  const auto g = b.build();
  Options o;
  o.nparts = 2;
  const Result r = partition_graph(g, o);
  for (int c = 0; c < 2; ++c) EXPECT_LE(r.imbalance(c), 1.2) << "constraint " << c;
}

TEST(Partition, MultiConstraintSeparatedClasses) {
  // The hard case: constraint classes live in different graph regions
  // (like temporal levels in a graded mesh). Single-constraint balance
  // would put each region in its own part; multi-constraint must split
  // *each region* across both parts.
  const index_t n = 128;
  graph::Builder b(n, 2);
  for (index_t v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  for (index_t v = 0; v < n; ++v)
    b.set_vertex_weights(
        v, std::vector<weight_t>{v < n / 2 ? weight_t{1} : weight_t{0},
                                 v < n / 2 ? weight_t{0} : weight_t{1}});
  const auto g = b.build();
  Options o;
  o.nparts = 2;
  const Result r = partition_graph(g, o);
  for (int c = 0; c < 2; ++c) EXPECT_LE(r.imbalance(c), 1.25) << "constraint " << c;
  // The cut must be ≥ 2: one crossing inside each half.
  EXPECT_GE(r.edge_cut, 2);
}

TEST(Partition, KwayDirectAlsoBalances) {
  const auto g = graph::make_grid_graph(24, 24);
  Options o;
  o.nparts = 6;
  o.method = Method::kway_direct;
  const Result r = partition_graph(g, o);
  std::set<part_t> used(r.part.begin(), r.part.end());
  EXPECT_EQ(used.size(), 6u);
  EXPECT_LE(r.max_imbalance(), 1.2);
}

TEST(Partition, LargerGridManyParts) {
  const auto g = graph::make_grid_graph(48, 48);
  Options o;
  o.nparts = 16;
  const Result r = partition_graph(g, o);
  EXPECT_LE(r.max_imbalance(), 1.15);
  // Perfect 16-way split of a 48×48 grid cuts ~ 4·3·48·2/2 = 288; allow
  // generous multilevel headroom.
  EXPECT_LE(r.edge_cut, 500);
}

}  // namespace
}  // namespace tamp::partition
