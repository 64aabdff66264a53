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
#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace tamp::partition
