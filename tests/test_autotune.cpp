// Tests of the §IX automatic domain-granularity selection.
#include <gtest/gtest.h>

#include "core/autotune.hpp"

namespace tamp::core {
namespace {

mesh::Mesh small_mesh() {
  mesh::TestMeshSpec spec;
  spec.target_cells = 6000;
  return mesh::make_cylinder_mesh(spec);
}

TEST(Autotune, DefaultCandidatesArePowerOfTwoMultiples) {
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 4;
  opts.max_multiplier = 8;
  const AutotuneResult r = suggest_domain_count(m, opts);
  ASSERT_EQ(r.sweep.size(), 4u);  // 4, 8, 16, 32
  EXPECT_EQ(r.sweep[0].ndomains, 4);
  EXPECT_EQ(r.sweep[1].ndomains, 8);
  EXPECT_EQ(r.sweep[2].ndomains, 16);
  EXPECT_EQ(r.sweep[3].ndomains, 32);
}

TEST(Autotune, BestIsSweepMinimum) {
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 4;
  opts.max_multiplier = 16;
  const AutotuneResult r = suggest_domain_count(m, opts);
  simtime_t best = 0;
  for (const AutotuneRow& row : r.sweep) {
    if (row.ndomains == r.best_ndomains) best = row.makespan;
  }
  for (const AutotuneRow& row : r.sweep) EXPECT_GE(row.makespan, best);
}

TEST(Autotune, CommRaisesMakespanAboveIdeal) {
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 4;
  opts.max_multiplier = 8;
  const AutotuneResult r = suggest_domain_count(m, opts);
  for (const AutotuneRow& row : r.sweep) {
    EXPECT_GE(row.makespan, row.ideal_makespan);
    EXPECT_GT(row.cross_process_edges, 0);
  }
}

TEST(Autotune, CommPenaltyCurbsOverDecomposition) {
  // Without overheads, finer is (weakly) always better; with realistic
  // per-task and communication charges the winner must not be the finest
  // candidate.
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 4;
  opts.max_multiplier = 32;
  opts.comm.latency = 400.0;
  opts.comm.per_object = 0.2;
  opts.task_overhead = 40.0;
  const AutotuneResult heavy = suggest_domain_count(m, opts);
  EXPECT_LT(heavy.best_ndomains,
            heavy.sweep.back().ndomains);  // not the finest
  // Ideal (no-comm) makespans must still decrease monotonically-ish with
  // granularity: last ≤ first.
  EXPECT_LE(heavy.sweep.back().ideal_makespan,
            heavy.sweep.front().ideal_makespan);
}

TEST(Autotune, ExplicitCandidatesRespected) {
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 2;
  opts.candidates = {6, 10};
  const AutotuneResult r = suggest_domain_count(m, opts);
  ASSERT_EQ(r.sweep.size(), 2u);
  EXPECT_EQ(r.sweep[0].ndomains, 6);
  EXPECT_EQ(r.sweep[1].ndomains, 10);
  EXPECT_TRUE(r.best_ndomains == 6 || r.best_ndomains == 10);
}

TEST(Autotune, WorksForBothStrategies) {
  const auto m = small_mesh();
  for (const auto strategy :
       {partition::Strategy::sc_oc, partition::Strategy::mc_tl}) {
    AutotuneOptions opts;
    opts.strategy = strategy;
    opts.nprocesses = 2;
    opts.max_multiplier = 4;
    const AutotuneResult r = suggest_domain_count(m, opts);
    EXPECT_GT(r.best_ndomains, 0);
  }
}

TEST(Autotune, RejectsBadOptions) {
  const auto m = small_mesh();
  AutotuneOptions opts;
  opts.nprocesses = 0;
  EXPECT_THROW((void)suggest_domain_count(m, opts), precondition_error);
}

}  // namespace
}  // namespace tamp::core
