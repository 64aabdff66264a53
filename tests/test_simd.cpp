// SIMD dispatch layer and kernel-equivalence harness: the scalar
// (width-1) tier must equal the per-object serial reference bit for bit,
// and every runnable lane tier must reproduce the scalar tier within the
// documented ULP bound on randomized states, conserve at subiteration
// boundaries, run race-free under adversarial schedules, and handle
// every tail length around the padded stride. Plus unit coverage of the
// tamp::simd support functions themselves. See DESIGN.md "SIMD kernel
// contract".
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "mesh/generators.hpp"
#include "partition/reorder.hpp"
#include "partition/strategy.hpp"
#include "solver/euler.hpp"
#include "solver/transport.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "taskgraph/generate.hpp"
#include "verify/access.hpp"
#include "verify/graph_edit.hpp"
#include "verify/verifier.hpp"

namespace tamp {
namespace {

using solver::EulerSolver;
using solver::State;
using solver::TransportSolver;

/// Contractual bound for SIMD-vs-scalar agreement. The shipped kernels
/// are lanewise-exact transcriptions, so any drift at all usually means
/// a transcription bug; the bound leaves room only for the documented
/// divergences (none today on the physics path).
constexpr std::uint64_t kMaxUlp = 4;

simd::Request request_for(simd::Level level) {
  switch (level) {
    case simd::Level::scalar:
      return simd::Request::scalar;
    case simd::Level::sse2:
      return simd::Request::sse2;
    case simd::Level::avx2:
      return simd::Request::avx2;
  }
  return simd::Request::scalar;
}

struct Decomposition {
  std::vector<part_t> domain_of_cell;
  part_t ndomains = 0;
  std::vector<part_t> d2p;
};

Decomposition decompose(const mesh::Mesh& m, part_t ndomains, part_t nproc) {
  partition::StrategyOptions sopts;
  sopts.strategy = partition::Strategy::mc_tl;
  sopts.ndomains = ndomains;
  const auto dd = partition::decompose(m, sopts);
  return {dd.domain_of_cell, dd.ndomains,
          partition::map_domains_to_processes(dd.ndomains, nproc,
                                              partition::DomainMapping::block)};
}

/// Randomized-but-physical Euler state: uniform flow plus several
/// random pulses. Identical across solvers built from the same seed.
void random_euler_state(EulerSolver& s, const mesh::Mesh& m,
                        std::uint64_t seed) {
  Rng rng(seed);
  s.initialize_uniform(1.0,
                       {rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                        rng.uniform(-0.2, 0.2)},
                       1.0);
  mesh::Vec3 lo = m.cell_centroid(0), hi = lo;
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Vec3 p = m.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  for (int k = 0; k < 4; ++k) {
    const mesh::Vec3 center{rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y),
                            rng.uniform(lo.z, hi.z)};
    s.add_pulse(center, std::max(0.15 * distance(lo, hi), 1e-3),
                rng.uniform(0.05, 0.3));
  }
  s.assign_temporal_levels();
}

runtime::RuntimeConfig serial_config(part_t nproc) {
  runtime::RuntimeConfig rc;
  rc.num_processes = nproc;
  rc.workers_per_process = 1;
  return rc;
}

// --- support-layer units -----------------------------------------------------

TEST(SimdSupport, ParseRequestRoundTrips) {
  EXPECT_EQ(simd::parse_request(""), simd::Request::inherit);
  EXPECT_EQ(simd::parse_request("auto"), simd::Request::auto_);
  EXPECT_EQ(simd::parse_request("scalar"), simd::Request::scalar);
  EXPECT_EQ(simd::parse_request("sse2"), simd::Request::sse2);
  EXPECT_EQ(simd::parse_request("avx2"), simd::Request::avx2);
  EXPECT_THROW((void)simd::parse_request("avx512"), precondition_error);
  EXPECT_THROW((void)simd::parse_request("SCALAR"), precondition_error);
}

TEST(SimdSupport, LanesMatchTiers) {
  EXPECT_EQ(simd::lanes(simd::Level::scalar), 1);
  EXPECT_EQ(simd::lanes(simd::Level::sse2), 2);
  EXPECT_EQ(simd::lanes(simd::Level::avx2), 4);
}

TEST(SimdSupport, RunnableLevelsStartScalarAndResolveIsRunnable) {
  const auto levels = simd::runnable_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::scalar);
  for (const simd::Level level : levels) {
    EXPECT_TRUE(simd::level_runnable(level));
    // A concrete runnable request resolves to exactly itself.
    EXPECT_EQ(simd::resolve(request_for(level)), level);
  }
  // Scalar is always honoured; auto resolves to something runnable.
  EXPECT_EQ(simd::resolve(simd::Request::scalar), simd::Level::scalar);
  EXPECT_TRUE(simd::level_runnable(simd::resolve(simd::Request::auto_)));
  // An un-runnable concrete request clamps downward, never up.
  if (!simd::level_runnable(simd::Level::avx2)) {
    EXPECT_NE(simd::resolve(simd::Request::avx2), simd::Level::avx2);
  }
}

TEST(SimdSupport, DefaultRequestOverridesEnvAndResets) {
  simd::set_default_request(simd::Request::scalar);
  EXPECT_EQ(simd::default_request(), simd::Request::scalar);
  EXPECT_EQ(simd::resolve(simd::Request::inherit), simd::Level::scalar);
  // inherit resets the override; the default falls back to TAMP_SIMD.
  simd::set_default_request(simd::Request::inherit);
  EXPECT_EQ(simd::default_request(), simd::env_request());
}

TEST(SimdSupport, UlpDistanceIsAMetricOnDoubles) {
  EXPECT_EQ(simd::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(simd::ulp_distance(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(simd::ulp_distance(1.0, next), 1u);
  EXPECT_EQ(simd::ulp_distance(next, 1.0), 1u);
  EXPECT_EQ(simd::ulp_distance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  // Crossing zero counts the representable doubles in between.
  EXPECT_GT(simd::ulp_distance(-1e-300, 1e-300), 2u);
  EXPECT_EQ(simd::ulp_distance(std::nan(""), 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

// --- dispatch-level agreement on random states -------------------------------

TEST(SimdEquivalence, EulerLevelsAgreeWithinUlpBoundOnRandomStates) {
  // One solver per runnable level on identical locality-renumbered
  // meshes and identical random states; three task iterations each.
  // Every SIMD tier must match the scalar tier within kMaxUlp on every
  // conserved variable of every cell.
  mesh::Mesh base = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  {
    EulerSolver tmp(base);
    random_euler_state(tmp, base, 42);
  }
  const auto dd0 = decompose(base, 4, 2);

  const auto levels = simd::runnable_levels();
  std::vector<std::vector<State>> results;
  for (const simd::Level level : levels) {
    auto rd = partition::reorder_for_locality(base, dd0.domain_of_cell,
                                              dd0.ndomains);
    solver::SolverConfig cfg;
    cfg.simd = request_for(level);
    EulerSolver s(rd.mesh, cfg);
    ASSERT_EQ(s.simd_level(), level);
    random_euler_state(s, rd.mesh, 42);
    for (int it = 0; it < 3; ++it)
      s.run_iteration_tasks(rd.domain_of_cell, dd0.ndomains, dd0.d2p,
                            serial_config(2));
    ASSERT_TRUE(s.state_is_finite()) << simd::to_string(level);
    std::vector<State> out;
    for (index_t c = 0; c < rd.mesh.num_cells(); ++c)
      out.push_back(s.cell_state(c));
    results.push_back(std::move(out));
  }
  for (std::size_t l = 1; l < levels.size(); ++l) {
    for (std::size_t c = 0; c < results[0].size(); ++c)
      for (int v = 0; v < solver::kNumVars; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        ASSERT_LE(simd::ulp_distance(results[0][c][sv], results[l][c][sv]),
                  kMaxUlp)
            << simd::to_string(levels[l]) << " cell " << c << " var " << v;
      }
  }
}

TEST(SimdEquivalence, TransportLevelsAgreeWithinUlpBound) {
  mesh::Mesh base = mesh::make_graded_box_mesh(7, 6, 5, 1.3);
  solver::TransportConfig tc;
  tc.velocity = {0.8, 0.3, -0.2};
  tc.diffusivity = 0.02;
  tc.ambient = 0.05;
  {
    TransportSolver tmp(base, tc);
    tmp.initialize_uniform(0.1);
    tmp.add_blob({2.0, 2.0, 1.5}, 1.2, 0.8);
    tmp.assign_temporal_levels();
  }
  const auto dd0 = decompose(base, 4, 2);

  const auto levels = simd::runnable_levels();
  std::vector<std::vector<double>> results;
  std::vector<double> nets;
  for (const simd::Level level : levels) {
    auto rd = partition::reorder_for_locality(base, dd0.domain_of_cell,
                                              dd0.ndomains);
    solver::TransportConfig cfg = tc;
    cfg.simd = request_for(level);
    TransportSolver s(rd.mesh, cfg);
    ASSERT_EQ(s.simd_level(), level);
    s.initialize_uniform(0.1);
    s.add_blob({2.0, 2.0, 1.5}, 1.2, 0.8);
    s.assign_temporal_levels();
    for (int it = 0; it < 3; ++it)
      s.run_iteration_tasks(rd.domain_of_cell, dd0.ndomains, dd0.d2p,
                            serial_config(2));
    ASSERT_TRUE(s.values_finite()) << simd::to_string(level);
    std::vector<double> out;
    for (index_t c = 0; c < rd.mesh.num_cells(); ++c)
      out.push_back(s.value(c));
    results.push_back(std::move(out));
    nets.push_back(s.net_boundary_outflow());
  }
  for (std::size_t l = 1; l < levels.size(); ++l) {
    for (std::size_t c = 0; c < results[0].size(); ++c)
      ASSERT_LE(simd::ulp_distance(results[0][c], results[l][c]), kMaxUlp)
          << simd::to_string(levels[l]) << " cell " << c;
    // boundary_net_ is tolerance-only by contract (lane partial sums).
    EXPECT_NEAR(nets[l], nets[0], 1e-12 * std::max(1.0, std::abs(nets[0])))
        << simd::to_string(levels[l]);
  }
}

/// Every non-empty class is one contiguous id run, so the task path
/// streams every class through the kernel table.
void expect_all_classes_ranged(const mesh::Mesh& m,
                               const std::vector<part_t>& domain_of_cell,
                               part_t ndomains) {
  taskgraph::ClassMap cm;
  taskgraph::generate_task_graph(m, domain_of_cell, ndomains, {}, &cm);
  for (std::size_t k = 0; k < cm.class_cells.size(); ++k) {
    if (!cm.class_cells[k].empty()) {
      ASSERT_TRUE(cm.cell_range[k].valid()) << "cell class " << k;
    }
    if (!cm.class_faces[k].empty()) {
      ASSERT_TRUE(cm.face_range[k].valid()) << "face class " << k;
    }
  }
}

TEST(SimdEquivalence, ScalarRequestIsBitwiseTheSerialReference) {
  // --simd scalar through the task path must equal the per-object serial
  // reference bit for bit, for both solvers. The meshes are renumbered
  // for locality, so the tasked solver streams every class through the
  // width-1 kernels while the serial one runs the per-object kernels.
  // (The SIMD tiers are pinned to scalar by the ULP tests above and the
  // serial reference is pinned to the seed by test_verify_solver.)
  mesh::Mesh base = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  {
    EulerSolver tmp(base);
    random_euler_state(tmp, base, 9);
  }
  const auto dd = decompose(base, 4, 2);
  auto rd = partition::reorder_for_locality(base, dd.domain_of_cell,
                                            dd.ndomains);
  solver::SolverConfig cfg;
  cfg.simd = simd::Request::scalar;
  EulerSolver serial(rd.mesh), tasked(rd.mesh, cfg);
  EXPECT_EQ(tasked.simd_level(), simd::Level::scalar);
  random_euler_state(serial, rd.mesh, 9);
  random_euler_state(tasked, rd.mesh, 9);
  expect_all_classes_ranged(rd.mesh, rd.domain_of_cell, dd.ndomains);
  for (int it = 0; it < 3; ++it) {
    serial.run_iteration();
    tasked.run_iteration_tasks(rd.domain_of_cell, dd.ndomains, dd.d2p,
                               serial_config(2));
    for (index_t c = 0; c < rd.mesh.num_cells(); ++c) {
      const State a = serial.cell_state(c), b = tasked.cell_state(c);
      for (int v = 0; v < solver::kNumVars; ++v)
        ASSERT_EQ(a[static_cast<std::size_t>(v)],
                  b[static_cast<std::size_t>(v)])
            << "euler iteration " << it << " cell " << c << " var " << v;
    }
  }

  solver::TransportConfig tc;
  tc.velocity = {0.8, 0.3, -0.2};
  tc.diffusivity = 0.02;
  tc.ambient = 0.05;
  tc.simd = simd::Request::scalar;
  auto init = [](TransportSolver& s) {
    s.initialize_uniform(0.1);
    s.add_blob({2.0, 2.0, 1.5}, 1.2, 0.8);
    s.assign_temporal_levels();
  };
  mesh::Mesh tbase = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  {
    TransportSolver tmp(tbase, tc);
    init(tmp);
  }
  const auto tdd = decompose(tbase, 4, 2);
  auto trd = partition::reorder_for_locality(tbase, tdd.domain_of_cell,
                                             tdd.ndomains);
  TransportSolver t_serial(trd.mesh, tc), t_tasked(trd.mesh, tc);
  init(t_serial);
  init(t_tasked);
  expect_all_classes_ranged(trd.mesh, trd.domain_of_cell, tdd.ndomains);
  for (int it = 0; it < 3; ++it) {
    t_serial.run_iteration();
    t_tasked.run_iteration_tasks(trd.domain_of_cell, tdd.ndomains, tdd.d2p,
                                 serial_config(2));
    for (index_t c = 0; c < trd.mesh.num_cells(); ++c)
      ASSERT_EQ(t_serial.value(c), t_tasked.value(c))
          << "transport iteration " << it << " cell " << c;
    // The boundary tally is summed per ranged sweep: tolerance only.
    const double net = t_serial.net_boundary_outflow();
    EXPECT_NEAR(t_tasked.net_boundary_outflow(), net,
                1e-12 * std::max(1.0, std::abs(net)))
        << "transport iteration " << it;
  }
}

// --- conservation at subiteration boundaries, per level ----------------------

TEST(SimdEquivalence, ConservationHoldsAtSubiterationBoundariesPerLevel) {
  // Slice one iteration into per-subiteration induced subgraphs (a valid
  // conservative schedule) and probe the conservation invariant between
  // slices — per runnable level, on the SIMD streaming path. This also
  // certifies the dropped boundary side-1 deposit (layout.hpp): the
  // totals never read those slots, so they must be unchanged by the skip.
  mesh::Mesh base = mesh::make_graded_box_mesh(8, 6, 5, 1.25);
  {
    EulerSolver tmp(base);
    random_euler_state(tmp, base, 17);
  }
  const auto dd0 = decompose(base, 4, 2);

  for (const simd::Level level : simd::runnable_levels()) {
    auto rd = partition::reorder_for_locality(base, dd0.domain_of_cell,
                                              dd0.ndomains);
    solver::SolverConfig cfg;
    cfg.simd = request_for(level);
    EulerSolver s(rd.mesh, cfg);
    random_euler_state(s, rd.mesh, 17);
    const State start = s.conserved_totals();
    const auto iter = s.make_iteration_tasks(rd.domain_of_cell, dd0.ndomains);
    index_t nsub = 0;
    for (index_t t = 0; t < iter.graph.num_tasks(); ++t)
      nsub = std::max(nsub, iter.graph.task(t).subiteration + 1);
    for (index_t sub = 0; sub < nsub; ++sub) {
      std::vector<char> keep(static_cast<std::size_t>(iter.graph.num_tasks()));
      for (index_t t = 0; t < iter.graph.num_tasks(); ++t)
        keep[static_cast<std::size_t>(t)] =
            iter.graph.task(t).subiteration == sub ? 1 : 0;
      const verify::InducedSubgraph slice =
          verify::filter_tasks(iter.graph, keep);
      runtime::RuntimeConfig rc;
      rc.num_processes = 2;
      rc.workers_per_process = 2;
      rc.adversarial.enabled = true;
      rc.adversarial.seed = 40 + static_cast<std::uint64_t>(sub);
      runtime::execute(slice.graph, dd0.d2p, rc, [&](index_t t) {
        iter.body(slice.original_task[static_cast<std::size_t>(t)]);
      });
      const State now = s.conserved_totals();
      EXPECT_NEAR(now[0], start[0], 1e-10 * std::abs(start[0]))
          << simd::to_string(level) << " subiteration " << sub;
      EXPECT_NEAR(now[4], start[4], 1e-10 * std::abs(start[4]))
          << simd::to_string(level) << " subiteration " << sub;
    }
    s.note_tasks_complete();
  }
}

// --- race-freedom on the SIMD path -------------------------------------------

TEST(SimdEquivalence, VerifyRacesCleanPerLevel) {
  // Every tier records the same up-front class-range annotations
  // (layout.hpp); the DAG must order every conflicting pair under
  // adversarial schedules at every tier.
  mesh::Mesh base = mesh::make_graded_box_mesh(7, 6, 5, 1.3);
  {
    EulerSolver tmp(base);
    random_euler_state(tmp, base, 5);
  }
  const auto dd0 = decompose(base, 4, 2);

  for (const simd::Level level : simd::runnable_levels()) {
    auto rd = partition::reorder_for_locality(base, dd0.domain_of_cell,
                                              dd0.ndomains);
    solver::SolverConfig cfg;
    cfg.simd = request_for(level);
    EulerSolver s(rd.mesh, cfg);
    random_euler_state(s, rd.mesh, 5);
    const auto iter = s.make_iteration_tasks(rd.domain_of_cell, dd0.ndomains);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      verify::AccessLog log(iter.graph.num_tasks());
      const runtime::TaskBody body = verify::instrument(iter.body, log);
      runtime::RuntimeConfig rc;
      rc.num_processes = 2;
      rc.workers_per_process = 4;
      rc.adversarial.enabled = seed > 1;
      rc.adversarial.seed = seed;
      runtime::execute(iter.graph, dd0.d2p, rc, body);
      s.note_tasks_complete();
      const verify::RaceReport report = verify::check_races(iter.graph, log);
      EXPECT_TRUE(report.clean())
          << simd::to_string(level) << " seed " << seed << ":\n"
          << report.summary(iter.graph);
    }
  }
}

// --- tail handling around the padded stride ----------------------------------

TEST(SimdEquivalence, TailLengthsAroundPaddedStrideAgree) {
  // Sweep lattice sizes so the streaming class ranges take many short
  // lengths around 2·lanes and cross padded-stride multiples
  // (solver::kPadDoubles); every tier must agree with scalar on all of
  // them. A single domain keeps each class one contiguous id run.
  const int max_lanes = simd::lanes(simd::runnable_levels().back());
  const index_t max_n = static_cast<index_t>(
      2 * max_lanes + 2 * static_cast<int>(solver::kPadDoubles));
  for (index_t n = 1; n <= max_n; ++n) {
    mesh::Mesh base = mesh::make_lattice_mesh(n, 2, 2);
    {
      EulerSolver tmp(base);
      random_euler_state(tmp, base, 100 + static_cast<std::uint64_t>(n));
    }
    const std::vector<part_t> one(static_cast<std::size_t>(base.num_cells()),
                                  0);
    const std::vector<part_t> d2p{0};

    std::vector<State> scalar_out;
    for (const simd::Level level : simd::runnable_levels()) {
      auto rd = partition::reorder_for_locality(base, one, 1);
      solver::SolverConfig cfg;
      cfg.simd = request_for(level);
      EulerSolver s(rd.mesh, cfg);
      random_euler_state(s, rd.mesh, 100 + static_cast<std::uint64_t>(n));
      for (int it = 0; it < 2; ++it)
        s.run_iteration_tasks(rd.domain_of_cell, 1, d2p, serial_config(1));
      if (level == simd::Level::scalar) {
        for (index_t c = 0; c < rd.mesh.num_cells(); ++c)
          scalar_out.push_back(s.cell_state(c));
        continue;
      }
      for (index_t c = 0; c < rd.mesh.num_cells(); ++c) {
        const State got = s.cell_state(c);
        for (int v = 0; v < solver::kNumVars; ++v) {
          const auto sv = static_cast<std::size_t>(v);
          ASSERT_LE(
              simd::ulp_distance(scalar_out[static_cast<std::size_t>(c)][sv],
                                 got[sv]),
              kMaxUlp)
              << "n=" << n << " level " << simd::to_string(level) << " cell "
              << c << " var " << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tamp
