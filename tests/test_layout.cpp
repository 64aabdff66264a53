// The solver-owned kernel layout (solver/layout.hpp, FvDriver): the
// permutation and run helpers; the class-contiguous order is a bijection
// that streams every class as at most one cell run and two face runs;
// the streamed task bodies are bitwise the serial run_iteration() across
// meshes, strategies and domain counts; relayouts move state and
// accumulators so the pipeline stays bitwise the serial reference while
// levels drift; a frozen mesh lays out once; a body bound before a
// relayout refuses to run; and relaid-out bodies record race-free
// accesses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "partition/strategy.hpp"
#include "solver/euler.hpp"
#include "solver/layout.hpp"
#include "solver/transport.hpp"
#include "support/rng.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/patch.hpp"
#include "verify/verifier.hpp"

namespace tamp::solver {
namespace {

struct Decomposition {
  std::vector<part_t> domain_of_cell;
  part_t ndomains = 0;
};

Decomposition decompose(const mesh::Mesh& m, partition::Strategy strategy,
                        part_t ndomains) {
  partition::StrategyOptions sopts;
  sopts.strategy = strategy;
  sopts.ndomains = ndomains;
  const auto dd = partition::decompose(m, sopts);
  return {dd.domain_of_cell, dd.ndomains};
}

/// A graded box with levels from an Euler pulse: several temporal
/// levels, so classes interleave in mesh order.
mesh::Mesh levelled_box() {
  mesh::Mesh m = mesh::make_graded_box_mesh(10, 8, 6, 1.3);
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
  s.add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
  s.assign_temporal_levels();
  return m;
}

/// The transport initial condition of flusim: a blob at the centroid
/// mean, a fifth of the bounding-box diagonal wide.
void add_central_blob(TransportSolver& s, const mesh::Mesh& m) {
  mesh::Vec3 lo = m.cell_centroid(0), hi = lo, mean{};
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Vec3 p = m.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    mean = mean + p;
  }
  mean = (1.0 / static_cast<double>(m.num_cells())) * mean;
  s.add_blob(mean, 0.2 * distance(lo, hi), 1.0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// --- helpers ----------------------------------------------------------------------

TEST(KernelLayout, PermutationHelpers) {
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3, 1}));
  EXPECT_TRUE(is_permutation({}));

  const std::vector<index_t> inv = invert_permutation({2, 0, 1});
  EXPECT_EQ(inv, (std::vector<index_t>{1, 2, 0}));
  EXPECT_THROW((void)invert_permutation({0, 0}), precondition_error);
}

TEST(KernelLayout, CompressToRanges) {
  EXPECT_TRUE(compress_to_ranges({}).empty());
  EXPECT_EQ(compress_to_ranges({5, 3, 4}), (std::vector<IdRange>{{3, 6}}));
  EXPECT_EQ(compress_to_ranges({1, 9, 2, 2, 7, 8}),
            (std::vector<IdRange>{{1, 3}, {7, 10}}));
}

TEST(KernelLayout, PaddedVarsLayout) {
  EXPECT_EQ(padded_stride(0), 0u);
  EXPECT_EQ(padded_stride(1), 8u);
  EXPECT_EQ(padded_stride(8), 8u);
  EXPECT_EQ(padded_stride(9), 16u);
  PaddedVars v(10, 3);
  EXPECT_EQ(v.stride(), 16u);
  EXPECT_EQ(v.var(2) - v.var(0), 32);
  v.at(1, 9) = 4.5;
  EXPECT_EQ(v.at(1, 9), 4.5);
  EXPECT_EQ(v.at(2, 0), 0.0);
}

// --- the layout rule ------------------------------------------------------------

TEST(KernelLayout, ClassLayoutStreamsEachClassInAtMostThreeRuns) {
  const mesh::Mesh m = levelled_box();
  const Decomposition dd = decompose(m, partition::Strategy::mc_tl, 5);
  taskgraph::ClassMap classes;
  taskgraph::generate_task_graph(m, dd.domain_of_cell, dd.ndomains, {},
                                 &classes);
  const MeshPermutation layout = class_layout(m, classes);
  // Both maps are bijections of the mesh's ids, each paired with its
  // inverse.
  ASSERT_EQ(layout.cell_old_to_new.size(),
            static_cast<std::size_t>(m.num_cells()));
  ASSERT_EQ(layout.face_old_to_new.size(),
            static_cast<std::size_t>(m.num_faces()));
  EXPECT_TRUE(is_permutation(layout.cell_old_to_new));
  EXPECT_TRUE(is_permutation(layout.face_old_to_new));
  EXPECT_EQ(layout.cell_new_to_old, invert_permutation(layout.cell_old_to_new));
  EXPECT_EQ(layout.face_new_to_old, invert_permutation(layout.face_old_to_new));

  // Mesh order scatters the classes; their own layout streams them.
  const ClassRuns scattered =
      build_class_runs(m, classes, identity_permutation(m));
  const ClassRuns runs = build_class_runs(m, classes, layout);
  EXPECT_GT(scattered.runs.size(), scattered.fresh_runs());
  EXPECT_EQ(runs.runs.size(), runs.fresh_runs());
  EXPECT_EQ(runs.fresh_runs(), scattered.fresh_runs());

  const std::size_t nclasses = classes.class_cells.size();
  ASSERT_EQ(runs.offset.size(), 3 * nclasses + 1);
  index_t next_cell = 0, next_face = 0;
  for (std::size_t k = 0; k < nclasses; ++k) {
    // Cells: the class list, in order, at the next kernel ids.
    for (const index_t c : classes.class_cells[k])
      EXPECT_EQ(layout.cell_old_to_new[static_cast<std::size_t>(c)],
                next_cell++);
    // Faces: interior ones first, then boundary ones.
    for (const bool boundary : {false, true})
      for (const index_t f : classes.class_faces[k]) {
        if (m.is_boundary_face(f) != boundary) continue;
        EXPECT_EQ(layout.face_old_to_new[static_cast<std::size_t>(f)],
                  next_face++);
      }
    for (std::size_t kind = 0; kind < 3; ++kind)
      EXPECT_LE(runs.offset[3 * k + kind + 1] - runs.offset[3 * k + kind], 1u);
  }
}

TEST(KernelLayout, ClassLayoutRejectsAMapThatMissesAnObject) {
  const mesh::Mesh m = levelled_box();
  const Decomposition dd = decompose(m, partition::Strategy::sc_oc, 3);
  taskgraph::ClassMap classes;
  taskgraph::generate_task_graph(m, dd.domain_of_cell, dd.ndomains, {},
                                 &classes);
  taskgraph::ClassMap missing = classes;
  missing.class_cells[0].pop_back();
  EXPECT_THROW(static_cast<void>(class_layout(m, missing)),
               precondition_error);
  taskgraph::ClassMap doubled = classes;
  doubled.class_faces[0].back() = doubled.class_faces[0].front();
  EXPECT_THROW(static_cast<void>(class_layout(m, doubled)),
               precondition_error);
}

TEST(KernelLayout, PermuteVarsMovesEveryColumn) {
  PaddedVars vars(5, 2);
  for (int v = 0; v < 2; ++v)
    for (index_t i = 0; i < 5; ++i) vars.at(v, i) = 10.0 * v + i;
  // Old kernel order = mesh order; the new one reverses it.
  std::vector<double> scratch;
  permute_vars(vars, {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, scratch);
  for (int v = 0; v < 2; ++v)
    for (index_t i = 0; i < 5; ++i)
      EXPECT_EQ(vars.at(v, i), 10.0 * v + (4 - i));
}

// --- task bodies against the serial reference --------------------------------------
//
// Twin solvers on twin meshes, two iterations: run_iteration() (the
// per-object kernels in mesh order) against every task body run in id
// order (a topological order), which streams the class runs of the
// solver's own reordered layout. Results are compared per mesh cell. The
// `Reorder` suite keeps the names these tests had when the reordered
// order came from renumbering the mesh.

/// Steps both twins two iterations, `tasked` through its task bodies on
/// a `strategy` decomposition into `ndomains`, and calls `check(it)`
/// after each. Levels feed the class structure, so the twins must have
/// assigned them already.
template <class Solver, class Check>
void step_twins(Solver& serial, Solver& tasked, const mesh::Mesh& tasked_mesh,
                partition::Strategy strategy, part_t ndomains, Check check) {
  const Decomposition dd = decompose(tasked_mesh, strategy, ndomains);
  for (int it = 0; it < 2; ++it) {
    serial.run_iteration();
    const auto iter =
        tasked.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
    for (index_t t = 0; t < iter.graph.num_tasks(); ++t) iter.body(t);
    tasked.note_tasks_complete();
    // The bodies ran on the class-contiguous order, not on mesh order.
    ASSERT_EQ(tasked.layout_stats().relayouts, 1u) << "iteration " << it;
    ASSERT_EQ(tasked.layout_stats().runs, tasked.layout_stats().fresh_runs)
        << "iteration " << it;
    check(it);
  }
}

void expect_euler_equivalence(const mesh::Mesh& m,
                              partition::Strategy strategy, part_t ndomains,
                              const std::string& what) {
  mesh::Mesh serial_mesh = m, tasked_mesh = m;
  EulerSolver serial(serial_mesh), tasked(tasked_mesh);
  for (EulerSolver* s : {&serial, &tasked}) {
    s->initialize_uniform(1.0, {0.1, 0.05, 0.02}, 1.0);
    s->add_pulse({1.2, 1.0, 0.8}, 0.8, 0.25);
    s->assign_temporal_levels();
  }
  ASSERT_EQ(tasked.dt0(), serial.dt0()) << what;
  step_twins(serial, tasked, tasked_mesh, strategy, ndomains, [&](int it) {
    for (index_t cell = 0; cell < serial_mesh.num_cells(); ++cell) {
      const State want = serial.cell_state(cell);
      const State got = tasked.cell_state(cell);
      for (std::size_t v = 0; v < want.size(); ++v)
        ASSERT_EQ(got[v], want[v]) << what << " iteration " << it << " cell "
                                   << cell << " var " << v;
    }
  });
}

void expect_transport_equivalence(const mesh::Mesh& m,
                                  partition::Strategy strategy,
                                  part_t ndomains, const std::string& what) {
  TransportConfig tc;
  tc.velocity = {0.8, 0.3, 0.1};
  tc.diffusivity = 0.02;
  mesh::Mesh serial_mesh = m, tasked_mesh = m;
  TransportSolver serial(serial_mesh, tc), tasked(tasked_mesh, tc);
  for (TransportSolver* s : {&serial, &tasked}) {
    s->initialize_uniform(0.1);
    s->add_blob({1.0, 1.0, 0.8}, 0.7, 1.0);
    s->assign_temporal_levels();
  }
  step_twins(serial, tasked, tasked_mesh, strategy, ndomains, [&](int it) {
    for (index_t cell = 0; cell < serial_mesh.num_cells(); ++cell)
      ASSERT_EQ(tasked.value(cell), serial.value(cell))
          << what << " iteration " << it << " cell " << cell;
    // The boundary ledger is summed per run, so it is conserved but
    // not bitwise.
    EXPECT_NEAR(tasked.total_scalar() + tasked.net_boundary_outflow(),
                serial.total_scalar() + serial.net_boundary_outflow(),
                1e-12 * std::max(1.0, std::abs(serial.total_scalar())))
        << what << " iteration " << it;
  });
}

TEST(Reorder, EulerBitwiseEquivalenceAcrossMeshesAndStrategies) {
  expect_euler_equivalence(mesh::make_graded_box_mesh(8, 6, 5, 1.25),
                           partition::Strategy::mc_tl, 4,
                           "graded_box(8,6,5) mc_tl");
  expect_euler_equivalence(mesh::make_lattice_mesh(6, 5, 4),
                           partition::Strategy::sc_oc, 3,
                           "lattice(6,5,4) sc_oc");
  expect_euler_equivalence(mesh::make_graded_box_mesh(6, 6, 6, 1.35),
                           partition::Strategy::hybrid, 6,
                           "graded_box(6,6,6) hybrid");
  mesh::TestMeshSpec spec;
  spec.target_cells = 700;
  spec.seed = 11;
  expect_euler_equivalence(
      mesh::make_test_mesh(mesh::TestMeshKind::nozzle, spec),
      partition::Strategy::mc_tl, 4, "nozzle(700) mc_tl");
}

TEST(Reorder, TransportBitwiseEquivalenceAcrossMeshesAndStrategies) {
  expect_transport_equivalence(mesh::make_graded_box_mesh(7, 6, 5, 1.3),
                               partition::Strategy::sc_oc, 4,
                               "graded_box(7,6,5) sc_oc");
  expect_transport_equivalence(mesh::make_lattice_mesh(6, 5, 4),
                               partition::Strategy::mc_tl, 3,
                               "lattice(6,5,4) mc_tl");
  expect_transport_equivalence(mesh::make_graded_box_mesh(6, 6, 6, 1.35),
                               partition::Strategy::hybrid, 4,
                               "graded_box(6,6,6) hybrid");
}

// --- the driver -------------------------------------------------------------------

TEST(KernelLayout, BodyBoundBeforeARelayoutThrows) {
  mesh::Mesh m = levelled_box();
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
  s.add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
  s.assign_temporal_levels();
  const Decomposition d1 = decompose(m, partition::Strategy::mc_tl, 4);
  const Decomposition d2 = decompose(m, partition::Strategy::sc_oc, 7);
  const auto first = s.make_iteration_tasks(d1.domain_of_cell, d1.ndomains);
  ASSERT_EQ(s.layout_stats().relayouts, 1u);  // away from mesh order
  const auto second = s.make_iteration_tasks(d2.domain_of_cell, d2.ndomains);
  ASSERT_EQ(s.layout_stats().relayouts, 2u);
  EXPECT_THROW(first.body(0), precondition_error);
  EXPECT_NO_THROW(second.body(0));
  // Re-binding the first graph gives a body that runs again.
  const auto again = s.make_iteration_tasks(d1.domain_of_cell, d1.ndomains);
  EXPECT_NO_THROW(again.body(0));
}

TEST(KernelLayout, RelaidOutBodiesAreRaceFree) {
  mesh::Mesh m = levelled_box();
  TransportConfig tc;
  tc.velocity = {1.0, 0.3, 0.1};
  tc.diffusivity = 0.01;
  TransportSolver s(m, tc);
  s.initialize_uniform(0.5);
  s.assign_temporal_levels();
  const Decomposition dds[] = {
      decompose(m, partition::Strategy::mc_tl, 4),
      decompose(m, partition::Strategy::sc_oc, 6),
      decompose(m, partition::Strategy::hybrid, 5)};
  for (const Decomposition& dd : dds) {
    const auto iter = s.make_iteration_tasks(dd.domain_of_cell, dd.ndomains);
    verify::AccessLog log(iter.graph.num_tasks());
    verify::collect_serial(iter.graph, iter.body, log);
    const verify::RaceReport report = verify::check_races(iter.graph, log);
    EXPECT_TRUE(report.clean()) << report.summary(iter.graph);
    EXPECT_GT(report.accesses, 0u);
    s.note_tasks_complete();
  }
  EXPECT_EQ(s.layout_stats().relayouts, 3u);
}

// --- through the pipeline, against the serial reference ---------------------------

core::IterationPipelineConfig pipeline_config(double drift) {
  core::IterationPipelineConfig cfg;
  cfg.mode = core::PipelineMode::sync;
  cfg.num_iterations = 12;
  cfg.drift = drift;
  cfg.ndomains = 6;
  cfg.nprocesses = 1;
  cfg.workers_per_process = 2;
  cfg.threads = 1;
  cfg.seed = 3;
  return cfg;
}

/// Runs the pipeline on `solver` (bound to `live`) while stepping
/// `reference` (bound to `ref_mesh`) with the serial run_iteration at
/// each snapshot's levels, every body instrumented and race-checked.
/// `equal` compares the two states bitwise after each iteration. Returns
/// the relayouts counted after iteration 0's bind.
template <class Solver, class Equal>
std::uint64_t run_against_reference(Solver& solver, mesh::Mesh& live,
                                    Solver& reference, mesh::Mesh& ref_mesh,
                                    double drift, Equal equal,
                                    core::SolverHooks (*make_hooks)(
                                        Solver&,
                                        std::function<runtime::TaskBody(
                                            runtime::TaskBody,
                                            const core::IterationSnapshot&)>)) {
  std::shared_ptr<verify::AccessLog> log;
  core::SolverHooks hooks = make_hooks(
      solver, [&log](runtime::TaskBody body,
                     const core::IterationSnapshot& snap) {
        log = std::make_shared<verify::AccessLog>(snap.graph.num_tasks());
        return verify::instrument(std::move(body), *log);
      });
  std::uint64_t after_first_bind = 0;
  int iterations = 0;
  hooks.observer = [&](const core::IterationSnapshot& snap,
                       const runtime::ExecutionReport&) {
    if (snap.iteration == 0)
      after_first_bind = solver.layout_stats().relayouts;
    const verify::RaceReport races = verify::check_races(snap.graph, *log);
    EXPECT_TRUE(races.clean()) << "iteration " << snap.iteration << "\n"
                               << races.summary(snap.graph);
    ref_mesh.set_cell_levels(snap.levels);
    reference.run_iteration();
    for (index_t c = 0; c < live.num_cells(); ++c)
      if (!equal(c)) {
        ADD_FAILURE() << "iteration " << snap.iteration << ": cell " << c
                      << " differs from the serial reference";
        break;
      }
    ++iterations;
  };
  core::run_iteration_pipeline(live, pipeline_config(drift), hooks);
  EXPECT_EQ(iterations, 12);
  return solver.layout_stats().relayouts - after_first_bind;
}

TEST(KernelLayout, DriftingTransportPipelineIsBitwiseTheSerialReference) {
  mesh::TestMeshSpec spec;
  spec.target_cells = 3000;
  mesh::Mesh live = mesh::make_test_mesh(mesh::TestMeshKind::cylinder, spec);
  mesh::Mesh ref_mesh = live;
  TransportSolver solver(live), reference(ref_mesh);
  for (TransportSolver* s : {&solver, &reference}) {
    s->initialize_uniform(0.0);
    add_central_blob(*s, live);
    s->assign_temporal_levels();
  }
  const std::uint64_t later = run_against_reference(
      solver, live, reference, ref_mesh, 0.05,
      [&](index_t c) {
        return same_bits(solver.value(c), reference.value(c));
      },
      &core::transport_pipeline_hooks);
  EXPECT_GE(later, 1u) << "drift never triggered a relayout";
  // The boundary tally is summed per run, so it agrees within rounding.
  const double invariant =
      reference.total_scalar() + reference.net_boundary_outflow();
  EXPECT_NEAR(solver.total_scalar() + solver.net_boundary_outflow(), invariant,
              1e-12 * std::abs(invariant));
}

TEST(KernelLayout, DriftingEulerPipelineIsBitwiseTheSerialReference) {
  mesh::Mesh live = levelled_box();
  mesh::Mesh ref_mesh = live;
  EulerSolver solver(live), reference(ref_mesh);
  for (EulerSolver* s : {&solver, &reference}) {
    s->initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
    s->add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
    s->assign_temporal_levels();
  }
  const std::uint64_t later = run_against_reference(
      solver, live, reference, ref_mesh, 0.05,
      [&](index_t c) {
        const State a = solver.cell_state(c);
        const State b = reference.cell_state(c);
        return std::memcmp(a.data(), b.data(), sizeof a) == 0;
      },
      &core::euler_pipeline_hooks);
  EXPECT_GE(later, 1u) << "drift never triggered a relayout";
  EXPECT_TRUE(solver.state_is_finite());
  const State ta = solver.conserved_totals();
  const State tb = reference.conserved_totals();
  EXPECT_EQ(std::memcmp(ta.data(), tb.data(), sizeof ta), 0);
}

/// Runs the drifting pipeline on `solver` and requires, after every
/// iteration, that the bound runs equal build_class_runs of the
/// snapshot's map under the solver's layout, and that some binds came
/// from the snapshots' class moves.
template <class Solver>
void expect_binds_match_a_fresh_cut(Solver& solver, mesh::Mesh& live,
                                    core::SolverHooks hooks,
                                    core::PipelineMode mode,
                                    core::PatchPolicy patch,
                                    const std::string& what) {
  int checked = 0;
  hooks.observer = [&](const core::IterationSnapshot& snap,
                       const runtime::ExecutionReport&) {
    const ClassRuns expected =
        build_class_runs(live, *snap.classes, solver.kernel_layout());
    const ClassRuns* bound = solver.bound_runs();
    ASSERT_NE(bound, nullptr);
    EXPECT_TRUE(bound->runs == expected.runs)
        << what << ": iteration " << snap.iteration << " runs differ";
    EXPECT_EQ(bound->offset, expected.offset)
        << what << ": iteration " << snap.iteration;
    ++checked;
  };
  core::IterationPipelineConfig cfg = pipeline_config(0.05);
  cfg.mode = mode;
  cfg.patch = patch;
  cfg.threads = mode == core::PipelineMode::overlap ? 2 : 1;
  core::run_iteration_pipeline(live, cfg, hooks);
  EXPECT_EQ(checked, cfg.num_iterations) << what;
  EXPECT_GT(solver.layout_stats().derived_binds, 0u)
      << what << ": no bind came from class moves";
}

TEST(KernelLayout, DriftingBindsStreamTheRunsOfAFreshCut) {
  for (const core::PipelineMode mode :
       {core::PipelineMode::sync, core::PipelineMode::overlap}) {
    for (const core::PatchPolicy patch :
         {core::PatchPolicy::automatic, core::PatchPolicy::oracle}) {
      const std::string what = std::string(core::to_string(mode)) + "/" +
                               core::to_string(patch);
      mesh::TestMeshSpec spec;
      spec.target_cells = 3000;
      mesh::Mesh cylinder =
          mesh::make_test_mesh(mesh::TestMeshKind::cylinder, spec);
      TransportSolver transport(cylinder);
      transport.initialize_uniform(0.0);
      add_central_blob(transport, cylinder);
      transport.assign_temporal_levels();
      expect_binds_match_a_fresh_cut(
          transport, cylinder, core::transport_pipeline_hooks(transport), mode,
          patch, "transport " + what);

      mesh::Mesh box = levelled_box();
      EulerSolver euler(box);
      euler.initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
      euler.add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
      euler.assign_temporal_levels();
      expect_binds_match_a_fresh_cut(euler, box,
                                     core::euler_pipeline_hooks(euler), mode,
                                     patch, "euler " + what);
    }
  }
}

// A delta whose base is not the bound map — a skipped map, or one
// already freed — is ignored: the bind walks every list. One from the
// bound map is used.
TEST(KernelLayout, ADeltaFromAnotherMapTakesTheFromScratchPath) {
  mesh::Mesh m = levelled_box();
  EulerSolver s(m);
  s.initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
  s.add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
  s.assign_temporal_levels();
  const Decomposition d = decompose(m, partition::Strategy::mc_tl, 4);
  taskgraph::GraphPatcher::Options always;
  always.max_dirty_fraction = 1.0;
  taskgraph::GraphPatcher patcher(m, d.domain_of_cell, d.ndomains, always);
  auto snapshot = [&patcher] {
    return std::make_shared<const taskgraph::ClassMap>(patcher.classes());
  };
  // One drift step and patch: the new map and its moves from `from`.
  std::uint64_t step = 0;
  auto drift = [&](const std::shared_ptr<const taskgraph::ClassMap>& from) {
    Rng rng(mix_seed(31, ++step));
    mesh::evolve_levels(m, 0.05, rng);
    const taskgraph::PatchStats& st = patcher.apply(m, d.domain_of_cell);
    EXPECT_TRUE(st.patched && !patcher.last_moves().empty()) << step;
    return taskgraph::ClassDelta{from, patcher.last_moves()};
  };
  auto expect_fresh_cut = [&](const taskgraph::ClassMap& map,
                              const std::string& what) {
    const ClassRuns expected = build_class_runs(m, map, s.kernel_layout());
    EXPECT_TRUE(s.bound_runs()->runs == expected.runs) << what;
    EXPECT_EQ(s.bound_runs()->offset, expected.offset) << what;
  };

  const auto a = snapshot();
  static_cast<void>(s.make_iteration_body(patcher.graph(), a));
  drift(a);
  const auto b = snapshot();
  const taskgraph::ClassDelta bc = drift(b);
  const auto c = snapshot();
  ASSERT_FALSE(bc.applies_to(a));
  static_cast<void>(s.make_iteration_body(patcher.graph(), c, &bc));
  EXPECT_EQ(s.layout_stats().derived_binds, 0u) << "skipped map";
  expect_fresh_cut(*c, "skipped map");

  taskgraph::ClassDelta cd = drift(c);
  auto d_map = snapshot();
  {
    // The same moves, claimed from a map that no longer exists.
    taskgraph::ClassDelta stale = cd;
    stale.base = std::make_shared<const taskgraph::ClassMap>(*c);
    ASSERT_TRUE(stale.base.expired());
    static_cast<void>(s.make_iteration_body(patcher.graph(), d_map, &stale));
    EXPECT_EQ(s.layout_stats().derived_binds, 0u) << "freed map";
    expect_fresh_cut(*d_map, "freed map");
  }
  const taskgraph::ClassDelta de = drift(d_map);
  const auto e = snapshot();
  static_cast<void>(s.make_iteration_body(patcher.graph(), e, &de));
  EXPECT_EQ(s.layout_stats().derived_binds, 1u) << "bound map";
  expect_fresh_cut(*e, "bound map");
}

TEST(KernelLayout, FrozenMeshLaysOutOnce) {
  mesh::Mesh live = levelled_box();
  mesh::Mesh ref_mesh = live;
  EulerSolver solver(live), reference(ref_mesh);
  for (EulerSolver* s : {&solver, &reference}) {
    s->initialize_uniform(1.0, {0.1, 0.05, 0.0}, 1.0);
    s->add_pulse({1.5, 1.2, 0.9}, 0.9, 0.3);
    s->assign_temporal_levels();
  }
  const std::uint64_t later = run_against_reference(
      solver, live, reference, ref_mesh, 0.0,
      [&](index_t c) {
        const State a = solver.cell_state(c);
        const State b = reference.cell_state(c);
        return std::memcmp(a.data(), b.data(), sizeof a) == 0;
      },
      &core::euler_pipeline_hooks);
  const LayoutStats& st = solver.layout_stats();
  EXPECT_EQ(st.relayouts, 1u);
  EXPECT_EQ(later, 0u);
  EXPECT_EQ(st.runs, st.fresh_runs);
  EXPECT_EQ(st.objects, live.num_cells() + live.num_faces());
  EXPECT_DOUBLE_EQ(st.objects_per_run(),
                   static_cast<double>(st.objects) /
                       static_cast<double>(st.fresh_runs));
}

}  // namespace
}  // namespace tamp::solver
