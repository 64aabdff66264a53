// Property and mutation tests of the diff-based task-graph patcher
// (taskgraph/patch.hpp): a drift sweep across meshes × strategies × seeds
// asserting the patched graph, ClassMap lists and doctor output are
// bit-identical to a from-scratch rebuild; the zero-drift noop and the
// rebuild fallbacks; rejected domain ids and class spaces; degenerate
// configurations (one domain, more domains than cells, one temporal
// level, an emptied class); the equivalence oracle and the snapshot
// fingerprint catching a deliberately staled patch; and dirty-region re-certification
// (verify::check_races_region) on real patched graphs — clean on the
// genuine article, flagged when a load-bearing edge is severed.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/evolve.hpp"
#include "mesh/generators.hpp"
#include "partition/incremental.hpp"
#include "partition/strategy.hpp"
#include "sim/doctor.hpp"
#include "sim/simulate.hpp"
#include "solver/euler.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "taskgraph/class_indexer.hpp"
#include "taskgraph/patch.hpp"
#include "verify/graph_edit.hpp"
#include "verify/verifier.hpp"

namespace tamp::taskgraph {
namespace {

mesh::Mesh test_mesh(mesh::TestMeshKind kind, index_t cells,
                     std::uint64_t seed) {
  mesh::TestMeshSpec spec;
  spec.target_cells = cells;
  spec.seed = seed;
  return mesh::make_test_mesh(kind, spec);
}

std::vector<part_t> decompose(const mesh::Mesh& m, partition::Strategy s,
                              part_t ndomains) {
  partition::StrategyOptions sopts;
  sopts.strategy = s;
  sopts.ndomains = ndomains;
  return partition::decompose(m, sopts).domain_of_cell;
}

/// Rebuild from scratch and require bit-identity with the patcher's
/// published graph: fingerprint plus direct field-by-field spot checks,
/// so a fingerprint bug can't silently vouch for itself.
void expect_matches_rebuild(const GraphPatcher& patcher, const mesh::Mesh& m,
                            const std::vector<part_t>& dom, part_t ndomains,
                            const std::string& context) {
  ClassMap ref_classes;
  const TaskGraph ref =
      generate_task_graph(m, dom, ndomains, {}, &ref_classes);
  EXPECT_EQ(patcher.fingerprint(),
            GraphPatcher::fingerprint(ref, ref_classes))
      << context;

  const TaskGraph& got = patcher.graph();
  ASSERT_EQ(got.num_tasks(), ref.num_tasks()) << context;
  ASSERT_EQ(got.num_dependencies(), ref.num_dependencies()) << context;
  for (index_t t = 0; t < ref.num_tasks(); ++t) {
    const Task& a = got.task(t);
    const Task& b = ref.task(t);
    ASSERT_EQ(a.subiteration, b.subiteration) << context << " task " << t;
    ASSERT_EQ(a.level, b.level) << context << " task " << t;
    ASSERT_EQ(a.type, b.type) << context << " task " << t;
    ASSERT_EQ(a.locality, b.locality) << context << " task " << t;
    ASSERT_EQ(a.domain, b.domain) << context << " task " << t;
    ASSERT_EQ(a.num_objects, b.num_objects) << context << " task " << t;
    ASSERT_EQ(a.cost, b.cost) << context << " task " << t;
    const auto gp = got.predecessors(t);
    const auto rp = ref.predecessors(t);
    ASSERT_TRUE(std::equal(gp.begin(), gp.end(), rp.begin(), rp.end()))
        << context << " task " << t;
  }
  const ClassMap& cls = patcher.classes();
  ASSERT_EQ(cls.task_class, ref_classes.task_class) << context;
  ASSERT_EQ(cls.class_cells, ref_classes.class_cells) << context;
  ASSERT_EQ(cls.class_faces, ref_classes.class_faces) << context;
}

std::string doctor_text(const TaskGraph& g, part_t ndomains) {
  sim::SimOptions sopts;
  sopts.cluster.num_processes = 2;
  sopts.cluster.workers_per_process = 2;
  const auto d2p = partition::map_domains_to_processes(
      ndomains, 2, partition::DomainMapping::block);
  const sim::SimResult res = sim::simulate(g, d2p, sopts);
  std::ostringstream os;
  sim::print_doctor_report(os, g, sim::diagnose(g, res));
  return os.str();
}

// --- property sweep: patched ≡ rebuilt ---------------------------------------

TEST(PatchProperty, DriftSweepIsBitIdenticalToRebuild) {
  const partition::Strategy strategies[] = {partition::Strategy::sc_oc,
                                            partition::Strategy::mc_tl};
  const mesh::TestMeshKind kinds[] = {mesh::TestMeshKind::cylinder,
                                      mesh::TestMeshKind::cube};
  int patched_applies = 0;
  for (const auto kind : kinds) {
    for (const auto strategy : strategies) {
      for (std::uint64_t drift_seed = 1; drift_seed <= 3; ++drift_seed) {
        mesh::Mesh m = test_mesh(kind, 4000, 7);
        const auto dom = decompose(m, strategy, 8);
        GraphPatcher patcher(m, dom, 8);
        Rng rng(mix_seed(drift_seed, static_cast<std::uint64_t>(strategy)));
        for (int iter = 0; iter < 3; ++iter) {
          mesh::evolve_levels(m, 0.01, rng);
          const PatchStats& st = patcher.apply(m, dom);
          patched_applies += st.patched ? 1 : 0;
          const std::string ctx =
              std::string(mesh::to_string(kind)) + "/" +
              partition::to_string(strategy) + " seed " +
              std::to_string(drift_seed) + " iter " + std::to_string(iter);
          expect_matches_rebuild(patcher, m, dom, 8, ctx);
        }
      }
    }
  }
  // The sweep must actually exercise the diff path, not fall back.
  EXPECT_GT(patched_applies, 20);
}

TEST(PatchProperty, DoctorOutputIdenticalOnPatchedAndRebuiltGraph) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 4000, 11);
  const auto dom = decompose(m, partition::Strategy::mc_tl, 8);
  GraphPatcher patcher(m, dom, 8);
  Rng rng(5);
  for (int iter = 0; iter < 2; ++iter) {
    mesh::evolve_levels(m, 0.01, rng);
    patcher.apply(m, dom);
  }
  const TaskGraph ref = generate_task_graph(m, dom, 8);
  EXPECT_EQ(doctor_text(patcher.graph(), 8), doctor_text(ref, 8));
}

TEST(PatchProperty, DomainReassignmentIsPatched) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cube, 3000, 3);
  auto dom = decompose(m, partition::Strategy::sc_oc, 6);
  GraphPatcher patcher(m, dom, 6);
  // Migrate a handful of cells to a neighbour's domain — the incremental
  // repartitioner's signature output shape.
  Rng rng(17);
  int moved = 0;
  for (index_t c = 0; c < m.num_cells() && moved < 25; c += 97) {
    for (const index_t f : m.cell_faces(c)) {
      const index_t o = m.face_other_cell(f, c);
      if (o == invalid_index) continue;
      const part_t od = dom[static_cast<std::size_t>(o)];
      if (od != dom[static_cast<std::size_t>(c)]) {
        dom[static_cast<std::size_t>(c)] = od;
        ++moved;
        break;
      }
    }
  }
  ASSERT_GT(moved, 0);
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_TRUE(st.patched) << st.rebuild_reason;
  EXPECT_GT(st.dirty_cells, 0);
  expect_matches_rebuild(patcher, m, dom, 6, "domain reassignment");
}

// --- fast paths and fallbacks ------------------------------------------------

TEST(Patch, ZeroChangeIsANoop) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 1);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher patcher(m, dom, 4);
  const std::uint64_t before = patcher.fingerprint();
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_TRUE(st.patched);
  EXPECT_EQ(st.dirty_cells, 0);
  EXPECT_EQ(st.dirty_fraction, 0.0);
  EXPECT_EQ(patcher.fingerprint(), before);
  for (const char d : patcher.dirty_tasks()) EXPECT_EQ(d, 0);
}

TEST(Patch, HighDriftFallsBackToFullRebuild) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 2);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher patcher(m, dom, 4);
  Rng rng(9);
  mesh::evolve_levels(m, 0.9, rng);  // way past max_dirty_fraction
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_FALSE(st.patched);
  ASSERT_NE(st.rebuild_reason, nullptr);
  EXPECT_EQ(std::string(st.rebuild_reason),
            "dirty fraction above patch threshold");
  // A rebuild marks everything dirty: the whole graph re-certifies.
  bool any_clean = false;
  for (const char d : patcher.dirty_tasks()) any_clean |= d == 0;
  EXPECT_FALSE(any_clean);
  expect_matches_rebuild(patcher, m, dom, 4, "high drift");
}

TEST(Patch, LevelCountChangeFallsBackToFullRebuild) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 4);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher patcher(m, dom, 4);
  // Flatten the hierarchy: max level drops, the scheme changes shape.
  std::vector<level_t> flat(static_cast<std::size_t>(m.num_cells()), 0);
  m.set_cell_levels(std::move(flat));
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_FALSE(st.patched);
  ASSERT_NE(st.rebuild_reason, nullptr);
  EXPECT_EQ(std::string(st.rebuild_reason), "temporal level count changed");
  expect_matches_rebuild(patcher, m, dom, 4, "level count change");
}

// --- input checks ------------------------------------------------------------

TEST(Patch, RejectsOutOfRangeDomainIds) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 1);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  for (const part_t bad : {part_t{4}, part_t{-1}}) {
    auto wrong = dom;
    wrong[17] = bad;
    EXPECT_THROW(GraphPatcher(m, wrong, 4), precondition_error) << bad;
    GraphPatcher patcher(m, dom, 4);
    const std::uint64_t before = patcher.fingerprint();
    EXPECT_THROW(patcher.apply(m, wrong), precondition_error) << bad;
    // Rejected before any state changed: the patcher still patches.
    EXPECT_EQ(patcher.fingerprint(), before) << bad;
    EXPECT_TRUE(patcher.apply(m, dom).patched) << bad;
  }
}

/// `before`'s lists with `moves` applied: each list loses the ids that
/// left it and gains, in order, the ids that joined it.
std::vector<std::vector<index_t>> apply_class_moves(
    std::vector<std::vector<index_t>> lists, const ClassIdLists& left,
    const ClassIdLists& joined) {
  for (std::size_t k = 0; k < lists.size(); ++k) {
    std::vector<index_t> kept;
    const auto gone = left.of(k);
    std::set_difference(lists[k].begin(), lists[k].end(), gone.begin(),
                        gone.end(), std::back_inserter(kept));
    std::vector<index_t> merged;
    const auto came = joined.of(k);
    std::merge(kept.begin(), kept.end(), came.begin(), came.end(),
               std::back_inserter(merged));
    lists[k] = std::move(merged);
  }
  return lists;
}

// The list-driven apply — handed the evolver's changed cells and the
// repartition's migrated cells — gives the diffing apply's graph and
// class lists after every drift step, and its class moves turn the
// previous lists into the new ones.
TEST(Patch, ListDrivenApplyEqualsTheDiffingApply) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 4000, 3);
  auto dom = decompose(m, partition::Strategy::mc_tl, 8);
  GraphPatcher diffing(m, dom, 8);
  GraphPatcher listed(m, dom, 8);
  mesh::LevelEvolver evolver(m);
  partition::StrategyGraph sg(partition::Strategy::mc_tl);
  int patched = 0;
  index_t migrated = 0;
  for (int step = 0; step < 12; ++step) {
    Rng rng(mix_seed(21, static_cast<std::uint64_t>(step)));
    evolver.step(m, 0.02, rng);
    partition::IncrementalOptions iopts;
    iopts.seed = static_cast<std::uint64_t>(step) + 1;
    const partition::IncrementalReport report = partition::incremental_repartition(
        sg.refresh(m, evolver.changed()), dom, 8, iopts);
    migrated += report.migrated_vertices;
    const ClassMap before = listed.classes();
    const PatchStats& a = diffing.apply(m, dom);
    const PatchStats& b = listed.apply(m, dom, evolver.changed(), report.migrated);
    const std::string ctx = "step " + std::to_string(step);
    ASSERT_EQ(listed.fingerprint(), diffing.fingerprint()) << ctx;
    EXPECT_EQ(b.patched, a.patched) << ctx;
    EXPECT_EQ(b.dirty_cells, a.dirty_cells) << ctx;
    EXPECT_EQ(b.dirty_faces, a.dirty_faces) << ctx;
    EXPECT_EQ(listed.dirty_tasks(), diffing.dirty_tasks()) << ctx;
    if (!b.patched) continue;
    ++patched;
    const ClassMoves& mv = listed.last_moves();
    EXPECT_EQ(apply_class_moves(before.class_cells, mv.cells_left,
                                mv.cells_joined),
              listed.classes().class_cells)
        << ctx;
    EXPECT_EQ(apply_class_moves(before.class_faces, mv.faces_left,
                                mv.faces_joined),
              listed.classes().class_faces)
        << ctx;
  }
  EXPECT_GT(patched, 6);
  EXPECT_GT(migrated, 0) << "no step migrated a cell";

  // A migrated cell's domain id is range-checked, before any state
  // changes; a list that misses a changed cell is caught by the oracle.
  const index_t victim = 17;
  for (const part_t bad : {part_t{8}, part_t{-1}}) {
    auto wrong = dom;
    wrong[static_cast<std::size_t>(victim)] = bad;
    const std::uint64_t fp = listed.fingerprint();
    const std::vector<index_t> moved{victim};
    EXPECT_THROW(listed.apply(m, wrong, {}, moved), precondition_error) << bad;
    EXPECT_EQ(listed.fingerprint(), fp) << bad;
  }
  EXPECT_TRUE(listed.apply(m, dom, {}, {}).patched);
  GraphPatcher::Options oracle;
  oracle.oracle = true;
  GraphPatcher checked(m, dom, 8, oracle);
  Rng rng(99);
  evolver.step(m, 0.05, rng);
  ASSERT_GT(evolver.changed().size(), 1u);
  const std::vector<index_t> partial(evolver.changed().begin() + 1,
                                     evolver.changed().end());
  EXPECT_THROW(checked.apply(m, dom, partial, {}), invariant_error);
}

TEST(Patch, RejectsOverflowingClassSpace) {
  const mesh::Mesh m = mesh::make_lattice_mesh(4, 1, 1);
  const std::vector<part_t> dom(4, 0);
  // 2^30 domains × 1 level × 2 localities does not fit index_t.
  EXPECT_THROW(GraphPatcher(m, dom, part_t{1} << 30), precondition_error);
}

// --- degenerate configurations -----------------------------------------------

/// Every cell and face sits in exactly one class list, and every task
/// aggregates at least one object.
void expect_well_formed(const GraphPatcher& patcher, const mesh::Mesh& m,
                        const std::string& context) {
  const ClassMap& cm = patcher.classes();
  std::vector<int> cell_seen(static_cast<std::size_t>(m.num_cells()), 0);
  std::vector<int> face_seen(static_cast<std::size_t>(m.num_faces()), 0);
  for (const auto& cells : cm.class_cells)
    for (const index_t c : cells) ++cell_seen[static_cast<std::size_t>(c)];
  for (const auto& faces : cm.class_faces)
    for (const index_t f : faces) ++face_seen[static_cast<std::size_t>(f)];
  for (std::size_t c = 0; c < cell_seen.size(); ++c)
    ASSERT_EQ(cell_seen[c], 1) << context << " cell " << c;
  for (std::size_t f = 0; f < face_seen.size(); ++f)
    ASSERT_EQ(face_seen[f], 1) << context << " face " << f;
  const TaskGraph& g = patcher.graph();
  ASSERT_GT(g.num_tasks(), 0) << context;
  for (index_t t = 0; t < g.num_tasks(); ++t)
    ASSERT_GT(g.task(t).num_objects, 0) << context << " task " << t;
}

void expect_degenerate_ok(const GraphPatcher& patcher, const mesh::Mesh& m,
                          const std::vector<part_t>& dom, part_t ndomains,
                          const std::string& context) {
  expect_matches_rebuild(patcher, m, dom, ndomains, context);
  expect_well_formed(patcher, m, context);
}

TEST(PatchDegenerate, OneDomain) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 3);
  const std::vector<part_t> dom(static_cast<std::size_t>(m.num_cells()), 0);
  GraphPatcher patcher(m, dom, 1);
  expect_degenerate_ok(patcher, m, dom, 1, "one domain, initial");
  Rng rng(31);
  int patched = 0;
  for (int iter = 0; iter < 3; ++iter) {
    mesh::evolve_levels(m, 0.01, rng);
    patched += patcher.apply(m, dom).patched ? 1 : 0;
    expect_degenerate_ok(patcher, m, dom, 1,
                         "one domain, iter " + std::to_string(iter));
  }
  EXPECT_GT(patched, 0);
}

TEST(PatchDegenerate, MoreDomainsThanCellsAndAMoveIntoAnEmptyDomain) {
  const mesh::Mesh m = mesh::make_lattice_mesh(3, 2, 1);  // 6 cells
  std::vector<part_t> dom{0, 1, 2, 3, 4, 5};              // 6..9 empty
  GraphPatcher::Options opts;
  opts.max_dirty_fraction = 1.0;  // keep the diff path on 6 cells
  GraphPatcher patcher(m, dom, 10, opts);
  expect_degenerate_ok(patcher, m, dom, 10, "10 domains, 6 cells");
  dom[2] = 9;
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_TRUE(st.patched) << st.rebuild_reason;
  expect_degenerate_ok(patcher, m, dom, 10, "cell 2 moved into domain 9");
  bool domain9 = false;
  for (const Task& t : patcher.graph().tasks()) domain9 |= t.domain == 9;
  EXPECT_TRUE(domain9);
}

TEST(PatchDegenerate, SingleTemporalLevel) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cube, 2000, 5);
  m.set_cell_levels(std::vector<level_t>(
      static_cast<std::size_t>(m.num_cells()), 0));
  auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher patcher(m, dom, 4);
  expect_degenerate_ok(patcher, m, dom, 4, "single level, initial");
  // Move a few boundary cells to their neighbour's domain.
  int moved = 0;
  for (index_t c = 0; c < m.num_cells() && moved < 10; c += 41)
    for (const index_t f : m.cell_faces(c)) {
      const index_t o = m.face_other_cell(f, c);
      if (o == invalid_index) continue;
      const part_t od = dom[static_cast<std::size_t>(o)];
      if (od != dom[static_cast<std::size_t>(c)]) {
        dom[static_cast<std::size_t>(c)] = od;
        ++moved;
        break;
      }
    }
  ASSERT_GT(moved, 0);
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_TRUE(st.patched) << st.rebuild_reason;
  expect_degenerate_ok(patcher, m, dom, 4, "single level, domain moves");
}

TEST(PatchDegenerate, DriftStepEmptiesAWholeClass) {
  // 6×4 lattice, two domains split at i = 3. Column i = 0 holds level 2
  // (keeps the level count fixed); cell (5, 0) is the only level-1 cell,
  // so its class empties when it drops to level 0.
  mesh::Mesh m = mesh::make_lattice_mesh(6, 4, 1);
  std::vector<level_t> levels(24, 0);
  std::vector<part_t> dom(24, 0);
  for (index_t c = 0; c < 24; ++c) {
    if (c % 6 == 0) levels[static_cast<std::size_t>(c)] = 2;
    if (c % 6 >= 3) dom[static_cast<std::size_t>(c)] = 1;
  }
  levels[5] = 1;
  m.set_cell_levels(levels);
  GraphPatcher::Options opts;
  opts.max_dirty_fraction = 1.0;
  GraphPatcher patcher(m, dom, 2, opts);
  expect_degenerate_ok(patcher, m, dom, 2, "before the drift step");
  const index_t level1_cell_class =
      ClassIndexer{2, 3}.id(1, 1, Locality::internal);
  ASSERT_EQ(patcher.classes()
                .class_cells[static_cast<std::size_t>(level1_cell_class)]
                .size(),
            1u);

  levels[5] = 0;
  m.set_cell_levels(levels);
  const PatchStats& st = patcher.apply(m, dom);
  EXPECT_TRUE(st.patched) << st.rebuild_reason;
  EXPECT_TRUE(patcher.classes()
                  .class_cells[static_cast<std::size_t>(level1_cell_class)]
                  .empty());
  expect_degenerate_ok(patcher, m, dom, 2, "after the drift step");
  for (const Task& t : patcher.graph().tasks()) EXPECT_NE(t.level, 1);
}

// --- mutation tests: a stale patch cannot survive ----------------------------

TEST(PatchMutation, OracleThrowsOnStalePatch) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 6);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher::Options opts;
  opts.oracle = true;
  GraphPatcher patcher(m, dom, 4, opts);
  Rng rng(21);
  mesh::evolve_levels(m, 0.01, rng);
  patcher.apply(m, dom);  // genuine patch passes the oracle

  patcher.corrupt_aggregates_for_testing();
  mesh::evolve_levels(m, 0.01, rng);
  EXPECT_THROW(patcher.apply(m, dom), invariant_error);
}

TEST(PatchMutation, FingerprintExposesStalePatchWithoutOracle) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 2000, 6);
  const auto dom = decompose(m, partition::Strategy::sc_oc, 4);
  GraphPatcher patcher(m, dom, 4);
  patcher.corrupt_aggregates_for_testing();
  Rng rng(21);
  mesh::evolve_levels(m, 0.01, rng);
  const PatchStats& st = patcher.apply(m, dom);
  ASSERT_TRUE(st.patched);  // the cheap path ran — and produced a stale graph
  ClassMap ref_classes;
  const TaskGraph ref = generate_task_graph(m, dom, 4, {}, &ref_classes);
  EXPECT_NE(patcher.fingerprint(),
            GraphPatcher::fingerprint(ref, ref_classes));
}

// --- dirty-region re-certification -------------------------------------------

TEST(PatchRegion, PatchedGraphReCertifiesCleanOnItsDirtyRegion) {
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 3000, 8);
  solver::EulerSolver es(m);
  es.initialize_uniform(1.0, {0.1, 0.0, 0.0}, 1.0);
  es.assign_temporal_levels();
  const auto dom = decompose(m, partition::Strategy::mc_tl, 6);
  GraphPatcher patcher(m, dom, 6);
  Rng rng(13);
  mesh::evolve_levels(m, 0.01, rng);
  const PatchStats& st = patcher.apply(m, dom);
  ASSERT_TRUE(st.patched) << st.rebuild_reason;

  const auto classes = std::make_shared<const ClassMap>(patcher.classes());
  const runtime::TaskBody body =
      es.make_iteration_body(patcher.graph(), classes);
  const verify::RegionReport report =
      verify::check_races_region(patcher.graph(), patcher.dirty_tasks(), body);
  EXPECT_TRUE(report.clean()) << report.races.summary(patcher.graph());
  EXPECT_GT(report.dirty_tasks, 0);
  EXPECT_GE(report.region_tasks, report.dirty_tasks);
  EXPECT_LT(report.region_tasks, patcher.graph().num_tasks());
}

TEST(PatchRegion, SeveredRegionEdgeIsFlagged) {
  // Drop dependency edges whose both endpoints sit inside the dirty
  // region; at least one of them must be load-bearing, and the region
  // check must flag the pair it no longer orders.
  mesh::Mesh m = test_mesh(mesh::TestMeshKind::cylinder, 3000, 8);
  solver::EulerSolver es(m);
  es.initialize_uniform(1.0, {0.1, 0.0, 0.0}, 1.0);
  es.assign_temporal_levels();
  const auto dom = decompose(m, partition::Strategy::mc_tl, 6);
  GraphPatcher patcher(m, dom, 6);
  Rng rng(13);
  mesh::evolve_levels(m, 0.01, rng);
  ASSERT_TRUE(patcher.apply(m, dom).patched);

  const auto classes = std::make_shared<const ClassMap>(patcher.classes());
  const std::vector<char> region =
      verify::region_closure(patcher.graph(), patcher.dirty_tasks());
  int severed = 0, flagged = 0;
  for (const auto& [from, to] : verify::dependency_edges(patcher.graph())) {
    if (region[static_cast<std::size_t>(from)] == 0 ||
        region[static_cast<std::size_t>(to)] == 0)
      continue;
    if (severed >= 12) break;  // a sample is enough; each replay is O(region)
    ++severed;
    const TaskGraph mutated =
        verify::remove_dependency(patcher.graph(), from, to);
    const runtime::TaskBody body = es.make_iteration_body(mutated, classes);
    const verify::RegionReport report =
        verify::check_races_region(mutated, patcher.dirty_tasks(), body);
    flagged += report.clean() ? 0 : 1;
  }
  ASSERT_GT(severed, 0);
  EXPECT_GT(flagged, 0)
      << "no severed in-region edge was load-bearing — mutation test inert";
}

}  // namespace
}  // namespace tamp::taskgraph
