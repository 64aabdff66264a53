// Tests of Algorithm-1 task generation and DAG structure on small meshes
// where the expected graph can be reasoned out by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mesh/generators.hpp"
#include "mesh/levels.hpp"
#include "support/rng.hpp"
#include "taskgraph/class_indexer.hpp"
#include "taskgraph/generate.hpp"

namespace tamp::taskgraph {
namespace {

/// 4×1×1 lattice split into two domains {0,1} | {2,3}.
struct TinyCase {
  mesh::Mesh mesh = mesh::make_lattice_mesh(4, 1, 1);
  std::vector<part_t> domains{0, 0, 1, 1};
};

TEST(Generate, SingleLevelSingleDomain) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  const TaskGraph g = generate_task_graph(t.mesh, {0, 0, 0, 0}, 1);
  // One subiteration, one phase, faces+cells, one domain, all internal:
  // exactly 2 tasks.
  ASSERT_EQ(g.num_tasks(), 2);
  EXPECT_EQ(g.task(0).type, ObjectType::face);
  EXPECT_EQ(g.task(1).type, ObjectType::cell);
  EXPECT_EQ(g.task(0).num_objects, t.mesh.num_faces());
  EXPECT_EQ(g.task(1).num_objects, 4);
  // The cell task depends on the face task.
  ASSERT_EQ(g.predecessors(1).size(), 1u);
  EXPECT_EQ(g.predecessors(1)[0], 0);
}

TEST(Generate, TwoDomainsSingleLevel) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  // Per domain: external + internal for faces and cells. Domain 0 owns
  // the crossing face (min rule): its face tasks are {ext:1, int:…};
  // domain 1 has no external faces but has external cells.
  index_t ext_face = 0, int_face = 0, ext_cell = 0, int_cell = 0;
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    const Task& task = g.task(i);
    if (task.type == ObjectType::face) {
      (task.locality == Locality::external ? ext_face : int_face) +=
          task.num_objects;
    } else {
      (task.locality == Locality::external ? ext_cell : int_cell) +=
          task.num_objects;
    }
  }
  EXPECT_EQ(ext_face, 1);                            // the 1-2 crossing face
  EXPECT_EQ(int_face, t.mesh.num_faces() - 1);
  EXPECT_EQ(ext_cell, 2);                            // cells 1 and 2
  EXPECT_EQ(int_cell, 2);
  EXPECT_NO_THROW(g.topological_order());
}

TEST(Generate, ObjectCoverageEveryActivation) {
  // Over an iteration, each cell must be processed exactly
  // 2^(τmax−τ) times and each face 2^(τmax−τf) times.
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 1, 1});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  index_t cell_updates = 0, face_updates = 0;
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    const Task& task = g.task(i);
    (task.type == ObjectType::cell ? cell_updates : face_updates) +=
        task.num_objects;
  }
  weight_t expected_cells = 0;
  for (index_t c = 0; c < 4; ++c)
    expected_cells += mesh::operating_cost(t.mesh.cell_level(c), 1);
  weight_t expected_faces = 0;
  for (index_t f = 0; f < t.mesh.num_faces(); ++f)
    expected_faces += mesh::operating_cost(t.mesh.face_level(f), 1);
  EXPECT_EQ(cell_updates, expected_cells);
  EXPECT_EQ(face_updates, expected_faces);
}

TEST(Generate, PhasesDescendWithinSubiteration) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 2, 2});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  index_t prev_sub = 0;
  level_t prev_level = 127;
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    const Task& task = g.task(i);
    if (task.subiteration != prev_sub) {
      ASSERT_GT(task.subiteration, prev_sub);  // subiterations ascend
      prev_sub = task.subiteration;
      prev_level = 127;
    }
    EXPECT_LE(task.level, prev_level);  // phases descend
    prev_level = task.level;
  }
}

TEST(Generate, FacesPrecedeCellsInPhase) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  // Within (subiteration, level), every face task id < every cell id.
  index_t last_face = -1, first_cell = g.num_tasks();
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    if (g.task(i).type == ObjectType::face)
      last_face = std::max(last_face, i);
    else
      first_cell = std::min(first_cell, i);
  }
  EXPECT_LT(last_face, first_cell);
}

TEST(Generate, DependenciesRespectNeighbourhood) {
  // A cell task must depend on face tasks covering its faces; the
  // external cell task of domain 1 must (transitively) depend on domain
  // 0's work.
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    if (g.task(i).type == ObjectType::cell) {
      EXPECT_FALSE(g.predecessors(i).empty())
          << "cell task without face dependency: " << g.task(i).label();
      bool has_face_dep = false;
      for (const index_t p : g.predecessors(i))
        has_face_dep |= g.task(p).type == ObjectType::face;
      EXPECT_TRUE(has_face_dep);
    }
  }
}

TEST(Generate, MultiIterationChains) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 1, 1});
  GenerateOptions opts;
  opts.num_iterations = 3;
  const TaskGraph g3 = generate_task_graph(t.mesh, t.domains, 2, opts);
  opts.num_iterations = 1;
  const TaskGraph g1 = generate_task_graph(t.mesh, t.domains, 2, opts);
  EXPECT_EQ(g3.num_tasks(), 3 * g1.num_tasks());
  // Iterations are chained: total work scales, critical path too.
  EXPECT_DOUBLE_EQ(g3.total_work(), 3 * g1.total_work());
  EXPECT_GT(g3.critical_path(), 2 * g1.critical_path());
}

TEST(Generate, CostModelApplied) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  GenerateOptions opts;
  opts.cost.cell_unit = 2.0;
  opts.cost.face_unit = 0.5;
  const TaskGraph g = generate_task_graph(t.mesh, {0, 0, 0, 0}, 1, opts);
  EXPECT_DOUBLE_EQ(g.task(0).cost, 0.5 * t.mesh.num_faces());
  EXPECT_DOUBLE_EQ(g.task(1).cost, 2.0 * 4);
}

TEST(Generate, ClassMapCoversEveryObjectOnce) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 2, 2});
  ClassMap map;
  const TaskGraph g =
      generate_task_graph(t.mesh, t.domains, 2, {}, &map);
  ASSERT_EQ(map.task_class.size(), static_cast<std::size_t>(g.num_tasks()));
  std::vector<int> cell_seen(4, 0), face_seen(static_cast<std::size_t>(t.mesh.num_faces()), 0);
  for (const auto& cells : map.class_cells)
    for (const index_t c : cells) ++cell_seen[static_cast<std::size_t>(c)];
  for (const auto& faces : map.class_faces)
    for (const index_t f : faces) ++face_seen[static_cast<std::size_t>(f)];
  for (const int s : cell_seen) EXPECT_EQ(s, 1);
  for (const int s : face_seen) EXPECT_EQ(s, 1);
  // Task object counts match their class lists.
  for (index_t i = 0; i < g.num_tasks(); ++i) {
    const auto cid = static_cast<std::size_t>(map.task_class[static_cast<std::size_t>(i)]);
    const auto expected = g.task(i).type == ObjectType::face
                              ? map.class_faces[cid].size()
                              : map.class_cells[cid].size();
    EXPECT_EQ(static_cast<std::size_t>(g.task(i).num_objects), expected);
  }
}

TEST(Generate, RejectsOutOfRangeDomainIds) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 2, 2});
  // An id equal to ndomains, and a negative id, would index past the
  // per-class arrays.
  EXPECT_THROW(generate_task_graph(t.mesh, {0, 0, 1, 2}, 2),
               precondition_error);
  EXPECT_THROW(generate_task_graph(t.mesh, {0, -1, 1, 1}, 2),
               precondition_error);
}

TEST(Generate, RejectsOverflowingClassSpace) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  // 2^30 domains × 1 level × 2 localities does not fit index_t.
  EXPECT_THROW(generate_task_graph(t.mesh, {0, 0, 0, 0}, part_t{1} << 30),
               precondition_error);
}

// The patcher's flat pair table against std::map under random adds and
// removals: enough keys to grow it several times and to wrap probe runs
// around its end, which backward-shift deletion must handle.
TEST(PairCounter, MatchesAMapUnderRandomAddsAndRemovals) {
  PairCounter table;
  std::map<std::uint64_t, index_t> ref;
  Rng rng(17);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = pack_pair(static_cast<index_t>(rng.below(40)),
                                        static_cast<index_t>(rng.below(40)));
    if (rng.below(2) != 0) {
      EXPECT_EQ(table.add(key), ++ref[key] == 1) << "op " << op;
    } else {
      const auto it = ref.find(key);
      const index_t expected = it == ref.end() ? -1 : --it->second;
      if (it != ref.end() && it->second == 0) ref.erase(it);
      ASSERT_EQ(table.remove_one(key), expected) << "op " << op;
    }
  }
  std::vector<std::uint64_t> keys = table.keys();
  std::sort(keys.begin(), keys.end());
  std::vector<std::uint64_t> ref_keys;
  for (const auto& [key, count] : ref) ref_keys.push_back(key);
  EXPECT_EQ(keys, ref_keys);
  EXPECT_GT(ref_keys.size(), 500u);
}

TEST(TaskGraphStructure, RejectsOutOfRangeDeps) {
  std::vector<Task> tasks(2);
  EXPECT_THROW(TaskGraph(tasks, {{5}, {}}), precondition_error);
  EXPECT_THROW(TaskGraph(tasks, {{}}), precondition_error);  // size mismatch
}

TEST(TaskGraphStructure, DetectsCycles) {
  std::vector<Task> tasks(2);
  const TaskGraph g(tasks, {{1}, {0}});
  EXPECT_THROW((void)g.topological_order(), invariant_error);
  EXPECT_THROW((void)g.critical_path(), invariant_error);
}

TEST(TaskGraphStructure, SelfDependencyRejected) {
  std::vector<Task> tasks(1);
  EXPECT_THROW(TaskGraph(tasks, {{0}}), precondition_error);
}

TEST(TaskGraphStructure, CriticalPathOfChain) {
  std::vector<Task> tasks(3);
  tasks[0].cost = 1;
  tasks[1].cost = 2;
  tasks[2].cost = 3;
  const TaskGraph g(tasks, {{}, {0}, {1}});
  EXPECT_DOUBLE_EQ(g.critical_path(), 6.0);
  EXPECT_DOUBLE_EQ(g.total_work(), 6.0);
}

TEST(TaskGraphStructure, CriticalPathOfDiamond) {
  std::vector<Task> tasks(4);
  tasks[0].cost = 1;
  tasks[1].cost = 5;
  tasks[2].cost = 2;
  tasks[3].cost = 1;
  const TaskGraph g(tasks, {{}, {0}, {0}, {1, 2}});
  EXPECT_DOUBLE_EQ(g.critical_path(), 7.0);  // 0→1→3
}

TEST(TaskGraphStructure, DotExport) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 0, 0, 0});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(WorkStats, PerSubiterationWork) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 1, 1});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  const auto work = work_per_subiteration(g);
  ASSERT_EQ(work.size(), 2u);  // τmax = 1 → 2 subiterations
  // Subiteration 0 does all levels, subiteration 1 only level 0: strictly
  // less work (the paper's intrinsic imbalance, Fig 4).
  EXPECT_GT(work[0], work[1]);
  EXPECT_GT(work[1], 0.0);
  simtime_t sum = 0;
  for (const simtime_t w : work) sum += w;
  EXPECT_DOUBLE_EQ(sum, g.total_work());
}

TEST(WorkStats, PerProcessSubiteration) {
  TinyCase t;
  t.mesh.set_cell_levels({0, 1, 1, 1});
  const TaskGraph g = generate_task_graph(t.mesh, t.domains, 2);
  const auto w = work_per_process_subiteration(g, {0, 1}, 2);
  ASSERT_EQ(w.size(), 4u);
  simtime_t sum = 0;
  for (const simtime_t x : w) sum += x;
  EXPECT_DOUBLE_EQ(sum, g.total_work());
}

}  // namespace
}  // namespace tamp::taskgraph
