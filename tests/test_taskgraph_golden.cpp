// Golden fingerprints of Algorithm 1's output. The patcher and the
// generator emit through one loop, so comparing a patched graph against a
// rebuild cannot see a changed emitted byte; these pinned values can.
// Inputs are a small graded box whose temporal levels, domains and drift
// steps all come from integer rules (no RNG, no partitioner), hashed in
// the test itself so the pin depends on nothing under test but the
// generator and the patcher. The hash covers tasks, dependencies, class
// lists and the task → class map; a refactor of the task-graph layer
// must leave the values unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mesh/generators.hpp"
#include "support/hash.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/patch.hpp"

namespace tamp::taskgraph {
namespace {

constexpr index_t kNx = 9, kNy = 7, kNz = 5;

/// FNV-1a over every task field, every predecessor list and the whole
/// ClassMap (class lists, task → class).
std::uint64_t golden_hash(const TaskGraph& g, const ClassMap& cm) {
  Fnv1a h;
  h.add(g.num_tasks()).add(g.num_dependencies());
  for (index_t t = 0; t < g.num_tasks(); ++t) {
    const Task& task = g.task(t);
    h.add(task.subiteration)
        .add(task.level)
        .add(task.type)
        .add(task.locality)
        .add(task.domain)
        .add(task.num_objects)
        .add(task.cost);
    const auto pred = g.predecessors(t);
    h.add(static_cast<std::uint64_t>(pred.size()))
        .add_span(pred.data(), pred.size());
  }
  h.add_vector(cm.task_class);
  h.add(static_cast<std::uint64_t>(cm.class_cells.size()));
  for (const auto& v : cm.class_cells) h.add_vector(v);
  h.add(static_cast<std::uint64_t>(cm.class_faces.size()));
  for (const auto& v : cm.class_faces) h.add_vector(v);
  return h.value();
}

/// 9×7×5 graded box; levels 0..3 rise along the i+j diagonal.
mesh::Mesh golden_box() {
  mesh::Mesh m = mesh::make_graded_box_mesh(kNx, kNy, kNz, 1.2);
  std::vector<level_t> levels(static_cast<std::size_t>(m.num_cells()));
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const index_t i = c % kNx, j = (c / kNx) % kNy;
    levels[static_cast<std::size_t>(c)] =
        static_cast<level_t>(std::min<index_t>(3, (i + j) / 3));
  }
  m.set_cell_levels(std::move(levels));
  return m;
}

/// Blocky, interleaved domain rule so every locality class is populated.
std::vector<part_t> golden_domains(const mesh::Mesh& m, part_t nd) {
  std::vector<part_t> d(static_cast<std::size_t>(m.num_cells()));
  for (index_t c = 0; c < m.num_cells(); ++c) {
    const index_t i = c % kNx, j = (c / kNx) % kNy, k = c / (kNx * kNy);
    d[static_cast<std::size_t>(c)] = (i / 3 + (j / 2) * 2 + k) % nd;
  }
  return d;
}

std::uint64_t generated(const mesh::Mesh& m, const std::vector<part_t>& dom,
                        part_t nd, int iterations) {
  GenerateOptions opts;
  opts.num_iterations = iterations;
  ClassMap cm;
  const TaskGraph g = generate_task_graph(m, dom, nd, opts, &cm);
  return golden_hash(g, cm);
}

struct GoldenCase {
  part_t ndomains;
  int iterations;
  std::uint64_t plain;
};

TEST(TaskGraphGolden, GeneratorOnGradedAndRenumberedBox) {
  const GoldenCase cases[] = {
      {1, 1, 0xa9d1edd024330cd9ULL}, {1, 2, 0x9988521f9f99552dULL},
      {3, 1, 0xd011606b8fb0c781ULL}, {3, 2, 0xdf51536fc9183bcfULL},
      {8, 1, 0xc6a47dff51ef949eULL}, {8, 2, 0x43f38ee49936397dULL},
  };
  const mesh::Mesh box = golden_box();
  for (const GoldenCase& gc : cases) {
    const std::string ctx = std::to_string(gc.ndomains) + " domains, " +
                            std::to_string(gc.iterations) + " iterations";
    const auto dom = golden_domains(box, gc.ndomains);
    EXPECT_EQ(generated(box, dom, gc.ndomains, gc.iterations), gc.plain)
        << ctx;
  }
}

TEST(TaskGraphGolden, PatcherAfterDriftSteps) {
  struct PatchCase {
    part_t ndomains;
    std::uint64_t after_step[3];
  };
  const PatchCase cases[] = {
      {1, {0xbef07d152d9ec49eULL, 0x79c1367da70ff5e6ULL,
           0x1741a5165b712679ULL}},
      {3, {0x360cd6316dd84896ULL, 0x82c544f2e5c6a1c5ULL,
           0x977e47d67864ca0eULL}},
      {8, {0x5a35f02be428688cULL, 0x81d28926b5115b06ULL,
           0x0fb62e407f81ade5ULL}},
  };
  for (const PatchCase& pc : cases) {
    mesh::Mesh box = golden_box();
    std::vector<part_t> dom = golden_domains(box, pc.ndomains);
    GraphPatcher::Options opts;
    opts.max_dirty_fraction = 1.0;  // always the diff path
    GraphPatcher patcher(box, dom, pc.ndomains, opts);
    for (int step = 1; step <= 3; ++step) {
      // Every 17th cell (offset by the step) cycles its level; level 3
      // stays populated, so the level count never changes. Every 23rd
      // cell moves to the next domain.
      std::vector<level_t> levels = box.cell_levels();
      for (index_t c = step; c < box.num_cells(); c += 17) {
        auto& l = levels[static_cast<std::size_t>(c)];
        l = static_cast<level_t>((l + 1) % 4);
      }
      box.set_cell_levels(std::move(levels));
      for (index_t c = step; c < box.num_cells(); c += 23) {
        auto& d = dom[static_cast<std::size_t>(c)];
        d = (d + 1) % pc.ndomains;
      }
      const PatchStats& st = patcher.apply(box, dom);
      ASSERT_TRUE(st.patched) << st.rebuild_reason;
      EXPECT_EQ(golden_hash(patcher.graph(), patcher.classes()),
                pc.after_step[step - 1])
          << pc.ndomains << " domains, step " << step;
    }
  }
}

}  // namespace
}  // namespace tamp::taskgraph
