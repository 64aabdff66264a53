// Tests of MPI-style message aggregation statistics and partition file
// I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "partition/io.hpp"
#include "sim/messages.hpp"

namespace tamp {
namespace {

using taskgraph::Task;
using taskgraph::TaskGraph;

TaskGraph cross_graph() {
  // Tasks: 0 (d0, s0, 10 objects) → {1 (d1, s0), 2 (d1, s1)};
  //        3 (d0, s1, 5 objects) → 2.
  std::vector<Task> tasks(4);
  tasks[0].domain = 0;
  tasks[0].subiteration = 0;
  tasks[0].num_objects = 10;
  tasks[0].cost = 1;
  tasks[1].domain = 1;
  tasks[1].subiteration = 0;
  tasks[1].num_objects = 1;
  tasks[1].cost = 1;
  tasks[2].domain = 1;
  tasks[2].subiteration = 1;
  tasks[2].num_objects = 1;
  tasks[2].cost = 1;
  tasks[3].domain = 0;
  tasks[3].subiteration = 1;
  tasks[3].num_objects = 5;
  tasks[3].cost = 1;
  return TaskGraph(std::move(tasks), {{}, {0}, {0, 3}, {}});
}

TEST(Messages, AggregatesPerProcessPairAndSubiteration) {
  const TaskGraph g = cross_graph();
  // Domains on different processes: edges 0→1, 0→2, 3→2 all cross.
  const auto stats = sim::message_statistics(g, {0, 1});
  EXPECT_EQ(stats.crossing_edges, 3);
  EXPECT_EQ(stats.volume, 10 + 10 + 5);
  // Producer subiterations: 0→1 (s0), 0→2 (s0, same triple), 3→2 (s1):
  // 2 distinct messages over 1 process pair.
  EXPECT_EQ(stats.messages, 2);
  EXPECT_EQ(stats.process_pairs, 1);
}

TEST(Messages, NoCommWhenColocated) {
  const TaskGraph g = cross_graph();
  const auto stats = sim::message_statistics(g, {0, 0});
  EXPECT_EQ(stats.crossing_edges, 0);
  EXPECT_EQ(stats.messages, 0);
  EXPECT_EQ(stats.volume, 0);
  EXPECT_EQ(stats.process_pairs, 0);
}

TEST(Messages, DirectionalPairs) {
  // Reverse an edge direction by having d1 produce for d0 too.
  std::vector<Task> tasks(2);
  tasks[0].domain = 0;
  tasks[0].num_objects = 3;
  tasks[0].cost = 1;
  tasks[1].domain = 1;
  tasks[1].num_objects = 4;
  tasks[1].cost = 1;
  // 0→1 only.
  const TaskGraph g(std::move(tasks), {{}, {0}});
  const auto stats = sim::message_statistics(g, {0, 1});
  EXPECT_EQ(stats.process_pairs, 1);  // (0→1) distinct from (1→0)
}

TEST(PartitionIo, RoundTrip) {
  const std::vector<part_t> part{0, 2, 1, 1, 0, 2};
  std::ostringstream os;
  partition::write_partition(part, 3, os);
  std::istringstream is(os.str());
  part_t ndomains = 0;
  const auto back = partition::read_partition(is, ndomains);
  EXPECT_EQ(ndomains, 3);
  EXPECT_EQ(back, part);
}

TEST(PartitionIo, RejectsOutOfRangeIds) {
  const std::vector<part_t> bad{0, 5};
  std::ostringstream os;
  EXPECT_THROW(partition::write_partition(bad, 3, os), precondition_error);
}

TEST(PartitionIo, RejectsMalformedInput) {
  part_t nd = 0;
  std::istringstream bad1("nope 3 2\n0\n0\n0\n");
  EXPECT_THROW((void)partition::read_partition(bad1, nd), runtime_failure);
  std::istringstream bad2("tamp-partition 3 2\n0\n7\n0\n");
  EXPECT_THROW((void)partition::read_partition(bad2, nd), runtime_failure);
  std::istringstream bad3("tamp-partition 3 2\n0\n");
  EXPECT_THROW((void)partition::read_partition(bad3, nd), runtime_failure);
  std::istringstream bad4("tamp-partition 3 0\n0\n0\n0\n");
  EXPECT_THROW((void)partition::read_partition(bad4, nd), runtime_failure);
  // A domain count past part_t's range must not wrap to a small one
  // that lets ids 5 and 7 through.
  std::istringstream bad5("tamp-partition 2 4294967297\n5\n7\n");
  EXPECT_THROW((void)partition::read_partition(bad5, nd), runtime_failure);
  // A cell count past index_t's range is a malformed header, not an
  // allocation to attempt.
  std::istringstream bad6("tamp-partition 100000000000 4\n0\n");
  EXPECT_THROW((void)partition::read_partition(bad6, nd), runtime_failure);
}

TEST(PartitionIo, FileRoundTrip) {
  const std::vector<part_t> part{1, 0, 1};
  const std::string path = testing::TempDir() + "/tamp_part.tpart";
  partition::save_partition(part, 2, path);
  part_t nd = 0;
  EXPECT_EQ(partition::load_partition(path, nd), part);
  EXPECT_EQ(nd, 2);
  EXPECT_THROW((void)partition::load_partition("/nonexistent/x", nd),
               runtime_failure);
}

}  // namespace
}  // namespace tamp
