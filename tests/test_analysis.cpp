// Tests of schedule analysis (subiteration activity, concurrency profile,
// idle blocks) and the Chrome trace export.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "obs/export.hpp"
#include "sim/analysis.hpp"
#include "sim/trace_json.hpp"

namespace tamp::sim {
namespace {

using taskgraph::Task;
using taskgraph::TaskGraph;

TaskGraph two_proc_graph() {
  // p0: tasks 0 (cost 2, s0) and 2 (cost 1, s1, after 0 and 1);
  // p1: task 1 (cost 3, s0).
  std::vector<Task> tasks(3);
  tasks[0].cost = 2;
  tasks[0].domain = 0;
  tasks[0].subiteration = 0;
  tasks[1].cost = 3;
  tasks[1].domain = 1;
  tasks[1].subiteration = 0;
  tasks[2].cost = 1;
  tasks[2].domain = 0;
  tasks[2].subiteration = 1;
  return TaskGraph(std::move(tasks), {{}, {}, {0, 1}});
}

SimResult run(const TaskGraph& g) {
  SimOptions opts;
  opts.cluster.num_processes = 2;
  return simulate(g, {0, 1}, opts);
}

TEST(Analysis, SubiterationActivity) {
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  const auto act = subiteration_activity(g, r);
  ASSERT_EQ(act.size(), 4u);  // 2 processes × 2 subiterations
  // p0, s0: task 0 only.
  EXPECT_EQ(act[0].tasks, 1);
  EXPECT_DOUBLE_EQ(act[0].busy, 2.0);
  EXPECT_DOUBLE_EQ(act[0].first_start, 0.0);
  // p0, s1: task 2 starting at 3 (waits for task 1 on p1).
  EXPECT_EQ(act[1].tasks, 1);
  EXPECT_DOUBLE_EQ(act[1].first_start, 3.0);
  EXPECT_DOUBLE_EQ(act[1].last_end, 4.0);
  // p1, s0: task 1. p1, s1: nothing — inactive cells keep the sentinel
  // +inf first_start so "never started" is distinct from "started at 0".
  EXPECT_EQ(act[2].tasks, 1);
  EXPECT_TRUE(act[2].active());
  EXPECT_DOUBLE_EQ(act[2].first_start, 0.0);
  EXPECT_EQ(act[3].tasks, 0);
  EXPECT_FALSE(act[3].active());
  EXPECT_TRUE(std::isinf(act[3].first_start));
  EXPECT_GT(act[3].first_start, 0);
}

TEST(Analysis, ConcurrencyProfile) {
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  const ConcurrencyProfile p = concurrency_profile(r);
  // [0,2): 2 busy; [2,3): 1 busy; [3,4): 1 busy.
  EXPECT_EQ(p.peak(), 2);
  EXPECT_NEAR(p.average(r.makespan), (2 * 2 + 1 * 1 + 1 * 1) / 4.0, 1e-12);
  EXPECT_NEAR(p.fraction_below(2, r.makespan), 0.5, 1e-12);
  EXPECT_NEAR(p.fraction_below(1, r.makespan), 0.0, 1e-12);
}

TEST(Analysis, IdleBlocks) {
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  // p0 busy [0,2] and [3,4]: one idle block of 1.
  const IdleBlocks b0 = idle_blocks(r, 0);
  EXPECT_EQ(b0.count, 1);
  EXPECT_DOUBLE_EQ(b0.total, 1.0);
  EXPECT_DOUBLE_EQ(b0.longest, 1.0);
  // p1 busy [0,3]: idle tail [3,4].
  const IdleBlocks b1 = idle_blocks(r, 1);
  EXPECT_EQ(b1.count, 1);
  EXPECT_DOUBLE_EQ(b1.total, 1.0);
  EXPECT_THROW((void)idle_blocks(r, 5), precondition_error);
}

TEST(Analysis, ProfileAverageMatchesOccupancyIdentity) {
  // Time-integral of concurrency equals total busy time — for any graph.
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  const ConcurrencyProfile p = concurrency_profile(r);
  simtime_t busy = 0;
  for (const simtime_t b : r.busy_per_process) busy += b;
  EXPECT_NEAR(p.average(r.makespan) * r.makespan, busy, 1e-9);
}

TEST(ChromeTrace, WellFormedAndComplete) {
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  const std::string json = to_chrome_trace(g, r);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One event per task.
  std::size_t events = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 8;
  }
  EXPECT_EQ(events, 3u);
  EXPECT_NE(json.find("\"subiteration\":1"), std::string::npos);
  EXPECT_NE(json.find("\"locality\":\"int\""), std::string::npos);
}

TEST(ChromeTrace, SavesToDisk) {
  const TaskGraph g = two_proc_graph();
  const SimResult r = run(g);
  const std::string path = testing::TempDir() + "/tamp_trace.json";
  obs::save_text(to_chrome_trace(g, r), path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("traceEvents"), std::string::npos);
}

TEST(ChromeTrace, RejectsMismatchedInputs) {
  const TaskGraph g = two_proc_graph();
  SimResult r;  // empty timing
  EXPECT_THROW((void)to_chrome_trace(g, r), precondition_error);
}

}  // namespace
}  // namespace tamp::sim
