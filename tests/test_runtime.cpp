// Tests of the threaded task runtime: completeness, dependency ordering,
// worker-group pinning, exception propagation, reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "runtime/runtime.hpp"

namespace tamp::runtime {
namespace {

using taskgraph::Task;
using taskgraph::TaskGraph;

TaskGraph make_graph(const std::vector<part_t>& domains,
                     const std::vector<std::vector<index_t>>& deps) {
  std::vector<Task> tasks(domains.size());
  for (std::size_t i = 0; i < domains.size(); ++i) {
    tasks[i].domain = domains[i];
    tasks[i].cost = 1;
    tasks[i].num_objects = 1;
  }
  return TaskGraph(std::move(tasks), deps);
}

TEST(Runtime, ExecutesEveryTaskExactlyOnce) {
  const TaskGraph g = make_graph({0, 0, 0, 0, 0, 0},
                                 {{}, {0}, {0}, {1, 2}, {3}, {3}});
  std::vector<std::atomic<int>> ran(6);
  RuntimeConfig cfg;
  cfg.workers_per_process = 3;
  execute(g, {0}, cfg, [&](index_t t) {
    ran[static_cast<std::size_t>(t)].fetch_add(1);
  });
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(Runtime, DependencyOrderObserved) {
  // Record a global completion order; every pred must appear before its
  // successors start. We use a per-task sequence number taken when the
  // body begins.
  const TaskGraph g =
      make_graph({0, 0, 0, 0}, {{}, {0}, {1}, {1, 2}});
  std::atomic<int> clock{0};
  std::vector<int> started(4), finished(4);
  RuntimeConfig cfg;
  cfg.workers_per_process = 4;
  execute(g, {0}, cfg, [&](index_t t) {
    started[static_cast<std::size_t>(t)] = clock.fetch_add(1);
    finished[static_cast<std::size_t>(t)] = clock.fetch_add(1);
  });
  for (index_t t = 0; t < 4; ++t)
    for (const index_t p : g.predecessors(t))
      EXPECT_LT(finished[static_cast<std::size_t>(p)],
                started[static_cast<std::size_t>(t)]);
}

TEST(Runtime, TimestampsRespectDependencies) {
  const TaskGraph g = make_graph({0, 0}, {{}, {0}});
  RuntimeConfig cfg;
  cfg.workers_per_process = 2;
  const ExecutionReport rep = execute(g, {0}, cfg, [](index_t) {});
  EXPECT_GE(rep.spans[1].start, rep.spans[0].end);
  EXPECT_GE(rep.wall_seconds, 0.0);
}

TEST(Runtime, ProcessPinningHonoured) {
  const TaskGraph g = make_graph({0, 1, 0, 1}, {{}, {}, {}, {}});
  RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  const ExecutionReport rep = execute(g, {0, 1}, cfg, [](index_t) {});
  EXPECT_EQ(rep.spans[0].process, 0);
  EXPECT_EQ(rep.spans[1].process, 1);
  EXPECT_EQ(rep.spans[2].process, 0);
  EXPECT_EQ(rep.spans[3].process, 1);
}

TEST(Runtime, ExceptionPropagates) {
  const TaskGraph g = make_graph({0, 0, 0}, {{}, {0}, {1}});
  RuntimeConfig cfg;
  EXPECT_THROW(execute(g, {0}, cfg,
                       [](index_t t) {
                         if (t == 1) throw std::runtime_error("kernel failed");
                       }),
               std::runtime_error);
}

TEST(Runtime, RejectsBadConfig) {
  const TaskGraph g = make_graph({0}, {{}});
  RuntimeConfig cfg;
  cfg.num_processes = 0;
  EXPECT_THROW(execute(g, {0}, cfg, [](index_t) {}), precondition_error);
  cfg.num_processes = 1;
  cfg.workers_per_process = 0;
  EXPECT_THROW(execute(g, {0}, cfg, [](index_t) {}), precondition_error);
  cfg.workers_per_process = 1;
  // Domain map too small.
  const TaskGraph g2 = make_graph({3}, {{}});
  EXPECT_THROW(execute(g2, {0}, cfg, [](index_t) {}), precondition_error);
}

TEST(Runtime, ReportAccountingConsistent) {
  const TaskGraph g = make_graph({0, 0, 0, 0}, {{}, {}, {}, {}});
  RuntimeConfig cfg;
  cfg.workers_per_process = 2;
  const ExecutionReport rep =
      execute(g, {0}, cfg, make_synthetic_body(g, 1e-4));
  EXPECT_GT(rep.total_busy_seconds(), 0.0);
  EXPECT_LE(rep.total_busy_seconds(),
            rep.wall_seconds * 2 /*workers*/ * 1.5 /*scheduling noise*/);
  EXPECT_GT(rep.occupancy(), 0.0);
  EXPECT_LE(rep.occupancy(), 1.01);
  const GanttTrace trace = rep.gantt(g, "trace");
  EXPECT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.resource_names.size(), 2u);
}

TEST(Runtime, LargeFanOutCompletes) {
  // 1 root → 200 leaves → 1 sink, multiple workers: stress the queue.
  std::vector<part_t> domains(202, 0);
  std::vector<std::vector<index_t>> deps(202);
  std::vector<index_t> leaves;
  for (index_t i = 1; i <= 200; ++i) {
    deps[static_cast<std::size_t>(i)] = {0};
    leaves.push_back(i);
  }
  deps[201] = leaves;
  const TaskGraph g = make_graph(domains, deps);
  std::atomic<int> count{0};
  RuntimeConfig cfg;
  cfg.workers_per_process = 4;
  execute(g, {0}, cfg, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 202);
}

TEST(Runtime, MultiProcessGraphCompletes) {
  // Cross-process dependency chains exercise the inter-queue wakeups.
  std::vector<part_t> domains;
  std::vector<std::vector<index_t>> deps;
  for (index_t i = 0; i < 40; ++i) {
    domains.push_back(i % 4);
    deps.push_back(i == 0 ? std::vector<index_t>{}
                          : std::vector<index_t>{i - 1});
  }
  const TaskGraph g = make_graph(domains, deps);
  std::atomic<int> count{0};
  RuntimeConfig cfg;
  cfg.num_processes = 4;
  cfg.workers_per_process = 2;
  execute(g, {0, 1, 2, 3}, cfg, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 40);
}

TEST(Runtime, AdversarialScheduleRunsEveryTaskInOrder) {
  // Random dequeue + jitter must still execute each task once and never
  // start a task before its predecessors finished.
  const TaskGraph g = make_graph({0, 0, 0, 0, 0, 0},
                                 {{}, {0}, {0}, {1, 2}, {3}, {3}});
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::atomic<int> clock{0};
    std::vector<int> started(6), finished(6);
    RuntimeConfig cfg;
    cfg.workers_per_process = 3;
    cfg.adversarial.enabled = true;
    cfg.adversarial.seed = seed;
    cfg.adversarial.max_delay_seconds = 100e-6;
    std::vector<std::atomic<int>> ran(6);
    execute(g, {0}, cfg, [&](index_t t) {
      started[static_cast<std::size_t>(t)] = clock.fetch_add(1);
      ran[static_cast<std::size_t>(t)].fetch_add(1);
      finished[static_cast<std::size_t>(t)] = clock.fetch_add(1);
    });
    for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
    for (index_t t = 0; t < 6; ++t)
      for (const index_t p : g.predecessors(t))
        EXPECT_LT(finished[static_cast<std::size_t>(p)],
                  started[static_cast<std::size_t>(t)])
            << "seed " << seed;
  }
}

TEST(Runtime, AdversarialExceptionStillPropagates) {
  const TaskGraph g = make_graph({0, 0, 0, 0}, {{}, {0}, {0}, {1, 2}});
  RuntimeConfig cfg;
  cfg.workers_per_process = 4;
  cfg.adversarial.enabled = true;
  cfg.adversarial.seed = 9;
  cfg.adversarial.max_delay_seconds = 50e-6;
  EXPECT_THROW(execute(g, {0}, cfg,
                       [](index_t t) {
                         if (t == 2) throw std::runtime_error("kernel failed");
                       }),
               std::runtime_error);
}

TEST(Runtime, RejectsNegativeAdversarialDelay) {
  const TaskGraph g = make_graph({0}, {{}});
  RuntimeConfig cfg;
  cfg.adversarial.max_delay_seconds = -1.0;
  EXPECT_THROW(execute(g, {0}, cfg, [](index_t) {}), precondition_error);
}

TEST(Runtime, MoreWorkersThanReadyTasksCompletes) {
  // A 3-task chain on 8 workers: most workers only ever see an empty
  // queue and must still shut down cleanly.
  const TaskGraph g = make_graph({0, 0, 0}, {{}, {0}, {1}});
  std::atomic<int> count{0};
  RuntimeConfig cfg;
  cfg.workers_per_process = 8;
  execute(g, {0}, cfg, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(Runtime, EmptyGraphCompletesImmediately) {
  const TaskGraph g = make_graph({}, {});
  RuntimeConfig cfg;
  cfg.workers_per_process = 2;
  const ExecutionReport rep = execute(g, {0}, cfg, [](index_t) {
    FAIL() << "no task should run";
  });
  EXPECT_TRUE(rep.spans.empty());
  EXPECT_EQ(rep.total_busy_seconds(), 0.0);
}

TEST(Runtime, SingleTaskGraphCompletes) {
  const TaskGraph g = make_graph({0}, {{}});
  std::atomic<int> count{0};
  RuntimeConfig cfg;
  cfg.adversarial.enabled = true;  // degenerate pick-from-one
  execute(g, {0}, cfg, [&](index_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(Runtime, RepeatedExecutionsNeverLoseTheFinalWakeUp) {
  // The worker that finishes the last task wakes every idle worker. A
  // worker caught between its wait predicate and its sleep must still
  // get that wake-up, or execute() never returns. Many short runs make
  // the window likely; a lost wake-up shows as this case timing out.
  const TaskGraph single = make_graph({0}, {{}});
  const TaskGraph chain = make_graph(
      {0, 1, 0, 1, 0, 1, 0, 1}, {{}, {0}, {1}, {2}, {3}, {4}, {5}, {6}});
  RuntimeConfig one_by_four;
  one_by_four.workers_per_process = 4;
  RuntimeConfig two_by_two;
  two_by_two.num_processes = 2;
  two_by_two.workers_per_process = 2;
  std::atomic<int> count{0};
  const TaskBody body = [&](index_t) { count.fetch_add(1); };
  constexpr int kRuns = 20000;
  for (int i = 0; i < kRuns; ++i) {
    execute(single, {0}, one_by_four, body);
    execute(chain, {0, 1}, two_by_two, body);
  }
  EXPECT_EQ(count.load(), 9 * kRuns);
}

TEST(Runtime, OccupancyIsNaNWithoutCapacity) {
  // A default report has no capacity: occupancy must not divide by zero,
  // and must stay distinguishable from a real all-idle run (0.0).
  const ExecutionReport rep;
  EXPECT_FALSE(rep.has_capacity());
  EXPECT_TRUE(std::isnan(rep.occupancy()));
  EXPECT_EQ(rep.total_busy_seconds(), 0.0);
}

TEST(Runtime, OccupancyIsZeroWhenAllIdle) {
  ExecutionReport rep;
  rep.wall_seconds = 1.0;
  rep.num_processes = 1;
  rep.workers_per_process = 2;
  EXPECT_TRUE(rep.has_capacity());
  EXPECT_EQ(rep.occupancy(), 0.0);
}

TEST(Runtime, GanttRejectsMismatchedReport) {
  const TaskGraph g = make_graph({0, 0}, {{}, {0}});
  ExecutionReport rep;
  rep.wall_seconds = 1.0;
  rep.num_processes = 1;
  rep.workers_per_process = 1;
  rep.spans.resize(1);  // graph has 2 tasks
  EXPECT_THROW(rep.gantt(g, "mismatch"), precondition_error);
}

}  // namespace
}  // namespace tamp::runtime
