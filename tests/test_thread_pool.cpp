// Work-stealing pool: fork/join semantics, helping wait, exception
// propagation, deterministic parallel_for chunking, stress.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace tamp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  std::vector<ThreadPool::TaskHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(pool.submit([&ran] { ++ran; }));
  for (const auto& h : handles) pool.wait(h);
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SingleThreadPoolRunsWorkInWait) {
  // num_threads == 1 spawns no workers: submitted tasks execute inside
  // wait() on the calling thread.
  ThreadPool pool(1);
  bool ran = false;
  auto h = pool.submit([&ran] { ran = true; });
  pool.wait(h);
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, WaitIsIdempotent) {
  ThreadPool pool(2);
  auto h = pool.submit([] {});
  pool.wait(h);
  pool.wait(h);  // already done: returns immediately
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  auto h = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait(h), std::runtime_error);
}

TEST(ThreadPool, PropagatesParallelForException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000, 10,
                                 [](std::int64_t b, std::int64_t) {
                                   if (b == 500)
                                     throw std::runtime_error("chunk boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> ran{0};
  pool.parallel_for(0, 100, 10,
                    [&ran](std::int64_t b, std::int64_t e) {
                      ran += static_cast<int>(e - b);
                    });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_for(0, 10'000, 64, [&hits](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunkBoundariesDependOnlyOnGrain) {
  // The determinism contract: chunk c covers
  // [begin + c*grain, min(end, begin + (c+1)*grain)) at any thread count.
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<char>> seen(7);
    pool.parallel_for(10, 75, 10, [&](std::int64_t b, std::int64_t e) {
      const auto chunk = (b - 10) / 10;
      EXPECT_EQ(b, 10 + chunk * 10);
      EXPECT_EQ(e, std::min<std::int64_t>(75, 10 + (chunk + 1) * 10));
      seen[static_cast<std::size_t>(chunk)] = 1;
    });
    for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, 10, [](std::int64_t, std::int64_t) { FAIL(); });
  parallel_for(nullptr, 5, 5, 10,
               [](std::int64_t, std::int64_t) { FAIL(); });
}

TEST(ThreadPool, FreeParallelForInlinesWithoutPool) {
  std::int64_t sum = 0;  // no atomics needed: runs on this thread
  parallel_for(nullptr, 0, 100, 7, [&sum](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

// Nested fork/join: parallel recursive sum over a range. Exercises the
// helping wait() — a blocked parent must execute children instead of
// deadlocking the (bounded) pool.
std::int64_t fork_sum(ThreadPool& pool, std::int64_t lo, std::int64_t hi) {
  if (hi - lo <= 64) {
    std::int64_t s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += i;
    return s;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  std::int64_t left = 0;
  auto h = pool.submit([&] { left = fork_sum(pool, lo, mid); });
  const std::int64_t right = fork_sum(pool, mid, hi);
  pool.wait(h);
  return left + right;
}

TEST(ThreadPool, NestedForkJoinComputesCorrectSum) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(fork_sum(pool, 0, 100'000), 4'999'950'000LL) << threads;
  }
}

TEST(ThreadPool, StressManySmallTasks) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<ThreadPool::TaskHandle> handles;
    handles.reserve(200);
    for (int i = 0; i < 200; ++i)
      handles.push_back(pool.submit([&total, i] { total += i; }));
    for (const auto& h : handles) pool.wait(h);
  }
  EXPECT_EQ(total.load(), 20LL * 199 * 200 / 2);
}

TEST(ThreadPool, SharedReturnsNullForSerial) {
  EXPECT_EQ(ThreadPool::shared(0), nullptr);
  EXPECT_EQ(ThreadPool::shared(1), nullptr);
}

TEST(ThreadPool, SharedReusesAndResizes) {
  ThreadPool* a = ThreadPool::shared(2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->num_threads(), 2);
  EXPECT_EQ(ThreadPool::shared(2), a);
  ThreadPool* b = ThreadPool::shared(3);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->num_threads(), 3);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(4), 4);
  EXPECT_EQ(resolve_num_threads(1), 1);

  ::unsetenv("TAMP_PARTITION_THREADS");
  EXPECT_EQ(resolve_num_threads(0), 1);
  ::setenv("TAMP_PARTITION_THREADS", "6", 1);
  EXPECT_EQ(resolve_num_threads(0), 6);
  EXPECT_EQ(resolve_num_threads(2), 2);  // explicit request beats the env
  ::setenv("TAMP_PARTITION_THREADS", "garbage", 1);
  EXPECT_EQ(resolve_num_threads(0), 1);
  ::setenv("TAMP_PARTITION_THREADS", "0", 1);
  EXPECT_EQ(resolve_num_threads(0), 1);
  ::unsetenv("TAMP_PARTITION_THREADS");
}

TEST(ThreadPool, BackgroundTasksRunAndJoin) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<ThreadPool::TaskHandle> handles;
  for (int i = 0; i < 16; ++i)
    handles.push_back(pool.submit_background([&ran] { ++ran; }));
  for (const auto& h : handles) pool.wait(h);
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, BackgroundTaskRunsInWaitOnSingleThreadPool) {
  // No workers: wait() must pick the background task up itself.
  ThreadPool pool(1);
  bool ran = false;
  const auto h = pool.submit_background([&ran] { ran = true; });
  pool.wait(h);
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, BackgroundExceptionPropagatesOnWait) {
  ThreadPool pool(2);
  const auto h = pool.submit_background(
      [] { throw std::runtime_error("background boom"); });
  EXPECT_THROW(pool.wait(h), std::runtime_error);
}

TEST(ThreadPool, BackgroundDoesNotStarveForkJoinWork) {
  // A long-running background task must not block the fork/join class:
  // with 2 threads, one worker can sit in the background task while
  // submit()/wait() traffic keeps flowing on the other.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  const auto bg = pool.submit_background([&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  std::int64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const auto h = pool.submit([&total, i] { total += i; });
    pool.wait(h);
  }
  release.store(true, std::memory_order_release);
  pool.wait(bg);
  EXPECT_EQ(total, 99 * 100 / 2);
}

TEST(ThreadPoolStats, FreshPoolReportsNoWork) {
  // Workers may already have done an empty initial scan (steal attempts
  // are schedule-dependent), but no task can have been submitted or run.
  ThreadPool pool(2);
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_EQ(s.executed, 0u);
  EXPECT_EQ(s.steal_successes, 0u);
  EXPECT_EQ(s.max_queue_depth, 0u);
  EXPECT_EQ(s.steal_success_rate(), 0.0);
}

TEST(ThreadPoolStats, CountsSubmissionsAndExecutions) {
  ThreadPool pool(4);
  std::vector<ThreadPool::TaskHandle> handles;
  for (int i = 0; i < 64; ++i) handles.push_back(pool.submit([] {}));
  for (const auto& h : handles) pool.wait(h);
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.submitted, 64u);
  EXPECT_EQ(s.executed, 64u);
  // Every executed task was either popped locally or stolen.
  EXPECT_EQ(s.local_pops + s.steal_successes, s.executed);
  EXPECT_LE(s.steal_successes, s.steal_attempts);
  EXPECT_GE(s.max_queue_depth, 1u);
  EXPECT_GE(s.steal_success_rate(), 0.0);
  EXPECT_LE(s.steal_success_rate(), 1.0);
}

TEST(ThreadPoolStats, EveryExecutionIsAPopOrASteal) {
  // Whether the helping client drains its own deque (local pops) or the
  // workers win the race (steals from slot 0) is schedule-dependent; the
  // accounting identity is not.
  ThreadPool pool(3);
  std::vector<ThreadPool::TaskHandle> handles;
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i)
    handles.push_back(pool.submit([&ran] { ++ran; }));
  for (const auto& h : handles) pool.wait(h);
  EXPECT_EQ(ran.load(), 32);
  const ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.executed, 32u);
  EXPECT_EQ(s.local_pops + s.steal_successes, 32u);
}

TEST(ThreadPoolStats, FlightRecorderCapturesPoolEvents) {
  auto rec = std::make_shared<obs::FlightRecorder>(4, 1024);
  ThreadPool::Stats stats;
  {
    ThreadPool pool(4);
    pool.set_flight_recorder(rec);
    std::vector<ThreadPool::TaskHandle> handles;
    for (int i = 0; i < 16; ++i) handles.push_back(pool.submit([] {}));
    for (const auto& h : handles) pool.wait(h);
    stats = pool.stats();
  }  // destructor joins the workers: rings are quiescent below
  const obs::FlightSummary s = obs::summarize(*rec);
  EXPECT_EQ(s.count(obs::FlightEventKind::task_begin), 16u);
  EXPECT_EQ(s.count(obs::FlightEventKind::task_end), 16u);
  EXPECT_EQ(s.count(obs::FlightEventKind::steal_success),
            stats.steal_successes);
}

TEST(ThreadPoolStats, RecorderMustCoverEverySlot) {
  ThreadPool pool(4);
  auto small = std::make_shared<obs::FlightRecorder>(2, 64);
  EXPECT_THROW(pool.set_flight_recorder(small), precondition_error);
}

TEST(ThreadPoolStats, PublishMetricsExportsTotals) {
  ThreadPool pool(2);
  std::vector<ThreadPool::TaskHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(pool.submit([] {}));
  for (const auto& h : handles) pool.wait(h);
  pool.publish_metrics("test_pool.");
  EXPECT_EQ(obs::counter("test_pool.submitted").value(), 8);
  EXPECT_EQ(obs::counter("test_pool.executed").value(), 8);
  EXPECT_GE(obs::gauge("test_pool.queue.max_depth").value(), 1.0);
}

}  // namespace
}  // namespace tamp
