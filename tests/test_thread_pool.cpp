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

TEST(ThreadPool, OutstandingCountsTasksUntilTheirBodyFinished) {
  // Both submission classes count; a task leaves the count before wait()
  // can return on it, so a joined pool reads exactly 0.
  ThreadPool pool(2);
  EXPECT_EQ(pool.outstanding(), 0);
  std::atomic<bool> release{false};
  const auto hold = [&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
  };
  const auto fork_join = pool.submit(hold);
  const auto background = pool.submit_background(hold);
  // Neither body can return before the release, wherever it runs.
  EXPECT_EQ(pool.outstanding(), 2);
  release.store(true, std::memory_order_release);
  pool.wait(fork_join);
  pool.wait(background);
  EXPECT_EQ(pool.outstanding(), 0);
}

}  // namespace
}  // namespace tamp
