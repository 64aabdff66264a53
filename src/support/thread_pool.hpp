// Work-stealing fork/join thread pool for the decomposition pipeline.
//
// The partitioner sits on the production critical path (temporal levels
// evolve → repartition), yet the multilevel algorithms are recursive and
// irregular: recursive bisection forks two independent subtrees of very
// different sizes, and each bisection contains data-parallel hot loops
// (subgraph extraction, CSR contraction, balance accounting). This pool
// serves both shapes with one mechanism:
//
//  * fork/join — submit() pushes a task onto the calling worker's own
//    deque (LIFO for the owner, FIFO for thieves, Cilk-style); wait()
//    *helps*: while the awaited task is unfinished the waiting thread
//    pops/steals and executes other tasks, so nested fork/join never
//    deadlocks and never idles a core;
//  * parallel_for — splits [begin, end) into fixed `grain`-sized chunks
//    claimed dynamically from an atomic cursor. Chunk boundaries depend
//    only on (begin, end, grain) — never on the thread count or
//    schedule — so chunk-indexed partial results are deterministic.
//
// Thread-safety / TSan: every queue is guarded by its own mutex (no
// lock-free deques — this pool favours being provably clean under
// ThreadSanitizer over shaving nanoseconds off steals; tasks here are
// whole bisections, microseconds at minimum). Task completion is
// published with a release store observed by an acquire load in wait().
// The pool keeps no scheduling telemetry; its one counter,
// outstanding(), is the leak check of the pipeline's fault tests.
//
// Determinism contract: the pool never makes scheduling guarantees, so
// any caller that needs bit-identical results must make every task's
// *output* independent of execution order (disjoint output slots,
// per-task RNG streams). The partitioner does exactly that — see
// DESIGN.md "Parallel decomposition".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace tamp {

class ThreadPool {
public:
  /// Total worker count, including the calling thread: `num_threads - 1`
  /// OS threads are spawned and the caller contributes whenever it waits.
  /// num_threads == 1 spawns nothing; submitted work runs in wait().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  struct TaskState;  // opaque; completion flag + captured exception
  using TaskHandle = std::shared_ptr<TaskState>;

  /// Fork: enqueue `fn` for execution by any worker. The returned handle
  /// must be passed to wait() before any reference captured by `fn`
  /// leaves scope.
  TaskHandle submit(std::function<void()> fn);

  /// Second submission class for long-lived, latency-insensitive work
  /// (the asynchronous pipeline's prep stages). Background tasks sit in
  /// one global FIFO that a worker polls only after its own deque *and*
  /// every steal attempt came up empty, so a queued prep task can never
  /// starve the fork/join work the solve path depends on. Join with the
  /// same wait() (which helps, and will run the background task itself
  /// if nothing else does). Waiting on a fork/join task never picks up a
  /// background task: one that blocks on the waiter would deadlock.
  TaskHandle submit_background(std::function<void()> fn);

  /// Join: execute queued tasks until `handle` completes, then rethrow
  /// the task's exception if it threw.
  void wait(const TaskHandle& handle);

  /// Run body(chunk_begin, chunk_end) over [begin, end) in grain-sized
  /// chunks across the pool; the caller participates. Rethrows the first
  /// body exception after all chunks finish. Chunk c covers
  /// [begin + c*grain, min(end, begin + (c+1)*grain)) regardless of
  /// thread count, so per-chunk partials indexed by (chunk_begin - begin)
  /// / grain are schedule-independent.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Process-wide pool shared by the decomposition pipeline. Returns
  /// nullptr for num_threads <= 1 (serial — callers use the pool-less
  /// path). Re-sizing tears down and respawns the pool; callers must not
  /// have work in flight when asking for a different size.
  static ThreadPool* shared(int num_threads);

  /// Tasks submitted (either class) whose body has not finished yet. A
  /// task leaves the count before its completion is published, so once
  /// every handle has been waited on this reads 0; a non-zero value then
  /// means a task was queued and never joined.
  [[nodiscard]] std::int64_t outstanding() const;

private:
  struct Impl;
  void worker_main(int slot);
  /// Run one queued task; background tasks only when `background`.
  bool run_one(int slot, bool background);
  [[nodiscard]] int local_slot() const;

  std::unique_ptr<Impl> impl_;
  int num_threads_ = 1;
};

/// Resolve a thread-count knob: `requested` > 0 wins; 0 consults the
/// TAMP_PARTITION_THREADS environment variable; unset/invalid means 1
/// (serial — today's behaviour, bit-identical by construction).
int resolve_num_threads(int requested);

/// parallel_for that degrades to an inline call when `pool` is null —
/// the serial path stays free of any pool machinery.
inline void parallel_for(
    ThreadPool* pool, std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (pool == nullptr) {
    if (end > begin) body(begin, end);
    return;
  }
  pool->parallel_for(begin, end, grain, body);
}

}  // namespace tamp
