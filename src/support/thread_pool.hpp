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
//
// Determinism contract: the pool never makes scheduling guarantees, so
// any caller that needs bit-identical results must make every task's
// *output* independent of execution order (disjoint output slots,
// per-task RNG streams). The partitioner does exactly that — see
// DESIGN.md "Parallel decomposition".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace tamp {

namespace obs {
class FlightRecorder;
}

/// Grow-only bump allocator for task-scoped scratch memory. One arena
/// belongs to one thread at a time (the pool keeps one per worker slot);
/// alloc() bumps within pre-reserved blocks, reset() rewinds every block
/// without releasing memory, so a task that runs every iteration stops
/// paying allocator traffic after its first execution. Addresses handed
/// out since the last reset() stay valid until the next reset() — growth
/// appends blocks, it never reallocates one.
///
/// Not thread-safe; an arena use (alloc … last read) must not span a
/// submit()/wait() boundary, because a helping wait() can run another
/// task on this thread that resets or bumps the same arena.
class ScratchArena {
public:
  /// Rewind every block to empty; capacity is retained.
  void reset();

  /// `count` default-constructible, trivially-destructible Ts. The
  /// memory is uninitialised.
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    return static_cast<T*>(raw(count * sizeof(T), alignof(T)));
  }

  /// Raw aligned bytes (alloc<T> in terms of this).
  void* raw(std::size_t bytes, std::size_t align);

  /// Total bytes reserved across all blocks (monotone; telemetry).
  [[nodiscard]] std::size_t bytes_reserved() const { return reserved_; }

private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t reserved_ = 0;
};

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

  /// Lifetime telemetry of the pool's scheduling behaviour. Counters are
  /// maintained with per-slot relaxed atomics (each worker touches only
  /// its own cache line) when instrumentation is compiled in; with
  /// TAMP_ENABLE_TRACING=OFF every field reads 0.
  struct Stats {
    std::uint64_t submitted = 0;        ///< tasks pushed via submit()
    std::uint64_t background_submitted = 0;  ///< via submit_background()
    std::uint64_t executed = 0;         ///< tasks run to completion
    std::uint64_t local_pops = 0;       ///< LIFO pops from the own deque
    std::uint64_t steal_attempts = 0;   ///< foreign-deque probes
    std::uint64_t steal_successes = 0;  ///< probes that yielded a task
    std::uint64_t max_queue_depth = 0;  ///< deepest single deque observed

    /// Fraction of steal probes that found work (0 when none attempted).
    [[nodiscard]] double steal_success_rate() const {
      return steal_attempts > 0
                 ? static_cast<double>(steal_successes) /
                       static_cast<double>(steal_attempts)
                 : 0.0;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Publish stats() into the global metrics registry under `prefix`
  /// (counters pool.submitted/executed/local_pops/steal.attempts/
  /// steal.successes are *set* to the lifetime totals; gauges
  /// pool.steal.success_rate and pool.queue.max_depth).
  void publish_metrics(const std::string& prefix = "pool.") const;

  /// Attach a flight recorder with one ring per pool slot (slot 0 = the
  /// client thread); pass nullptr to detach. Workers then record
  /// task_begin/task_end, steal_attempt/steal_success events. Safe to
  /// call while workers are scanning (every recorder ever attached stays
  /// alive until the pool is destroyed), but the rings must only be
  /// *read* once the pool is quiescent. No-op when instrumentation is
  /// compiled out.
  void set_flight_recorder(std::shared_ptr<obs::FlightRecorder> recorder);

  /// Scratch arena of the calling thread's pool slot (per-worker; slot 0
  /// belongs to the client thread). See ScratchArena for the ownership
  /// rules — in particular, do not let a use span a wait().
  [[nodiscard]] ScratchArena& local_arena();

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

/// The calling thread's scratch arena: the per-slot arena of the pool
/// the thread works for, or a thread-local fallback for threads outside
/// any pool (the serial pipeline path, test drivers). Same ownership
/// rules as ScratchArena.
[[nodiscard]] ScratchArena& thread_scratch_arena();

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
