#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace tamp {

struct ThreadPool::TaskState {
  std::function<void()> fn;
  std::exception_ptr error;       ///< written before done is published
  bool background = false;        ///< submitted by submit_background()
  std::atomic<bool> done{false};  ///< release store / acquire load
  std::mutex mutex;
  std::condition_variable cv;
};

namespace {

/// Which pool (if any) owns the current thread, and its deque slot.
/// Workers of a pool push nested submissions onto their own deque;
/// threads foreign to the pool (the client) use slot 0.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_slot = 0;

void run(const ThreadPool::TaskHandle& task) {
  try {
    task->fn();
  } catch (...) {
    task->error = std::current_exception();
  }
  task->fn = nullptr;  // drop captures before publishing completion
}

void publish_done(const ThreadPool::TaskHandle& task) {
  {
    // Lock pairs with the cv wait in ThreadPool::wait so the notify
    // cannot slip between its predicate check and its sleep.
    const std::lock_guard<std::mutex> lock(task->mutex);
    task->done.store(true, std::memory_order_release);
  }
  task->cv.notify_all();
}

}  // namespace

void ScratchArena::reset() {
  for (Block& b : blocks_) b.used = 0;
  current_ = 0;
}

void* ScratchArena::raw(std::size_t bytes, std::size_t align) {
  TAMP_EXPECTS(align > 0 && (align & (align - 1)) == 0,
               "arena alignment must be a power of two");
  if (bytes == 0) bytes = 1;
  while (current_ < blocks_.size()) {
    Block& b = blocks_[current_];
    const std::size_t aligned = (b.used + align - 1) & ~(align - 1);
    if (aligned + bytes <= b.size) {
      b.used = aligned + bytes;
      return b.data.get() + aligned;
    }
    ++current_;
  }
  // No block fits: append one (64 KiB floor amortises small allocations;
  // existing blocks — and every pointer into them — stay where they are).
  constexpr std::size_t kMinBlock = 64 * 1024;
  const std::size_t size = std::max(kMinBlock, bytes + align);
  Block b;
  b.data = std::make_unique<unsigned char[]>(size);
  b.size = size;
  const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
  const std::size_t aligned =
      static_cast<std::size_t>(((base + align - 1) & ~(align - 1)) - base);
  b.used = aligned + bytes;
  reserved_ += size;
  blocks_.push_back(std::move(b));
  current_ = blocks_.size() - 1;
  return blocks_.back().data.get() + aligned;
}

struct ThreadPool::Impl {
  struct Slot {
    std::mutex mutex;
    std::deque<TaskHandle> queue;
    ScratchArena arena;  ///< owned by the thread occupying this slot
#if defined(TAMP_TRACING_ENABLED)
    // Scheduling telemetry. Each counter is written only by the thread
    // occupying this slot (relaxed increments on an owned line); stats()
    // reads them from outside.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> local_pops{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> steal_successes{0};
#endif
  };
  std::vector<std::unique_ptr<Slot>> slots;  ///< 0 = client, 1.. = workers
  std::vector<std::thread> workers;
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  std::atomic<std::int64_t> pending{0};  ///< queued, not-yet-popped tasks
  std::atomic<bool> stop{false};
  /// Global FIFO of submit_background() tasks, polled only after the
  /// local deque and every steal victim came up empty.
  std::mutex background_mutex;
  std::deque<TaskHandle> background;
#if defined(TAMP_TRACING_ENABLED)
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> background_submitted{0};
  std::atomic<std::uint64_t> max_queue_depth{0};
  // Workers read the recorder through `flight` on every dequeue while
  // the client may attach one at any time (they scan even before the
  // first submit), so the hot-path pointer is an acquire/release atomic.
  // `flight_owners` keeps every recorder ever attached alive until the
  // pool is destroyed, so a stale pointer loaded concurrently with a
  // replacement can never dangle.
  std::atomic<obs::FlightRecorder*> flight{nullptr};
  std::vector<std::shared_ptr<obs::FlightRecorder>> flight_owners;
  Stopwatch clock;  ///< flight-event timestamps, seconds since creation

  obs::FlightRing* ring(int slot) const {
    obs::FlightRecorder* rec = flight.load(std::memory_order_acquire);
    return rec != nullptr ? &rec->ring(slot) : nullptr;
  }
  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t cur = max_queue_depth.load(std::memory_order_relaxed);
    while (depth > cur && !max_queue_depth.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }
#endif

  TaskHandle pop(int slot, bool lifo) {
    Slot& s = *slots[static_cast<std::size_t>(slot)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (s.queue.empty()) return nullptr;
    TaskHandle t;
    if (lifo) {
      t = std::move(s.queue.back());
      s.queue.pop_back();
    } else {
      t = std::move(s.queue.front());
      s.queue.pop_front();
    }
    pending.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }

  TaskHandle pop_background() {
    const std::lock_guard<std::mutex> lock(background_mutex);
    if (background.empty()) return nullptr;
    TaskHandle t = std::move(background.front());
    background.pop_front();
    pending.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(std::make_unique<Impl>()), num_threads_(num_threads) {
  TAMP_EXPECTS(num_threads >= 1, "thread pool needs at least one thread");
  impl_->slots.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    impl_->slots.push_back(std::make_unique<Impl::Slot>());
  impl_->workers.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i)
    impl_->workers.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->sleep_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
}

int ThreadPool::local_slot() const { return tls_pool == this ? tls_slot : 0; }

ThreadPool::TaskHandle ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<TaskState>();
  task->fn = std::move(fn);
  const int slot = local_slot();
  {
    Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(slot)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.queue.push_back(task);
#if defined(TAMP_TRACING_ENABLED)
    impl_->note_queue_depth(static_cast<std::uint64_t>(s.queue.size()));
#endif
  }
#if defined(TAMP_TRACING_ENABLED)
  impl_->submitted.fetch_add(1, std::memory_order_relaxed);
#endif
  impl_->pending.fetch_add(1, std::memory_order_relaxed);
  impl_->sleep_cv.notify_one();
  return task;
}

ThreadPool::TaskHandle ThreadPool::submit_background(std::function<void()> fn) {
  auto task = std::make_shared<TaskState>();
  task->fn = std::move(fn);
  task->background = true;
  {
    const std::lock_guard<std::mutex> lock(impl_->background_mutex);
    impl_->background.push_back(task);
  }
#if defined(TAMP_TRACING_ENABLED)
  impl_->background_submitted.fetch_add(1, std::memory_order_relaxed);
#endif
  impl_->pending.fetch_add(1, std::memory_order_relaxed);
  impl_->sleep_cv.notify_one();
  return task;
}

bool ThreadPool::run_one(int slot, bool background) {
  // Own deque first (LIFO: depth-first on locally forked subtrees, hot
  // in cache), then steal oldest-first from the other slots.
  TaskHandle task = impl_->pop(slot, /*lifo=*/true);
#if defined(TAMP_TRACING_ENABLED)
  Impl::Slot& me = *impl_->slots[static_cast<std::size_t>(slot)];
  if (task != nullptr) me.local_pops.fetch_add(1, std::memory_order_relaxed);
  int stolen_from = -1;
#endif
  for (int i = 1; task == nullptr && i <= num_threads_; ++i) {
    const int victim = (slot + i) % num_threads_;
#if defined(TAMP_TRACING_ENABLED)
    if (victim != slot) {
      me.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      obs::FlightRing* ring = impl_->ring(slot);
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::steal_attempt,
                         impl_->clock.seconds(), victim);
    }
#endif
    task = impl_->pop(victim, /*lifo=*/false);
#if defined(TAMP_TRACING_ENABLED)
    if (task != nullptr && victim != slot) {
      me.steal_successes.fetch_add(1, std::memory_order_relaxed);
      stolen_from = victim;
    }
#endif
  }
  // Background class last: a queued prep task only runs on a worker that
  // proved it had no fork/join work anywhere to pop or steal.
  if (task == nullptr && background) task = impl_->pop_background();
  if (task == nullptr) return false;
#if defined(TAMP_TRACING_ENABLED)
  // Read the ring only now that a task is in hand: a scan that started
  // before set_flight_recorder() must still record the task it got.
  obs::FlightRing* ring = impl_->ring(slot);
  if (stolen_from >= 0)
    TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::steal_success,
                       impl_->clock.seconds(), stolen_from);
  TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::task_begin,
                     impl_->clock.seconds());
#endif
  run(task);
#if defined(TAMP_TRACING_ENABLED)
  // Count and record before publishing completion, so everything a
  // caller reads after wait() returns already includes this task.
  me.executed.fetch_add(1, std::memory_order_relaxed);
  TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::task_end,
                     impl_->clock.seconds());
#endif
  publish_done(task);
  return true;
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats out;
#if defined(TAMP_TRACING_ENABLED)
  out.submitted = impl_->submitted.load(std::memory_order_relaxed);
  out.background_submitted =
      impl_->background_submitted.load(std::memory_order_relaxed);
  out.max_queue_depth = impl_->max_queue_depth.load(std::memory_order_relaxed);
  for (const auto& slot : impl_->slots) {
    out.executed += slot->executed.load(std::memory_order_relaxed);
    out.local_pops += slot->local_pops.load(std::memory_order_relaxed);
    out.steal_attempts += slot->steal_attempts.load(std::memory_order_relaxed);
    out.steal_successes +=
        slot->steal_successes.load(std::memory_order_relaxed);
  }
#endif
  return out;
}

void ThreadPool::publish_metrics(const std::string& prefix) const {
  const Stats s = stats();
  auto set_counter = [&](const char* name, std::uint64_t v) {
    obs::Counter& c = obs::counter(prefix + name);
    c.reset();
    c.add(static_cast<std::int64_t>(v));
  };
  set_counter("submitted", s.submitted);
  set_counter("background_submitted", s.background_submitted);
  set_counter("executed", s.executed);
  set_counter("local_pops", s.local_pops);
  set_counter("steal.attempts", s.steal_attempts);
  set_counter("steal.successes", s.steal_successes);
  obs::gauge(prefix + "steal.success_rate").set(s.steal_success_rate());
  obs::gauge(prefix + "queue.max_depth")
      .set(static_cast<double>(s.max_queue_depth));
}

void ThreadPool::set_flight_recorder(
    std::shared_ptr<obs::FlightRecorder> recorder) {
#if defined(TAMP_TRACING_ENABLED)
  TAMP_EXPECTS(recorder == nullptr || recorder->num_workers() >= num_threads_,
               "flight recorder needs one ring per pool slot");
  obs::FlightRecorder* raw = recorder.get();
  if (recorder != nullptr) impl_->flight_owners.push_back(std::move(recorder));
  impl_->flight.store(raw, std::memory_order_release);
#else
  static_cast<void>(recorder);
#endif
}

ScratchArena& ThreadPool::local_arena() {
  return impl_->slots[static_cast<std::size_t>(local_slot())]->arena;
}

ScratchArena& thread_scratch_arena() {
  if (tls_pool != nullptr && tls_slot > 0) return tls_pool->local_arena();
  // Foreign threads (the client, serial paths) each get their own
  // thread-local arena — slot 0 of a pool could be raced by several
  // client threads, a thread_local cannot.
  thread_local ScratchArena arena;
  return arena;
}

void ThreadPool::worker_main(int slot) {
  tls_pool = this;
  tls_slot = slot;
  while (true) {
    if (run_one(slot, /*background=*/true)) continue;
    std::unique_lock<std::mutex> lock(impl_->sleep_mutex);
    impl_->sleep_cv.wait(lock, [this] {
      return impl_->stop.load(std::memory_order_relaxed) ||
             impl_->pending.load(std::memory_order_relaxed) > 0;
    });
    if (impl_->stop.load(std::memory_order_relaxed)) return;
  }
}

void ThreadPool::wait(const TaskHandle& handle) {
  TAMP_EXPECTS(handle != nullptr, "waiting on a null task handle");
  const int slot = local_slot();
  while (!handle->done.load(std::memory_order_acquire)) {
    if (run_one(slot, handle->background)) continue;
    // Nothing runnable: the awaited task (or one of its dependencies) is
    // executing elsewhere. Sleep briefly but wake early on completion;
    // the timeout re-arms helping in case new subtasks get forked.
    std::unique_lock<std::mutex> lock(handle->mutex);
    handle->cv.wait_for(lock, std::chrono::microseconds(200), [&] {
      return handle->done.load(std::memory_order_acquire);
    });
  }
  // Move the error out so this (waiting) thread owns the exception
  // object's lifetime: the worker's TaskHandle copy may be the last one
  // destroyed, and if it still held the exception_ptr the worker would
  // free an exception whose what() the waiter just read. That final
  // release is ordered by eh refcounting inside libstdc++ — correct, but
  // invisible to TSan (uninstrumented), and needlessly cross-thread.
  if (handle->error)
    std::rethrow_exception(std::exchange(handle->error, nullptr));
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (end <= begin) return;
  grain = grain < 1 ? 1 : grain;
  const std::int64_t nchunks = (end - begin + grain - 1) / grain;
  if (nchunks == 1) {
    body(begin, end);
    return;
  }
  std::atomic<std::int64_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto drain = [&] {
    std::int64_t c;
    while ((c = next.fetch_add(1, std::memory_order_relaxed)) < nchunks) {
      const std::int64_t cb = begin + c * grain;
      const std::int64_t ce = cb + grain < end ? cb + grain : end;
      try {
        body(cb, ce);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::int64_t max_helpers = nchunks - 1;
  const int helpers = static_cast<int>(
      num_threads_ - 1 < max_helpers ? num_threads_ - 1 : max_helpers);
  std::vector<TaskHandle> handles;
  handles.reserve(static_cast<std::size_t>(helpers));
  for (int i = 0; i < helpers; ++i) handles.push_back(submit(drain));
  drain();
  for (const TaskHandle& h : handles) wait(h);
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool* ThreadPool::shared(int num_threads) {
  if (num_threads <= 1) return nullptr;
  static std::mutex mutex;
  static std::unique_ptr<ThreadPool> pool;
  const std::lock_guard<std::mutex> lock(mutex);
  if (!pool || pool->num_threads() != num_threads)
    pool = std::make_unique<ThreadPool>(num_threads);
  return pool.get();
}

int resolve_num_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TAMP_PARTITION_THREADS")) {
    char* tail = nullptr;
    const long v = std::strtol(env, &tail, 10);
    if (tail != env && *tail == '\0' && v >= 1 && v <= 1024)
      return static_cast<int>(v);
  }
  return 1;
}

}  // namespace tamp
