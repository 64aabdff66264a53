#include "support/thread_pool.hpp"

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

#include "support/check.hpp"

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

struct ThreadPool::Impl {
  struct Slot {
    std::mutex mutex;
    std::deque<TaskHandle> queue;
  };
  std::vector<std::unique_ptr<Slot>> slots;  ///< 0 = client, 1.. = workers
  std::vector<std::thread> workers;
  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;
  std::atomic<std::int64_t> pending{0};  ///< queued, not-yet-popped tasks
  std::atomic<std::int64_t> outstanding{0};  ///< submitted, not finished
  std::atomic<bool> stop{false};
  /// Global FIFO of submit_background() tasks, polled only after the
  /// local deque and every steal victim came up empty.
  std::mutex background_mutex;
  std::deque<TaskHandle> background;

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
  // Counted before it becomes poppable, so the count never dips below 0.
  impl_->outstanding.fetch_add(1, std::memory_order_relaxed);
  {
    Impl::Slot& s = *impl_->slots[static_cast<std::size_t>(slot)];
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.queue.push_back(task);
  }
  impl_->pending.fetch_add(1, std::memory_order_relaxed);
  impl_->sleep_cv.notify_one();
  return task;
}

ThreadPool::TaskHandle ThreadPool::submit_background(std::function<void()> fn) {
  auto task = std::make_shared<TaskState>();
  task->fn = std::move(fn);
  task->background = true;
  impl_->outstanding.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->background_mutex);
    impl_->background.push_back(task);
  }
  impl_->pending.fetch_add(1, std::memory_order_relaxed);
  impl_->sleep_cv.notify_one();
  return task;
}

bool ThreadPool::run_one(int slot, bool background) {
  // Own deque first (LIFO: depth-first on locally forked subtrees, hot
  // in cache), then steal oldest-first from the other slots.
  TaskHandle task = impl_->pop(slot, /*lifo=*/true);
  for (int i = 1; task == nullptr && i <= num_threads_; ++i)
    task = impl_->pop((slot + i) % num_threads_, /*lifo=*/false);
  // Background class last: a queued prep task only runs on a worker that
  // proved it had no fork/join work anywhere to pop or steal.
  if (task == nullptr && background) task = impl_->pop_background();
  if (task == nullptr) return false;
  run(task);
  // Leave the count before publishing completion, so a caller that
  // returns from wait() never still sees its own task as outstanding.
  impl_->outstanding.fetch_sub(1, std::memory_order_relaxed);
  publish_done(task);
  return true;
}

std::int64_t ThreadPool::outstanding() const {
  return impl_->outstanding.load(std::memory_order_relaxed);
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
