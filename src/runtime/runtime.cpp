#include "runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/perf_report.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace tamp::runtime {

double ExecutionReport::total_busy_seconds() const {
  double busy = 0;
  for (const Span& s : spans) busy += s.end - s.start;
  return busy;
}

bool ExecutionReport::has_capacity() const {
  return wall_seconds > 0 && num_processes > 0 && workers_per_process > 0;
}

double ExecutionReport::occupancy() const {
  // No capacity (default report, zero wall clock) is not the same thing
  // as "every worker sat idle": NaN forces callers to check
  // has_capacity() instead of reading a silent 0.
  if (!has_capacity()) return std::numeric_limits<double>::quiet_NaN();
  return total_busy_seconds() /
         (wall_seconds * static_cast<double>(num_processes) *
          static_cast<double>(workers_per_process));
}

namespace {

/// Shared ready queue of one emulated process.
struct ProcessQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<index_t> ready;
};

}  // namespace

PreparedGraph prepare_execution(const taskgraph::TaskGraph& graph,
                                const std::vector<part_t>& domain_to_process,
                                part_t num_processes) {
  TAMP_EXPECTS(num_processes >= 1, "need at least one process");
  const index_t n = graph.num_tasks();
  PreparedGraph prepared;
  prepared.num_processes = num_processes;
  prepared.process_of.resize(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) {
    const part_t d = graph.task(t).domain;
    TAMP_EXPECTS(static_cast<std::size_t>(d) < domain_to_process.size(),
                 "task domain outside process map");
    const part_t p = domain_to_process[static_cast<std::size_t>(d)];
    TAMP_EXPECTS(p >= 0 && p < num_processes, "process id out of range");
    prepared.process_of[static_cast<std::size_t>(t)] = p;
  }
  prepared.initial_pending.resize(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t)
    prepared.initial_pending[static_cast<std::size_t>(t)] =
        static_cast<index_t>(graph.predecessors(t).size());
  return prepared;
}

ExecutionReport execute(const taskgraph::TaskGraph& graph,
                        const std::vector<part_t>& domain_to_process,
                        const RuntimeConfig& config, const TaskBody& body) {
  return execute(
      graph, prepare_execution(graph, domain_to_process, config.num_processes),
      config, body);
}

ExecutionReport execute(const taskgraph::TaskGraph& graph,
                        const PreparedGraph& prepared,
                        const RuntimeConfig& config, const TaskBody& body) {
  TAMP_EXPECTS(config.num_processes >= 1, "need at least one process");
  TAMP_EXPECTS(config.workers_per_process >= 1, "need at least one worker");
  TAMP_EXPECTS(config.adversarial.max_delay_seconds >= 0,
               "negative adversarial delay");
  TAMP_EXPECTS(prepared.num_processes == config.num_processes,
               "prepared graph was derived for a different process count");
  TAMP_TRACE_SCOPE("runtime/execute");
  const index_t n = graph.num_tasks();
  TAMP_EXPECTS(
      prepared.process_of.size() == static_cast<std::size_t>(n) &&
          prepared.initial_pending.size() == static_cast<std::size_t>(n),
      "prepared graph does not match the task graph");
  const std::vector<part_t>& process_of = prepared.process_of;

  std::vector<std::atomic<index_t>> pending(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t)
    pending[static_cast<std::size_t>(t)].store(
        prepared.initial_pending[static_cast<std::size_t>(t)],
        std::memory_order_relaxed);

  std::vector<ProcessQueue> queues(
      static_cast<std::size_t>(config.num_processes));
  std::atomic<index_t> remaining{n};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  ExecutionReport report;
  report.num_processes = config.num_processes;
  report.workers_per_process = config.workers_per_process;
  report.spans.assign(static_cast<std::size_t>(n), ExecutionReport::Span{});

  // Flight recorder: one bounded ring per worker, owned exclusively by
  // that worker while threads run, read after the join below. Null when
  // recording is off.
  std::shared_ptr<obs::FlightRecorder> recorder;
  if (config.flight.enabled)
    recorder = std::make_shared<obs::FlightRecorder>(
        static_cast<int>(config.num_processes) * config.workers_per_process,
        config.flight.ring_capacity);

  // Perf attribution: each worker owns a per-thread counter group and
  // writes only its own tasks' slots in per_task plus its own tier/valid
  // slot, so no synchronisation is needed beyond the join below. The
  // TAMP_PERF env ceiling composes with the config ceiling so scripts
  // can force the fallback path without code changes.
  const obs::PerfTier perf_ceiling =
      config.perf.enabled
          ? std::min(config.perf.max_tier, obs::requested_perf_tier())
          : obs::PerfTier::unavailable;
  const bool perf_on = perf_ceiling != obs::PerfTier::unavailable;
  const std::size_t num_worker_slots =
      static_cast<std::size_t>(config.num_processes) *
      static_cast<std::size_t>(config.workers_per_process);
  std::vector<obs::PerfTier> worker_tier;
  std::vector<std::array<bool, obs::kNumPerfCounters>> worker_valid;
  if (perf_on) {
    report.perf.per_task.assign(static_cast<std::size_t>(n),
                                obs::PerfDelta{});
    worker_tier.assign(num_worker_slots, obs::PerfTier::unavailable);
    worker_valid.assign(num_worker_slots, {});
  }

  const Stopwatch clock;

  auto push_ready = [&](index_t t) {
    ProcessQueue& q = queues[static_cast<std::size_t>(
        process_of[static_cast<std::size_t>(t)])];
    {
      const std::lock_guard<std::mutex> lock(q.mutex);
      q.ready.push_back(t);
    }
    q.cv.notify_one();
  };

  // Wake every worker once `remaining` or `failed` has changed. Waiters
  // evaluate their predicate under their queue's mutex, so taking that
  // mutex before notifying means no waiter can sit between a stale check
  // and its sleep and miss the wake-up.
  auto wake_all = [&] {
    for (auto& pq : queues) {
      const std::lock_guard<std::mutex> lock(pq.mutex);
      pq.cv.notify_all();
    }
  };

  for (index_t t = 0; t < n; ++t)
    if (pending[static_cast<std::size_t>(t)].load(std::memory_order_relaxed) ==
        0)
      push_ready(t);

  const AdversarialSchedule& adv = config.adversarial;

  auto worker_main = [&](part_t p, int w) {
    ProcessQueue& q = queues[static_cast<std::size_t>(p)];
    obs::FlightRing* ring = nullptr;
    if (recorder)
      ring = &recorder->ring(static_cast<int>(p) * config.workers_per_process +
                             w);
    // The group must be opened on this thread (perf counts the calling
    // thread); record the tier actually granted so the report can take
    // the weakest across workers.
    std::optional<obs::PerfGroup> perf;
    if (perf_on) {
      perf.emplace(perf_ceiling);
      const std::size_t slot =
          static_cast<std::size_t>(p) *
              static_cast<std::size_t>(config.workers_per_process) +
          static_cast<std::size_t>(w);
      worker_tier[slot] = perf->tier();
      worker_valid[slot] = perf->counter_valid();
    }
    // Per-worker stream: the schedule explored depends only on
    // (seed, process, worker), never on thread start-up order.
    Rng rng(mix_seed(adv.seed, static_cast<std::uint64_t>(p),
                     static_cast<std::uint64_t>(w)));
    while (true) {
      index_t t = invalid_index;
      std::size_t depth_after = 0;
      // The idle interval covers the cv wait plus the dequeue — exactly
      // what the runtime/idle trace span covers, so the two timelines
      // agree on where gaps are.
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::idle_begin,
                         clock.seconds());
      {
        // Spans the cv wait plus the dequeue: on the timeline, every gap
        // between runtime/task spans shows up as runtime/idle.
        TAMP_TRACE_SCOPE("runtime/idle");
        std::unique_lock<std::mutex> lock(q.mutex);
        q.cv.wait(lock, [&] {
          return !q.ready.empty() ||
                 remaining.load(std::memory_order_acquire) == 0 ||
                 failed.load(std::memory_order_acquire);
        });
        if (failed.load(std::memory_order_acquire) || q.ready.empty()) {
          // Done (or aborting): close the idle interval so every
          // idle_begin has a matching idle_end in the ring.
          lock.unlock();
          TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::idle_end,
                             clock.seconds());
          return;
        }
        if (adv.enabled) {
          const auto pick = static_cast<std::size_t>(
              rng.below(static_cast<std::uint64_t>(q.ready.size())));
          t = q.ready[pick];
          q.ready.erase(q.ready.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          t = q.ready.front();
          q.ready.pop_front();
        }
        depth_after = q.ready.size();
      }
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::idle_end,
                         clock.seconds());
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::task_dequeue,
                         clock.seconds(), static_cast<std::int64_t>(t),
                         static_cast<std::int64_t>(depth_after));
      if (adv.enabled && adv.max_delay_seconds > 0) {
        // Jitter before the span starts: the delay reads as idle time,
        // not as task work, so occupancy stays honest.
        std::this_thread::sleep_for(std::chrono::duration<double>(
            rng.uniform(0.0, adv.max_delay_seconds)));
      }

      ExecutionReport::Span& span = report.spans[static_cast<std::size_t>(t)];
      span.process = p;
      span.worker = w;
      // Bracket the body as tightly as possible: the read costs one
      // syscall (~1 µs), so attribution noise stays far below any task
      // worth attributing.
      obs::PerfSample perf_begin;
      const bool perf_have = perf && perf->read(perf_begin);
      span.start = clock.seconds();
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::task_begin, span.start,
                         static_cast<std::int64_t>(t));
      try {
        TAMP_TRACE_SCOPE("runtime/task");
        body(t);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
        // Unblock everyone; the graph will not complete.
        wake_all();
        return;
      }
      span.end = clock.seconds();
      TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::task_end, span.end,
                         static_cast<std::int64_t>(t));
      if (perf_have) {
        obs::PerfSample perf_end;
        if (perf->read(perf_end))
          report.perf.per_task[static_cast<std::size_t>(t)] =
              obs::perf_delta(perf_begin, perf_end);
      }

      for (const index_t s : graph.successors(t)) {
        if (pending[static_cast<std::size_t>(s)].fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          // The release timestamp is when the last predecessor's worker
          // made `s` runnable — the measured analogue of the simulator's
          // dependency-arrival instant.
          TAMP_FLIGHT_RECORD(ring, obs::FlightEventKind::dep_release,
                             clock.seconds(), static_cast<std::int64_t>(s),
                             static_cast<std::int64_t>(t));
          push_ready(s);
        }
      }
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        wake_all();
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.num_processes) *
                  static_cast<std::size_t>(config.workers_per_process));
  for (part_t p = 0; p < config.num_processes; ++p)
    for (int w = 0; w < config.workers_per_process; ++w)
      threads.emplace_back(worker_main, p, w);
  for (auto& th : threads) th.join();

  if (failed.load()) std::rethrow_exception(first_error);
  TAMP_ENSURE(remaining.load() == 0, "runtime finished with pending tasks");
  report.wall_seconds = clock.seconds();
  report.flight = recorder;  // joined threads published every ring
  if (perf_on) {
    // The run is only as attributable as its least-privileged worker:
    // weakest tier wins, and a counter must have opened on every worker
    // to stay valid (otherwise per-class sums would silently mix
    // populations).
    report.perf.tier = obs::PerfTier::hardware;
    report.perf.counter_valid.fill(true);
    for (std::size_t s = 0; s < num_worker_slots; ++s) {
      report.perf.tier = std::min(report.perf.tier, worker_tier[s]);
      for (std::size_t c = 0;
           c < static_cast<std::size_t>(obs::kNumPerfCounters); ++c)
        report.perf.counter_valid[c] =
            report.perf.counter_valid[c] && worker_valid[s][c];
    }
    if (report.perf.tier != obs::PerfTier::hardware)
      report.perf.counter_valid.fill(false);
    if (report.perf.tier == obs::PerfTier::unavailable)
      report.perf.per_task.clear();
  }
  return report;
}

TaskBody make_synthetic_body(const taskgraph::TaskGraph& graph,
                             double seconds_per_unit) {
  TAMP_EXPECTS(seconds_per_unit >= 0, "negative spin factor");
  return [&graph, seconds_per_unit](index_t t) {
    const double budget = graph.task(t).cost * seconds_per_unit;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(budget));
    // Busy spin: emulates a compute kernel without memory traffic.
    volatile double sink = 0.0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 64; ++i) sink = sink + 1e-9;
    }
  };
}

void publish_execution_metrics(const taskgraph::TaskGraph& graph,
                               const ExecutionReport& report) {
  TAMP_EXPECTS(
      report.spans.size() == static_cast<std::size_t>(graph.num_tasks()),
      "execution report does not match the task graph");
  obs::gauge("runtime.wall_seconds").set(report.wall_seconds);
  obs::gauge("runtime.occupancy")
      .set(report.has_capacity() ? report.occupancy() : 0.0);
  obs::gauge("runtime.worker.busy_seconds").set(report.total_busy_seconds());

  obs::Histogram& all = obs::histogram("runtime.task_seconds");
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const ExecutionReport::Span& s = report.spans[static_cast<std::size_t>(t)];
    const double d = s.end - s.start;
    all.record(d);
    // Per-(process × subiteration) latency distribution: the measured
    // counterpart of the doctor's blame grid, addressable by tamp-report
    // as histograms.runtime.task_seconds.p<P>.s<S>.p99 and friends.
    obs::histogram("runtime.task_seconds.p" + std::to_string(s.process) +
                   ".s" + std::to_string(graph.task(t).subiteration))
        .record(d);
  }

  // publish_perf_metrics gates on live() internally, so a clock-only or
  // perf-off run contributes no perf.* keys here.
  publish_perf_metrics(aggregate_perf(graph, report));

  if (!report.flight) return;
  const obs::FlightSummary fs = obs::summarize(*report.flight);
  obs::counter("runtime.flight.events")
      .add(static_cast<std::int64_t>(fs.events));
  obs::counter("runtime.flight.dropped")
      .add(static_cast<std::int64_t>(fs.dropped));
  obs::gauge("runtime.flight.idle_seconds").set(fs.idle_seconds);
  obs::Histogram& depth = obs::histogram("runtime.queue.depth");
  obs::Histogram& latency = obs::histogram("runtime.dequeue_latency_seconds");
  for (int w = 0; w < report.flight->num_workers(); ++w) {
    double dequeue_t = -1;
    std::int64_t dequeue_task = -1;
    for (const obs::FlightEvent& ev : report.flight->ring(w).events()) {
      if (ev.kind == obs::FlightEventKind::task_dequeue) {
        depth.record(static_cast<double>(ev.b));
        dequeue_t = ev.t_seconds;
        dequeue_task = ev.a;
      } else if (ev.kind == obs::FlightEventKind::task_begin &&
                 ev.a == dequeue_task && dequeue_t >= 0) {
        latency.record(ev.t_seconds - dequeue_t);
        dequeue_task = -1;
      }
    }
  }
}

}  // namespace tamp::runtime
