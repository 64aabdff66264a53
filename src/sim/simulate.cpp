#include "sim/simulate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace tamp::sim {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::eager_fifo: return "eager_fifo";
    case Policy::eager_lifo: return "eager_lifo";
    case Policy::critical_path: return "critical_path";
    case Policy::random_order: return "random";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "eager_fifo" || name == "eager") return Policy::eager_fifo;
  if (name == "eager_lifo" || name == "lifo") return Policy::eager_lifo;
  if (name == "critical_path" || name == "cp") return Policy::critical_path;
  if (name == "random" || name == "random_order") return Policy::random_order;
  throw precondition_error("unknown scheduling policy: " + name);
}

double SimResult::occupancy() const {
  if (makespan <= 0) return 0.0;
  simtime_t busy = 0;
  double capacity = 0;
  for (part_t p = 0; p < num_processes; ++p) {
    busy += busy_per_process[static_cast<std::size_t>(p)];
    capacity += static_cast<double>(workers_used[static_cast<std::size_t>(p)]) *
                makespan;
  }
  return capacity > 0 ? busy / capacity : 0.0;
}

double SimResult::idle_fraction(part_t p) const {
  TAMP_EXPECTS(p >= 0 && p < num_processes, "process index out of range");
  const double capacity =
      static_cast<double>(workers_used[static_cast<std::size_t>(p)]) * makespan;
  if (capacity <= 0) return 0.0;
  return 1.0 - busy_per_process[static_cast<std::size_t>(p)] / capacity;
}

GanttTrace SimResult::gantt(const taskgraph::TaskGraph& graph, bool per_worker,
                            const std::string& title) const {
  TAMP_EXPECTS(timing.size() == static_cast<std::size_t>(graph.num_tasks()),
               "result does not match the task graph");
  GanttTrace trace;
  trace.title = title;
  trace.makespan = makespan;

  if (per_worker) {
    // Row layout: workers grouped by process.
    std::vector<int> row_base(static_cast<std::size_t>(num_processes) + 1, 0);
    for (part_t p = 0; p < num_processes; ++p)
      row_base[static_cast<std::size_t>(p) + 1] =
          row_base[static_cast<std::size_t>(p)] +
          workers_used[static_cast<std::size_t>(p)];
    trace.resource_names.resize(static_cast<std::size_t>(row_base.back()));
    for (part_t p = 0; p < num_processes; ++p)
      for (int w = 0; w < workers_used[static_cast<std::size_t>(p)]; ++w)
        trace.resource_names[static_cast<std::size_t>(
            row_base[static_cast<std::size_t>(p)] + w)] =
            "p" + std::to_string(p) + ".w" + std::to_string(w);
    for (index_t t = 0; t < graph.num_tasks(); ++t) {
      const TaskTiming& tt = timing[static_cast<std::size_t>(t)];
      GanttSpan span;
      span.resource = row_base[static_cast<std::size_t>(tt.process)] + tt.worker;
      span.start = tt.start;
      span.end = tt.end;
      span.category = static_cast<int>(graph.task(t).subiteration);
      span.label = graph.task(t).label();
      trace.spans.push_back(span);
    }
    return trace;
  }

  // Aggregated per-process rows: merge each process's busy intervals (a
  // process is "active" when at least one worker is).
  trace.resource_names.resize(static_cast<std::size_t>(num_processes));
  for (part_t p = 0; p < num_processes; ++p)
    trace.resource_names[static_cast<std::size_t>(p)] =
        "proc" + std::to_string(p);
  // Collect spans per process sorted by start, then merge-and-emit with
  // the dominant subiteration as the colour.
  std::vector<std::vector<index_t>> by_proc(
      static_cast<std::size_t>(num_processes));
  for (index_t t = 0; t < graph.num_tasks(); ++t)
    by_proc[static_cast<std::size_t>(timing[static_cast<std::size_t>(t)].process)]
        .push_back(t);
  for (part_t p = 0; p < num_processes; ++p) {
    auto& list = by_proc[static_cast<std::size_t>(p)];
    std::sort(list.begin(), list.end(), [&](index_t a, index_t b) {
      return timing[static_cast<std::size_t>(a)].start <
             timing[static_cast<std::size_t>(b)].start;
    });
    simtime_t cur_start = 0, cur_end = -1;
    int cur_cat = 0;
    for (const index_t t : list) {
      const TaskTiming& tt = timing[static_cast<std::size_t>(t)];
      if (tt.start > cur_end) {  // gap → flush
        if (cur_end > cur_start)
          trace.spans.push_back(
              {p, cur_start, cur_end, cur_cat, std::string{}});
        cur_start = tt.start;
        cur_end = tt.end;
        cur_cat = static_cast<int>(graph.task(t).subiteration);
      } else {
        cur_end = std::max(cur_end, tt.end);
      }
    }
    if (cur_end > cur_start)
      trace.spans.push_back({p, cur_start, cur_end, cur_cat, std::string{}});
  }
  return trace;
}

namespace {

/// Ready-task ordering key per policy (higher = scheduled first).
struct ReadyEntry {
  double priority;
  std::uint64_t sequence;  // tie-break: FIFO on insertion
  index_t task;

  bool operator<(const ReadyEntry& other) const {
    // std::priority_queue is a max-heap; earlier sequence wins ties.
    if (priority != other.priority) return priority < other.priority;
    return sequence > other.sequence;
  }
};

/// Completion / future-readiness events.
struct Event {
  simtime_t time;
  int kind;  // 0 = task completion, 1 = task becomes ready (comm delay)
  index_t task;

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return task > other.task;
  }
};

}  // namespace

SimResult simulate(const taskgraph::TaskGraph& graph,
                   const std::vector<part_t>& domain_to_process,
                   const SimOptions& opts) {
  const index_t n = graph.num_tasks();
  const part_t nproc = opts.cluster.num_processes;
  TAMP_EXPECTS(nproc >= 1, "need at least one process");
  TAMP_TRACE_SCOPE("sim/simulate");

  // Pin tasks to processes.
  std::vector<part_t> process_of(static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) {
    const part_t d = graph.task(t).domain;
    TAMP_EXPECTS(static_cast<std::size_t>(d) < domain_to_process.size(),
                 "task domain outside process map");
    const part_t p = domain_to_process[static_cast<std::size_t>(d)];
    TAMP_EXPECTS(p >= 0 && p < nproc, "process id out of range");
    process_of[static_cast<std::size_t>(t)] = p;
  }

  // Priorities.
  std::vector<double> priority(static_cast<std::size_t>(n), 0.0);
  Rng rng(opts.seed);
  switch (opts.policy) {
    case Policy::eager_fifo:
      break;  // all zero: FIFO by sequence
    case Policy::eager_lifo:
      // handled via sequence sign below (later = higher priority).
      break;
    case Policy::critical_path: {
      // Upward rank: cost + max over successors.
      const auto order = graph.topological_order();
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const index_t t = *it;
        double rank = 0.0;
        for (const index_t s : graph.successors(t))
          rank = std::max(rank, priority[static_cast<std::size_t>(s)]);
        priority[static_cast<std::size_t>(t)] = rank + graph.task(t).cost;
      }
      break;
    }
    case Policy::random_order:
      for (index_t t = 0; t < n; ++t)
        priority[static_cast<std::size_t>(t)] = rng.uniform();
      break;
  }

  // Per-process scheduling state.
  std::vector<std::priority_queue<ReadyEntry>> ready(
      static_cast<std::size_t>(nproc));
  // Free worker ids, smallest first (stable Gantt rows); `spawned` tracks
  // how many workers exist so unbounded mode can grow on demand.
  std::vector<std::set<int>> free_workers(static_cast<std::size_t>(nproc));
  std::vector<int> spawned(static_cast<std::size_t>(nproc), 0);
  if (!opts.cluster.unbounded()) {
    for (part_t p = 0; p < nproc; ++p) {
      for (int w = 0; w < opts.cluster.workers_per_process; ++w)
        free_workers[static_cast<std::size_t>(p)].insert(w);
      spawned[static_cast<std::size_t>(p)] = opts.cluster.workers_per_process;
    }
  }

  std::vector<index_t> pending(static_cast<std::size_t>(n));
  std::vector<simtime_t> ready_time(static_cast<std::size_t>(n), 0.0);
  std::vector<int> worker_of(static_cast<std::size_t>(n), -1);

  SimResult result;
  result.num_processes = nproc;
  result.timing.assign(static_cast<std::size_t>(n), TaskTiming{});
  result.busy_per_process.assign(static_cast<std::size_t>(nproc), 0.0);
  std::vector<int> peak_workers(static_cast<std::size_t>(nproc), 0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t sequence = 0;

  auto enqueue_ready = [&](index_t t, simtime_t when, simtime_t now) {
    if (when > now) {
      events.push({when, 1, t});
      return;
    }
    const part_t p = process_of[static_cast<std::size_t>(t)];
    double prio = priority[static_cast<std::size_t>(t)];
    if (opts.policy == Policy::eager_lifo)
      prio = static_cast<double>(sequence);
    ready[static_cast<std::size_t>(p)].push({prio, sequence++, t});
  };

  auto dispatch = [&](part_t p, simtime_t now) {
    auto& rq = ready[static_cast<std::size_t>(p)];
    auto& fw = free_workers[static_cast<std::size_t>(p)];
    while (!rq.empty()) {
      int worker = -1;
      if (opts.cluster.unbounded()) {
        if (fw.empty()) {
          worker = spawned[static_cast<std::size_t>(p)]++;
        } else {
          worker = *fw.begin();
          fw.erase(fw.begin());
        }
      } else {
        if (fw.empty()) break;
        worker = *fw.begin();
        fw.erase(fw.begin());
      }
      const index_t t = rq.top().task;
      rq.pop();
      const simtime_t duration = graph.task(t).cost + opts.task_overhead;
      const simtime_t end = now + duration;
      result.timing[static_cast<std::size_t>(t)] = {now, end, p, worker};
      worker_of[static_cast<std::size_t>(t)] = worker;
      peak_workers[static_cast<std::size_t>(p)] = std::max(
          peak_workers[static_cast<std::size_t>(p)], worker + 1);
      result.busy_per_process[static_cast<std::size_t>(p)] += duration;
      events.push({end, 0, t});
    }
  };

  index_t peak_depth = 0;
  auto sample_queue_depth = [&](part_t p, simtime_t when) {
    const auto depth =
        static_cast<index_t>(ready[static_cast<std::size_t>(p)].size());
    peak_depth = std::max(peak_depth, depth);
    result.queue_depth.push_back({when, p, depth});
  };

  // Seed initial ready tasks.
  for (index_t t = 0; t < n; ++t) {
    pending[static_cast<std::size_t>(t)] =
        static_cast<index_t>(graph.predecessors(t).size());
    if (pending[static_cast<std::size_t>(t)] == 0) enqueue_ready(t, 0.0, 0.0);
  }
  for (part_t p = 0; p < nproc; ++p) {
    dispatch(p, 0.0);
    sample_queue_depth(p, 0.0);
  }

  simtime_t now = 0.0;
  index_t completed = 0;
  std::vector<part_t> touched_procs;
  while (!events.empty()) {
    now = events.top().time;
    touched_procs.clear();
    // Drain all events at `now` before dispatching, so simultaneous
    // completions compete fairly for workers.
    while (!events.empty() && events.top().time == now) {
      const Event e = events.top();
      events.pop();
      if (e.kind == 0) {
        // Completion: release the worker and unlock successors.
        ++completed;
        const part_t p = process_of[static_cast<std::size_t>(e.task)];
        free_workers[static_cast<std::size_t>(p)].insert(
            worker_of[static_cast<std::size_t>(e.task)]);
        touched_procs.push_back(p);
        for (const index_t s : graph.successors(e.task)) {
          simtime_t arrival = now;
          if (opts.comm.enabled() &&
              process_of[static_cast<std::size_t>(s)] != p) {
            arrival += opts.comm.latency +
                       opts.comm.per_object *
                           static_cast<simtime_t>(graph.task(e.task).num_objects);
          }
          ready_time[static_cast<std::size_t>(s)] =
              std::max(ready_time[static_cast<std::size_t>(s)], arrival);
          if (--pending[static_cast<std::size_t>(s)] == 0) {
            enqueue_ready(s, ready_time[static_cast<std::size_t>(s)], now);
            touched_procs.push_back(process_of[static_cast<std::size_t>(s)]);
          }
        }
      } else {
        // Deferred readiness reached its time.
        const part_t p = process_of[static_cast<std::size_t>(e.task)];
        double prio = priority[static_cast<std::size_t>(e.task)];
        if (opts.policy == Policy::eager_lifo)
          prio = static_cast<double>(sequence);
        ready[static_cast<std::size_t>(p)].push({prio, sequence++, e.task});
        touched_procs.push_back(p);
      }
    }
    std::sort(touched_procs.begin(), touched_procs.end());
    touched_procs.erase(std::unique(touched_procs.begin(), touched_procs.end()),
                        touched_procs.end());
    for (const part_t p : touched_procs) {
      dispatch(p, now);
      sample_queue_depth(p, now);
    }
  }
  TAMP_ENSURE(completed == n, "simulation deadlocked (cycle or lost event)");

  result.makespan = now;
  result.workers_used.assign(static_cast<std::size_t>(nproc), 0);
  for (part_t p = 0; p < nproc; ++p)
    result.workers_used[static_cast<std::size_t>(p)] =
        opts.cluster.unbounded()
            ? std::max(peak_workers[static_cast<std::size_t>(p)], 1)
            : opts.cluster.workers_per_process;

  obs::gauge("sim.ready_queue.peak_depth")
      .set(static_cast<double>(peak_depth));
  // Per-subiteration work and occupancy (the paper's Fig 6 diagnostic):
  // occupancy of subiteration s = its total work over the busy window
  // [min start, max end] of its tasks times the configured capacity.
  {
    index_t nsub = 0;
    for (index_t t = 0; t < n; ++t)
      nsub = std::max(nsub, graph.task(t).subiteration + 1);
    std::vector<simtime_t> work(static_cast<std::size_t>(nsub), 0.0);
    std::vector<simtime_t> first(static_cast<std::size_t>(nsub),
                                 std::numeric_limits<simtime_t>::max());
    std::vector<simtime_t> last(static_cast<std::size_t>(nsub), 0.0);
    for (index_t t = 0; t < n; ++t) {
      const auto s = static_cast<std::size_t>(graph.task(t).subiteration);
      const TaskTiming& tt = result.timing[static_cast<std::size_t>(t)];
      work[s] += tt.end - tt.start;
      first[s] = std::min(first[s], tt.start);
      last[s] = std::max(last[s], tt.end);
    }
    double capacity_per_time = 0.0;
    for (part_t p = 0; p < nproc; ++p)
      capacity_per_time +=
          static_cast<double>(result.workers_used[static_cast<std::size_t>(p)]);
    obs::Histogram& work_hist = obs::histogram("sim.subiteration.work");
    obs::Histogram& occ_hist = obs::histogram("sim.subiteration.occupancy");
    for (std::size_t s = 0; s < static_cast<std::size_t>(nsub); ++s) {
      if (last[s] <= first[s]) continue;
      work_hist.record(work[s]);
      occ_hist.record(work[s] /
                      ((last[s] - first[s]) * capacity_per_time));
    }
  }
  return result;
}

}  // namespace tamp::sim
