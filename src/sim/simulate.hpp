// FLUSIM — the paper's dedicated execution simulator (§III-A), rebuilt.
//
// Inputs: a task graph, a domain→process map, and a cluster configuration
// (number of processes × workers per process). Tasks are pinned to the
// process owning their domain (FLUSEPA's execution model: StarPU
// schedules within a process; MPI owns the distribution). The simulator
// performs event-driven list scheduling in an idealized environment — by
// default no communication or runtime overhead is modelled, exactly as
// the paper's FLUSIM; an optional communication-delay model supports the
// production-validation experiments (Fig 13).
#pragma once

#include <string>
#include <vector>

#include "support/gantt.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::sim {

/// Emulated cluster: processes × workers (paper: "we specify the number
/// of nodes and the number of workers per node").
struct ClusterConfig {
  part_t num_processes = 1;
  /// Workers per process; 0 = unbounded (the paper's Fig 6 experiment).
  int workers_per_process = 1;

  [[nodiscard]] bool unbounded() const { return workers_per_process <= 0; }
};

/// Scheduling policy applied within each process.
enum class Policy {
  eager_fifo,     ///< ready tasks run in readiness order (StarPU eager)
  eager_lifo,     ///< most recently readied first
  critical_path,  ///< longest downstream path first (HEFT-like rank)
  random_order,   ///< uniformly random among ready tasks
};

[[nodiscard]] const char* to_string(Policy p);
Policy parse_policy(const std::string& name);

/// Optional communication cost on cross-process dependency edges.
struct CommModel {
  simtime_t latency = 0.0;            ///< fixed delay per crossing edge
  simtime_t per_object = 0.0;         ///< + per object of the producer task
  [[nodiscard]] bool enabled() const { return latency > 0 || per_object > 0; }
};

struct SimOptions {
  ClusterConfig cluster;
  Policy policy = Policy::eager_fifo;
  CommModel comm;  ///< zero by default (idealised FLUSIM)
  /// Fixed per-task runtime-management cost added to every execution
  /// (StarPU-style submission/scheduling overhead). Zero by default —
  /// the paper's FLUSIM models no overheads — but essential when studying
  /// granularity: without it, infinitely fine domains look free (§IX).
  simtime_t task_overhead = 0;
  std::uint64_t seed = 1;  ///< only used by Policy::random_order
};

/// When and where each task ran.
struct TaskTiming {
  simtime_t start = 0;
  simtime_t end = 0;
  part_t process = 0;
  int worker = 0;  ///< worker index within the process
};

/// Ready-queue depth of one process at one simulated instant, sampled
/// whenever the scheduler touches that process. Exported as Chrome-trace
/// counter events (queue starvation is the visual signature of the
/// paper's level-imbalance pathology).
struct QueueDepthSample {
  simtime_t time = 0;
  part_t process = 0;
  index_t depth = 0;  ///< ready tasks left after dispatching
};

/// Outcome of a simulation.
struct SimResult {
  simtime_t makespan = 0;
  std::vector<TaskTiming> timing;       ///< per task id
  part_t num_processes = 0;
  std::vector<int> workers_used;        ///< per process (≤ configured, or
                                        ///< peak concurrency if unbounded)
  std::vector<simtime_t> busy_per_process;
  std::vector<QueueDepthSample> queue_depth;  ///< chronological samples

  /// Fraction of process-time spent busy, with the worker count actually
  /// configured (unbounded mode uses the peak).
  [[nodiscard]] double occupancy() const;
  /// Idle fraction of one process.
  [[nodiscard]] double idle_fraction(part_t p) const;

  /// Build a Gantt trace. One row per worker when `per_worker`, else one
  /// aggregated row per process (a process row is busy when ≥1 of its
  /// workers is, the paper's Fig 6 view). Spans are coloured by
  /// subiteration. Throws precondition_error when `timing` does not match
  /// the graph.
  [[nodiscard]] GanttTrace gantt(const taskgraph::TaskGraph& graph,
                                 bool per_worker,
                                 const std::string& title) const;
};

/// Run the simulation. `domain_to_process[d]` pins every task of domain d.
SimResult simulate(const taskgraph::TaskGraph& graph,
                   const std::vector<part_t>& domain_to_process,
                   const SimOptions& opts);

}  // namespace tamp::sim
