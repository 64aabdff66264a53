// Threaded task runtime executing TaskGraphs — the StarPU-substitute
// substrate.
//
// Execution model mirrors FLUSEPA's: the machine is a set of emulated
// MPI *processes*, each owning `workers_per_process` threads. Tasks are
// pinned to the process owning their domain; within a process, any of its
// workers may pick up a ready task (shared ready queue = the intra-node
// load balancing StarPU provides). Dependencies are enforced with atomic
// pending counters, so the observable ordering is exactly the DAG's.
//
// The runtime records per-task wall-clock spans and per-worker busy time;
// sim::to_sim_result lifts them into FLUSIM's SimResult, so the Gantt
// traces, Chrome traces and occupancy statistics of a measured run come
// from the same code as the simulator's (paper Fig 5: FLUSEPA trace vs
// FLUSIM trace).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/flight.hpp"
#include "obs/perf.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::runtime {

/// Hostile-schedule knobs for race hunting (src/verify): seeded random
/// ready-task selection replaces FIFO dequeue order, and each dequeue may
/// be followed by a random delay before the body runs, so repeated runs
/// sweep very different interleavings while still respecting the DAG.
/// Per-worker RNG streams derive deterministically from (seed, process,
/// worker), so a given (config, machine-timing-independent body) pair is
/// reproducible in which orders it *offers*, though not in which the OS
/// realises.
struct AdversarialSchedule {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Uniform pre-task delay in [0, max_delay_seconds); 0 disables jitter.
  double max_delay_seconds = 0;
};

/// Flight-recorder knobs: when enabled, every worker records dequeues,
/// task begin/end, dependency releases and idle intervals into its own
/// bounded ring (obs/flight.hpp). Memory is fixed at
/// workers · ring_capacity · sizeof(FlightEvent); overflow overwrites the
/// oldest events and counts them as dropped.
struct FlightConfig {
  bool enabled = false;
  std::size_t ring_capacity = obs::FlightRecorder::kDefaultRingCapacity;
};

/// Hardware-counter knobs: when enabled, every worker opens a per-thread
/// perf_event counter group (obs/perf.hpp) and brackets each task body
/// with grouped reads, so every task accrues cycle/instruction/miss
/// deltas. The effective capability is min(max_tier, TAMP_PERF env
/// ceiling, what the kernel grants) — in locked-down environments this
/// degrades to clock-only or nothing without failing the run.
struct PerfConfig {
  bool enabled = false;
  obs::PerfTier max_tier = obs::PerfTier::hardware;
};

struct RuntimeConfig {
  part_t num_processes = 1;
  int workers_per_process = 1;
  AdversarialSchedule adversarial;
  FlightConfig flight;
  PerfConfig perf;
};

/// Wall-clock record of one executed graph.
struct ExecutionReport {
  double wall_seconds = 0;
  /// Per task: start/end seconds since launch, executing process/worker.
  struct Span {
    double start = 0;
    double end = 0;
    part_t process = 0;
    int worker = 0;
  };
  std::vector<Span> spans;
  part_t num_processes = 0;
  int workers_per_process = 0;
  /// Flight events of this execution (ring w belongs to worker
  /// process·workers_per_process + w); null when recording was off.
  std::shared_ptr<const obs::FlightRecorder> flight;

  /// Per-task counter deltas of this execution. `tier` is the weakest
  /// capability any worker obtained (a run is only as attributable as
  /// its least-privileged thread) and `counter_valid` the AND across
  /// workers. Default-constructed (tier unavailable, empty per_task)
  /// when perf recording was off.
  struct PerfAttribution {
    obs::PerfTier tier = obs::PerfTier::unavailable;
    std::array<bool, obs::kNumPerfCounters> counter_valid{};
    /// One delta per task (same indexing as `spans`); empty at tier
    /// unavailable.
    std::vector<obs::PerfDelta> per_task;

    /// True counter attribution: hardware tier with at least cycles and
    /// instructions on every worker. The gate for perf.* metrics — a
    /// clock-only run must not publish counter-shaped numbers.
    [[nodiscard]] bool live() const {
      return tier == obs::PerfTier::hardware &&
             counter_valid[static_cast<std::size_t>(
                 obs::PerfCounterId::cycles)] &&
             counter_valid[static_cast<std::size_t>(
                 obs::PerfCounterId::instructions)] &&
             !per_task.empty();
    }
  };
  PerfAttribution perf;

  [[nodiscard]] double total_busy_seconds() const;
  /// Whether the report describes any worker-time at all (a positive
  /// wall clock on at least one worker).
  [[nodiscard]] bool has_capacity() const;
  /// Fraction of worker-time spent in task bodies. A report without
  /// capacity has no meaningful occupancy and returns NaN — "no capacity"
  /// must stay distinguishable from "all workers idle" (0.0).
  [[nodiscard]] double occupancy() const;
};

/// The task body: called once per task id, possibly concurrently for
/// independent tasks.
using TaskBody = std::function<void(index_t)>;

/// Execute `graph` with real threads. Blocks until every task ran.
/// Throws precondition_error on malformed inputs; any exception escaping
/// a task body aborts execution and is rethrown on the calling thread.
ExecutionReport execute(const taskgraph::TaskGraph& graph,
                        const std::vector<part_t>& domain_to_process,
                        const RuntimeConfig& config, const TaskBody& body);

/// The O(tasks + edges) launch bookkeeping of execute(), derived ahead
/// of time: per-task process placement and initial dependency counts.
/// The asynchronous pipeline builds this on the prep stage so the solve
/// stage's execute() call starts dispatching immediately. Tied to the
/// (graph, domain_to_process, num_processes) triple it was derived from;
/// execute() validates the sizes but cannot detect a swapped graph of
/// identical shape.
struct PreparedGraph {
  std::vector<part_t> process_of;        ///< per task
  std::vector<index_t> initial_pending;  ///< per task: #predecessors
  part_t num_processes = 0;
};

/// Derive the launch bookkeeping for executing `graph` on
/// `num_processes` emulated processes.
PreparedGraph prepare_execution(const taskgraph::TaskGraph& graph,
                                const std::vector<part_t>& domain_to_process,
                                part_t num_processes);

/// Execute with pre-built bookkeeping (see PreparedGraph). Identical
/// observable behaviour to the deriving overload; `config.num_processes`
/// must equal `prepared.num_processes`.
ExecutionReport execute(const taskgraph::TaskGraph& graph,
                        const PreparedGraph& prepared,
                        const RuntimeConfig& config, const TaskBody& body);

/// Convenience body: busy-spin proportionally to each task's cost.
/// `seconds_per_unit` converts cost units to wall time. Used by benches
/// that want FLUSEPA-shaped load without the solver attached.
TaskBody make_synthetic_body(const taskgraph::TaskGraph& graph,
                             double seconds_per_unit);

/// Publish measured-execution telemetry into the metrics registry:
///   runtime.occupancy / runtime.wall_seconds / runtime.worker.busy_seconds
///   runtime.task_seconds                       (histogram, all tasks)
///   runtime.task_seconds.p<P>.s<S>             (per process × subiteration)
/// and, when the report carries flight events,
///   runtime.flight.events / .dropped           (counters)
///   runtime.flight.idle_seconds                (gauge)
///   runtime.queue.depth                        (histogram of ready-queue
///                                               depth at each dequeue)
///   runtime.dequeue_latency_seconds            (histogram, dequeue→begin)
/// Explicitly invoked (flusim --execute, benches) — not part of execute()
/// so hot runs pay nothing.
void publish_execution_metrics(const taskgraph::TaskGraph& graph,
                               const ExecutionReport& report);

}  // namespace tamp::runtime
