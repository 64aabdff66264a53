// Measured-execution adapter: lift a runtime::ExecutionReport into the
// simulator's result form so every FLUSIM analysis — the schedule doctor,
// Gantt rendering, Chrome traces — applies unchanged to *real* threaded
// runs, and quantify how far the simulator's prediction drifted from the
// measurement (the paper's Fig 5, FLUSEPA trace vs FLUSIM trace, as a
// number instead of two pictures to eyeball).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "sim/doctor.hpp"
#include "sim/simulate.hpp"

namespace tamp::sim {

/// Re-express a measured execution as a SimResult (times in seconds):
/// timing from the report's spans, busy_per_process summed from span
/// durations, makespan = wall_seconds, and — when the report carries
/// flight events — queue-depth samples reconstructed from task_dequeue
/// events. This is the only path from a measured run to a view: the
/// doctor, the divergence report, the what-if replay, the measured Gantt
/// (`to_sim_result(report).gantt(graph, true, title)`) and the measured
/// Chrome trace all read it.
/// Throws precondition_error when the report has no worker capacity or a
/// span names a worker outside it.
[[nodiscard]] SimResult to_sim_result(const runtime::ExecutionReport& report);

/// Run the schedule doctor on a measured execution. Blame shares still
/// sum exactly to each process's idle fraction — the accounting is the
/// same window-sliced attribution the simulator gets.
[[nodiscard]] DoctorReport diagnose_measured(
    const taskgraph::TaskGraph& graph, const runtime::ExecutionReport& report);

/// Sim-vs-reality deltas for one subiteration window.
struct SubiterationDivergence {
  index_t subiteration = 0;
  /// Window duration as a fraction of the run's makespan.
  double sim_window_share = 0;
  double real_window_share = 0;
  /// Idle worker-time within the window / window capacity.
  double sim_idle_share = 0;
  double real_idle_share = 0;
};

/// Quantified simulator drift on one (graph, placement, cluster) triple.
/// The simulator's clock counts abstract work units; the measured run
/// counts seconds, so makespans are compared after scaling the simulated
/// one by `seconds_per_unit`.
struct DivergenceReport {
  double sim_makespan = 0;           ///< work units
  double real_makespan_seconds = 0;
  double seconds_per_unit = 0;       ///< calibration used
  double sim_makespan_seconds = 0;   ///< sim_makespan · seconds_per_unit
  /// (real − sim_scaled) / sim_scaled: positive = reality slower than
  /// the prediction.
  double rel_makespan_gap = 0;
  double sim_idle_share = 0;         ///< 1 − occupancy
  double real_idle_share = 0;
  double idle_share_gap = 0;         ///< real − sim (absolute)
  std::vector<SubiterationDivergence> subiterations;
  double max_abs_rel_window_gap = 0; ///< worst |real−sim|/max(sim,ε) window
  double max_abs_idle_gap = 0;       ///< worst |real−sim| idle share
};

/// Compare a simulated schedule against a measured execution of the same
/// graph/placement. `seconds_per_unit` converts simulated work units to
/// seconds; pass <= 0 to auto-calibrate from the data (Σ measured task
/// seconds / Σ simulated task units), which isolates *scheduling* drift
/// from cost-model miscalibration. Throws precondition_error when the two
/// results describe different task counts.
[[nodiscard]] DivergenceReport compare_sim_to_measured(
    const taskgraph::TaskGraph& graph, const SimResult& sim,
    const runtime::ExecutionReport& real, double seconds_per_unit = 0);

/// Human-readable divergence table (flusim --execute, fig5 bench).
void print_divergence_report(std::ostream& os, const DivergenceReport& d);

/// Publish the report as tamp-metrics-v1 gauges ("divergence.*") for
/// tamp-report gating: makespans, rel_gap/abs_rel_gap, idle shares and
/// gaps, and the worst per-subiteration window/idle deltas.
void publish_divergence_metrics(const DivergenceReport& d);

}  // namespace tamp::sim
