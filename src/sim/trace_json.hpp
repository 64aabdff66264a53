// Chrome trace-event export (chrome://tracing, Perfetto, Speedscope).
//
// Serialises a simulated schedule or a real runtime execution into the
// Trace Event JSON format: one "complete" (ph:"X") event per task, with
// processes mapped to trace pids and workers to tids, coloured/filterable
// by subiteration and phase through event args. This is the practical way
// to eyeball large schedules that SVG Gantt charts cannot hold.
#pragma once

#include <string>

#include "runtime/runtime.hpp"
#include "sim/simulate.hpp"

namespace tamp::sim {

/// Serialise a simulation result (times in abstract work units mapped to
/// microseconds).
std::string to_chrome_trace(const taskgraph::TaskGraph& graph,
                            const SimResult& result);

/// Serialise a simulation result together with the global TraceSession's
/// pipeline-phase spans (partition/coarsen, taskgraph/generate, …) into
/// one document: task spans keep their simulated-time pids, pipeline
/// wall-clock spans appear under obs::kPipelineTracePid.
std::string to_chrome_trace_merged(const taskgraph::TaskGraph& graph,
                                   const SimResult& result);

/// Merged measured trace: the simulated exporter's body run over
/// to_sim_result(report) with seconds mapped to microseconds (task spans,
/// and — when the report carries flight events — the per-process
/// ready_queue depth at each dequeue), plus the flight recorder's
/// per-process idle_workers track, plus the pipeline-phase spans under
/// obs::kPipelineTracePid. The counter tracks are what make starvation
/// visible: a ready_queue flatline at 0 under a rising idle_workers
/// curve is the level-imbalance signature, on real threads.
std::string to_chrome_trace_merged(const taskgraph::TaskGraph& graph,
                                   const runtime::ExecutionReport& report);

}  // namespace tamp::sim
