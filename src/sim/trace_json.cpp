#include "sim/trace_json.hpp"

#include <algorithm>
#include <sstream>

#include "obs/export.hpp"
#include "sim/measured.hpp"

namespace tamp::sim {

namespace {

void append_event(std::ostringstream& os, bool& first, const std::string& name,
                  int pid, int tid, double start_us, double duration_us,
                  const taskgraph::Task& task) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name":")" << obs::json_escape(name) << R"(","ph":"X","pid":)"
     << pid << R"(,"tid":)" << tid << R"(,"ts":)" << start_us << R"(,"dur":)"
     << duration_us << R"(,"args":{"subiteration":)" << task.subiteration
     << R"(,"level":)" << static_cast<int>(task.level) << R"(,"type":")"
     << taskgraph::to_string(task.type) << R"(","locality":")"
     << taskgraph::to_string(task.locality) << R"(","domain":)" << task.domain
     << R"(,"objects":)" << task.num_objects << "}}";
}

/// Perfetto/chrome://tracing label pids as "process_name" and tids as
/// "thread_name"; emit one metadata event per process/worker seen.
void append_task_metadata(std::ostringstream& os, bool& first,
                          const std::vector<TaskTiming>& timing) {
  std::vector<int> workers;  // max worker id + 1, per process
  for (const TaskTiming& tt : timing) {
    const auto p = static_cast<std::size_t>(tt.process);
    if (workers.size() <= p) workers.resize(p + 1, 0);
    workers[p] = std::max(workers[p], tt.worker + 1);
  }
  for (std::size_t p = 0; p < workers.size(); ++p) {
    obs::append_process_name(os, first, static_cast<int>(p),
                             "process " + std::to_string(p));
    for (int w = 0; w < workers[p]; ++w)
      obs::append_thread_name(os, first, static_cast<int>(p), w,
                              "worker " + std::to_string(w));
  }
}

/// Append the global TraceSession's pipeline-phase events under a distinct
/// high pid. Pipeline wall-clock time and simulated task time are
/// different time bases; separate pids keep both readable side by side on
/// one Perfetto timeline.
void append_session_events(std::ostringstream& os, bool& first) {
  const auto events = obs::TraceSession::instance().snapshot();
  if (!events.empty())
    obs::append_session_trace(os, first, events, obs::kPipelineTracePid);
}

void append_counter(std::ostringstream& os, bool& first, const char* name,
                    int pid, double ts_us, const char* key,
                    std::int64_t value) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name":")" << name << R"(","ph":"C","pid":)" << pid
     << R"(,"tid":0,"ts":)" << ts_us << R"(,"args":{")" << key << R"(":)"
     << value << "}}";
}

/// Shared body of every exporter: metadata, task spans, and ready-queue
/// depth counter tracks (one per process). `scale` maps the result's time
/// unit to trace microseconds: 1 for simulated work units, 1e6 for the
/// seconds of a measured run.
void append_body(std::ostringstream& body, bool& first,
                 const taskgraph::TaskGraph& graph, const SimResult& result,
                 double scale) {
  append_task_metadata(body, first, result.timing);
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    const TaskTiming& tt = result.timing[static_cast<std::size_t>(t)];
    append_event(body, first, graph.task(t).label(), tt.process, tt.worker,
                 tt.start * scale, (tt.end - tt.start) * scale, graph.task(t));
  }
  for (const QueueDepthSample& s : result.queue_depth)
    append_counter(body, first, "ready_queue", s.process, s.time * scale,
                   "depth", s.depth);
}

/// The flight recorder's idle_workers track: per process, how many
/// workers sit between an idle_begin and its idle_end, sampled at each.
void append_idle_workers(std::ostringstream& body, bool& first,
                         const runtime::ExecutionReport& report) {
  if (!report.flight || report.workers_per_process <= 0) return;
  const auto np = static_cast<std::size_t>(report.num_processes);
  std::vector<std::int64_t> idle(np, 0);
  for (const obs::WorkerFlightEvent& we : report.flight->merged()) {
    const bool begin = we.event.kind == obs::FlightEventKind::idle_begin;
    if (!begin && we.event.kind != obs::FlightEventKind::idle_end) continue;
    const int p = we.worker / report.workers_per_process;
    const auto up = static_cast<std::size_t>(p);
    if (up >= np) continue;  // defensive: ring count vs report mismatch
    idle[up] += begin ? 1 : -1;
    if (idle[up] < 0) idle[up] = 0;  // ring overwrote the begin
    append_counter(body, first, "idle_workers", p, we.event.t_seconds * 1e6,
                   "idle", idle[up]);
  }
}

}  // namespace

std::string to_chrome_trace(const taskgraph::TaskGraph& graph,
                            const SimResult& result) {
  TAMP_EXPECTS(result.timing.size() ==
                   static_cast<std::size_t>(graph.num_tasks()),
               "result does not match graph");
  std::ostringstream body;
  bool first = true;
  append_body(body, first, graph, result, 1.0);
  return obs::chrome_trace_document(body.str());
}

std::string to_chrome_trace_merged(const taskgraph::TaskGraph& graph,
                                   const runtime::ExecutionReport& report) {
  TAMP_EXPECTS(report.spans.size() ==
                   static_cast<std::size_t>(graph.num_tasks()),
               "report does not match graph");
  std::ostringstream body;
  bool first = true;
  append_body(body, first, graph, to_sim_result(report), 1e6);
  append_idle_workers(body, first, report);
  append_session_events(body, first);
  return obs::chrome_trace_document(body.str());
}

std::string to_chrome_trace_merged(const taskgraph::TaskGraph& graph,
                                   const SimResult& result) {
  TAMP_EXPECTS(result.timing.size() ==
                   static_cast<std::size_t>(graph.num_tasks()),
               "result does not match graph");
  std::ostringstream body;
  bool first = true;
  append_body(body, first, graph, result, 1.0);
  append_session_events(body, first);
  return obs::chrome_trace_document(body.str());
}

}  // namespace tamp::sim
