// Serialisation of observability data: trace sessions to Chrome
// trace-event JSON fragments (merged with task spans by sim/trace_json)
// and metrics snapshots to a stable JSON schema ("tamp-metrics-v1")
// consumed by bench_artifacts/ post-processing.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::obs {

/// Escape a string for embedding inside a JSON string literal (quotes,
/// backslash, control characters; UTF-8 passes through untouched).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Trace pid under which pipeline-phase spans are exported, far above any
/// simulated process rank so the two timelines never collide in Perfetto.
inline constexpr int kPipelineTracePid = 1'000'000;

/// Append session events as Chrome trace-event objects (comma separated,
/// honouring/updating `first`): a "tamp pipeline" process_name for `pid`,
/// one thread_name per session thread ("main", "worker N"), then one
/// object per event. Spans become ph:"X" complete events, instants
/// ph:"i", counters ph:"C"; timestamps are converted from session
/// nanoseconds to trace microseconds, and tid = the session's dense
/// thread id.
void append_session_trace(std::ostream& os, bool& first,
                          const std::vector<TraceEvent>& events, int pid);

/// Append a ph:"M" process_name metadata event.
void append_process_name(std::ostream& os, bool& first, int pid,
                         std::string_view name);
/// Append a ph:"M" thread_name metadata event.
void append_thread_name(std::ostream& os, bool& first, int pid, int tid,
                        std::string_view name);

/// Wrap comma-separated trace events (the append_* output) in the one
/// Chrome trace document envelope every exporter writes:
/// {"traceEvents":[\n<events>\n]}\n.
[[nodiscard]] std::string chrome_trace_document(std::string_view events);

/// Serialise session events into a complete standalone Chrome trace
/// document (append_session_trace wrapped in a traceEvents array), for
/// use outside the merged task-trace path.
[[nodiscard]] std::string to_chrome_trace(const std::vector<TraceEvent>& events,
                                          int pid = kPipelineTracePid);

/// Serialise a metrics snapshot to JSON:
/// {"schema":"tamp-metrics-v1","counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,mean,min,max,p50,p90,p99}}}
[[nodiscard]] std::string metrics_to_json(const MetricsSnapshot& snap);

/// Write text to a file; throws runtime_failure on I/O error.
void save_text(const std::string& text, const std::string& path);

}  // namespace tamp::obs
