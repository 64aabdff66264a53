#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace tamp::obs {

namespace {

/// JSON has no inf/nan; map non-finite doubles (e.g. the min of an empty
/// histogram) to 0 so the output always parses.
void append_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

void begin_event(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

void append_chrome_events(std::ostream& os, bool& first,
                          const std::vector<TraceEvent>& events, int pid) {
  for (const TraceEvent& ev : events) {
    begin_event(os, first);
    const double ts_us = static_cast<double>(ev.start_ns) / 1000.0;
    os << R"(  {"name":")" << json_escape(ev.name) << '"';
    switch (ev.kind) {
      case EventKind::span: {
        const double dur_us =
            static_cast<double>(ev.end_ns - ev.start_ns) / 1000.0;
        os << R"(,"ph":"X","pid":)" << pid << R"(,"tid":)" << ev.thread
           << R"(,"ts":)";
        append_number(os, ts_us);
        os << R"(,"dur":)";
        append_number(os, dur_us);
        os << R"(,"args":{"depth":)" << ev.depth;
        if (!ev.detail.empty())
          os << R"(,"detail":")" << json_escape(ev.detail) << '"';
        os << "}}";
        break;
      }
      case EventKind::instant: {
        os << R"(,"ph":"i","s":"t","pid":)" << pid << R"(,"tid":)"
           << ev.thread << R"(,"ts":)";
        append_number(os, ts_us);
        os << R"(,"args":{"detail":")" << json_escape(ev.detail) << "\"}}";
        break;
      }
      case EventKind::counter: {
        os << R"(,"ph":"C","pid":)" << pid << R"(,"tid":)" << ev.thread
           << R"(,"ts":)";
        append_number(os, ts_us);
        os << R"(,"args":{"value":)";
        append_number(os, ev.value);
        os << "}}";
        break;
      }
    }
  }
}

}  // namespace

void append_process_name(std::ostream& os, bool& first, int pid,
                         std::string_view name) {
  begin_event(os, first);
  os << R"(  {"name":"process_name","ph":"M","pid":)" << pid
     << R"(,"tid":0,"args":{"name":")" << json_escape(name) << "\"}}";
}

void append_thread_name(std::ostream& os, bool& first, int pid, int tid,
                        std::string_view name) {
  begin_event(os, first);
  os << R"(  {"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)"
     << tid << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
}

void append_session_trace(std::ostream& os, bool& first,
                          const std::vector<TraceEvent>& events, int pid) {
  append_process_name(os, first, pid, "tamp pipeline");
  if (!events.empty()) {
    std::uint32_t max_thread = 0;
    for (const TraceEvent& ev : events)
      max_thread = std::max(max_thread, ev.thread);
    for (std::uint32_t t = 0; t <= max_thread; ++t)
      append_thread_name(os, first, pid, static_cast<int>(t),
                         t == 0 ? "main" : "worker " + std::to_string(t));
  }
  append_chrome_events(os, first, events, pid);
}

std::string chrome_trace_document(std::string_view events) {
  std::string doc = "{\"traceEvents\":[\n";
  doc += events;
  doc += "\n]}\n";
  return doc;
}

std::string to_chrome_trace(const std::vector<TraceEvent>& events, int pid) {
  std::ostringstream body;
  bool first = true;
  append_session_trace(body, first, events, pid);
  return chrome_trace_document(body.str());
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"tamp-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": ";
    append_number(os, value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"count\": " << h.count << ", \"sum\": ";
    append_number(os, h.sum);
    os << ", \"mean\": ";
    append_number(os, h.mean());
    os << ", \"min\": ";
    append_number(os, h.min);
    os << ", \"max\": ";
    append_number(os, h.max);
    os << ", \"p50\": ";
    append_number(os, h.percentile(50.0));
    os << ", \"p90\": ";
    append_number(os, h.percentile(90.0));
    os << ", \"p99\": ";
    append_number(os, h.percentile(99.0));
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void save_text(const std::string& text, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw runtime_failure("cannot open output: " + path);
  out << text;
  if (!out.good()) throw runtime_failure("error writing to: " + path);
}

}  // namespace tamp::obs
