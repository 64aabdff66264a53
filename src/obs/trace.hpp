// Process-wide tracing: scoped spans, instant events and counter samples
// recorded lock-free into per-thread buffers.
//
// The paper argues from *observing* schedules (Gantt traces, occupancy,
// per-level censuses); this module gives the pipeline itself the same
// treatment. A `TAMP_TRACE_SCOPE("partition/coarsen")` guard records a
// complete span (steady-clock start/end, dense thread id, nesting depth)
// into the global TraceSession; exporters (obs/export.hpp, sim/trace_json)
// merge these pipeline-phase spans with task spans into one Chrome
// trace-event timeline.
//
// Cost model (every build compiles the instrumentation in):
//  * runtime-disabled (the default): one relaxed atomic load per site;
//  * enabled: one append into a thread-local chunk list — no locks, no
//    contention between recording threads.
//
// Thread safety: recording is wait-free per thread (each thread owns its
// chunk list; slots are published with a release store of the chunk's
// count and read back with an acquire load). snapshot() may run
// concurrently with recorders and sees a consistent prefix of every
// thread's events. clear() requires quiescence (no spans in flight).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tamp::obs {

enum class EventKind : std::uint8_t {
  span,     ///< complete interval [start_ns, end_ns]
  instant,  ///< point event at start_ns (e.g. a routed log record)
  counter,  ///< sampled value at start_ns
};

/// One recorded event, in steady-clock nanoseconds since the session epoch.
struct TraceEvent {
  EventKind kind = EventKind::instant;
  std::string name;            ///< span/instant/counter name
  std::string detail;          ///< optional payload (log message, args)
  std::uint32_t thread = 0;    ///< dense session thread id (0, 1, …)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;     ///< spans only
  std::int32_t depth = 0;      ///< nesting depth at span entry
  double value = 0.0;          ///< counters only
};

namespace detail {
struct ThreadBuffer;
}

/// Process-global trace recorder. Obtain via instance(); all record_*
/// entry points are safe from any thread and cheap no-ops while disabled.
class TraceSession {
public:
  static TraceSession& instance();

  /// Runtime recording flag. Initialised from the TAMP_TRACE environment
  /// variable (1/true/on); off by default.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Steady-clock nanoseconds since the session epoch (process start).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Record a complete span. Prefer TAMP_TRACE_SCOPE over calling this.
  void record_span(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::string detail = {});
  /// Record an instant event (timestamp = now).
  void record_instant(std::string name, std::string detail = {});
  /// Record a counter sample (timestamp = now).
  void record_counter(std::string name, double value);

  /// Copy out every event recorded so far, sorted by start time. Safe
  /// concurrently with recorders (sees a consistent prefix per thread).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Number of threads that have recorded at least one event.
  [[nodiscard]] std::uint32_t num_threads() const;

  /// Drop all recorded events. Callers must guarantee no other thread is
  /// recording (tests; between pipeline phases on the main thread).
  void clear();

private:
  friend struct detail::ThreadBuffer;
  friend class TraceScope;
  friend std::uint32_t current_thread_id();

  TraceSession();
  ~TraceSession();
  std::shared_ptr<detail::ThreadBuffer> register_thread();
  detail::ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Dense id of the calling thread within the session (registers the
/// thread on first use). Used by the logger so log lines and trace events
/// agree on thread naming.
std::uint32_t current_thread_id();

/// Convenience for TraceSession::instance().set_enabled().
inline void set_tracing_enabled(bool on) {
  TraceSession::instance().set_enabled(on);
}
[[nodiscard]] inline bool tracing_enabled() {
  return TraceSession::instance().enabled();
}

/// RAII span guard: records one complete span from construction to
/// destruction when the session is enabled. `name` must outlive the
/// scope (string literals via the macro).
class TraceScope {
public:
  explicit TraceScope(const char* name);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

private:
  detail::ThreadBuffer* buffer_ = nullptr;  ///< non-null iff armed
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int32_t depth_ = 0;
};

}  // namespace tamp::obs

#define TAMP_OBS_CONCAT_IMPL(a, b) a##b
#define TAMP_OBS_CONCAT(a, b) TAMP_OBS_CONCAT_IMPL(a, b)

/// Record the enclosing scope as a trace span.
#define TAMP_TRACE_SCOPE(name)                                      \
  const ::tamp::obs::TraceScope TAMP_OBS_CONCAT(tamp_trace_scope_,  \
                                                __LINE__) {         \
    name                                                            \
  }
