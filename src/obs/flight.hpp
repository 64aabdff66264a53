// Runtime flight recorder: bounded per-worker event rings for *measured*
// execution.
//
// The tracing session (obs/trace.hpp) answers "what did the pipeline
// phases do"; this module answers "what did every worker of the task
// runtime do, instant by instant" — the raw material the schedule doctor
// needs to blame idle time on real threads the same way it blames the
// simulator's (paper Fig 5: FLUSEPA trace vs FLUSIM trace).
//
// Design constraints, in order:
//  * bounded memory — each worker owns one fixed-capacity ring;
//    recording never allocates past construction. When a ring is full
//    the oldest event is overwritten and an explicit drop counter
//    increments; consumers must check dropped() instead of assuming a
//    complete history.
//  * lock-free recording — exactly one producer per ring (the owning
//    worker), no atomics on the hot path. Readers (merge, stats) run
//    after the execution quiesces (thread join publishes everything).
//  * near-zero overhead when off — an instrumentation site in
//    runtime::execute costs one null-pointer test per event while no
//    recorder is attached.
//
// Event schema (see DESIGN.md "Flight recorder"): every event is a POD
// {kind, t_seconds, a, b}. The meaning of a/b depends on the kind:
//
//   kind            a                  b
//   task_dequeue    task id            ready-queue depth after dequeue
//   task_begin      task id            —
//   task_end        task id            —
//   dep_release     released task id   releasing task id
//   idle_begin      —                  —
//   idle_end        —                  —
//
// Timestamps are seconds on the caller's clock (runtime::execute uses
// its launch-relative Stopwatch, so flight events line up with
// ExecutionReport spans exactly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tamp::obs {

enum class FlightEventKind : std::uint8_t {
  task_dequeue = 0,
  task_begin = 1,
  task_end = 2,
  dep_release = 3,
  idle_begin = 4,
  idle_end = 5,
};
inline constexpr int kNumFlightEventKinds = 6;
[[nodiscard]] const char* to_string(FlightEventKind k);

/// One recorded event. POD by design: pushing is a bounded array store.
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::idle_begin;
  double t_seconds = 0;   ///< caller-clock timestamp
  std::int64_t a = -1;    ///< kind-dependent payload (see header comment)
  std::int64_t b = -1;    ///< kind-dependent payload
};

/// Fixed-capacity single-producer ring. Overwrite-oldest: pushing into a
/// full ring replaces the oldest event; dropped() says how many were
/// lost. Reading (events(), dropped()) is only defined once the producer
/// has quiesced — the runtime reads after joining its workers.
class FlightRing {
public:
  explicit FlightRing(std::size_t capacity);

  /// Record one event (overwrites the oldest when full). Never allocates.
  void push(const FlightEvent& ev) {
    buf_[static_cast<std::size_t>(head_ % capacity_)] = ev;
    ++head_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events ever pushed, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const { return head_; }
  /// Events lost to overwriting: total_recorded() − size().
  [[nodiscard]] std::uint64_t dropped() const {
    return head_ > capacity_ ? head_ - capacity_ : 0;
  }
  /// Events currently held.
  [[nodiscard]] std::size_t size() const {
    return head_ < capacity_ ? static_cast<std::size_t>(head_) : capacity_;
  }

  /// Copy out the surviving events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;

private:
  std::uint64_t head_ = 0;  ///< total pushes; head_ % capacity_ = next slot
  std::size_t capacity_;
  std::vector<FlightEvent> buf_;
};

/// A FlightEvent tagged with the ring (worker) that recorded it — the
/// element type of the merged cross-worker stream.
struct WorkerFlightEvent {
  int worker = 0;  ///< ring index (runtime: process·workers_per_process+w)
  FlightEvent event;
};

/// Per-worker rings plus merge/summary helpers. One recorder per
/// execution (runtime::execute); ring i belongs exclusively to worker i
/// while running.
class FlightRecorder {
public:
  /// Default ring capacity: 16Ki events ≈ 512 KiB per worker — several
  /// solver iterations of headroom before anything drops.
  static constexpr std::size_t kDefaultRingCapacity = 1u << 14;

  FlightRecorder(int num_workers, std::size_t ring_capacity);

  [[nodiscard]] int num_workers() const {
    return static_cast<int>(rings_.size());
  }
  [[nodiscard]] FlightRing& ring(int worker) {
    return rings_[static_cast<std::size_t>(worker)];
  }
  [[nodiscard]] const FlightRing& ring(int worker) const {
    return rings_[static_cast<std::size_t>(worker)];
  }

  /// Σ total_recorded over rings.
  [[nodiscard]] std::uint64_t total_recorded() const;
  /// Σ dropped over rings — non-zero means the merged stream has holes.
  [[nodiscard]] std::uint64_t total_dropped() const;
  /// Fixed memory footprint of the event storage.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Merge every ring's surviving events into one stream sorted by
  /// timestamp (ties broken by worker index, then ring order, so the
  /// merge is deterministic). Producers must have quiesced.
  [[nodiscard]] std::vector<WorkerFlightEvent> merged() const;

private:
  std::vector<FlightRing> rings_;
};

/// Headline numbers derived from a recorder — what telemetry publishes
/// and reports print.
struct FlightSummary {
  std::uint64_t events = 0;           ///< surviving (readable) events
  std::uint64_t recorded = 0;         ///< ever pushed
  std::uint64_t dropped = 0;
  std::uint64_t counts[kNumFlightEventKinds] = {};
  /// Σ idle-interval time over workers (well-paired begin/end only).
  double idle_seconds = 0;

  [[nodiscard]] std::uint64_t count(FlightEventKind k) const {
    return counts[static_cast<int>(k)];
  }
};

[[nodiscard]] FlightSummary summarize(const FlightRecorder& recorder);

}  // namespace tamp::obs

/// Record one flight event into `ring_ptr` when a recorder is attached:
/// one null test + a bounded array store.
#define TAMP_FLIGHT_RECORD(ring_ptr, ...)                         \
  do {                                                            \
    if ((ring_ptr) != nullptr)                                    \
      (ring_ptr)->push(::tamp::obs::FlightEvent{__VA_ARGS__});    \
  } while (false)
