#include "obs/flight.hpp"

#include <algorithm>
#include <stdexcept>

namespace tamp::obs {

const char* to_string(FlightEventKind k) {
  switch (k) {
    case FlightEventKind::task_dequeue: return "task_dequeue";
    case FlightEventKind::task_begin: return "task_begin";
    case FlightEventKind::task_end: return "task_end";
    case FlightEventKind::dep_release: return "dep_release";
    case FlightEventKind::idle_begin: return "idle_begin";
    case FlightEventKind::idle_end: return "idle_end";
  }
  return "?";
}

FlightRing::FlightRing(std::size_t capacity)
    : capacity_(capacity), buf_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("flight ring capacity must be positive");
}

std::vector<FlightEvent> FlightRing::events() const {
  std::vector<FlightEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest surviving event sits at head_ % capacity_ once the ring has
  // wrapped; before that the ring is a plain array prefix.
  const std::uint64_t first = head_ > capacity_ ? head_ - capacity_ : 0;
  for (std::uint64_t i = first; i < head_; ++i)
    out.push_back(buf_[static_cast<std::size_t>(i % capacity_)]);
  return out;
}

FlightRecorder::FlightRecorder(int num_workers, std::size_t ring_capacity) {
  if (num_workers < 1)
    throw std::invalid_argument("flight recorder needs at least one worker");
  rings_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) rings_.emplace_back(ring_capacity);
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::uint64_t sum = 0;
  for (const FlightRing& r : rings_) sum += r.total_recorded();
  return sum;
}

std::uint64_t FlightRecorder::total_dropped() const {
  std::uint64_t sum = 0;
  for (const FlightRing& r : rings_) sum += r.dropped();
  return sum;
}

std::size_t FlightRecorder::memory_bytes() const {
  std::size_t sum = 0;
  for (const FlightRing& r : rings_) sum += r.capacity() * sizeof(FlightEvent);
  return sum;
}

std::vector<WorkerFlightEvent> FlightRecorder::merged() const {
  std::vector<WorkerFlightEvent> out;
  std::size_t total = 0;
  for (const FlightRing& r : rings_) total += r.size();
  out.reserve(total);
  for (int w = 0; w < num_workers(); ++w)
    for (const FlightEvent& ev : rings_[static_cast<std::size_t>(w)].events())
      out.push_back({w, ev});
  // Each ring is already time-ordered; a stable sort on the timestamp
  // keeps per-worker order intact and breaks cross-worker ties by the
  // worker index (the order pushed above).
  std::stable_sort(out.begin(), out.end(),
                   [](const WorkerFlightEvent& x, const WorkerFlightEvent& y) {
                     return x.event.t_seconds < y.event.t_seconds;
                   });
  return out;
}

FlightSummary summarize(const FlightRecorder& recorder) {
  FlightSummary s;
  s.recorded = recorder.total_recorded();
  s.dropped = recorder.total_dropped();
  for (int w = 0; w < recorder.num_workers(); ++w) {
    double idle_open = -1;
    for (const FlightEvent& ev : recorder.ring(w).events()) {
      ++s.events;
      ++s.counts[static_cast<int>(ev.kind)];
      // Idle time counts only well-formed begin/end pairs; an idle_end
      // whose begin was overwritten (or an unclosed begin) contributes
      // nothing rather than a misleading interval.
      if (ev.kind == FlightEventKind::idle_begin) {
        idle_open = ev.t_seconds;
      } else if (ev.kind == FlightEventKind::idle_end) {
        if (idle_open >= 0 && ev.t_seconds > idle_open)
          s.idle_seconds += ev.t_seconds - idle_open;
        idle_open = -1;
      }
    }
  }
  return s;
}

}  // namespace tamp::obs
