// Tests of the runtime flight recorder: ring wraparound and drop
// accounting, merged cross-worker streams, runtime integration, the
// measured-run doctor adapter, and the blame-shares-sum-to-idle-fraction
// property on *real* executions.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "runtime/runtime.hpp"
#include "sim/measured.hpp"
#include "sim/simulate.hpp"
#include "sim/trace_json.hpp"

namespace tamp {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;
using obs::FlightRing;
using taskgraph::Task;
using taskgraph::TaskGraph;

FlightEvent ev(FlightEventKind kind, double t, std::int64_t a = -1,
               std::int64_t b = -1) {
  return FlightEvent{kind, t, a, b};
}

TEST(FlightRing, StoresEventsInOrderBelowCapacity) {
  FlightRing ring(8);
  for (int i = 0; i < 5; ++i)
    ring.push(ev(FlightEventKind::task_begin, 0.1 * i, i));
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[i].a, i);
}

TEST(FlightRing, WraparoundKeepsNewestAndCountsDrops) {
  FlightRing ring(4);
  for (int i = 0; i < 11; ++i)
    ring.push(ev(FlightEventKind::task_begin, 0.1 * i, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Survivors are the 4 newest, oldest first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 7 + i);
}

TEST(FlightRing, SizePlusDroppedEqualsRecorded) {
  FlightRing ring(16);
  for (int i = 0; i < 1000; ++i)
    ring.push(ev(FlightEventKind::dep_release, 1e-3 * i));
  EXPECT_EQ(ring.size() + ring.dropped(), ring.total_recorded());
}

TEST(FlightRing, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRing(0), std::invalid_argument);
}

TEST(FlightRecorder, RejectsNonPositiveWorkerCount) {
  EXPECT_THROW(FlightRecorder(0, 8), std::invalid_argument);
}

TEST(FlightRecorder, MergedStreamIsTimeSortedAndTagged) {
  FlightRecorder rec(3, 8);
  rec.ring(0).push(ev(FlightEventKind::task_begin, 0.3));
  rec.ring(1).push(ev(FlightEventKind::task_begin, 0.1));
  rec.ring(2).push(ev(FlightEventKind::task_begin, 0.2));
  rec.ring(1).push(ev(FlightEventKind::task_end, 0.4));
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].worker, 1);
  EXPECT_EQ(merged[1].worker, 2);
  EXPECT_EQ(merged[2].worker, 0);
  EXPECT_EQ(merged[3].worker, 1);
  for (std::size_t i = 1; i < merged.size(); ++i)
    EXPECT_LE(merged[i - 1].event.t_seconds, merged[i].event.t_seconds);
}

TEST(FlightRecorder, TotalsAggregateOverRings) {
  FlightRecorder rec(2, 4);
  for (int i = 0; i < 6; ++i)
    rec.ring(0).push(ev(FlightEventKind::idle_begin, 0.1 * i));
  rec.ring(1).push(ev(FlightEventKind::idle_end, 0.05));
  EXPECT_EQ(rec.total_recorded(), 7u);
  EXPECT_EQ(rec.total_dropped(), 2u);
  EXPECT_EQ(rec.memory_bytes(), 2 * 4 * sizeof(FlightEvent));
}

TEST(FlightSummary, CountsKindsAndPairsIdleIntervals) {
  FlightRecorder rec(1, 16);
  FlightRing& ring = rec.ring(0);
  ring.push(ev(FlightEventKind::idle_begin, 0.0));
  ring.push(ev(FlightEventKind::idle_end, 0.5));
  ring.push(ev(FlightEventKind::idle_begin, 0.8));
  ring.push(ev(FlightEventKind::idle_end, 1.0));
  const obs::FlightSummary s = obs::summarize(rec);
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.count(FlightEventKind::idle_begin), 2u);
  EXPECT_NEAR(s.idle_seconds, 0.7, 1e-12);
}

// --- runtime integration ---------------------------------------------------

TaskGraph make_graph(const std::vector<part_t>& domains,
                     const std::vector<index_t>& subiterations,
                     const std::vector<std::vector<index_t>>& deps) {
  std::vector<Task> tasks(domains.size());
  for (std::size_t i = 0; i < domains.size(); ++i) {
    tasks[i].domain = domains[i];
    tasks[i].subiteration = subiterations.empty() ? 0 : subiterations[i];
    tasks[i].cost = 1 + static_cast<simtime_t>(i % 3);
    tasks[i].num_objects = 1;
  }
  return TaskGraph(std::move(tasks), deps);
}

/// Diamond over two processes with two subiterations — enough structure
/// for dependency releases, idle windows and cross-process waits.
TaskGraph diamond2p() {
  return make_graph({0, 0, 1, 1, 0, 1}, {0, 0, 0, 1, 1, 1},
                    {{}, {0}, {0}, {1, 2}, {3}, {3}});
}

runtime::ExecutionReport run_recorded(const TaskGraph& g,
                                      std::size_t ring_capacity =
                                          FlightRecorder::kDefaultRingCapacity) {
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  cfg.flight.enabled = true;
  cfg.flight.ring_capacity = ring_capacity;
  return runtime::execute(g, {0, 1}, cfg,
                          runtime::make_synthetic_body(g, 2e-5));
}

TEST(FlightRuntime, RecordsLifecycleEventsForEveryTask) {
  const TaskGraph g = diamond2p();
  const runtime::ExecutionReport rep = run_recorded(g);
  ASSERT_NE(rep.flight, nullptr);
  EXPECT_EQ(rep.flight->num_workers(), 4);
  EXPECT_EQ(rep.flight->total_dropped(), 0u);
  const obs::FlightSummary s = obs::summarize(*rep.flight);
  EXPECT_EQ(s.count(FlightEventKind::task_dequeue), 6u);
  EXPECT_EQ(s.count(FlightEventKind::task_begin), 6u);
  EXPECT_EQ(s.count(FlightEventKind::task_end), 6u);
  // Every non-source task's pending counter was released exactly once by
  // its last-finishing predecessor.
  EXPECT_EQ(s.count(FlightEventKind::dep_release), 5u);
}

TEST(FlightRuntime, EventsCarryTaskIdsAndLineUpWithSpans) {
  const TaskGraph g = diamond2p();
  const runtime::ExecutionReport rep = run_recorded(g);
  ASSERT_NE(rep.flight, nullptr);
  std::vector<int> begins(6, 0);
  for (const obs::WorkerFlightEvent& we : rep.flight->merged()) {
    if (we.event.kind != FlightEventKind::task_begin) continue;
    ASSERT_GE(we.event.a, 0);
    ASSERT_LT(we.event.a, 6);
    const auto& span = rep.spans[static_cast<std::size_t>(we.event.a)];
    // The begin event is stamped with the span's own start time.
    EXPECT_DOUBLE_EQ(we.event.t_seconds, span.start);
    ++begins[static_cast<std::size_t>(we.event.a)];
  }
  for (const int n : begins) EXPECT_EQ(n, 1);
}

TEST(FlightRuntime, TinyRingsDropButKeepAccounting) {
  const TaskGraph g = diamond2p();
  const runtime::ExecutionReport rep = run_recorded(g, /*ring_capacity=*/2);
  ASSERT_NE(rep.flight, nullptr);
  const obs::FlightSummary s = obs::summarize(*rep.flight);
  EXPECT_EQ(s.events + s.dropped, s.recorded);
  EXPECT_GT(s.dropped, 0u);
  for (int w = 0; w < rep.flight->num_workers(); ++w)
    EXPECT_LE(rep.flight->ring(w).size(), 2u);
}

TEST(FlightRuntime, DisabledConfigRecordsNothing) {
  const TaskGraph g = diamond2p();
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  const runtime::ExecutionReport rep =
      runtime::execute(g, {0, 1}, cfg, [](index_t) {});
  EXPECT_EQ(rep.flight, nullptr);
}

// --- measured-run doctor ---------------------------------------------------

TEST(Measured, AdapterPreservesSpansAndCapacity) {
  const TaskGraph g = diamond2p();
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  const runtime::ExecutionReport rep =
      runtime::execute(g, {0, 1}, cfg, runtime::make_synthetic_body(g, 2e-5));
  const sim::SimResult sr = sim::to_sim_result(rep);
  ASSERT_EQ(sr.timing.size(), 6u);
  EXPECT_EQ(sr.num_processes, 2);
  ASSERT_EQ(sr.workers_used.size(), 2u);
  EXPECT_EQ(sr.workers_used[0], 2);
  EXPECT_GE(sr.makespan, rep.wall_seconds);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_DOUBLE_EQ(sr.timing[t].start, rep.spans[t].start);
    EXPECT_DOUBLE_EQ(sr.timing[t].end, rep.spans[t].end);
    EXPECT_EQ(sr.timing[t].process, rep.spans[t].process);
    EXPECT_EQ(sr.timing[t].worker, rep.spans[t].worker);
  }
}

TEST(Measured, AdapterRejectsSpansOutsideTheReportsWorkers) {
  runtime::ExecutionReport rep;
  rep.num_processes = 1;
  rep.workers_per_process = 2;
  rep.wall_seconds = 1.0;
  rep.spans = {{0.0, 0.5, 0, 1}, {0.5, 1.0, 1, 0}};  // process 1 of 1
  EXPECT_THROW((void)sim::to_sim_result(rep), precondition_error);
  rep.spans[1] = {0.5, 1.0, 0, 2};  // worker 2 of 2
  EXPECT_THROW((void)sim::to_sim_result(rep), precondition_error);
}

TEST(Measured, BlameSharesSumExactlyToIdleFraction) {
  // The property the doctor's accounting promises, now on a *measured*
  // execution: for every process, the three blame shares sum to its idle
  // fraction (window-sliced attribution loses nothing).
  const TaskGraph g = diamond2p();
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  const runtime::ExecutionReport rep =
      runtime::execute(g, {0, 1}, cfg, runtime::make_synthetic_body(g, 5e-5));
  const sim::SimResult sr = sim::to_sim_result(rep);
  const sim::DoctorReport doc = sim::diagnose_measured(g, rep);
  for (part_t p = 0; p < 2; ++p) {
    const double sum =
        doc.blame.share(p, sim::IdleCause::dependency_wait) +
        doc.blame.share(p, sim::IdleCause::starvation) +
        doc.blame.share(p, sim::IdleCause::tail_imbalance);
    EXPECT_NEAR(sum, sr.idle_fraction(p), 1e-9);
  }
}

TEST(Measured, DivergenceOfSimAgainstItselfIsZero) {
  // Fabricate a "measured" report that replays the simulated schedule at
  // a fixed seconds-per-unit: every divergence metric must vanish.
  const TaskGraph g = diamond2p();
  sim::SimOptions opts;
  opts.cluster.num_processes = 2;
  opts.cluster.workers_per_process = 2;
  const sim::SimResult sr = sim::simulate(g, {0, 1}, opts);
  const double spu = 1e-4;
  runtime::ExecutionReport rep;
  rep.num_processes = 2;
  rep.workers_per_process = 2;
  rep.wall_seconds = sr.makespan * spu;
  for (const sim::TaskTiming& t : sr.timing) {
    runtime::ExecutionReport::Span span;
    span.start = t.start * spu;
    span.end = t.end * spu;
    span.process = t.process;
    span.worker = t.worker;
    rep.spans.push_back(span);
  }
  const sim::DivergenceReport d = sim::compare_sim_to_measured(g, sr, rep, spu);
  EXPECT_NEAR(d.rel_makespan_gap, 0.0, 1e-9);
  EXPECT_NEAR(d.idle_share_gap, 0.0, 1e-9);
  EXPECT_NEAR(d.max_abs_idle_gap, 0.0, 1e-9);
  EXPECT_NEAR(d.max_abs_rel_window_gap, 0.0, 1e-9);
  ASSERT_FALSE(d.subiterations.empty());
}

TEST(Measured, DivergenceAutoCalibratesSecondsPerUnit) {
  const TaskGraph g = diamond2p();
  sim::SimOptions opts;
  opts.cluster.num_processes = 2;
  opts.cluster.workers_per_process = 2;
  const sim::SimResult sr = sim::simulate(g, {0, 1}, opts);
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  const runtime::ExecutionReport rep =
      runtime::execute(g, {0, 1}, cfg, runtime::make_synthetic_body(g, 2e-5));
  const sim::DivergenceReport d = sim::compare_sim_to_measured(g, sr, rep);
  EXPECT_GT(d.seconds_per_unit, 0.0);
  EXPECT_GT(d.sim_makespan_seconds, 0.0);
}

TEST(FlightTrace, MergedExporterRendersCounterTracks) {
  const TaskGraph g = make_graph({0, 0}, {}, {{}, {0}});
  auto rec = std::make_shared<obs::FlightRecorder>(1, 16);
  using K = FlightEventKind;
  rec->ring(0).push({K::task_dequeue, 0.0, 0, 2});
  rec->ring(0).push({K::idle_begin, 0.15, -1, -1});
  rec->ring(0).push({K::idle_end, 0.3, -1, -1});
  rec->ring(0).push({K::task_dequeue, 0.4, 1, 0});

  runtime::ExecutionReport rep;
  rep.num_processes = 1;
  rep.workers_per_process = 1;
  rep.wall_seconds = 0.5;
  rep.spans = {{0.0, 0.1, 0, 0}, {0.4, 0.5, 0, 0}};
  rep.flight = rec;

  const std::string trace = sim::to_chrome_trace_merged(g, rep);
  EXPECT_NE(trace.find(R"("name":"ready_queue","ph":"C")"),
            std::string::npos);
  EXPECT_NE(trace.find(R"("name":"idle_workers","ph":"C")"),
            std::string::npos);
  // Queue depth samples carry the recorded post-dequeue depths.
  EXPECT_NE(trace.find(R"("args":{"depth":2})"), std::string::npos);
  EXPECT_NE(trace.find(R"("args":{"depth":0})"), std::string::npos);
}

/// A double as the trace prints it (default stream precision), read back.
double as_printed(double v) {
  std::ostringstream os;
  os << v;
  return std::strtod(os.str().c_str(), nullptr);
}

TEST(FlightTrace, MeasuredExporterRendersARecordedExecution) {
  // The measured trace is the simulated exporter's body over
  // to_sim_result(report) in microseconds, plus the idle_workers track.
  const TaskGraph g = diamond2p();
  const runtime::ExecutionReport rep = run_recorded(g);
  ASSERT_NE(rep.flight, nullptr);
  const obs::JsonValue doc =
      obs::JsonValue::parse(sim::to_chrome_trace_merged(g, rep));
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t tasks = 0, ready_queue = 0, idle_workers = 0;
  for (const obs::JsonValue& e : events->as_array()) {
    // Pipeline spans (recorded when TAMP_TRACE is set) live on their own pid.
    if (e.number_or("pid", -1) == obs::kPipelineTracePid) continue;
    const std::string& name = e.find("name")->as_string();
    const std::string& ph = e.find("ph")->as_string();
    if (ph == "X") {
      // Task events come in task-id order.
      ASSERT_LT(tasks, rep.spans.size());
      const auto& span = rep.spans[tasks++];
      EXPECT_EQ(e.number_or("pid", -1), span.process);
      EXPECT_EQ(e.number_or("tid", -1), span.worker);
      EXPECT_EQ(e.number_or("ts", -1), as_printed(span.start * 1e6));
      EXPECT_EQ(e.number_or("dur", -1),
                as_printed((span.end - span.start) * 1e6));
    } else if (name == "ready_queue") {
      ++ready_queue;
    } else if (name == "idle_workers") {
      ++idle_workers;
    }
  }
  EXPECT_EQ(tasks, static_cast<std::size_t>(g.num_tasks()));
  EXPECT_EQ(ready_queue, obs::summarize(*rep.flight)
                             .count(FlightEventKind::task_dequeue));
  EXPECT_GT(idle_workers, 0u);
}

}  // namespace
}  // namespace tamp
