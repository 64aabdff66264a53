// Microbenchmarks of the observability layer's overhead — the numbers
// behind the "tracing costs next to nothing when off" claim. Every
// build compiles the instrumentation in, so the off cost is the
// runtime-disabled one:
//
//  * BM_PipelineTracing/0 vs /1: full run_on_mesh with the session
//    runtime-disabled vs enabled (whole-pipeline overhead);
//  * BM_TraceScopeDisabled: the per-site cost paid by instrumented code
//    while tracing is switched off (one relaxed load);
//  * BM_TraceScopeEnabled / BM_HistogramRecord / BM_CounterAdd: the cost
//    actually paid while recording;
//  * BM_RegistryLookup: why hot loops must cache metric references.
//
// The flight-recorder section backs the runtime flight recorder's cost
// claims the same way:
//
//  * BM_FlightRingPush: raw ns/event of a ring store (the attached cost);
//  * BM_FlightRecordDetached: the TAMP_FLIGHT_RECORD macro with no
//    recorder attached (one null test);
//  * BM_RuntimeFlightOverhead/0 vs /1: a full runtime::execute of a real
//    task graph with recording off vs on (the <2% end-to-end claim).
//
// The perf-counter section measures the cost the runtime pays per task
// for counter attribution: BM_PerfGroupRead (one grouped perf_event
// read at the strongest tier the environment grants, or one
// clock_gettime at the clock-only fallback) and
// BM_PerfGroupReadUnavailable (the disabled path).
//
// After the benchmarks run, main() re-measures the headline numbers
// directly and dumps them as obs.flight.* / obs.perf.* gauges
// (tamp-metrics-v1) under TAMP_BENCH_METRICS_DIR — the committed
// Release snapshot lives at bench/snapshots/micro_obs.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace tamp;

struct MeshFixture {
  mesh::Mesh m;
  MeshFixture()
      : m([] {
          mesh::TestMeshSpec spec;
          spec.target_cells = 20'000;
          return mesh::make_cylinder_mesh(spec);
        }()) {}
  static const MeshFixture& get() {
    static MeshFixture f;
    return f;
  }
};

void BM_PipelineTracing(benchmark::State& state) {
  const bool tracing_on = state.range(0) != 0;
  const auto& f = MeshFixture::get();
  core::RunConfig cfg;
  cfg.strategy = partition::Strategy::mc_tl;
  cfg.ndomains = 16;
  cfg.nprocesses = 4;
  cfg.workers_per_process = 4;
  obs::set_tracing_enabled(tracing_on);
  for (auto _ : state) {
    auto out = core::run_on_mesh(f.m, cfg);
    benchmark::DoNotOptimize(out.sim.makespan);
    if (tracing_on) {
      // Keep the session from growing unboundedly across iterations;
      // clearing is excluded from the measurement.
      state.PauseTiming();
      obs::TraceSession::instance().clear();
      state.ResumeTiming();
    }
  }
  obs::set_tracing_enabled(false);
  obs::TraceSession::instance().clear();
  state.SetItemsProcessed(state.iterations() * f.m.num_cells());
}
BENCHMARK(BM_PipelineTracing)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TraceScopeDisabled(benchmark::State& state) {
  obs::set_tracing_enabled(false);
  for (auto _ : state) {
    TAMP_TRACE_SCOPE("bench/span");
  }
}
BENCHMARK(BM_TraceScopeDisabled);

void BM_TraceScopeEnabled(benchmark::State& state) {
  obs::set_tracing_enabled(true);
  std::size_t since_clear = 0;
  for (auto _ : state) {
    TAMP_TRACE_SCOPE("bench/span");
    if (++since_clear == 65536) {
      since_clear = 0;
      state.PauseTiming();
      obs::TraceSession::instance().clear();
      state.ResumeTiming();
    }
  }
  obs::set_tracing_enabled(false);
  obs::TraceSession::instance().clear();
}
BENCHMARK(BM_TraceScopeEnabled);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter& c = obs::counter("bench.counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& h = obs::histogram("bench.histogram");
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;  // sweep buckets, stay predictable
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_RegistryLookup(benchmark::State& state) {
  obs::counter("bench.lookup");  // pre-register
  for (auto _ : state) {
    benchmark::DoNotOptimize(&obs::counter("bench.lookup"));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_FlightRingPush(benchmark::State& state) {
  obs::FlightRing ring(obs::FlightRecorder::kDefaultRingCapacity);
  obs::FlightRing* rp = &ring;
  double t = 0;
  for (auto _ : state) {
    TAMP_FLIGHT_RECORD(rp, obs::FlightEventKind::task_begin, t, 7, 3);
    t += 1e-7;
  }
  benchmark::DoNotOptimize(ring.total_recorded());
}
BENCHMARK(BM_FlightRingPush);

void BM_FlightRecordDetached(benchmark::State& state) {
  obs::FlightRing* rp = nullptr;
  benchmark::DoNotOptimize(rp);
  double t = 0;
  for (auto _ : state) {
    TAMP_FLIGHT_RECORD(rp, obs::FlightEventKind::task_begin, t, 7, 3);
    t += 1e-7;
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_FlightRecordDetached);

void BM_PerfGroupRead(benchmark::State& state) {
  // Strongest tier this environment grants: hardware where perf_event
  // works (a grouped syscall read), clock_only elsewhere (one
  // clock_gettime). The tier is printed in the counters so runs on
  // different machines stay comparable.
  obs::PerfGroup group;
  obs::PerfSample s;
  for (auto _ : state) {
    group.read(s);
    benchmark::DoNotOptimize(s.thread_cpu_ns);
  }
  state.counters["tier"] = static_cast<double>(group.tier());
}
BENCHMARK(BM_PerfGroupRead);

void BM_PerfGroupReadUnavailable(benchmark::State& state) {
  // The forced-off path the runtime pays per task when perf recording is
  // disabled at runtime: a single tier test.
  obs::PerfGroup group(obs::PerfTier::unavailable);
  obs::PerfSample s;
  for (auto _ : state) benchmark::DoNotOptimize(group.read(s));
}
BENCHMARK(BM_PerfGroupReadUnavailable);

/// Shared task graph for the end-to-end overhead measurement: the
/// pipeline's real graph with fast synthetic bodies, so the measured
/// overhead covers every instrumentation site the production runtime has.
struct GraphFixture {
  core::RunOutcome out;
  GraphFixture()
      : out([] {
          core::RunConfig cfg;
          cfg.strategy = partition::Strategy::mc_tl;
          cfg.ndomains = 16;
          cfg.nprocesses = 2;
          cfg.workers_per_process = 2;
          return core::run_on_mesh(MeshFixture::get().m, cfg);
        }()) {}
  static const GraphFixture& get() {
    static GraphFixture f;
    return f;
  }
};

double run_graph_once(bool flight) {
  const auto& f = GraphFixture::get();
  runtime::RuntimeConfig cfg;
  cfg.num_processes = 2;
  cfg.workers_per_process = 2;
  cfg.flight.enabled = flight;
  const auto report = runtime::execute(
      f.out.graph, f.out.domain_to_process, cfg,
      runtime::make_synthetic_body(f.out.graph, 1e-7));
  return report.wall_seconds;
}

void BM_RuntimeFlightOverhead(benchmark::State& state) {
  const bool flight = state.range(0) != 0;
  for (auto _ : state) benchmark::DoNotOptimize(run_graph_once(flight));
}
BENCHMARK(BM_RuntimeFlightOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Direct re-measurement of the headline numbers as obs.flight.* gauges.
/// Deliberately outside google-benchmark so the values land in the
/// metrics registry for dump_bench_metrics / the committed snapshot.
void publish_flight_gauges() {
  obs::gauge("obs.flight.bytes_per_event")
      .set(static_cast<double>(sizeof(obs::FlightEvent)));

  constexpr int kEvents = 1 << 20;
  {
    obs::FlightRing ring(obs::FlightRecorder::kDefaultRingCapacity);
    obs::FlightRing* rp = &ring;
    Stopwatch sw;
    for (int i = 0; i < kEvents; ++i)
      TAMP_FLIGHT_RECORD(rp, obs::FlightEventKind::task_begin, 1e-7 * i, i);
    benchmark::DoNotOptimize(ring.total_recorded());
    obs::gauge("obs.flight.ns_per_event.attached")
        .set(sw.seconds() * 1e9 / kEvents);
  }
  {
    obs::FlightRing* rp = nullptr;
    benchmark::DoNotOptimize(rp);
    Stopwatch sw;
    for (int i = 0; i < kEvents; ++i)
      TAMP_FLIGHT_RECORD(rp, obs::FlightEventKind::task_begin, 1e-7 * i, i);
    obs::gauge("obs.flight.ns_per_event.detached")
        .set(sw.seconds() * 1e9 / kEvents);
  }

  // End-to-end: median of repeated graph executions, recording off vs on.
  auto median_wall = [](bool flight) {
    std::array<double, 5> runs{};
    for (double& r : runs) r = run_graph_once(flight);
    std::sort(runs.begin(), runs.end());
    return runs[runs.size() / 2];
  };
  run_graph_once(false);  // warm-up (threads, page cache)
  const double off = median_wall(false);
  const double on = median_wall(true);
  obs::gauge("obs.flight.runtime_wall_seconds.off").set(off);
  obs::gauge("obs.flight.runtime_wall_seconds.on").set(on);
  obs::gauge("obs.flight.runtime_overhead_rel")
      .set(off > 0 ? on / off - 1.0 : 0.0);
}

/// Perf-counter read cost as obs.perf.* gauges. "attached" is the
/// strongest tier the environment grants (hardware: one grouped syscall
/// read; clock_only: one clock_gettime) — obs.perf.tier says which was
/// measured, so snapshots from perf-less CI runners are not mistaken for
/// syscall costs. "fallback" is the forced-unavailable path the runtime
/// pays per task when recording is disabled.
void publish_perf_gauges() {
  obs::gauge("obs.perf.tier")
      .set(static_cast<double>(obs::PerfGroup::probe()));
  constexpr int kReads = 1 << 16;
  {
    obs::PerfGroup group;
    obs::gauge("obs.perf.counters_valid").set(group.num_valid());
    obs::PerfSample s;
    Stopwatch sw;
    for (int i = 0; i < kReads; ++i) {
      group.read(s);
      benchmark::DoNotOptimize(s.thread_cpu_ns);
    }
    obs::gauge("obs.perf.ns_per_read.attached")
        .set(sw.seconds() * 1e9 / kReads);
  }
  {
    obs::PerfGroup group(obs::PerfTier::unavailable);
    obs::PerfSample s;
    Stopwatch sw;
    for (int i = 0; i < kReads; ++i) benchmark::DoNotOptimize(group.read(s));
    benchmark::DoNotOptimize(s.thread_cpu_ns);
    obs::gauge("obs.perf.ns_per_read.fallback")
        .set(sw.seconds() * 1e9 / kReads);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  publish_flight_gauges();
  publish_perf_gauges();
  tamp::bench::dump_bench_metrics("micro_obs");
  return 0;
}
