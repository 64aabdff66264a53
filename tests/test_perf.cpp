// Tests of the perf counter-group wrapper and its runtime attribution:
// fallback tiers, multiplex-corrected deltas, per-class aggregation, and
// the "perf.* keys only when counters are live" publication contract.
//
// Hardware-tier assertions are availability-conditional: containers and
// CI runners usually deny perf_event_open (or have no PMU), which is
// exactly the environment the fallback tiers exist for, so the tests
// assert graceful degradation rather than demanding counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "runtime/perf_report.hpp"
#include "runtime/runtime.hpp"

namespace tamp {
namespace {

using obs::PerfCounterId;
using obs::PerfGroup;
using obs::PerfSample;
using obs::PerfTier;
using taskgraph::Task;
using taskgraph::TaskGraph;

TEST(PerfGroup, UnavailableTierReadsNothing) {
  PerfGroup group(PerfTier::unavailable);
  EXPECT_EQ(group.tier(), PerfTier::unavailable);
  EXPECT_EQ(group.num_valid(), 0);
  PerfSample s;
  s.thread_cpu_ns = 42.0;
  EXPECT_FALSE(group.read(s));
  EXPECT_EQ(s.thread_cpu_ns, 42.0);  // untouched
}

TEST(PerfGroup, ClockOnlyTierFillsThreadCpuMonotonically) {
  PerfGroup group(PerfTier::clock_only);
  EXPECT_EQ(group.tier(), PerfTier::clock_only);
  EXPECT_EQ(group.num_valid(), 0);
  PerfSample a, b;
  ASSERT_TRUE(group.read(a));
  // Burn a little CPU so the thread clock must advance.
  volatile double sink = 0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1e-9;
  ASSERT_TRUE(group.read(b));
  EXPECT_GE(b.thread_cpu_ns, a.thread_cpu_ns);
  for (int c = 0; c < obs::kNumPerfCounters; ++c)
    EXPECT_EQ(b.count[static_cast<std::size_t>(c)], 0u);
}

TEST(PerfGroup, ProbeNeverExceedsCeiling) {
  EXPECT_EQ(PerfGroup::probe(PerfTier::unavailable), PerfTier::unavailable);
  EXPECT_EQ(PerfGroup::probe(PerfTier::clock_only), PerfTier::clock_only);
  // The full probe grants whatever the environment allows, but never
  // less than clock_only (the clock needs no privilege).
  EXPECT_GE(static_cast<int>(PerfGroup::probe(PerfTier::hardware)),
            static_cast<int>(PerfTier::clock_only));
}

TEST(PerfGroup, HardwareTierReadsConsistentCounts) {
  PerfGroup group(PerfTier::hardware);
  if (group.tier() != PerfTier::hardware)
    GTEST_SKIP() << "no perf_event access in this environment";
  PerfSample a, b;
  ASSERT_TRUE(group.read(a));
  volatile double sink = 0;
  for (int i = 0; i < 500000; ++i) sink = sink + 1e-9;
  ASSERT_TRUE(group.read(b));
  const auto cyc = static_cast<std::size_t>(PerfCounterId::cycles);
  EXPECT_GT(b.count[cyc], a.count[cyc]);
  EXPECT_GE(b.time_enabled_ns, a.time_enabled_ns);
  const obs::PerfDelta d = obs::perf_delta(a, b);
  EXPECT_GT(d.count[cyc], 0.0);
  EXPECT_GT(d.running_share, 0.0);
  EXPECT_LE(d.running_share, 1.0 + 1e-9);
}

TEST(PerfDelta, AppliesMultiplexCorrection) {
  PerfSample begin, end;
  begin.count = {1000, 500, 10, 5, 100};
  begin.time_enabled_ns = 1000;
  begin.time_running_ns = 1000;
  end.count = {2000, 1000, 30, 15, 300};
  // Group enabled for 1000 ns more but only running for 500 of them:
  // counts extrapolate ×2.
  end.time_enabled_ns = 2000;
  end.time_running_ns = 1500;
  const obs::PerfDelta d = obs::perf_delta(begin, end);
  EXPECT_DOUBLE_EQ(d.running_share, 0.5);
  EXPECT_DOUBLE_EQ(d.count[0], 2000.0);
  EXPECT_DOUBLE_EQ(d.count[1], 1000.0);
  EXPECT_DOUBLE_EQ(d.count[2], 40.0);
}

TEST(PerfDelta, ZeroWindowYieldsZeros) {
  PerfSample s;
  s.count = {7, 7, 7, 7, 7};
  const obs::PerfDelta d = obs::perf_delta(s, s);
  for (double c : d.count) EXPECT_EQ(c, 0.0);
  EXPECT_DOUBLE_EQ(d.running_share, 1.0);
}

TEST(PerfEnv, TampPerfCapsRequestedTier) {
  const char* old = std::getenv("TAMP_PERF");
  const std::string saved = old ? old : "";
  setenv("TAMP_PERF", "off", 1);
  EXPECT_EQ(obs::requested_perf_tier(), PerfTier::unavailable);
  setenv("TAMP_PERF", "clock", 1);
  EXPECT_EQ(obs::requested_perf_tier(), PerfTier::clock_only);
  setenv("TAMP_PERF", "anything-else", 1);
  EXPECT_EQ(obs::requested_perf_tier(), PerfTier::hardware);
  if (old)
    setenv("TAMP_PERF", saved.c_str(), 1);
  else
    unsetenv("TAMP_PERF");
}

TEST(TaskClass, DenseIdRoundTrips) {
  for (int level = 0; level < 4; ++level)
    for (int type = 0; type < 2; ++type)
      for (int loc = 0; loc < 2; ++loc) {
        taskgraph::TaskClass c;
        c.level = static_cast<level_t>(level);
        c.type = static_cast<taskgraph::ObjectType>(type);
        c.locality = static_cast<taskgraph::Locality>(loc);
        EXPECT_EQ(taskgraph::TaskClass::from_id(c.id()), c);
      }
  taskgraph::TaskClass c;
  c.level = 2;
  c.type = taskgraph::ObjectType::face;
  c.locality = taskgraph::Locality::internal;
  EXPECT_EQ(c.label(), "t2:face:int");
}

TaskGraph two_class_graph() {
  std::vector<Task> tasks(4);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].domain = 0;
    tasks[i].cost = 1;
    tasks[i].num_objects = static_cast<index_t>(10 * (i + 1));
    tasks[i].subiteration = static_cast<index_t>(i / 2);
    tasks[i].level = static_cast<level_t>(i % 2);
  }
  return TaskGraph(std::move(tasks), {{}, {0}, {1}, {2}});
}

/// Pins TAMP_PERF for one test: the env ceiling composes with the config
/// ceiling inside runtime::execute, so tests that assert a specific tier
/// must not inherit whatever the harness environment set.
class ScopedTampPerf {
public:
  explicit ScopedTampPerf(const char* value) {
    const char* old = std::getenv("TAMP_PERF");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr)
      setenv("TAMP_PERF", value, 1);
    else
      unsetenv("TAMP_PERF");
  }
  ~ScopedTampPerf() {
    if (had_old_)
      setenv("TAMP_PERF", old_.c_str(), 1);
    else
      unsetenv("TAMP_PERF");
  }
  ScopedTampPerf(const ScopedTampPerf&) = delete;
  ScopedTampPerf& operator=(const ScopedTampPerf&) = delete;

private:
  bool had_old_ = false;
  std::string old_;
};

runtime::ExecutionReport run_with_tier(const TaskGraph& g, PerfTier tier,
                                       bool enabled = true) {
  runtime::RuntimeConfig cfg;
  cfg.workers_per_process = 2;
  cfg.perf.enabled = enabled;
  cfg.perf.max_tier = tier;
  volatile double sink = 0;
  return runtime::execute(g, {0}, cfg, [&sink](index_t) {
    for (int i = 0; i < 10000; ++i) sink = sink + 1e-9;
  });
}

TEST(RuntimePerf, DisabledLeavesAttributionEmpty) {
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::hardware, /*enabled=*/false);
  EXPECT_EQ(report.perf.tier, PerfTier::unavailable);
  EXPECT_TRUE(report.perf.per_task.empty());
  EXPECT_FALSE(report.perf.live());
}

TEST(RuntimePerf, ForcedUnavailableYieldsValidEmptyProfile) {
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::unavailable);
  EXPECT_EQ(report.perf.tier, PerfTier::unavailable);
  EXPECT_TRUE(report.perf.per_task.empty());
  const runtime::PerfProfile profile = runtime::aggregate_perf(g, report);
  EXPECT_EQ(profile.tier, PerfTier::unavailable);
  EXPECT_TRUE(profile.rows.empty());
  EXPECT_FALSE(profile.live());
}

TEST(RuntimePerf, ClockTierAttributesCpuTimePerTask) {
  const ScopedTampPerf env("clock");
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::clock_only);
  EXPECT_EQ(report.perf.tier, PerfTier::clock_only);
  ASSERT_EQ(report.perf.per_task.size(),
            static_cast<std::size_t>(g.num_tasks()));
  EXPECT_FALSE(report.perf.live());  // clock tier is not counter-live
  for (const obs::PerfDelta& d : report.perf.per_task)
    EXPECT_GE(d.thread_cpu_ns, 0.0);
}

TEST(RuntimePerf, AggregationGroupsByProcessSubiterationClass) {
  const ScopedTampPerf env("clock");
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::clock_only);
  const runtime::PerfProfile profile = runtime::aggregate_perf(g, report);
  // 2 subiterations × 2 levels, one process: 4 rows, 1 task each.
  ASSERT_EQ(profile.rows.size(), 4u);
  double objects = 0;
  for (const runtime::PerfProfileRow& r : profile.rows) {
    EXPECT_EQ(r.tasks, 1);
    EXPECT_EQ(r.process, 0);
    objects += r.objects;
  }
  EXPECT_DOUBLE_EQ(objects, 10 + 20 + 30 + 40);
  // Sorted by (process, subiteration, class id).
  for (std::size_t i = 1; i < profile.rows.size(); ++i) {
    const auto& a = profile.rows[i - 1];
    const auto& b = profile.rows[i];
    EXPECT_TRUE(a.subiteration < b.subiteration ||
                (a.subiteration == b.subiteration &&
                 a.cls.id() < b.cls.id()));
  }
}

TEST(RuntimePerf, NoPerfKeysLeakFromDegradedRuns) {
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::clock_only);
  runtime::publish_execution_metrics(g, report);
  runtime::publish_perf_metrics(runtime::aggregate_perf(g, report));
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  for (const auto& [name, value] : snap.gauges)
    EXPECT_TRUE(name.rfind("perf.", 0) != 0) << "leaked metric: " << name;
}

TEST(RuntimePerf, LiveProfilePublishesPerfKeys) {
  // Synthetic live profile: the publication contract must be testable
  // without PMU access.
  runtime::PerfProfile profile;
  profile.tier = PerfTier::hardware;
  profile.counter_valid.fill(true);
  runtime::PerfProfileRow row;
  row.process = 0;
  row.subiteration = 0;
  row.cls = taskgraph::TaskClass::from_id(0);
  row.tasks = 2;
  row.objects = 1000;
  row.seconds = 0.01;
  row.count = {2e6, 3e6, 1e4, 1e3, 5e5};
  profile.rows.push_back(row);
  ASSERT_TRUE(profile.live());
  runtime::publish_perf_metrics(profile);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  bool saw_ipc = false, saw_class = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "perf.ipc") {
      saw_ipc = true;
      EXPECT_DOUBLE_EQ(value, 1.5);
    }
    if (name == "perf.class.t0.face.ext.ipc") saw_class = true;
  }
  EXPECT_TRUE(saw_ipc);
  EXPECT_TRUE(saw_class);
}

TEST(RuntimePerf, EnvOffForcesFallbackThroughRealRuntime) {
  const char* old = std::getenv("TAMP_PERF");
  const std::string saved = old ? old : "";
  setenv("TAMP_PERF", "off", 1);
  const TaskGraph g = two_class_graph();
  const runtime::ExecutionReport report =
      run_with_tier(g, PerfTier::hardware);
  EXPECT_EQ(report.perf.tier, PerfTier::unavailable);
  EXPECT_TRUE(report.perf.per_task.empty());
  if (old)
    setenv("TAMP_PERF", saved.c_str(), 1);
  else
    unsetenv("TAMP_PERF");
}

TEST(PerfProfileRow, DerivedQuantities) {
  runtime::PerfProfileRow row;
  row.objects = 2000;
  row.seconds = 0.001;
  row.count = {1e6, 2e6, 4000, 100, 2.5e5};
  EXPECT_DOUBLE_EQ(row.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(row.llc_miss_per_kobject(), 2000.0);
  EXPECT_DOUBLE_EQ(row.stall_share(), 0.25);
  // 4000 misses × 64 B / 1 ms = 0.256 GB/s.
  EXPECT_DOUBLE_EQ(row.est_dram_gbps(), 0.256);
}

}  // namespace
}  // namespace tamp
