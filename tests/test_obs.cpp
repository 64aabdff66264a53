// Unit tests for the observability layer: trace sessions (span nesting,
// concurrent lock-free recording), the metrics registry (counters,
// gauges, histogram percentiles), exporters (JSON escaping, trace-event
// documents that actually parse), and the pipeline integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/trace_json.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace tamp::obs {
namespace {

// --- minimal JSON validator --------------------------------------------------
// Recursive-descent syntax check (no DOM): enough to prove the exporters
// emit well-formed JSON, including escaping, without a JSON dependency.

class JsonValidator {
public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }
  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(
                    s_[pos_ + static_cast<std::size_t>(i)])) == 0)
              return false;
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_parses(const std::string& text) {
  return JsonValidator(text).valid();
}

// --- fixtures ----------------------------------------------------------------

/// Every test starts from a clean, enabled session and leaves the global
/// recorder disabled (other test binaries share the defaults).
class ObsTest : public testing::Test {
protected:
  void SetUp() override {
    TraceSession::instance().clear();
    Registry::instance().reset();
    set_tracing_enabled(true);
  }
  void TearDown() override {
    set_tracing_enabled(false);
    TraceSession::instance().clear();
    Registry::instance().reset();
  }
};

std::vector<TraceEvent> spans_named(const std::vector<TraceEvent>& events,
                                    const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events)
    if (e.kind == EventKind::span && e.name == name) out.push_back(e);
  return out;
}

// --- tracing -----------------------------------------------------------------

TEST_F(ObsTest, ScopeRecordsCompleteSpan) {
  { TAMP_TRACE_SCOPE("unit/outer"); }
  const auto events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit/outer");
  EXPECT_EQ(events[0].kind, EventKind::span);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_GE(events[0].end_ns, events[0].start_ns);
}

TEST_F(ObsTest, NestedScopesTrackDepthAndContainment) {
  {
    TAMP_TRACE_SCOPE("unit/a");
    {
      TAMP_TRACE_SCOPE("unit/b");
      { TAMP_TRACE_SCOPE("unit/c"); }
    }
    { TAMP_TRACE_SCOPE("unit/b2"); }
  }
  const auto events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 4u);
  const auto a = spans_named(events, "unit/a").at(0);
  const auto b = spans_named(events, "unit/b").at(0);
  const auto c = spans_named(events, "unit/c").at(0);
  const auto b2 = spans_named(events, "unit/b2").at(0);
  EXPECT_EQ(a.depth, 0);
  EXPECT_EQ(b.depth, 1);
  EXPECT_EQ(c.depth, 2);
  EXPECT_EQ(b2.depth, 1);  // depth restored after unit/b closed
  // Temporal containment.
  EXPECT_LE(a.start_ns, b.start_ns);
  EXPECT_GE(a.end_ns, b.end_ns);
  EXPECT_LE(b.start_ns, c.start_ns);
  EXPECT_GE(b.end_ns, c.end_ns);
}

TEST_F(ObsTest, InstantAndCounterEvents) {
  TraceSession::instance().record_instant("unit/note", "hello");
  TraceSession::instance().record_counter("unit/depth", 42);
  const auto events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::instant);
  EXPECT_EQ(events[0].detail, "hello");
  EXPECT_EQ(events[1].kind, EventKind::counter);
  EXPECT_DOUBLE_EQ(events[1].value, 42.0);
}

TEST_F(ObsTest, RuntimeDisabledRecordsNothing) {
  set_tracing_enabled(false);
  {
    TAMP_TRACE_SCOPE("unit/should_not_appear");
    TraceSession::instance().record_instant("unit/neither", "x");
    TraceSession::instance().record_counter("unit/nor", 1);
  }
  EXPECT_TRUE(TraceSession::instance().snapshot().empty());
}

TEST_F(ObsTest, ScopeArmedAtConstructionSurvivesDisable) {
  // A span armed while enabled must complete even if recording is
  // switched off mid-flight (the guard owns its buffer pointer).
  {
    TAMP_TRACE_SCOPE("unit/mid_disable");
    set_tracing_enabled(false);
  }
  set_tracing_enabled(true);
  const auto events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit/mid_disable");
}

TEST_F(ObsTest, ConcurrentRecordingFromManyThreads) {
  // Cross the 512-event chunk boundary on every thread, concurrently.
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 1300;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kSpansPerThread; ++j) {
        TAMP_TRACE_SCOPE("unit/worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto events = TraceSession::instance().snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Per thread, events must be internally consistent and time-ordered.
  std::vector<std::vector<const TraceEvent*>> per_thread;
  for (const TraceEvent& e : events) {
    if (per_thread.size() <= e.thread) per_thread.resize(e.thread + 1);
    per_thread[e.thread].push_back(&e);
  }
  int populated = 0;
  for (const auto& list : per_thread) {
    if (list.empty()) continue;
    ++populated;
    EXPECT_EQ(list.size(), static_cast<std::size_t>(kSpansPerThread));
    for (std::size_t i = 1; i < list.size(); ++i)
      EXPECT_GE(list[i]->start_ns, list[i - 1]->start_ns);
  }
  EXPECT_EQ(populated, kThreads);
}

TEST_F(ObsTest, SnapshotIsSortedByStartTime) {
  for (int i = 0; i < 100; ++i) {
    TAMP_TRACE_SCOPE("unit/seq");
  }
  const auto events = TraceSession::instance().snapshot();
  ASSERT_EQ(events.size(), 100u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.start_ns < b.start_ns;
                             }));
}

// --- metrics -----------------------------------------------------------------

TEST_F(ObsTest, CounterAndGaugeBasics) {
  Counter& c = counter("unit.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(&c, &counter("unit.counter"));  // stable reference

  Gauge& g = gauge("unit.gauge");
  g.set(1.5);
  g.add(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 2.25);
}

TEST_F(ObsTest, HistogramStatsAndPercentiles) {
  Histogram& h = histogram("unit.hist");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
  // Log-linear buckets with 16 sub-buckets: ≤ ~6.25 % relative error.
  EXPECT_NEAR(snap.percentile(50.0), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(snap.percentile(90.0), 900.0, 900.0 * 0.07);
  EXPECT_NEAR(snap.percentile(99.0), 990.0, 990.0 * 0.07);
  // Clamped to the observed range at the ends.
  EXPECT_GE(snap.percentile(0.0), snap.min);
  EXPECT_LE(snap.percentile(100.0), snap.max);
}

TEST_F(ObsTest, HistogramEdgeCases) {
  Histogram& h = histogram("unit.hist_edge");
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(50.0), 0.0);  // empty
  h.record(3.25);
  const auto one = h.snapshot();
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(one.percentile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(one.percentile(100.0), 3.25);
  // Non-positive and tiny values land in bucket 0 without crashing.
  h.record(0.0);
  h.record(-1.0);
  h.record(1e-300);
  EXPECT_EQ(h.count(), 4u);
}

TEST_F(ObsTest, HistogramBucketIndexRoundTrip) {
  for (const double v : {1e-9, 0.001, 0.5, 1.0, 1.5, 3.0, 1024.0, 1e9}) {
    const int b = HistogramSnapshot::bucket_index(v);
    EXPECT_GE(v, HistogramSnapshot::bucket_lower(b)) << v;
    EXPECT_LT(v, HistogramSnapshot::bucket_upper(b)) << v;
  }
}

TEST_F(ObsTest, ConcurrentHistogramRecording) {
  Histogram& h = histogram("unit.hist_mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h] {
      for (int j = 1; j <= kPerThread; ++j)
        h.record(static_cast<double>(j));
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kPerThread));
}

TEST_F(ObsTest, RegistrySnapshotIsSortedAndComplete) {
  // Registrations persist for the process lifetime (reset() only zeroes
  // values), so assert on names unique to this test, not on totals.
  counter("unit.sorted.b").add(2);
  counter("unit.sorted.a").add(1);
  gauge("unit.sorted.g").set(3.5);
  histogram("unit.sorted.h").record(1.0);
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const auto counter_value = [&](const std::string& name) -> std::int64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    return -1;
  };
  EXPECT_EQ(counter_value("unit.sorted.a"), 1);
  EXPECT_EQ(counter_value("unit.sorted.b"), 2);
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                             [](const auto& x, const auto& y) {
                               return x.first < y.first;
                             }));
  const auto g = std::find_if(snap.gauges.begin(), snap.gauges.end(),
                              [](const auto& kv) {
                                return kv.first == "unit.sorted.g";
                              });
  ASSERT_NE(g, snap.gauges.end());
  EXPECT_DOUBLE_EQ(g->second, 3.5);
  const auto h = std::find_if(snap.histograms.begin(), snap.histograms.end(),
                              [](const auto& kv) {
                                return kv.first == "unit.sorted.h";
                              });
  ASSERT_NE(h, snap.histograms.end());
  EXPECT_EQ(h->second.count, 1u);
}

TEST_F(ObsTest, ScopedTimerReportsOnce) {
  Histogram& h = histogram("unit.timer");
  {
    ScopedTimer timer(h);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.0);
  }  // dtor must not double-record after stop()
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer timer(h); }  // records on destruction
  EXPECT_EQ(h.count(), 2u);
  { ScopedTimer named("unit.timer"); }
  EXPECT_EQ(h.count(), 3u);
}

// --- exporters ---------------------------------------------------------------

TEST_F(ObsTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST_F(ObsTest, SessionExportIsValidJson) {
  {
    TAMP_TRACE_SCOPE("unit/export \"tricky\"\nname");
    TraceSession::instance().record_instant("unit/note",
                                            "payload with \\ and \"");
    TraceSession::instance().record_counter("unit/gaugey", 1.25);
  }
  const std::string doc =
      to_chrome_trace(TraceSession::instance().snapshot());
  EXPECT_TRUE(json_parses(doc)) << doc;
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
}

TEST_F(ObsTest, MetricsExportIsValidJson) {
  counter("unit.tasks").add(3);
  gauge("unit.\"odd\" name").set(0.5);
  histogram("unit.latency").record(0.001);
  const std::string doc =
      metrics_to_json(Registry::instance().snapshot());
  EXPECT_TRUE(json_parses(doc)) << doc;
  EXPECT_NE(doc.find("tamp-metrics-v1"), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
}

TEST_F(ObsTest, EmptyMetricsExportIsValidJson) {
  const std::string doc = metrics_to_json(MetricsSnapshot{});
  EXPECT_TRUE(json_parses(doc)) << doc;
}

// --- pipeline integration ----------------------------------------------------

TEST_F(ObsTest, PipelineEmitsStageSpansAndMergedTrace) {
  mesh::TestMeshSpec spec;
  spec.target_cells = 4000;
  const auto m =
      mesh::make_test_mesh(mesh::TestMeshKind::cylinder, spec);
  core::RunConfig cfg;
  cfg.strategy = partition::Strategy::mc_tl;
  cfg.ndomains = 8;
  cfg.nprocesses = 2;
  cfg.workers_per_process = 2;
  const core::RunOutcome out = core::run_on_mesh(m, cfg);

  const auto events = TraceSession::instance().snapshot();
  for (const char* stage :
       {"pipeline/run_on_mesh", "pipeline/partition", "pipeline/taskgraph",
        "pipeline/simulate", "partition/decompose", "partition/coarsen",
        "partition/initial", "partition/refine", "taskgraph/generate",
        "sim/simulate"}) {
    EXPECT_FALSE(spans_named(events, stage).empty())
        << "missing stage span: " << stage;
  }
  // Stage spans nest inside the top-level pipeline span.
  const auto root = spans_named(events, "pipeline/run_on_mesh").at(0);
  for (const auto& sub : spans_named(events, "pipeline/partition")) {
    EXPECT_GE(sub.start_ns, root.start_ns);
    EXPECT_LE(sub.end_ns, root.end_ns);
    EXPECT_GT(sub.depth, root.depth);
  }

  // Stage gauges and refinement counters were published.
  const MetricsSnapshot ms = Registry::instance().snapshot();
  const auto has_gauge = [&](const std::string& name) {
    return std::any_of(ms.gauges.begin(), ms.gauges.end(),
                       [&](const auto& kv) { return kv.first == name; });
  };
  EXPECT_TRUE(has_gauge("pipeline.makespan"));
  EXPECT_TRUE(has_gauge("partition.level_imbalance"));
  EXPECT_TRUE(has_gauge("partition.level_imbalance.l0"));
  EXPECT_TRUE(has_gauge("sim.ready_queue.peak_depth"));

  // Queue-depth samples exist and end with empty queues.
  ASSERT_FALSE(out.sim.queue_depth.empty());
  EXPECT_EQ(out.sim.queue_depth.back().depth, 0);

  // The merged Chrome trace holds task spans AND pipeline spans, and is
  // syntactically valid JSON.
  const std::string doc = sim::to_chrome_trace_merged(out.graph, out.sim);
  EXPECT_TRUE(json_parses(doc));
  EXPECT_NE(doc.find("partition/coarsen"), std::string::npos);
  EXPECT_NE(doc.find("\"ready_queue\""), std::string::npos);
  EXPECT_NE(doc.find(std::to_string(kPipelineTracePid)), std::string::npos);
}

TEST_F(ObsTest, PlainSimTraceStillValidJson) {
  mesh::TestMeshSpec spec;
  spec.target_cells = 2000;
  const auto m = mesh::make_test_mesh(mesh::TestMeshKind::cube, spec);
  core::RunConfig cfg;
  cfg.ndomains = 4;
  cfg.nprocesses = 2;
  const auto out = core::run_on_mesh(m, cfg);
  const std::string doc = sim::to_chrome_trace(out.graph, out.sim);
  EXPECT_TRUE(json_parses(doc));
  EXPECT_NE(doc.find("process_name"), std::string::npos);
}

// --- JSON parser -------------------------------------------------------------

TEST(JsonParser, ParsesScalarsObjectsAndArrays) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, false, null], "s": "x", "nest": {"k": -2e3}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->as_array().size(), 3u);
  EXPECT_TRUE(v.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(v.find("b")->as_array()[2].is_null());
  EXPECT_EQ(v.find("s")->as_string(), "x");
  EXPECT_DOUBLE_EQ(v.find("nest")->number_or("k", 0), -2000.0);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7.0), 7.0);
  EXPECT_EQ(v.find("missing"), nullptr);
  // Number shapes the exporter's %.9g writes.
  EXPECT_TRUE(std::signbit(JsonValue::parse("-0").as_number()));
  EXPECT_EQ(JsonValue::parse("1e+20").as_number(), 1e20);
  EXPECT_EQ(JsonValue::parse("1.00000001e-05").as_number(), 1.00000001e-05);
  EXPECT_EQ(JsonValue::parse("-12.5E2").as_number(), -1250.0);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs) {
  const JsonValue v = JsonValue::parse(
      R"({"s": "a\"b\\c\n\té 😀"})");
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\n\té \U0001F600");
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), runtime_failure);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), runtime_failure);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), runtime_failure);
  EXPECT_THROW((void)JsonValue::parse("nul"), runtime_failure);
  EXPECT_THROW((void)JsonValue::parse(R"({"a" 1})"), runtime_failure);
  EXPECT_THROW((void)JsonValue::parse("").as_number(), runtime_failure);
  // 100,000 open brackets: a typed error, not a stack overflow.
  EXPECT_THROW((void)JsonValue::parse(std::string(100000, '[')),
               runtime_failure);
  // Numbers RFC 8259 forbids, numbers outside double's range, and a raw
  // control byte inside a string.
  for (const char* bad :
       {"+1", ".5", "01", "1.", "-", "1e", "1e+", "-.5", "1e400", "-1e400",
        "[1.e3]", "\"a\tb\""})
    EXPECT_THROW((void)JsonValue::parse(bad), runtime_failure) << bad;
}

TEST(JsonParser, KindMismatchThrows) {
  const JsonValue v = JsonValue::parse("42");
  EXPECT_DOUBLE_EQ(v.as_number(), 42.0);
  EXPECT_THROW((void)v.as_string(), runtime_failure);
  EXPECT_THROW((void)v.as_object(), runtime_failure);
}

TEST(JsonParser, UnicodeEscapesBuildUtf8) {
  const JsonValue v =
      JsonValue::parse(R"("\u00e9 \u20ac \ud83d\ude00")");
  EXPECT_EQ(v.as_string(), "é € \U0001F600");
  // A lone high surrogate is malformed.
  EXPECT_THROW((void)JsonValue::parse(R"("\ud83d")"), runtime_failure);
}

// --- tamp-metrics round trip and regression verdicts -------------------------

TEST_F(ObsTest, MetricsJsonRoundTripsThroughParser) {
  counter("rt.tasks").add(12);
  gauge("rt.occupancy").set(0.75);
  Histogram& h = histogram("rt.length");
  for (int i = 1; i <= 100; ++i) h.record(i);
  const MetricsFile file =
      parse_metrics_json(metrics_to_json(Registry::instance().snapshot()));
  EXPECT_DOUBLE_EQ(file.counters.at("rt.tasks"), 12.0);
  EXPECT_DOUBLE_EQ(file.gauges.at("rt.occupancy"), 0.75);
  const MetricsFile::Hist& hist = file.histograms.at("rt.length");
  EXPECT_DOUBLE_EQ(hist.count, 100.0);
  EXPECT_DOUBLE_EQ(hist.min, 1.0);
  EXPECT_DOUBLE_EQ(hist.max, 100.0);
  EXPECT_GT(hist.p99, hist.p50);

  double out = 0;
  EXPECT_TRUE(lookup_metric(file, "counters.rt.tasks", out));
  EXPECT_DOUBLE_EQ(out, 12.0);
  EXPECT_TRUE(lookup_metric(file, "histograms.rt.length.p99", out));
  EXPECT_FALSE(lookup_metric(file, "gauges.rt.absent", out));
  EXPECT_FALSE(lookup_metric(file, "histograms.rt.length.p17", out));
}

TEST(Report, RejectsWrongSchema) {
  EXPECT_THROW((void)parse_metrics_json(R"({"schema": "other-v9"})"),
               runtime_failure);
  EXPECT_THROW((void)parse_metrics_json("not json"), runtime_failure);
}

MetricsFile doctor_metrics(double makespan, double occupancy,
                           double starvation, double p99) {
  MetricsFile f;
  f.gauges["doctor.makespan"] = makespan;
  f.gauges["doctor.occupancy"] = occupancy;
  f.gauges["doctor.blame.starvation_share"] = starvation;
  f.gauges["doctor.blame.dependency_wait_share"] = 0.02;
  f.gauges["doctor.blame.tail_imbalance_share"] = 0.01;
  f.histograms["doctor.task_length"].p99 = p99;
  return f;
}

TEST(Report, SyntheticRegressionTripsTheGates) {
  const MetricsFile base = doctor_metrics(1000, 0.95, 0.02, 50);
  // 30% slower, occupancy collapsed, starvation up 20 points: regressed.
  const MetricsFile bad = doctor_metrics(1300, 0.70, 0.22, 50);
  const auto rules = default_doctor_rules(0.05, 0.05, 0.25, 0.05);
  const ReportVerdict verdict = compare_metrics(base, bad, rules);
  EXPECT_TRUE(verdict.regressed());

  // Same run within tolerance: clean.
  const MetricsFile ok = doctor_metrics(1020, 0.94, 0.03, 55);
  EXPECT_FALSE(compare_metrics(base, ok, rules).regressed());

  // Improvement in a higher-is-worse metric never regresses.
  const MetricsFile better = doctor_metrics(700, 0.99, 0.0, 30);
  EXPECT_FALSE(compare_metrics(base, better, rules).regressed());
}

TEST(Report, ParsesRuleSpecsAndRejectsMalformedOnes) {
  const RegressionRule rule = parse_regression_rule("m:0.35:lower:rel");
  EXPECT_EQ(rule.metric, "m");
  EXPECT_EQ(rule.tolerance, 0.35);
  EXPECT_FALSE(rule.higher_is_worse);
  EXPECT_FALSE(rule.absolute);
  const RegressionRule defaults = parse_regression_rule("m");
  EXPECT_EQ(defaults.tolerance, RegressionRule{}.tolerance);
  EXPECT_TRUE(defaults.higher_is_worse);
  EXPECT_TRUE(parse_regression_rule("m:0:higher:abs").absolute);
  // A tolerance of nan or inf would disable the gate silently.
  for (const char* bad :
       {"m:nan", "m:inf", "m:0.35lower", "m:-1", "m:abc", "", ":0.1",
        "m:0.1:down", "m:0.1:lower:pct", "m:0.1:lower:rel:x"}) {
    try {
      (void)parse_regression_rule(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Report, MissingMetricIsSkippedNotRegressed) {
  const MetricsFile base = doctor_metrics(1000, 0.95, 0.02, 50);
  MetricsFile cand = doctor_metrics(1000, 0.95, 0.02, 50);
  cand.gauges.erase("doctor.occupancy");
  const auto rules = default_doctor_rules(0.05, 0.05, 0.25, 0.05);
  const ReportVerdict verdict = compare_metrics(base, cand, rules);
  EXPECT_FALSE(verdict.regressed());
  bool saw_missing = false;
  for (const RuleFinding& f : verdict.findings)
    if (f.metric == "gauges.doctor.occupancy") saw_missing = f.missing;
  EXPECT_TRUE(saw_missing);
}

TEST(Report, VerdictJsonRoundTrips) {
  const MetricsFile base = doctor_metrics(1000, 0.95, 0.02, 50);
  const MetricsFile bad = doctor_metrics(1300, 0.70, 0.22, 50);
  const auto rules = default_doctor_rules(0.05, 0.05, 0.25, 0.05);
  const ReportVerdict verdict = compare_metrics(base, bad, rules);

  const std::string json = verdict_to_json(verdict);
  EXPECT_NE(json.find("tamp-verdict-v1"), std::string::npos);
  const ReportVerdict back = verdict_from_json(json);
  EXPECT_EQ(back.regressed(), verdict.regressed());
  ASSERT_EQ(back.findings.size(), verdict.findings.size());
  for (std::size_t i = 0; i < back.findings.size(); ++i) {
    EXPECT_EQ(back.findings[i].metric, verdict.findings[i].metric);
    EXPECT_DOUBLE_EQ(back.findings[i].baseline, verdict.findings[i].baseline);
    EXPECT_DOUBLE_EQ(back.findings[i].candidate,
                     verdict.findings[i].candidate);
    EXPECT_DOUBLE_EQ(back.findings[i].change, verdict.findings[i].change);
    EXPECT_EQ(back.findings[i].absolute, verdict.findings[i].absolute);
    EXPECT_EQ(back.findings[i].regressed, verdict.findings[i].regressed);
    EXPECT_EQ(back.findings[i].missing, verdict.findings[i].missing);
  }
  EXPECT_THROW((void)verdict_from_json(R"({"schema": "nope"})"),
               runtime_failure);
}

TEST(Report, AnnotationsCoverTheMetricFamilies) {
  EXPECT_EQ(annotate_metric("gauges.doctor.makespan").direction, -1);
  EXPECT_EQ(annotate_metric("gauges.doctor.occupancy").direction, +1);
  EXPECT_EQ(annotate_metric("gauges.doctor.occupancy").unit, "share");
  EXPECT_EQ(annotate_metric("gauges.doctor.blame.starvation_share").direction,
            -1);
  EXPECT_EQ(annotate_metric("gauges.divergence.makespan.abs_rel_gap").direction,
            -1);
  EXPECT_EQ(annotate_metric("counters.runtime.flight.dropped").direction, -1);
  EXPECT_EQ(annotate_metric("histograms.runtime.task_seconds.p99").unit, "s");
  EXPECT_EQ(annotate_metric("gauges.solver.flux_gcells_per_s").direction, +1);
  EXPECT_EQ(annotate_metric("gauges.obs.flight.ns_per_event.attached").unit,
            "ns");
  // Unknown names stay unannotated instead of guessing.
  const MetricAnnotation none = annotate_metric("gauges.mystery.metric");
  EXPECT_EQ(none.unit, "");
  EXPECT_EQ(none.direction, 0);
  EXPECT_STREQ(none.direction_label(), "");
}

TEST(Report, FlattenIsDeterministicAndComplete) {
  const MetricsFile f = doctor_metrics(1000, 0.95, 0.02, 50);
  const auto flat = flatten_metrics(f);
  EXPECT_FALSE(flat.empty());
  for (std::size_t i = 1; i < flat.size(); ++i)
    EXPECT_LT(flat[i - 1].first, flat[i].first);
  double out = 0;
  for (const auto& [name, value] : flat) {
    ASSERT_TRUE(lookup_metric(f, name, out)) << name;
    EXPECT_DOUBLE_EQ(out, value) << name;
  }
}

}  // namespace
}  // namespace tamp::obs
