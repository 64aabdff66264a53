#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"

namespace tamp::obs {

namespace {

void append_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

MetricsFile::Hist parse_hist(const JsonValue& v) {
  MetricsFile::Hist h;
  h.count = v.number_or("count", 0);
  h.sum = v.number_or("sum", 0);
  h.mean = v.number_or("mean", 0);
  h.min = v.number_or("min", 0);
  h.max = v.number_or("max", 0);
  h.p50 = v.number_or("p50", 0);
  h.p90 = v.number_or("p90", 0);
  h.p99 = v.number_or("p99", 0);
  return h;
}

double hist_stat(const MetricsFile::Hist& h, const std::string& stat,
                 bool& known) {
  known = true;
  if (stat == "count") return h.count;
  if (stat == "sum") return h.sum;
  if (stat == "mean") return h.mean;
  if (stat == "min") return h.min;
  if (stat == "max") return h.max;
  if (stat == "p50") return h.p50;
  if (stat == "p90") return h.p90;
  if (stat == "p99") return h.p99;
  known = false;
  return 0;
}

}  // namespace

MetricsFile parse_metrics_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.is_object()) throw runtime_failure("metrics document is not an object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "tamp-metrics-v1")
    throw runtime_failure("not a tamp-metrics-v1 document");

  MetricsFile file;
  if (const JsonValue* counters = doc.find("counters"); counters != nullptr)
    for (const auto& [name, v] : counters->as_object())
      file.counters[name] = v.as_number();
  if (const JsonValue* gauges = doc.find("gauges"); gauges != nullptr)
    for (const auto& [name, v] : gauges->as_object())
      file.gauges[name] = v.as_number();
  if (const JsonValue* hists = doc.find("histograms"); hists != nullptr)
    for (const auto& [name, v] : hists->as_object())
      file.histograms[name] = parse_hist(v);
  return file;
}

MetricsFile load_metrics_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw runtime_failure("cannot open metrics file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_metrics_json(buf.str());
  } catch (const runtime_failure& e) {
    throw runtime_failure(path + ": " + e.what());
  }
}

RegressionRule parse_regression_rule(const std::string& spec) {
  const std::string where = "regression rule '" + spec + "'";
  RegressionRule rule;
  std::istringstream in(spec);
  std::string field;
  TAMP_EXPECTS(std::getline(in, field, ':') && !field.empty(),
               where + ": empty metric");
  rule.metric = field;
  if (std::getline(in, field, ':')) {
    rule.tolerance = parse_finite_double(field, where + " tolerance");
    TAMP_EXPECTS(rule.tolerance >= 0.0, where + ": tolerance must be >= 0");
  }
  if (std::getline(in, field, ':')) {
    TAMP_EXPECTS(field == "higher" || field == "lower",
                 where + ": direction must be higher|lower");
    rule.higher_is_worse = field == "higher";
  }
  if (std::getline(in, field, ':')) {
    TAMP_EXPECTS(field == "rel" || field == "abs",
                 where + ": mode must be rel|abs");
    rule.absolute = field == "abs";
  }
  TAMP_EXPECTS(!std::getline(in, field, ':'), where + ": too many fields");
  return rule;
}

std::vector<RegressionRule> default_doctor_rules(double makespan_tol,
                                                 double occupancy_tol,
                                                 double p99_tol,
                                                 double blame_tol) {
  return {
      {"gauges.doctor.makespan", makespan_tol, /*higher_is_worse=*/true,
       /*absolute=*/false},
      {"gauges.doctor.occupancy", occupancy_tol, /*higher_is_worse=*/false,
       /*absolute=*/true},
      {"histograms.doctor.task_length.p99", p99_tol, /*higher_is_worse=*/true,
       /*absolute=*/false},
      {"gauges.doctor.blame.starvation_share", blame_tol,
       /*higher_is_worse=*/true, /*absolute=*/true},
      {"gauges.doctor.blame.dependency_wait_share", blame_tol,
       /*higher_is_worse=*/true, /*absolute=*/true},
      {"gauges.doctor.blame.tail_imbalance_share", blame_tol,
       /*higher_is_worse=*/true, /*absolute=*/true},
  };
}

bool lookup_metric(const MetricsFile& file, const std::string& metric,
                   double& out) {
  if (metric.rfind("counters.", 0) == 0) {
    const auto it = file.counters.find(metric.substr(9));
    if (it == file.counters.end()) return false;
    out = it->second;
    return true;
  }
  if (metric.rfind("gauges.", 0) == 0) {
    const auto it = file.gauges.find(metric.substr(7));
    if (it == file.gauges.end()) return false;
    out = it->second;
    return true;
  }
  if (metric.rfind("histograms.", 0) == 0) {
    // Histogram names themselves contain dots; the *last* dot separates
    // the statistic suffix.
    const std::string rest = metric.substr(11);
    const auto dot = rest.rfind('.');
    if (dot == std::string::npos) return false;
    const auto it = file.histograms.find(rest.substr(0, dot));
    if (it == file.histograms.end()) return false;
    bool known = false;
    const double v = hist_stat(it->second, rest.substr(dot + 1), known);
    if (!known) return false;
    out = v;
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, double>> flatten_metrics(
    const MetricsFile& file) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, v] : file.counters)
    out.emplace_back("counters." + name, v);
  for (const auto& [name, v] : file.gauges)
    out.emplace_back("gauges." + name, v);
  for (const auto& [name, h] : file.histograms) {
    out.emplace_back("histograms." + name + ".count", h.count);
    out.emplace_back("histograms." + name + ".mean", h.mean);
    out.emplace_back("histograms." + name + ".p50", h.p50);
    out.emplace_back("histograms." + name + ".p90", h.p90);
    out.emplace_back("histograms." + name + ".p99", h.p99);
  }
  return out;
}

bool ReportVerdict::regressed() const {
  for (const RuleFinding& f : findings)
    if (f.regressed) return true;
  return false;
}

ReportVerdict compare_metrics(const MetricsFile& baseline,
                              const MetricsFile& candidate,
                              const std::vector<RegressionRule>& rules) {
  ReportVerdict verdict;
  for (const RegressionRule& rule : rules) {
    RuleFinding f;
    f.metric = rule.metric;
    f.tolerance = rule.tolerance;
    f.absolute = rule.absolute;
    f.higher_is_worse = rule.higher_is_worse;
    double base = 0, cand = 0;
    if (!lookup_metric(baseline, rule.metric, base) ||
        !lookup_metric(candidate, rule.metric, cand)) {
      // A metric missing from either run cannot gate: surfaced in the
      // verdict so the caller notices, but never a regression by itself.
      f.missing = true;
      verdict.findings.push_back(std::move(f));
      continue;
    }
    f.baseline = base;
    f.candidate = cand;
    const double delta = cand - base;
    f.change = rule.absolute
                   ? delta
                   : delta / std::max(std::abs(base),
                                      std::numeric_limits<double>::min());
    f.regressed = rule.higher_is_worse ? f.change > rule.tolerance
                                       : f.change < -rule.tolerance;
    verdict.findings.push_back(std::move(f));
  }
  return verdict;
}

std::string verdict_to_json(const ReportVerdict& verdict) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"tamp-verdict-v1\",\n  \"regressed\": "
     << (verdict.regressed() ? "true" : "false") << ",\n  \"findings\": [";
  bool first = true;
  for (const RuleFinding& f : verdict.findings) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"metric\": \"" << json_escape(f.metric) << "\", \"baseline\": ";
    append_number(os, f.baseline);
    os << ", \"candidate\": ";
    append_number(os, f.candidate);
    os << ", \"change\": ";
    append_number(os, f.change);
    os << ", \"tolerance\": ";
    append_number(os, f.tolerance);
    os << ", \"absolute\": " << (f.absolute ? "true" : "false")
       << ", \"higher_is_worse\": " << (f.higher_is_worse ? "true" : "false")
       << ", \"missing\": " << (f.missing ? "true" : "false")
       << ", \"regressed\": " << (f.regressed ? "true" : "false") << "}";
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

ReportVerdict verdict_from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "tamp-verdict-v1")
    throw runtime_failure("not a tamp-verdict-v1 document");
  ReportVerdict verdict;
  const JsonValue* findings = doc.find("findings");
  if (findings != nullptr) {
    for (const JsonValue& item : findings->as_array()) {
      RuleFinding f;
      const JsonValue* metric = item.find("metric");
      if (metric != nullptr && metric->is_string())
        f.metric = metric->as_string();
      f.baseline = item.number_or("baseline", 0);
      f.candidate = item.number_or("candidate", 0);
      f.change = item.number_or("change", 0);
      f.tolerance = item.number_or("tolerance", 0);
      const JsonValue* b = item.find("absolute");
      f.absolute = b != nullptr && b->is_bool() && b->as_bool();
      b = item.find("higher_is_worse");
      f.higher_is_worse = b == nullptr || !b->is_bool() || b->as_bool();
      b = item.find("missing");
      f.missing = b != nullptr && b->is_bool() && b->as_bool();
      b = item.find("regressed");
      f.regressed = b != nullptr && b->is_bool() && b->as_bool();
      verdict.findings.push_back(std::move(f));
    }
  }
  return verdict;
}

MetricAnnotation annotate_metric(const std::string& name) {
  const auto has = [&name](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  MetricAnnotation a;
  // Most specific families first; the first match wins.
  if (has(".ipc")) return {"inst/cyc", +1};
  if (has("llc_miss_per_kobject")) return {"miss/kobj", -1};
  if (has("llc_misses") || has("branch_misses") || has("stalled"))
    return {"count", -1};
  if (has("est_dram_gbps")) return {"GB/s", 0};
  if (has("running_share")) return {"share", +1};
  if (has("self_check_error")) return {"s", -1};
  // What-if deltas are predicted *savings*: larger is better.
  if (has("rel_delta")) return {"share", +1};
  if (has("delta_seconds")) return {"s", +1};
  if (has("ns_per_event") || has("ns_per_read")) return {"ns", -1};
  // Repartitioning and patching families — before the generic
  // fraction rules so e.g. "partition.dirty_fraction" gets its direction.
  if (has("dirty_fraction")) return {"share", -1};
  if (has("patch.rebuilds")) return {"count", -1};
  if (has("patch.applied") || has("patch.noop") ||
      has("patched_iterations") || has("reused_decompositions") ||
      has("reused_verbatim"))
    return {"count", +1};
  if (has("bytes")) return {"bytes", -1};
  if (has("_per_s") || has("per_second")) return {"1/s", +1};
  if (has("seconds_per_unit")) return {"s/unit", 0};
  if (has("occupancy")) return {"share", +1};
  if (has("speedup")) return {"x", +1};
  if (has("idle") || has("blame") || has("starvation"))
    return {has("seconds") ? "s" : "share", -1};
  if (has("gap") || has("drift") || has("divergence"))
    return {has("seconds") ? "s" : "share", -1};
  if (has("dropped") || has("drops")) return {"count", -1};
  if (has("makespan") || has("latency") || has("wall") || has("overhead"))
    return {has("seconds") || has("wall") ? "s" : "", -1};
  if (has("seconds") || has("_ms") || has("duration"))
    return {has("_ms") ? "ms" : "s", -1};
  if (has("depth")) return {"count", 0};
  if (has("share") || has("fraction") || has("imbalance"))
    return {"share", 0};
  if (has("count") || has("events") || has("tasks") || has("steps") ||
      has("moves") || has("handoffs") || has("executed"))
    return {"count", 0};
  return a;
}

}  // namespace tamp::obs
