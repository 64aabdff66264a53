// Run-diff regression reporting over `tamp-metrics-v1` snapshots.
//
// Two runs of the same workload (MC_TL vs SC_OC, today vs yesterday's
// BENCH_*.json) are compared metric by metric; a configurable rule set
// turns the deltas into a verdict that CI can gate on. The pieces are a
// library (not buried in the tamp-report binary) so tests can exercise
// classification and the verdict JSON round-trip directly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tamp::obs {

/// One `tamp-metrics-v1` document, decoded for comparison. Histograms
/// keep only the summary statistics the exporter wrote.
struct MetricsFile {
  struct Hist {
    double count = 0, sum = 0, mean = 0, min = 0, max = 0;
    double p50 = 0, p90 = 0, p99 = 0;
  };
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;
};

/// Parse a metrics JSON document (throws runtime_failure on malformed
/// input or a schema other than tamp-metrics-v1).
[[nodiscard]] MetricsFile parse_metrics_json(const std::string& text);

/// Read + parse a metrics file from disk.
[[nodiscard]] MetricsFile load_metrics_file(const std::string& path);

/// One gate of the regression verdict. `metric` addresses a value as
/// "counters.<name>", "gauges.<name>" or "histograms.<name>.<stat>"
/// (stat ∈ count|sum|mean|min|max|p50|p90|p99).
struct RegressionRule {
  std::string metric;
  double tolerance = 0.05;
  /// Direction that constitutes a regression: true = growth is bad
  /// (makespan, p99 latency), false = shrinkage is bad (occupancy).
  bool higher_is_worse = true;
  /// Compare |candidate − baseline| against `tolerance` directly instead
  /// of relative to the baseline — the right semantics for quantities
  /// that are already shares in [0, 1] (blame fractions, occupancy).
  bool absolute = false;
};

/// Parse one rule spec, metric[:tolerance[:higher|lower[:rel|abs]]]
/// (tamp-report --rule); omitted fields keep RegressionRule's defaults.
/// The tolerance must be a finite number ≥ 0. Throws precondition_error
/// naming the spec on an empty metric, a malformed field or a fifth one.
[[nodiscard]] RegressionRule parse_regression_rule(const std::string& spec);

/// The doctor's standard gate set, keyed to the gauges flusim --doctor
/// publishes: makespan, occupancy, p99 task length, idle-blame shares.
[[nodiscard]] std::vector<RegressionRule> default_doctor_rules(
    double makespan_tol, double occupancy_tol, double p99_tol,
    double blame_tol);

/// Outcome of one rule.
struct RuleFinding {
  std::string metric;
  double baseline = 0;
  double candidate = 0;
  double change = 0;  ///< relative, or absolute when the rule says so
  double tolerance = 0;
  bool absolute = false;
  bool higher_is_worse = true;
  bool missing = false;  ///< metric absent from either file (not a gate)
  bool regressed = false;
};

/// Machine-checkable comparison result.
struct ReportVerdict {
  std::vector<RuleFinding> findings;
  [[nodiscard]] bool regressed() const;
};

/// Evaluate `rules` on a baseline/candidate pair.
[[nodiscard]] ReportVerdict compare_metrics(
    const MetricsFile& baseline, const MetricsFile& candidate,
    const std::vector<RegressionRule>& rules);

/// Serialise / reparse the verdict ({"schema":"tamp-verdict-v1",...}).
[[nodiscard]] std::string verdict_to_json(const ReportVerdict& verdict);
[[nodiscard]] ReportVerdict verdict_from_json(const std::string& text);

/// Look up a rule-addressable metric; returns false when absent.
[[nodiscard]] bool lookup_metric(const MetricsFile& file,
                                 const std::string& metric, double& out);

/// Every rule-addressable scalar in a file, in deterministic order —
/// feeds the human-readable diff table (histograms contribute their
/// mean/p50/p90/p99/count).
[[nodiscard]] std::vector<std::pair<std::string, double>> flatten_metrics(
    const MetricsFile& file);

/// Presentation metadata for a metric, inferred from its name: the unit
/// the value is expressed in, and which direction of change is an
/// improvement. Purely cosmetic (the diff table prints it so readers
/// don't have to guess whether +8% occupancy is good news); gating
/// direction always comes from the RegressionRule, never from here.
struct MetricAnnotation {
  std::string unit;  ///< "s", "share", "count", "1/s", ... ; "" unknown
  int direction = 0; ///< +1 higher is better, −1 lower is better, 0 n/a
  [[nodiscard]] const char* direction_label() const {
    return direction > 0 ? "higher=better"
                         : direction < 0 ? "lower=better" : "";
  }
};

/// Name-based annotation heuristics covering the repo's metric families
/// (doctor.*, divergence.*, runtime.*, solver.*, obs.flight.*).
[[nodiscard]] MetricAnnotation annotate_metric(const std::string& name);

}  // namespace tamp::obs
