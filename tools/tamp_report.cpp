// tamp-report — diff two tamp-metrics-v1 snapshots and gate on regressions.
//
//   tamp-report baseline.json candidate.json
//       [--threshold-makespan 0.05] [--threshold-occupancy 0.05]
//       [--threshold-p99 0.25] [--threshold-blame 0.05]
//       [--rule gauges.x:0.1:higher:rel ...] [--verdict out.json] [--all]
//
// Prints a human-readable diff table of every metric the two files
// share, evaluates the regression rule set (by default the doctor gate:
// makespan, occupancy, p99 task length, idle-blame shares), optionally
// writes a machine-readable tamp-verdict-v1 JSON, and exits non-zero
// when any rule regressed — the piece CI pipelines gate on.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/input error.
#include <cmath>
#include <iostream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/report.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

using namespace tamp;

std::string fmt_change(double change, bool absolute) {
  std::ostringstream os;
  if (absolute)
    os << (change >= 0 ? "+" : "") << fmt_double(change, 4);
  else
    os << (change >= 0 ? "+" : "") << fmt_double(change * 100.0, 1) << "%";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "tamp-report — compare two tamp-metrics-v1 files (e.g. MC_TL vs "
      "SC_OC, or yesterday vs today) and fail on regressions");
  cli.positional("baseline", "reference metrics JSON (the good run)");
  cli.positional("candidate", "metrics JSON under test");
  cli.option("threshold-makespan", "0.05",
             "max relative doctor.makespan increase");
  cli.option("threshold-occupancy", "0.05",
             "max absolute doctor.occupancy decrease");
  cli.option("threshold-p99", "0.25",
             "max relative doctor.task_length p99 increase");
  cli.option("threshold-blame", "0.05",
             "max absolute increase of any doctor.blame.*_share");
  cli.option("rule", "",
             "extra gates, ';'-separated metric[:tol[:higher|lower[:rel|abs]]] "
             "specs (replaces the default doctor gates when prefixed with '=')");
  cli.option("verdict", "", "write the tamp-verdict-v1 JSON here");
  cli.option("format", "text",
             "output format: text (aligned console tables) | markdown "
             "(GitHub tables, for $GITHUB_STEP_SUMMARY)");
  cli.flag("all", "show every metric in the diff table, not only changes");
  cli.flag("quiet", "suppress the diff table, print only the verdict");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string format = cli.get("format");
    TAMP_EXPECTS(format == "text" || format == "markdown",
                 "--format must be text|markdown");
    const bool markdown = format == "markdown";
    const auto emit = [&](const TablePrinter& table) {
      if (markdown)
        table.print_markdown(std::cout);
      else
        table.print(std::cout);
    };

    const obs::MetricsFile baseline = obs::load_metrics_file(cli.get("baseline"));
    const obs::MetricsFile candidate =
        obs::load_metrics_file(cli.get("candidate"));

    // --- rule set -----------------------------------------------------------
    std::string rule_spec = cli.get("rule");
    std::vector<obs::RegressionRule> rules;
    const bool replace_defaults = !rule_spec.empty() && rule_spec[0] == '=';
    if (replace_defaults) rule_spec.erase(0, 1);
    if (!replace_defaults)
      rules = obs::default_doctor_rules(cli.get_double("threshold-makespan"),
                                        cli.get_double("threshold-occupancy"),
                                        cli.get_double("threshold-p99"),
                                        cli.get_double("threshold-blame"));
    std::istringstream specs(rule_spec);
    for (std::string spec; std::getline(specs, spec, ';');)
      if (!spec.empty()) rules.push_back(obs::parse_regression_rule(spec));

    // --- diff table ---------------------------------------------------------
    if (!cli.get_flag("quiet")) {
      TablePrinter diff("metrics diff (baseline → candidate)");
      diff.header({"metric", "unit", "baseline", "candidate", "change",
                   "direction"});
      std::size_t hidden = 0;
      const auto annotate = [](const std::string& name) {
        return obs::annotate_metric(name);
      };
      for (const auto& [name, base] : obs::flatten_metrics(baseline)) {
        const obs::MetricAnnotation ann = annotate(name);
        double cand = 0;
        if (!obs::lookup_metric(candidate, name, cand)) {
          diff.row({name, ann.unit, fmt_double(base, 4), "(absent)", "",
                    ann.direction_label()});
          continue;
        }
        if (std::abs(base) < 1e-12) {
          if (!cli.get_flag("all") && std::abs(cand) < 1e-12) {
            ++hidden;
            continue;
          }
          diff.row({name, ann.unit, fmt_double(base, 4), fmt_double(cand, 4),
                    std::abs(cand) < 1e-12 ? "" : "(from zero)",
                    ann.direction_label()});
          continue;
        }
        const double rel = (cand - base) / std::abs(base);
        if (!cli.get_flag("all") && std::abs(rel) < 1e-6) {
          ++hidden;
          continue;
        }
        diff.row({name, ann.unit, fmt_double(base, 4), fmt_double(cand, 4),
                  fmt_change(rel, false), ann.direction_label()});
      }
      for (const auto& [name, cand] : obs::flatten_metrics(candidate)) {
        const obs::MetricAnnotation ann = annotate(name);
        double base = 0;
        if (!obs::lookup_metric(baseline, name, base))
          diff.row({name, ann.unit, "(absent)", fmt_double(cand, 4), "",
                    ann.direction_label()});
      }
      emit(diff);
      if (hidden > 0)
        std::cout << hidden << " unchanged metrics hidden (--all shows them)\n";
      std::cout << '\n';
    }

    // --- verdict ------------------------------------------------------------
    const obs::ReportVerdict verdict =
        obs::compare_metrics(baseline, candidate, rules);
    TablePrinter gates("regression gates");
    gates.header({"metric", "baseline", "candidate", "change", "tolerance",
                  "status"});
    for (const obs::RuleFinding& f : verdict.findings) {
      if (f.missing) {
        gates.row({f.metric, "", "", "", "", "SKIP (missing)"});
        continue;
      }
      gates.row({f.metric, fmt_double(f.baseline, 4),
                 fmt_double(f.candidate, 4), fmt_change(f.change, f.absolute),
                 "±" + fmt_double(f.tolerance, 3) +
                     (f.absolute ? " abs" : " rel"),
                 f.regressed ? "REGRESSED" : "ok"});
    }
    emit(gates);

    if (!cli.get("verdict").empty())
      obs::save_text(obs::verdict_to_json(verdict), cli.get("verdict"));

    if (verdict.regressed()) {
      std::cout << (markdown ? "**verdict: REGRESSED** :x:\n"
                             : "verdict: REGRESSED\n");
      return 1;
    }
    std::cout << (markdown ? "**verdict: ok** :white_check_mark:\n"
                           : "verdict: ok\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tamp-report: " << e.what() << '\n';
    return 2;
  }
}
