#include "sim/measured.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/table.hpp"

namespace tamp::sim {

SimResult to_sim_result(const runtime::ExecutionReport& report) {
  TAMP_EXPECTS(report.num_processes > 0 && report.workers_per_process > 0,
               "execution report has no worker capacity");
  SimResult out;
  out.num_processes = report.num_processes;
  out.workers_used.assign(static_cast<std::size_t>(report.num_processes),
                          report.workers_per_process);
  out.busy_per_process.assign(static_cast<std::size_t>(report.num_processes),
                              0.0);
  out.timing.reserve(report.spans.size());
  simtime_t latest = 0;
  for (const runtime::ExecutionReport::Span& span : report.spans) {
    TAMP_EXPECTS(span.process >= 0 && span.process < report.num_processes &&
                     span.worker >= 0 &&
                     span.worker < report.workers_per_process,
                 "span names a worker outside the execution report");
    TaskTiming t;
    t.start = span.start;
    t.end = span.end;
    t.process = span.process;
    t.worker = span.worker;
    out.timing.push_back(t);
    out.busy_per_process[static_cast<std::size_t>(span.process)] +=
        span.end - span.start;
    latest = std::max(latest, static_cast<simtime_t>(span.end));
  }
  // The runtime stamps wall_seconds after joining its workers, so it
  // bounds every span end; keep the max defensive for hand-built reports.
  out.makespan = std::max(static_cast<simtime_t>(report.wall_seconds), latest);
  if (report.flight) {
    for (int w = 0; w < report.flight->num_workers(); ++w) {
      const part_t process =
          static_cast<part_t>(w / report.workers_per_process);
      for (const obs::FlightEvent& ev : report.flight->ring(w).events()) {
        if (ev.kind != obs::FlightEventKind::task_dequeue) continue;
        QueueDepthSample sample;
        sample.time = ev.t_seconds;
        sample.process = process;
        sample.depth = static_cast<index_t>(ev.b < 0 ? 0 : ev.b);
        out.queue_depth.push_back(sample);
      }
    }
    std::sort(out.queue_depth.begin(), out.queue_depth.end(),
              [](const QueueDepthSample& a, const QueueDepthSample& b) {
                return a.time < b.time ||
                       (a.time == b.time && a.process < b.process);
              });
  }
  return out;
}

DoctorReport diagnose_measured(const taskgraph::TaskGraph& graph,
                               const runtime::ExecutionReport& report) {
  DoctorReport out = diagnose(graph, to_sim_result(report));
  // Every field of the diagnosis derives from the measured timestamps
  // except the static lower bound, which is a longest path over graph
  // *cost units* — rescale it with the measured seconds-per-unit so the
  // realized/static ratio compares like with like.
  double cost_units = 0, real_seconds = 0;
  for (index_t t = 0; t < graph.num_tasks(); ++t)
    cost_units += graph.task(t).cost;
  for (const runtime::ExecutionReport::Span& span : report.spans)
    real_seconds += span.end - span.start;
  if (cost_units > 0)
    out.critical.static_lower_bound *= real_seconds / cost_units;
  return out;
}

namespace {

/// Relative window-share gaps divide by the sim share floored at 5% of
/// the makespan, so negligible windows cannot blow the metric up.
constexpr double kWindowShareFloor = 0.05;

/// Idle worker-time of window s across all processes / window capacity.
double window_idle_share(const IdleBlameReport& blame, index_t s) {
  const simtime_t begin =
      s == 0 ? 0.0 : blame.window_end[static_cast<std::size_t>(s - 1)];
  const simtime_t end = blame.window_end[static_cast<std::size_t>(s)];
  double idle = 0, capacity = 0;
  for (part_t p = 0; p < blame.num_processes; ++p) {
    for (int c = 0; c < kNumIdleCauses; ++c)
      idle += blame.at(p, s, static_cast<IdleCause>(c));
    capacity +=
        static_cast<double>(blame.workers[static_cast<std::size_t>(p)]) *
        (end - begin);
  }
  return capacity > 0 ? idle / capacity : 0.0;
}

}  // namespace

DivergenceReport compare_sim_to_measured(const taskgraph::TaskGraph& graph,
                                         const SimResult& sim,
                                         const runtime::ExecutionReport& real,
                                         double seconds_per_unit) {
  TAMP_EXPECTS(sim.timing.size() == static_cast<std::size_t>(graph.num_tasks()),
               "simulation result does not match the task graph");
  TAMP_EXPECTS(real.spans.size() == static_cast<std::size_t>(graph.num_tasks()),
               "execution report does not match the task graph");
  const SimResult measured = to_sim_result(real);

  DivergenceReport d;
  d.sim_makespan = sim.makespan;
  d.real_makespan_seconds = measured.makespan;
  if (seconds_per_unit <= 0) {
    // Auto-calibrate: total measured task seconds per simulated task
    // unit, so the comparison isolates scheduling drift from cost-model
    // miscalibration.
    double sim_units = 0, real_seconds = 0;
    for (std::size_t t = 0; t < sim.timing.size(); ++t) {
      sim_units += sim.timing[t].end - sim.timing[t].start;
      real_seconds += measured.timing[t].end - measured.timing[t].start;
    }
    seconds_per_unit = sim_units > 0 ? real_seconds / sim_units : 1.0;
  }
  d.seconds_per_unit = seconds_per_unit;
  d.sim_makespan_seconds = sim.makespan * seconds_per_unit;
  d.rel_makespan_gap =
      d.sim_makespan_seconds > 0
          ? (d.real_makespan_seconds - d.sim_makespan_seconds) /
                d.sim_makespan_seconds
          : 0.0;
  d.sim_idle_share = 1.0 - sim.occupancy();
  d.real_idle_share = 1.0 - measured.occupancy();
  d.idle_share_gap = d.real_idle_share - d.sim_idle_share;

  const IdleBlameReport sim_blame = idle_blame(graph, sim);
  const IdleBlameReport real_blame = idle_blame(graph, measured);
  const index_t nsub = sim_blame.num_subiterations;
  for (index_t s = 0; s < nsub; ++s) {
    SubiterationDivergence sub;
    sub.subiteration = s;
    const simtime_t sb =
        s == 0 ? 0.0 : sim_blame.window_end[static_cast<std::size_t>(s - 1)];
    const simtime_t se = sim_blame.window_end[static_cast<std::size_t>(s)];
    const simtime_t rb =
        s == 0 ? 0.0 : real_blame.window_end[static_cast<std::size_t>(s - 1)];
    const simtime_t re = real_blame.window_end[static_cast<std::size_t>(s)];
    sub.sim_window_share =
        sim_blame.makespan > 0 ? (se - sb) / sim_blame.makespan : 0.0;
    sub.real_window_share =
        real_blame.makespan > 0 ? (re - rb) / real_blame.makespan : 0.0;
    sub.sim_idle_share = window_idle_share(sim_blame, s);
    sub.real_idle_share = window_idle_share(real_blame, s);
    d.subiterations.push_back(sub);

    const double rel_gap =
        std::abs(sub.real_window_share - sub.sim_window_share) /
        std::max(sub.sim_window_share, kWindowShareFloor);
    d.max_abs_rel_window_gap = std::max(d.max_abs_rel_window_gap, rel_gap);
    d.max_abs_idle_gap =
        std::max(d.max_abs_idle_gap,
                 std::abs(sub.real_idle_share - sub.sim_idle_share));
  }
  return d;
}

void print_divergence_report(std::ostream& os, const DivergenceReport& d) {
  os << "== sim vs reality ==\n"
     << "makespan: sim " << fmt_double(d.sim_makespan, 0) << " units x "
     << fmt_double(d.seconds_per_unit * 1e6, 3) << " us/unit = "
     << fmt_double(d.sim_makespan_seconds * 1e3, 2) << " ms predicted vs "
     << fmt_double(d.real_makespan_seconds * 1e3, 2) << " ms measured ("
     << (d.rel_makespan_gap >= 0 ? "+" : "")
     << fmt_percent(d.rel_makespan_gap) << ")\n"
     << "idle share: sim " << fmt_percent(d.sim_idle_share) << " vs real "
     << fmt_percent(d.real_idle_share) << " (gap "
     << (d.idle_share_gap >= 0 ? "+" : "")
     << fmt_percent(d.idle_share_gap) << ")\n";
  TablePrinter table("per-subiteration divergence (window = share of "
                     "makespan, idle = share of window capacity)");
  table.header({"subiteration", "sim window", "real window", "sim idle",
                "real idle", "idle gap"});
  for (const SubiterationDivergence& s : d.subiterations) {
    const double gap = s.real_idle_share - s.sim_idle_share;
    table.row({std::to_string(s.subiteration),
               fmt_percent(s.sim_window_share),
               fmt_percent(s.real_window_share),
               fmt_percent(s.sim_idle_share), fmt_percent(s.real_idle_share),
               std::string(gap >= 0 ? "+" : "") + fmt_percent(gap)});
  }
  table.print(os);
  os << "worst window-share drift: " << fmt_percent(d.max_abs_rel_window_gap)
     << " (relative)   worst idle-share drift: "
     << fmt_percent(d.max_abs_idle_gap) << " (absolute)\n";
}

void publish_divergence_metrics(const DivergenceReport& d) {
  obs::gauge("divergence.makespan.sim_units").set(d.sim_makespan);
  obs::gauge("divergence.makespan.sim_seconds").set(d.sim_makespan_seconds);
  obs::gauge("divergence.makespan.real_seconds").set(d.real_makespan_seconds);
  obs::gauge("divergence.makespan.rel_gap").set(d.rel_makespan_gap);
  obs::gauge("divergence.makespan.abs_rel_gap")
      .set(std::abs(d.rel_makespan_gap));
  obs::gauge("divergence.seconds_per_unit").set(d.seconds_per_unit);
  obs::gauge("divergence.idle_share.sim").set(d.sim_idle_share);
  obs::gauge("divergence.idle_share.real").set(d.real_idle_share);
  obs::gauge("divergence.idle_share.gap").set(d.idle_share_gap);
  obs::gauge("divergence.idle_share.abs_gap").set(std::abs(d.idle_share_gap));
  obs::gauge("divergence.subiteration.max_abs_rel_window_gap")
      .set(d.max_abs_rel_window_gap);
  obs::gauge("divergence.subiteration.max_abs_idle_gap")
      .set(d.max_abs_idle_gap);
}

}  // namespace tamp::sim
