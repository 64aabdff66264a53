#include "verify/verifier.hpp"

#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/reachability.hpp"

namespace tamp::verify {

namespace {

/// Entries of one (kind, object) group collapsed per task: a task that
/// both read and wrote keeps the write (it conflicts with everything a
/// read does, and more).
struct TaskAccess {
  index_t task;
  AccessMode mode;
};

const char* to_string(AccessMode m) {
  return m == AccessMode::write ? "write" : "read";
}

}  // namespace

RaceReport check_races(const taskgraph::TaskGraph& graph,
                       const AccessLog& log) {
  TAMP_EXPECTS(log.num_tasks() == graph.num_tasks(),
               "access log sized for a different graph");
  TAMP_TRACE_SCOPE("verify/check_races");
  RaceReport report;
  const std::vector<Access> accesses = log.merged();
  report.accesses = accesses.size();
  if (accesses.empty()) return report;

  const Reachability reach(graph);
  const auto n = static_cast<std::uint64_t>(graph.num_tasks());

  // Verdict per distinct (pair, kind): < 0 = ordered, >= 0 = index of the
  // conflict record accumulating witness counts.
  std::unordered_map<std::uint64_t, std::int64_t> verdict;
  std::vector<TaskAccess> group;

  std::size_t i = 0;
  while (i < accesses.size()) {
    // One group = one (kind, object); merged() sorted by (kind, object,
    // task, mode) with reads before writes per task.
    const ObjectKind kind = accesses[i].kind;
    const index_t object = accesses[i].object;
    group.clear();
    for (; i < accesses.size() && accesses[i].kind == kind &&
           accesses[i].object == object;
         ++i) {
      if (!group.empty() && group.back().task == accesses[i].task)
        group.back().mode = AccessMode::write;  // read+write → write
      else
        group.push_back({accesses[i].task, accesses[i].mode});
    }

    for (std::size_t a = 0; a < group.size(); ++a) {
      for (std::size_t b = a + 1; b < group.size(); ++b) {
        if (group[a].mode == AccessMode::read &&
            group[b].mode == AccessMode::read)
          continue;
        const index_t lo = group[a].task;  // group is task-sorted
        const index_t hi = group[b].task;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(kind) << 58) ^
            (static_cast<std::uint64_t>(lo) * n +
             static_cast<std::uint64_t>(hi));
        auto [it, inserted] = verdict.try_emplace(key, -1);
        if (inserted) {
          ++report.pairs_checked;
          if (!reach.reachable(lo, hi) && !reach.reachable(hi, lo)) {
            it->second = static_cast<std::int64_t>(report.conflicts.size());
            Conflict c;
            c.first = lo;
            c.second = hi;
            c.kind = kind;
            c.first_mode = group[a].mode;
            c.second_mode = group[b].mode;
            c.object = object;
            report.conflicts.push_back(c);
          }
        }
        if (it->second >= 0)
          ++report.conflicts[static_cast<std::size_t>(it->second)].occurrences;
      }
    }
  }
  report.dfs_fallbacks = reach.dfs_fallbacks();

  obs::counter("verify.accesses")
      .add(static_cast<std::int64_t>(report.accesses));
  obs::counter("verify.pairs_checked")
      .add(static_cast<std::int64_t>(report.pairs_checked));
  obs::counter("verify.conflicts")
      .add(static_cast<std::int64_t>(report.conflicts.size()));
  obs::counter("verify.reachability.dfs_fallbacks")
      .add(static_cast<std::int64_t>(report.dfs_fallbacks));
  obs::gauge("verify.clean").set(report.clean() ? 1.0 : 0.0);
  return report;
}

std::string RaceReport::summary(const taskgraph::TaskGraph& graph) const {
  std::ostringstream os;
  os << "race verifier: " << conflicts.size()
     << " unordered conflicting task pair(s); " << accesses << " accesses, "
     << pairs_checked << " pairs checked (" << dfs_fallbacks
     << " reachability DFS fallbacks)\n";
  for (const Conflict& c : conflicts) {
    os << "  [" << verify::to_string(c.kind) << "] t" << c.first << " "
       << graph.task(c.first).label() << " [" << to_string(c.first_mode)
       << "]  <->  t" << c.second << " " << graph.task(c.second).label()
       << " [" << to_string(c.second_mode) << "]  — witness object "
       << c.object << ", " << c.occurrences
       << " object(s) affected; missing edge t" << c.first << " -> t"
       << c.second << "\n";
  }
  return os.str();
}

void collect_serial(const taskgraph::TaskGraph& graph,
                    const runtime::TaskBody& body, AccessLog& log) {
  TAMP_EXPECTS(log.num_tasks() == graph.num_tasks(),
               "access log sized for a different graph");
  TAMP_TRACE_SCOPE("verify/collect_serial");
  for (const index_t t : graph.topological_order()) {
    const TaskRecordScope scope(log, t);
    body(t);
  }
}

std::vector<char> region_closure(const taskgraph::TaskGraph& graph,
                                 const std::vector<char>& dirty) {
  TAMP_EXPECTS(dirty.size() == static_cast<std::size_t>(graph.num_tasks()),
               "dirty mask sized for a different graph");
  std::vector<char> region(dirty.begin(), dirty.end());
  for (index_t t = 0; t < graph.num_tasks(); ++t) {
    if (dirty[static_cast<std::size_t>(t)] == 0) continue;
    for (const index_t p : graph.predecessors(t))
      region[static_cast<std::size_t>(p)] = 1;
    for (const index_t s : graph.successors(t))
      region[static_cast<std::size_t>(s)] = 1;
  }
  return region;
}

RegionReport check_races_region(const taskgraph::TaskGraph& graph,
                                const std::vector<char>& dirty,
                                const runtime::TaskBody& body) {
  TAMP_TRACE_SCOPE("verify/check_races_region");
  RegionReport report;
  const std::vector<char> region = region_closure(graph, dirty);
  for (const char d : dirty) report.dirty_tasks += d != 0 ? 1 : 0;

  // Replay only region bodies — but in the FULL graph's topological
  // order and against the full graph's reachability, so dependency
  // paths through untouched tasks still order the recorded pairs.
  AccessLog log(graph.num_tasks());
  for (const index_t t : graph.topological_order()) {
    if (region[static_cast<std::size_t>(t)] == 0) continue;
    ++report.region_tasks;
    const TaskRecordScope scope(log, t);
    body(t);
  }
  report.races = check_races(graph, log);

  obs::counter("verify.region.dirty_tasks").add(report.dirty_tasks);
  obs::counter("verify.region.replayed_tasks").add(report.region_tasks);
  return report;
}

}  // namespace tamp::verify
