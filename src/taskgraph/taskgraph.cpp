#include "taskgraph/taskgraph.hpp"

#include <algorithm>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::taskgraph {

const char* to_string(ObjectType t) {
  return t == ObjectType::face ? "face" : "cell";
}
const char* to_string(Locality l) {
  return l == Locality::external ? "ext" : "int";
}

std::string Task::label() const {
  std::ostringstream os;
  os << 's' << subiteration << ":t" << static_cast<int>(level) << ':'
     << to_string(type) << ':' << to_string(locality) << ":d" << domain << " ("
     << num_objects << ')';
  return os.str();
}

std::string TaskClass::label() const {
  std::ostringstream os;
  os << 't' << static_cast<int>(level) << ':' << to_string(type) << ':'
     << to_string(locality);
  return os.str();
}

std::vector<TaskClass> task_classes(const TaskGraph& graph) {
  std::vector<TaskClass> out;
  for (const Task& t : graph.tasks()) {
    const TaskClass c = class_of(t);
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  std::sort(out.begin(), out.end(),
            [](const TaskClass& a, const TaskClass& b) {
              return a.id() < b.id();
            });
  return out;
}

TaskGraph::TaskGraph(std::vector<Task> tasks,
                     const std::vector<std::vector<index_t>>& deps)
    : tasks_(std::move(tasks)) {
  const auto n = static_cast<std::size_t>(tasks_.size());
  TAMP_EXPECTS(deps.size() == n, "dependency list size mismatch");

  pred_xadj_.assign(n + 1, 0);
  std::vector<std::vector<index_t>> clean(n);
  for (std::size_t t = 0; t < n; ++t) {
    clean[t] = deps[t];
    std::sort(clean[t].begin(), clean[t].end());
    clean[t].erase(std::unique(clean[t].begin(), clean[t].end()),
                   clean[t].end());
    for (const index_t p : clean[t]) {
      TAMP_EXPECTS(p >= 0 && static_cast<std::size_t>(p) < n,
                   "dependency index out of range");
      TAMP_EXPECTS(static_cast<std::size_t>(p) != t,
                   "task depending on itself");
    }
    pred_xadj_[t + 1] = pred_xadj_[t] + static_cast<eindex_t>(clean[t].size());
  }
  pred_.resize(static_cast<std::size_t>(pred_xadj_.back()));
  for (std::size_t t = 0; t < n; ++t)
    std::copy(clean[t].begin(), clean[t].end(),
              pred_.begin() + static_cast<std::size_t>(pred_xadj_[t]));

  // Transpose for successors.
  succ_xadj_.assign(n + 1, 0);
  for (const index_t p : pred_) ++succ_xadj_[static_cast<std::size_t>(p) + 1];
  for (std::size_t t = 0; t < n; ++t) succ_xadj_[t + 1] += succ_xadj_[t];
  succ_.resize(pred_.size());
  std::vector<eindex_t> cursor(succ_xadj_.begin(), succ_xadj_.end() - 1);
  for (std::size_t t = 0; t < n; ++t) {
    for (const index_t p : predecessors(static_cast<index_t>(t)))
      succ_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] =
          static_cast<index_t>(t);
  }
}

simtime_t TaskGraph::total_work() const {
  simtime_t total = 0;
  for (const Task& t : tasks_) total += t.cost;
  return total;
}

std::vector<index_t> TaskGraph::topological_order() const {
  const auto n = static_cast<std::size_t>(tasks_.size());
  std::vector<index_t> indegree(n, 0);
  for (std::size_t t = 0; t < n; ++t)
    indegree[t] = static_cast<index_t>(predecessors(static_cast<index_t>(t)).size());
  std::vector<index_t> order;
  order.reserve(n);
  std::vector<index_t> ready;
  for (std::size_t t = 0; t < n; ++t)
    if (indegree[t] == 0) ready.push_back(static_cast<index_t>(t));
  while (!ready.empty()) {
    const index_t t = ready.back();
    ready.pop_back();
    order.push_back(t);
    for (const index_t s : successors(t))
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
  }
  TAMP_ENSURE(order.size() == n, "task graph contains a cycle");
  return order;
}

simtime_t TaskGraph::critical_path() const {
  TAMP_TRACE_SCOPE("taskgraph/critical_path");
  const std::vector<index_t> order = topological_order();
  std::vector<simtime_t> finish(tasks_.size(), 0);
  simtime_t best = 0;
  for (const index_t t : order) {
    simtime_t start = 0;
    for (const index_t p : predecessors(t))
      start = std::max(start, finish[static_cast<std::size_t>(p)]);
    finish[static_cast<std::size_t>(t)] =
        start + tasks_[static_cast<std::size_t>(t)].cost;
    best = std::max(best, finish[static_cast<std::size_t>(t)]);
  }
  obs::gauge("taskgraph.critical_path").set(best);
  return best;
}

std::string TaskGraph::to_dot(index_t max_tasks) const {
  TAMP_EXPECTS(num_tasks() <= max_tasks,
               "task graph too large for DOT rendering; raise max_tasks "
               "explicitly if intended");
  std::ostringstream os;
  os << "digraph taskgraph {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n";
  for (index_t t = 0; t < num_tasks(); ++t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    os << "  t" << t << " [label=\"" << task.label() << "\""
       << (task.type == ObjectType::face ? ", peripheries=2" : "") << "];\n";
  }
  for (index_t t = 0; t < num_tasks(); ++t)
    for (const index_t p : predecessors(t))
      os << "  t" << p << " -> t" << t << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace tamp::taskgraph
