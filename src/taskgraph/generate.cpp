#include "taskgraph/generate.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "taskgraph/class_indexer.hpp"

namespace tamp::taskgraph {

ClassAdjacency class_adjacency(const PairCounter& pair_count,
                               index_t nclasses) {
  std::vector<std::uint64_t> pairs = pair_count.keys();
  std::sort(pairs.begin(), pairs.end());

  // Counting sort of the (face, cell)-ordered pairs by one endpoint keeps
  // every list ascending in the other.
  const auto face_of = [](std::uint64_t p) {
    return static_cast<index_t>(p >> 32);
  };
  const auto cell_of = [](std::uint64_t p) {
    return static_cast<index_t>(p & 0xffffffffULL);
  };
  auto csr = [&](std::vector<eindex_t>& xadj, std::vector<index_t>& adjncy,
                 auto key, auto value) {
    xadj.assign(static_cast<std::size_t>(nclasses) + 1, 0);
    for (const std::uint64_t p : pairs)
      ++xadj[static_cast<std::size_t>(key(p)) + 1];
    for (std::size_t i = 0; i < static_cast<std::size_t>(nclasses); ++i)
      xadj[i + 1] += xadj[i];
    adjncy.resize(pairs.size());
    std::vector<eindex_t> cursor(xadj.begin(), xadj.end() - 1);
    for (const std::uint64_t p : pairs)
      adjncy[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(key(p))]++)] = value(p);
  };
  ClassAdjacency adj;
  csr(adj.f2c_xadj, adj.f2c, face_of, cell_of);
  csr(adj.c2f_xadj, adj.c2f, cell_of, face_of);
  return adj;
}

TaskGraph emit_task_graph(const ClassIndexer& cls, const ClassAggregates& agg,
                          const GenerateOptions& opts,
                          std::vector<index_t>* task_class) {
  const TemporalScheme scheme(cls.nlev);
  const ClassAdjacency& adj = agg.adjacency;
  std::vector<Task> tasks;
  std::vector<std::vector<index_t>> deps;
  std::vector<index_t> last_cell_writer(static_cast<std::size_t>(cls.count()),
                                        invalid_index);
  std::vector<index_t> last_face_writer(static_cast<std::size_t>(cls.count()),
                                        invalid_index);
  if (task_class != nullptr) task_class->clear();

  auto emit = [&](index_t s, level_t tau, ObjectType type, part_t d,
                  Locality loc) {
    const index_t cid = cls.id(d, tau, loc);
    const auto k = static_cast<std::size_t>(cid);
    const bool face = type == ObjectType::face;
    const index_t count = face ? agg.face_count[k] : agg.cell_count[k];
    if (count == 0) return;  // Algorithm 1 line 6: skip empty classes

    Task task;
    task.subiteration = s;
    task.level = tau;
    task.type = type;
    task.locality = loc;
    task.domain = d;
    task.num_objects = count;
    task.cost = static_cast<simtime_t>(count) *
                (face ? opts.cost.face_unit : opts.cost.cell_unit);
    const auto tid = static_cast<index_t>(tasks.size());

    // Previous values: the last writer of the task's own class.
    // Neighbour values: the last writers of the adjacent classes of the
    // other object type.
    auto& own_writer = face ? last_face_writer : last_cell_writer;
    const auto& other_writer = face ? last_cell_writer : last_face_writer;
    const auto& xadj = face ? adj.f2c_xadj : adj.c2f_xadj;
    const auto& adjncy = face ? adj.f2c : adj.c2f;
    std::vector<index_t> dep;
    if (own_writer[k] != invalid_index) dep.push_back(own_writer[k]);
    for (eindex_t i = xadj[k]; i < xadj[k + 1]; ++i) {
      const auto other = static_cast<std::size_t>(
          adjncy[static_cast<std::size_t>(i)]);
      if (other_writer[other] != invalid_index)
        dep.push_back(other_writer[other]);
    }
    own_writer[k] = tid;
    tasks.push_back(task);
    deps.push_back(std::move(dep));
    if (task_class != nullptr) task_class->push_back(cid);
  };

  for (int iter = 0; iter < opts.num_iterations; ++iter) {
    for (index_t s = 0; s < scheme.num_subiterations(); ++s) {
      const level_t top = scheme.top_level(s);
      for (level_t tau = top;; --tau) {  // descending phases
        for (const ObjectType type : {ObjectType::face, ObjectType::cell}) {
          for (part_t d = 0; d < cls.ndomains; ++d) {
            emit(s, tau, type, d, Locality::external);
            emit(s, tau, type, d, Locality::internal);
          }
        }
        if (tau == 0) break;
      }
    }
  }
  return TaskGraph(std::move(tasks), deps);
}

TaskGraph build_task_graph(const Classifier& cf, const GenerateOptions& opts,
                           ClassAggregates& agg, ClassMap* class_map) {
  TAMP_TRACE_SCOPE("taskgraph/generate");
  const mesh::Mesh& mesh = cf.mesh;
  const index_t ncells = mesh.num_cells();
  const index_t nfaces = mesh.num_faces();
  const auto nclasses = static_cast<std::size_t>(cf.cls.count());

  agg.cell_class.resize(static_cast<std::size_t>(ncells));
  agg.face_class.resize(static_cast<std::size_t>(nfaces));
  agg.cell_count.assign(nclasses, 0);
  agg.face_count.assign(nclasses, 0);
  agg.pair_count.clear();
  for (index_t c = 0; c < ncells; ++c) {
    const part_t d = cf.domain_of_cell[static_cast<std::size_t>(c)];
    TAMP_EXPECTS(d >= 0 && d < cf.cls.ndomains, "domain id out of range");
    const index_t k = cf.cell_class(c);
    agg.cell_class[static_cast<std::size_t>(c)] = k;
    ++agg.cell_count[static_cast<std::size_t>(k)];
  }
  auto side_class = [&](index_t f, int side) {
    return agg.cell_class[static_cast<std::size_t>(mesh.face_cell(f, side))];
  };
  for (index_t f = 0; f < nfaces; ++f) {
    const index_t k = cf.face_class(f);
    agg.face_class[static_cast<std::size_t>(f)] = k;
    ++agg.face_count[static_cast<std::size_t>(k)];
    agg.pair_count.add(pack_pair(k, side_class(f, 0)));
    if (!mesh.is_boundary_face(f))
      agg.pair_count.add(pack_pair(k, side_class(f, 1)));
  }
  agg.adjacency = class_adjacency(agg.pair_count, cf.cls.count());

  if (class_map != nullptr) {
    // Lists in ascending id order.
    auto fill = [&](std::vector<std::vector<index_t>>& lists,
                    const std::vector<index_t>& object_class,
                    const std::vector<index_t>& count) {
      lists.assign(nclasses, {});
      for (std::size_t k = 0; k < nclasses; ++k)
        lists[k].reserve(static_cast<std::size_t>(count[k]));
      for (std::size_t x = 0; x < object_class.size(); ++x)
        lists[static_cast<std::size_t>(object_class[x])].push_back(
            static_cast<index_t>(x));
    };
    fill(class_map->class_cells, agg.cell_class, agg.cell_count);
    fill(class_map->class_faces, agg.face_class, agg.face_count);
  }

  TaskGraph graph = emit_task_graph(
      cf.cls, agg, opts,
      class_map != nullptr ? &class_map->task_class : nullptr);
  obs::counter("taskgraph.tasks").add(graph.num_tasks());
  obs::counter("taskgraph.dependencies").add(graph.num_dependencies());
  return graph;
}

TaskGraph generate_task_graph(const mesh::Mesh& mesh,
                              const std::vector<part_t>& domain_of_cell,
                              part_t ndomains, const GenerateOptions& opts,
                              ClassMap* class_map) {
  TAMP_EXPECTS(domain_of_cell.size() ==
                   static_cast<std::size_t>(mesh.num_cells()),
               "domain vector size must equal cell count");
  TAMP_EXPECTS(ndomains >= 1, "need at least one domain");
  TAMP_EXPECTS(opts.num_iterations >= 1, "need at least one iteration");
  const Classifier cf{
      mesh, domain_of_cell,
      ClassIndexer{ndomains, static_cast<level_t>(mesh.max_level() + 1)}};
  ClassAggregates agg;
  return build_task_graph(cf, opts, agg, class_map);
}

std::vector<simtime_t> work_per_subiteration(const TaskGraph& graph) {
  index_t nsub = 0;
  for (const Task& t : graph.tasks())
    nsub = std::max(nsub, t.subiteration + 1);
  std::vector<simtime_t> work(static_cast<std::size_t>(nsub), 0);
  for (const Task& t : graph.tasks())
    work[static_cast<std::size_t>(t.subiteration)] += t.cost;
  return work;
}

std::vector<simtime_t> work_per_process_subiteration(
    const TaskGraph& graph, const std::vector<part_t>& domain_to_process,
    part_t nprocesses) {
  index_t nsub = 0;
  for (const Task& t : graph.tasks())
    nsub = std::max(nsub, t.subiteration + 1);
  std::vector<simtime_t> work(
      static_cast<std::size_t>(nprocesses) * static_cast<std::size_t>(nsub), 0);
  for (const Task& t : graph.tasks()) {
    TAMP_EXPECTS(static_cast<std::size_t>(t.domain) < domain_to_process.size(),
                 "task domain outside process map");
    const part_t p = domain_to_process[static_cast<std::size_t>(t.domain)];
    work[static_cast<std::size_t>(p) * nsub +
         static_cast<std::size_t>(t.subiteration)] += t.cost;
  }
  return work;
}

}  // namespace tamp::taskgraph
