#include "taskgraph/patch.hpp"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "taskgraph/class_indexer.hpp"

namespace tamp::taskgraph {

namespace {

/// One object's move between two class lists.
struct Move {
  index_t from;
  index_t to;
  index_t x;
};

/// Apply a batch of moves to the sorted class lists, touching each
/// changed list once. The moved ids are bucketed by source list into
/// `left` and by target list into `joined` (a counting sort, then a sort
/// of each small bucket), and each touched list is rewritten in one
/// sequential merge walk that drops its leaving ids and merges in its
/// joining ones — no per-member class lookup, no memmove per move.
void apply_moves(const std::vector<Move>& moves,
                 std::vector<std::vector<index_t>>& lists, ClassIdLists& left,
                 ClassIdLists& joined) {
  const std::size_t nlists = lists.size();
  const auto bucket = [&](ClassIdLists& out, auto list_of) {
    out.xadj.assign(nlists + 1, 0);
    for (const Move& m : moves)
      ++out.xadj[static_cast<std::size_t>(list_of(m)) + 1];
    for (std::size_t k = 0; k < nlists; ++k) out.xadj[k + 1] += out.xadj[k];
    out.ids.resize(moves.size());
    std::vector<index_t> cursor(out.xadj.begin(), out.xadj.end() - 1);
    for (const Move& m : moves)
      out.ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(list_of(m))]++)] = m.x;
    for (std::size_t k = 0; k < nlists; ++k)
      std::sort(out.ids.begin() + out.xadj[k], out.ids.begin() + out.xadj[k + 1]);
  };
  bucket(left, [](const Move& m) { return m.from; });
  bucket(joined, [](const Move& m) { return m.to; });
  std::vector<index_t> merged;
  for (std::size_t k = 0; k < nlists; ++k) {
    const std::span<const index_t> gone = left.of(k);
    const std::span<const index_t> came = joined.of(k);
    if (gone.empty() && came.empty()) continue;
    std::vector<index_t>& list = lists[k];
    merged.clear();
    merged.reserve(list.size() + came.size());
    auto g = gone.begin();
    auto c = came.begin();
    for (const index_t x : list) {
      for (; c != came.end() && *c < x; ++c) merged.push_back(*c);
      if (g != gone.end() && *g == x)
        ++g;
      else
        merged.push_back(x);
    }
    merged.insert(merged.end(), c, came.end());
    TAMP_ENSURE(g == gone.end(), "patch bookkeeping lost a class-list member");
    list.swap(merged);
  }
}

void clear(ClassMoves& moves) {
  for (ClassIdLists* l : {&moves.cells_left, &moves.cells_joined,
                          &moves.faces_left, &moves.faces_joined}) {
    l->xadj.clear();
    l->ids.clear();
  }
}

}  // namespace

GraphPatcher::GraphPatcher(const mesh::Mesh& mesh,
                           std::vector<part_t> domain_of_cell,
                           part_t ndomains)
    : GraphPatcher(mesh, std::move(domain_of_cell), ndomains, Options{}) {}

GraphPatcher::GraphPatcher(const mesh::Mesh& mesh,
                           std::vector<part_t> domain_of_cell,
                           part_t ndomains, Options opts)
    : opts_(opts), ndomains_(ndomains), domains_(std::move(domain_of_cell)) {
  TAMP_EXPECTS(ndomains >= 1, "need at least one domain");
  TAMP_EXPECTS(domains_.size() == static_cast<std::size_t>(mesh.num_cells()),
               "domain vector size must equal cell count");
  rebuild(mesh, nullptr);
}

void GraphPatcher::rebuild(const mesh::Mesh& mesh, const char* reason) {
  TAMP_TRACE_SCOPE("taskgraph/patch/rebuild");
  // The generator's own from-scratch build, keeping the aggregates it
  // classifies into: bit-identical to generate_task_graph by construction.
  nlev_ = static_cast<level_t>(mesh.max_level() + 1);
  levels_ = mesh.cell_levels();
  const Classifier cf{mesh, domains_, ClassIndexer{ndomains_, nlev_}};
  graph_ = build_task_graph(cf, {}, agg_, &classes_);
  pair_set_changed_ = false;
  dirty_classes_.assign(static_cast<std::size_t>(cf.cls.count()), 0);
  stats_.patched = false;
  stats_.rebuild_reason = reason == nullptr ? "initial build" : reason;
  dirty_tasks_.assign(static_cast<std::size_t>(graph_.num_tasks()), 1);
  obs::counter("taskgraph.patch.rebuilds").add(1);
}

const PatchStats& GraphPatcher::apply(
    const mesh::Mesh& mesh, const std::vector<part_t>& domain_of_cell) {
  TAMP_TRACE_SCOPE("taskgraph/patch/apply");
  const index_t ncells = mesh.num_cells();
  TAMP_EXPECTS(levels_.size() == static_cast<std::size_t>(ncells) &&
                   agg_.face_class.size() ==
                       static_cast<std::size_t>(mesh.num_faces()),
               "GraphPatcher bound to a mesh of different topology");
  TAMP_EXPECTS(domain_of_cell.size() == static_cast<std::size_t>(ncells),
               "domain vector size must equal cell count");

  // --- diff against the mirrored inputs -----------------------------------
  // The one pass over every cell also range-checks the new domain ids,
  // before any state changes.
  std::vector<index_t> changed;
  std::vector<index_t> migrated;
  for (index_t c = 0; c < ncells; ++c) {
    const auto sc = static_cast<std::size_t>(c);
    TAMP_EXPECTS(domain_of_cell[sc] >= 0 && domain_of_cell[sc] < ndomains_,
                 "domain id out of range");
    if (levels_[sc] != mesh.cell_level(c)) changed.push_back(c);
    if (domains_[sc] != domain_of_cell[sc]) migrated.push_back(c);
  }
  for (const index_t c : changed)
    levels_[static_cast<std::size_t>(c)] = mesh.cell_level(c);
  for (const index_t c : migrated)
    domains_[static_cast<std::size_t>(c)] =
        domain_of_cell[static_cast<std::size_t>(c)];
  patch(mesh, changed, migrated);
  return stats_;
}

const PatchStats& GraphPatcher::apply(const mesh::Mesh& mesh,
                                      const std::vector<part_t>& domain_of_cell,
                                      std::span<const index_t> changed,
                                      std::span<const index_t> migrated) {
  TAMP_TRACE_SCOPE("taskgraph/patch/apply");
  const index_t ncells = mesh.num_cells();
  TAMP_EXPECTS(levels_.size() == static_cast<std::size_t>(ncells) &&
                   agg_.face_class.size() ==
                       static_cast<std::size_t>(mesh.num_faces()),
               "GraphPatcher bound to a mesh of different topology");
  TAMP_EXPECTS(domain_of_cell.size() == static_cast<std::size_t>(ncells),
               "domain vector size must equal cell count");
  // Only a migrated cell can carry a new domain id: check those, before
  // any state changes.
  for (const std::span<const index_t> cells : {changed, migrated})
    for (const index_t c : cells)
      TAMP_EXPECTS(c >= 0 && c < ncells, "changed cell id out of range");
  for (const index_t c : migrated) {
    const part_t d = domain_of_cell[static_cast<std::size_t>(c)];
    TAMP_EXPECTS(d >= 0 && d < ndomains_, "domain id out of range");
  }
  for (const index_t c : changed)
    levels_[static_cast<std::size_t>(c)] = mesh.cell_level(c);
  for (const index_t c : migrated)
    domains_[static_cast<std::size_t>(c)] =
        domain_of_cell[static_cast<std::size_t>(c)];
  if (opts_.oracle && (levels_ != mesh.cell_levels() ||
                       domains_ != domain_of_cell))
    throw invariant_error(
        "GraphPatcher change lists missed a cell whose level or domain "
        "changed — caught by the equivalence oracle");
  patch(mesh, changed, migrated);
  return stats_;
}

void GraphPatcher::patch(const mesh::Mesh& mesh,
                         std::span<const index_t> changed,
                         std::span<const index_t> migrated) {
  const index_t ncells = mesh.num_cells();
  stats_ = {};
  clear(moves_);
  if (static_cast<level_t>(mesh.max_level() + 1) != nlev_) {
    // The class id space itself changed; every cached class id is void.
    rebuild(mesh, "temporal level count changed");
    stats_.dirty_fraction = 1.0;
    if (opts_.oracle) run_oracle(mesh);
    return;
  }
  // Cells whose level or domain changed: changed ∪ migrated, ascending.
  std::vector<index_t> dirty_cells;
  dirty_cells.reserve(changed.size() + migrated.size());
  std::set_union(changed.begin(), changed.end(), migrated.begin(),
                 migrated.end(), std::back_inserter(dirty_cells));
  stats_.dirty_fraction = static_cast<double>(dirty_cells.size()) /
                          static_cast<double>(ncells);
  obs::gauge("taskgraph.patch.dirty_fraction").set(stats_.dirty_fraction);

  if (dirty_cells.empty()) {
    // Classification is a pure function of (levels, domains): nothing
    // changed, the graph is already exact.
    stats_.patched = true;
    std::fill(dirty_tasks_.begin(), dirty_tasks_.end(), char{0});
    obs::counter("taskgraph.patch.noop").add(1);
    if (opts_.oracle) run_oracle(mesh);
    return;
  }
  if (stats_.dirty_fraction > opts_.max_dirty_fraction) {
    rebuild(mesh, "dirty fraction above patch threshold");
    if (opts_.oracle) run_oracle(mesh);
    return;
  }

  TAMP_TRACE_SCOPE("taskgraph/patch/diff");
  // --- dirty closure -------------------------------------------------------
  // Cells to reclassify: every changed cell, plus every neighbour of a
  // domain-changed cell (its locality may flip). Faces to re-derive:
  // every face incident to a reclassified cell (its own class and its
  // (face class, cell class) pairs both depend on its two cells).
  cell_mark_.resize(static_cast<std::size_t>(ncells), 0);  // first patch
  face_mark_.resize(static_cast<std::size_t>(mesh.num_faces()), 0);
  for (const index_t c : dirty_cells) cell_mark_[static_cast<std::size_t>(c)] = 1;
  for (const index_t c : migrated)
    for (const index_t f : mesh.cell_faces(c)) {
      const index_t o = mesh.face_other_cell(f, c);
      if (o != invalid_index && cell_mark_[static_cast<std::size_t>(o)] == 0) {
        cell_mark_[static_cast<std::size_t>(o)] = 1;
        dirty_cells.push_back(o);
      }
    }
  std::vector<index_t> dirty_faces;
  for (const index_t c : dirty_cells)
    for (const index_t f : mesh.cell_faces(c))
      if (face_mark_[static_cast<std::size_t>(f)] == 0) {
        face_mark_[static_cast<std::size_t>(f)] = 1;
        dirty_faces.push_back(f);
      }
  for (const index_t c : dirty_cells) cell_mark_[static_cast<std::size_t>(c)] = 0;
  for (const index_t f : dirty_faces) face_mark_[static_cast<std::size_t>(f)] = 0;

  // --- retract the dirty contributions (old classes) -----------------------
  auto cell_class_at = [&](index_t f, int side) {
    return agg_.cell_class[static_cast<std::size_t>(mesh.face_cell(f, side))];
  };
  auto dec_pair = [&](index_t fc, index_t cc) {
    const index_t left = agg_.pair_count.remove_one(pack_pair(fc, cc));
    TAMP_ENSURE(left >= 0, "patch bookkeeping lost an adjacency pair");
    if (left == 0) pair_set_changed_ = true;
  };
  auto inc_pair = [&](index_t fc, index_t cc) {
    if (agg_.pair_count.add(pack_pair(fc, cc))) pair_set_changed_ = true;
  };
  for (const index_t f : dirty_faces) {
    const index_t fc = agg_.face_class[static_cast<std::size_t>(f)];
    dec_pair(fc, cell_class_at(f, 0));
    if (!mesh.is_boundary_face(f)) dec_pair(fc, cell_class_at(f, 1));
  }

  // --- reclassify under the new (levels, domains) --------------------------
  const Classifier cf{mesh, domains_, ClassIndexer{ndomains_, nlev_}};
  std::fill(dirty_classes_.begin(), dirty_classes_.end(), char{0});
  // Move one object between the class populations; its class-list move
  // is recorded and applied with the others by apply_moves.
  auto reclassify = [&](index_t x, index_t new_k, std::vector<index_t>& cls,
                        std::vector<index_t>& count, std::vector<Move>& moves) {
    const auto sx = static_cast<std::size_t>(x);
    const index_t old_k = cls[sx];
    if (new_k == old_k) return;
    --count[static_cast<std::size_t>(old_k)];
    ++count[static_cast<std::size_t>(new_k)];
    moves.push_back({old_k, new_k, x});
    cls[sx] = new_k;
    dirty_classes_[static_cast<std::size_t>(old_k)] = 1;
    dirty_classes_[static_cast<std::size_t>(new_k)] = 1;
  };
  std::vector<Move> cell_moves;
  for (const index_t c : dirty_cells)
    reclassify(c, cf.cell_class(c), agg_.cell_class, agg_.cell_count,
               cell_moves);
  std::vector<Move> face_moves;
  for (const index_t f : dirty_faces) {
    reclassify(f, cf.face_class(f), agg_.face_class, agg_.face_count,
               face_moves);
    const index_t fc = agg_.face_class[static_cast<std::size_t>(f)];
    inc_pair(fc, cell_class_at(f, 0));
    if (!mesh.is_boundary_face(f)) inc_pair(fc, cell_class_at(f, 1));
  }
  apply_moves(cell_moves, classes_.class_cells, moves_.cells_left,
              moves_.cells_joined);
  apply_moves(face_moves, classes_.class_faces, moves_.faces_left,
              moves_.faces_joined);

  // --- re-emit from the patched aggregates ---------------------------------
  if (pair_set_changed_) {
    agg_.adjacency = class_adjacency(agg_.pair_count, cf.cls.count());
    pair_set_changed_ = false;
  }
  const auto ndirty_classes = static_cast<index_t>(
      std::count(dirty_classes_.begin(), dirty_classes_.end(), char{1}));
  graph_ = emit_task_graph(cf.cls, agg_, {}, &classes_.task_class);

  // Dirty-task mask at class granularity: tasks of a changed class, plus
  // tasks class-adjacent to one (their dependency lists reference its
  // last writer) — the region the race verifier re-certifies.
  std::vector<char> region(dirty_classes_.size(), 0);
  auto mark_adjacent = [&](const std::vector<eindex_t>& xadj,
                           const std::vector<index_t>& adjncy,
                           std::size_t k) {
    for (eindex_t i = xadj[k]; i < xadj[k + 1]; ++i)
      region[static_cast<std::size_t>(adjncy[static_cast<std::size_t>(i)])] =
          1;
  };
  const ClassAdjacency& adj = agg_.adjacency;
  for (std::size_t k = 0; k < dirty_classes_.size(); ++k) {
    if (dirty_classes_[k] == 0) continue;
    region[k] = 1;
    mark_adjacent(adj.f2c_xadj, adj.f2c, k);
    mark_adjacent(adj.c2f_xadj, adj.c2f, k);
  }
  dirty_tasks_.assign(static_cast<std::size_t>(graph_.num_tasks()), 0);
  for (index_t t = 0; t < graph_.num_tasks(); ++t)
    dirty_tasks_[static_cast<std::size_t>(t)] =
        region[static_cast<std::size_t>(
            classes_.task_class[static_cast<std::size_t>(t)])];

  stats_.dirty_cells = static_cast<index_t>(dirty_cells.size());
  stats_.dirty_faces = static_cast<index_t>(dirty_faces.size());
  stats_.dirty_classes = ndirty_classes;
  stats_.patched = true;
  obs::counter("taskgraph.patch.applied").add(1);
  obs::counter("taskgraph.patch.dirty_cells").add(stats_.dirty_cells);
  obs::counter("taskgraph.patch.dirty_faces").add(stats_.dirty_faces);

  if (opts_.oracle) run_oracle(mesh);
}

std::uint64_t GraphPatcher::fingerprint(const TaskGraph& graph,
                                        const ClassMap& classes) {
  Fnv1a h;
  const index_t ntasks = graph.num_tasks();
  h.add(ntasks);
  for (index_t t = 0; t < ntasks; ++t) {
    const Task& task = graph.task(t);
    h.add(task.subiteration)
        .add(task.level)
        .add(task.type)
        .add(task.locality)
        .add(task.domain)
        .add(task.num_objects)
        .add(task.cost);
    const auto succ = graph.successors(t);
    h.add_span(succ.data(), succ.size());
    const auto pred = graph.predecessors(t);
    h.add_span(pred.data(), pred.size());
  }
  h.add_vector(classes.task_class);
  for (const auto& v : classes.class_cells) h.add_vector(v);
  for (const auto& v : classes.class_faces) h.add_vector(v);
  return h.value();
}

std::uint64_t GraphPatcher::fingerprint() const {
  return fingerprint(graph_, classes_);
}

void GraphPatcher::run_oracle(const mesh::Mesh& mesh) const {
  TAMP_TRACE_SCOPE("taskgraph/patch/oracle");
  ClassMap rebuilt_map;
  const TaskGraph rebuilt =
      generate_task_graph(mesh, domains_, ndomains_, {}, &rebuilt_map);
  if (fingerprint(rebuilt, rebuilt_map) != fingerprint(graph_, classes_))
    throw invariant_error(
        "patched task graph diverged from the from-scratch rebuild — "
        "stale patch caught by the equivalence oracle");
}

void GraphPatcher::corrupt_aggregates_for_testing() {
  for (index_t& n : agg_.cell_count) {
    if (n > 1) {
      --n;
      return;
    }
  }
  TAMP_ENSURE(false, "no populated class to corrupt");
}

}  // namespace tamp::taskgraph
