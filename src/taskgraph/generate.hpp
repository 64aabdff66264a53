// Task-graph generation from a mesh + domain decomposition — the paper's
// Algorithm 1 with the dependency rules of §II-B.
//
// Generation order (one iteration): subiterations ascending; inside a
// subiteration, phases τ = τtop(s) … 0 descending; inside a phase, faces
// before cells; per domain, the external task before the internal one.
// A task aggregates every active object of its (s, τ, type, domain,
// locality) class.
//
// Dependencies follow the paper's two rules:
//   * neighbour values — a face task reads its adjacent cells' current
//     values: it depends on the last writers of the adjacent cell
//     classes; a cell task reads the fluxes on its faces: it depends on
//     the last writers of the adjacent face classes (which, faces being
//     generated first, include this phase's face tasks);
//   * previous values — every task depends on the previous task that
//     wrote its own class (earlier subiteration or iteration).
// "Last writer at generation time" makes the DAG acyclic by construction
// and reproduces the strong inter-subiteration ordering the paper
// describes (§IV: a process with no work in a subiteration waits for its
// neighbours before entering the next one).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"
#include "taskgraph/scheme.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::taskgraph {

/// Execution cost of one object update, in abstract work units.
/// Calibrated so a cell update (gather fluxes, update conserved state,
/// Heun stage arithmetic) costs 1 and a face flux evaluation a bit less;
/// bench/fig13 recalibrates from measured solver kernels.
struct CostModel {
  double cell_unit = 1.0;
  double face_unit = 0.4;
};

struct GenerateOptions {
  CostModel cost;
  /// Iterations to unroll (the paper evaluates single iterations; >1
  /// chains them through the previous-value dependencies).
  int num_iterations = 1;
};

/// Concrete object membership of each task, for executing real kernels:
/// tasks of the same (domain, level, locality) class share one object
/// list; `task_class[t]` indexes into the per-class lists, and the task's
/// type selects faces vs cells. Lists hold mesh ids in ascending order
/// and need not be contiguous: the solvers lay their kernel data out
/// class by class from the lists themselves (solver/layout.hpp
/// class_layout), so each class streams as a few consecutive runs.
struct ClassMap {
  std::vector<index_t> task_class;               ///< per task id
  std::vector<std::vector<index_t>> class_faces; ///< face ids per class
  std::vector<std::vector<index_t>> class_cells; ///< cell ids per class
};

/// Object ids grouped by class: class k's ids are ids[xadj[k],
/// xadj[k+1]), ascending. An empty `xadj` holds no ids at all.
struct ClassIdLists {
  std::vector<index_t> xadj;
  std::vector<index_t> ids;

  [[nodiscard]] std::span<const index_t> of(std::size_t k) const {
    if (k + 1 >= xadj.size()) return {};
    return {ids.data() + xadj[k], ids.data() + xadj[k + 1]};
  }
};

/// The per-object class moves one GraphPatcher::apply made: per object
/// kind, the ids that left each class list and the ids that joined it.
/// Applied to the lists of the map the patch started from, they give
/// the patched map's lists.
struct ClassMoves {
  ClassIdLists cells_left, cells_joined;
  ClassIdLists faces_left, faces_joined;

  [[nodiscard]] bool empty() const {
    return cells_left.ids.empty() && cells_joined.ids.empty() &&
           faces_left.ids.empty() && faces_joined.ids.empty();
  }
};

/// A class map given as the moves from the map it was patched from —
/// what lets a consumer that holds `base` update what it derived from
/// it in O(moves) (solver/layout.hpp update_class_runs).
struct ClassDelta {
  std::weak_ptr<const ClassMap> base;  ///< the map `moves` apply to
  ClassMoves moves;

  /// Do the moves apply to `map`? (Ownership identity: a map freed and
  /// another allocated at its address is not the base.)
  [[nodiscard]] bool applies_to(
      const std::shared_ptr<const ClassMap>& map) const {
    return map != nullptr && !base.owner_before(map) &&
           !map.owner_before(base);
  }
};

/// Generate the task DAG for `mesh` decomposed by `domain_of_cell`.
/// When `class_map` is non-null it receives the object lists.
TaskGraph generate_task_graph(const mesh::Mesh& mesh,
                              const std::vector<part_t>& domain_of_cell,
                              part_t ndomains,
                              const GenerateOptions& opts = {},
                              ClassMap* class_map = nullptr);

/// Per-subiteration aggregate workload (work units), schedule-independent:
/// the paper's observation that subiterations inject very different
/// amounts of work (Fig 4).
std::vector<simtime_t> work_per_subiteration(const TaskGraph& graph);

/// Per-(process, subiteration) workload for Fig 7b / Fig 10b:
/// result[p * nsub + s]. Requires the domain→process map.
std::vector<simtime_t> work_per_process_subiteration(
    const TaskGraph& graph, const std::vector<part_t>& domain_to_process,
    part_t nprocesses);

}  // namespace tamp::taskgraph
