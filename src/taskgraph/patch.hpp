// Diff-based task-graph patching — the amortization layer of the
// iteration pipeline's prep (paper §III-A: temporal levels drift slowly, so
// rebuilding the whole DAG every iteration wastes almost all of its
// cost).
//
// Algorithm 1's output is a pure function of its class aggregates
// (taskgraph/class_indexer.hpp): per-class cell and face populations and
// the distinct (face class, cell class) adjacency pairs, plus the fixed
// emission order. GraphPatcher builds those aggregates with the
// generator's own from-scratch build, then maintains them incrementally
// from the dirty cell/face set (cells whose level or domain changed,
// their domain-flip neighbours, and incident faces) and re-emits through
// the generator's emission loop. The O(cells + faces) classification and
// the per-class object list rebuilds are replaced by O(dirty) updates;
// only the O(tasks + deps) emission (a few thousand slots) reruns. The
// result is bit-identical to a from-scratch rebuild: same task order,
// same fields, same dependency CSR, same ClassMap lists.
//
// Safety net layers, outermost first:
//   1. the pipeline's IterationSnapshot fingerprint (support/hash.hpp)
//      seals whatever graph was published;
//   2. the equivalence oracle (Options::oracle) classifies the whole mesh
//      from scratch and throws invariant_error unless the patched graph
//      + ClassMap are bit-identical — it checks the incremental
//      bookkeeping, which is all the patcher owns;
//   3. verify::check_races_region re-certifies the dirty region of the
//      patched graph via induced-subgraph race checking (verifier.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/types.hpp"
#include "taskgraph/class_indexer.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::taskgraph {

/// Outcome of one GraphPatcher::apply().
struct PatchStats {
  index_t dirty_cells = 0;   ///< cells reclassified (level/domain + halo)
  index_t dirty_faces = 0;   ///< faces whose class pairs were re-derived
  index_t dirty_classes = 0; ///< object classes whose aggregates changed
  double dirty_fraction = 0; ///< changed cells / total cells
  bool patched = false;      ///< true = diff path, false = full rebuild
  /// Why the full-rebuild path ran (nullptr when patched).
  const char* rebuild_reason = nullptr;
};

/// Incrementally-maintained task graph over one evolving mesh.
///
/// Construction runs the generator's from-scratch build and keeps its
/// class aggregates; each apply() patches them from the cells whose
/// level or domain changed, which the whole-mesh apply() finds by
/// diffing the new (levels, domains) against the stored ones and the
/// list-driven apply() is handed. The mesh topology (cells, faces,
/// adjacency) must not change across applies — only temporal levels and
/// the domain assignment may. Not thread-safe: one patcher belongs to one
/// prep stream (the pipeline's depth-1 handoff serializes applies).
class GraphPatcher {
public:
  struct Options {
    /// Dirty-cell fraction above which apply() falls back to a full
    /// rebuild (the diff bookkeeping stops paying for itself; drift is
    /// expected to touch under ~5 % of cells).
    double max_dirty_fraction = 0.05;
    /// Run the equivalence oracle on every apply(): rebuild from
    /// scratch, compare bit-for-bit, throw invariant_error on mismatch.
    bool oracle = false;
  };

  GraphPatcher(const mesh::Mesh& mesh, std::vector<part_t> domain_of_cell,
               part_t ndomains, Options opts);
  /// Default Options.
  GraphPatcher(const mesh::Mesh& mesh, std::vector<part_t> domain_of_cell,
               part_t ndomains);

  /// Bring the graph up to date with `mesh`'s current levels and the new
  /// domain assignment. Returns stats for the applied diff (or rebuild).
  /// Range-checks every domain id.
  const PatchStats& apply(const mesh::Mesh& mesh,
                          const std::vector<part_t>& domain_of_cell);

  /// The same, handed the cells that differ from the last apply instead
  /// of diffing the mesh: `changed` (level) and `migrated` (domain), both
  /// ascending and exact. Range-checks the domain ids of `migrated` only
  /// — no other cell can carry a new one. The oracle (Options::oracle)
  /// also checks that the lists missed no cell.
  const PatchStats& apply(const mesh::Mesh& mesh,
                          const std::vector<part_t>& domain_of_cell,
                          std::span<const index_t> changed,
                          std::span<const index_t> migrated);

  [[nodiscard]] const TaskGraph& graph() const { return graph_; }
  [[nodiscard]] const ClassMap& classes() const { return classes_; }
  [[nodiscard]] const PatchStats& last_stats() const { return stats_; }

  /// The class-list moves of the last apply: what turned the previous
  /// classes() into the current one. Empty after a no-op, and
  /// meaningless after a rebuild (last_stats().patched false).
  [[nodiscard]] const ClassMoves& last_moves() const { return moves_; }

  /// Per-task dirty mask of the last apply(): tasks whose class
  /// aggregates changed or that are class-adjacent to one that did —
  /// the region verify::check_races_region re-certifies. All-true after
  /// construction or a full rebuild.
  [[nodiscard]] const std::vector<char>& dirty_tasks() const {
    return dirty_tasks_;
  }

  /// Fingerprint over the task array, dependency CSR and ClassMap
  /// (FNV-1a, support/hash.hpp). Equal fingerprints on a patched
  /// and a rebuilt graph is what the mutation tests assert the oracle
  /// distinguishes.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Free-standing fingerprint of any (graph, classes) pair, for
  /// comparing a patched result against an independent rebuild.
  [[nodiscard]] static std::uint64_t fingerprint(const TaskGraph& graph,
                                                 const ClassMap& classes);

  /// Test hook: corrupt one class-population aggregate so the next
  /// patched apply() produces a stale graph — the mutation tests prove
  /// the oracle (and the snapshot fingerprint) catch it.
  void corrupt_aggregates_for_testing();

private:
  void rebuild(const mesh::Mesh& mesh, const char* reason);
  /// Both applies, once the mirrors hold the new levels and domains:
  /// patch from the cells in `changed` ∪ `migrated`.
  void patch(const mesh::Mesh& mesh, std::span<const index_t> changed,
             std::span<const index_t> migrated);
  void run_oracle(const mesh::Mesh& mesh) const;

  Options opts_;
  part_t ndomains_ = 0;
  level_t nlev_ = 0;

  // Mirrors of the inputs the classification depends on.
  std::vector<part_t> domains_;
  std::vector<level_t> levels_;

  /// Per-object classes, per-class populations and the counted
  /// (face class, cell class) pairs, patched in place by apply().
  ClassAggregates agg_;
  bool pair_set_changed_ = false;

  TaskGraph graph_;
  ClassMap classes_;
  ClassMoves moves_;
  PatchStats stats_;
  std::vector<char> dirty_classes_;  ///< scratch, per class
  std::vector<char> dirty_tasks_;
  /// Dirty-object marks, sized by the first patch and all zero between
  /// applies (each apply clears the marks it set from its own dirty
  /// lists).
  std::vector<char> cell_mark_, face_mark_;
};

}  // namespace tamp::taskgraph
