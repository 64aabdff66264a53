// Temporal-level evolution between iterations.
//
// Paper §III-A: "the temporal levels of the cells experience minimal
// evolution across iterations" — the justification for optimising a
// single iteration. evolve_levels() provides the other side of that
// statement for experiments: a controlled, physically-shaped drift in
// which cells on level boundaries slide one level towards a neighbour's
// (the phenomenon's regions of interest creeping through the mesh).
// Used by the incremental-repartitioning experiments.
//
// LevelEvolver is the same drift for a caller that steps one mesh many
// times (the iteration pipeline's prep): it keeps, per cell, how many of
// its faces lead to a cell on another level, so a step costs the
// eligible cells' RNG draws plus the faces around the cells that
// changed, and it hands the changed cells on to the stages after it.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/rng.hpp"

namespace tamp::mesh {

struct EvolveStats {
  index_t cells_changed = 0;
  index_t eligible_cells = 0;  ///< cells adjacent to a level boundary
};

/// Drift the mesh's temporal levels: every cell with a neighbour on a
/// different level moves one step towards a uniformly chosen such
/// neighbour's level with probability `drift`. Deterministic under `rng`.
/// Returns how much changed. Levels stay within [0, old max level].
/// One LevelEvolver step: construct-then-step.
EvolveStats evolve_levels(Mesh& mesh, double drift, Rng& rng);

/// Repeated evolve_levels steps of one mesh. Each step draws exactly
/// what evolve_levels draws (one uniform per eligible cell in ascending
/// cell order, then the neighbour choice), so a sequence of steps gives
/// bitwise the levels, changed cells and eligible counts of a sequence
/// of evolve_levels calls. The per-cell counts are updated around the
/// changed cells only; a step at drift 0 returns at once.
class LevelEvolver {
public:
  /// Count every cell's faces to a neighbour on another level.
  explicit LevelEvolver(const Mesh& mesh);

  /// One drift step. `mesh` must be the mesh of construction, its levels
  /// the ones the previous step left (or construction saw).
  EvolveStats step(Mesh& mesh, double drift, Rng& rng);

  /// The cells the last step changed, ascending.
  [[nodiscard]] const std::vector<index_t>& changed() const {
    return changed_;
  }

private:
  /// Add `delta` to cell c's count, keeping the eligible set in step.
  void add_across(index_t c, index_t delta);
  /// Before the new levels are written: move the counts of the faces of
  /// the changed cells from the old levels to the new ones, each face
  /// once.
  void move_counts(const Mesh& mesh);

  std::vector<index_t> across_;  ///< per cell: faces to another level
  std::vector<std::uint64_t> eligible_bits_;  ///< bit c: across_[c] > 0
  index_t eligible_ = 0;
  /// A drifting cell steps towards one of its first kMaxTargets
  /// neighbours on another level, in face order.
  static constexpr index_t kMaxTargets = 8;

  std::vector<index_t> changed_;
  std::vector<level_t> next_;  ///< new level of changed_[i]
  std::vector<index_t> picks_;  ///< scratch: drawn neighbour per drawn cell
  /// Neighbour of each interior face of changed_[i], in face order, at
  /// [neighbour_xadj_[i], neighbour_xadj_[i + 1]): read once by the draw,
  /// so the count updates do not walk the mesh again.
  std::vector<index_t> neighbour_xadj_, neighbours_;
  /// Per cell: 1 + its index in changed_ while a step moves the counts,
  /// 0 otherwise (all zero between steps; sized by the first drift).
  std::vector<index_t> slot_;
};

}  // namespace tamp::mesh
