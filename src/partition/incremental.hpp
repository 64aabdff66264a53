// Incremental repartitioning after the vertex weights drift.
//
// Production context: FLUSEPA's temporal levels evolve slowly between
// iterations (§III-A). Repartitioning from scratch every time would move
// most of the mesh between processes; incremental repartitioning starts
// from the previous assignment, restores per-constraint balance with
// targeted moves, then locally improves the cut — touching only a small
// fraction of cells (the *migration volume*, which in a distributed run
// is data physically shipped between nodes).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tamp::partition {

struct IncrementalOptions {
  double tolerance = 0.05;  ///< per-constraint balance tolerance
  int refine_passes = 4;
  std::uint64_t seed = 1;
  /// Number of vertices whose weights actually changed since the
  /// previous assignment, when the caller knows it (< 0 = unknown).
  /// Zero short-circuits the whole run: the previous assignment is
  /// provably still optimal under unchanged weights, so it is reused
  /// verbatim (no rebalance, no refinement, no RNG draws).
  index_t dirty_vertices = -1;
};

struct IncrementalReport {
  index_t migrated_vertices = 0;  ///< vertices whose part changed
  /// Those vertices, ascending: the net migration the stages after a
  /// repartition update from (moves that came back are not in it).
  std::vector<index_t> migrated;
  weight_t cut_before = 0;
  weight_t cut_after = 0;
  double imbalance_before = 0;    ///< worst constraint, on the new weights
  double imbalance_after = 0;
  /// True when dirty_vertices == 0 skipped the run and the previous
  /// assignment was returned untouched.
  bool reused_verbatim = false;
  /// True when every part ends within its allowance on every constraint.
  /// False when no feasible move could restore balance, e.g. an
  /// overloaded part without a boundary vertex.
  bool balanced = true;
};

/// Repartition `g` (whose weights have changed) starting from `part`.
/// `part` is updated in place; the report quantifies migration and
/// quality. The graph topology must match the old assignment (same
/// vertex ids).
IncrementalReport incremental_repartition(const graph::Csr& g,
                                          std::vector<part_t>& part,
                                          part_t nparts,
                                          const IncrementalOptions& opts = {});

}  // namespace tamp::partition
