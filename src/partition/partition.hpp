// Public interface of the multilevel multi-constraint graph partitioner.
//
// A from-scratch reimplementation of the algorithm family the paper uses
// through METIS (Karypis & Kumar multilevel scheme with multi-constraint
// support [11], [17]): heavy-edge-matching coarsening, greedy-graph-
// growing initial bisection, Fiduccia–Mattheyses boundary refinement with
// a per-constraint balance guard, applied through recursive bisection
// (the paper's choice, §V) or direct k-way refinement.
//
// The number of balance constraints is the graph's ncon: SC_OC passes
// one operating-cost weight per vertex; MC_TL passes one binary indicator
// per temporal level (paper §V).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace tamp::partition {

/// Top-level partitioning method.
enum class Method {
  recursive_bisection,  ///< paper's choice: higher quality on FV meshes
  kway_direct,          ///< RB seed + direct greedy k-way refinement
};

/// Knobs for partition_graph(). Defaults mirror METIS's.
struct Options {
  part_t nparts = 2;
  Method method = Method::recursive_bisection;
  /// Per-constraint load tolerance: each part may carry up to
  /// target · (1 + tolerance) (+ one max vertex weight of slack, which
  /// makes tiny constraint classes feasible, as METIS does).
  double tolerance = 0.05;
  /// Stop coarsening below this many vertices.
  index_t coarsen_to = 160;
  /// Independent randomised initial-bisection attempts; best kept.
  int initial_trials = 8;
  /// FM refinement passes per uncoarsening level.
  int refine_passes = 6;
  std::uint64_t seed = 1;
  /// Worker threads for the decomposition: >0 = that many, 0 = read the
  /// TAMP_PARTITION_THREADS environment variable (absent → 1), 1 = serial.
  /// Every thread count produces bit-identical partitions: each subtree of
  /// the recursive bisection draws from its own RNG derived from
  /// (seed, part_base, k), and the data-parallel loops combine per-chunk
  /// integer partials in a fixed order.
  int num_threads = 0;
};

/// Result of a partitioning run.
struct Result {
  std::vector<part_t> part;   ///< part id per vertex, in [0, nparts)
  weight_t edge_cut = 0;      ///< Σ weights of edges crossing parts
  /// loads[p * ncon + c] = Σ vwgt[c] of vertices in part p.
  std::vector<weight_t> loads;
  part_t nparts = 0;
  int ncon = 1;

  /// Worst imbalance over constraints: max_c max_p loads[p][c]·nparts /
  /// total[c]. 1.0 = perfect balance. Constraints with zero total are
  /// skipped.
  [[nodiscard]] double max_imbalance() const;
  /// Imbalance of one constraint.
  [[nodiscard]] double imbalance(int constraint) const;
};

/// Partition `g` into opts.nparts parts balancing all ncon constraints.
Result partition_graph(const graph::Csr& g, const Options& opts);

// --- quality metrics (also used standalone by benches) ---------------------

/// Σ weights of edges whose endpoints lie in different parts.
weight_t edge_cut(const graph::Csr& g, const std::vector<part_t>& part);

/// Per-part per-constraint loads, laid out part-major.
std::vector<weight_t> part_loads(const graph::Csr& g,
                                 const std::vector<part_t>& part,
                                 part_t nparts);

/// Worst per-constraint imbalance factor of a given assignment.
double max_imbalance(const graph::Csr& g, const std::vector<part_t>& part,
                     part_t nparts);

/// The same factor from a part-major load table (part_loads' layout).
double max_imbalance(const std::vector<weight_t>& loads, part_t nparts,
                     int ncon);

}  // namespace tamp::partition
