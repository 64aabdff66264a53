// Fiduccia–Mattheyses boundary refinement.
//
// 2-way variant (used at every uncoarsening level): hill-climbing with
// per-move balance guard, move locking, and rollback to the best prefix;
// when the split is infeasible the pass prioritises restoring balance
// (moves out of overloaded sides) over cut improvement — this is what
// lets multi-constraint MC_TL partitions converge to feasibility.
//
// k-way variant (used by Method::kway_direct and incremental
// repartitioning): greedy positive-gain moves of boundary vertices to
// adjacent parts under the same balance guard. Only a *movable* vertex,
// one that some other part holds more of the edge weight of than its own
// part, can have a positive gain; a flag per vertex, refreshed around
// every move, lets each pass skip the rest without reading neighbours.
#pragma once

#include <vector>

#include "partition/balance.hpp"
#include "support/rng.hpp"

namespace tamp::partition {

/// Refine a 0/1 bisection in place. Returns the final cut.
weight_t fm_refine_bisection(const graph::Csr& g, std::vector<part_t>& part,
                             const BalanceSpec& spec, Rng& rng, int passes);

/// One vertex move: `vertex` left part `from`.
struct Move {
  index_t vertex;
  part_t from;
};

/// Greedy k-way boundary refinement under per-part allowances
/// allowed[p*ncon+c]. `loads` holds part_loads(g, part, nparts) on entry
/// and is kept current. Every move is appended to `moves` when given.
/// Returns the final cut.
weight_t kway_refine(const graph::Csr& g, std::vector<part_t>& part,
                     part_t nparts, const std::vector<weight_t>& allowed,
                     std::vector<weight_t>& loads, Rng& rng, int passes,
                     std::vector<Move>* moves = nullptr);

}  // namespace tamp::partition
