// Multi-constraint balance bookkeeping shared by the initial-partitioning
// and refinement stages.
//
// A bisection splits a graph into side 0 (which must receive `fraction0`
// of every constraint's total weight) and side 1. A side is *feasible*
// when, for every constraint c,
//
//   load_side[c] ≤ target_side[c] · (1 + tolerance) + slack[c]
//
// where slack[c] is one maximum vertex weight — without it, constraints
// whose total weight is a handful of units (e.g. the paper's CUBE mesh,
// where τ=2 holds 0.3 % of cells) would make every bisection infeasible.
//
// k-way stages (direct k-way refinement, incremental repartitioning,
// fragment repair) share one allowance table and one fit check over
// part-major tables, table[p·ncon + c], the layout of part_loads().
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "support/thread_pool.hpp"
#include "support/types.hpp"

namespace tamp::partition {

/// Balance targets for one 2-way split.
class BalanceSpec {
public:
  /// Derive targets from a graph's totals and the side-0 fraction. The
  /// O(n·ncon) total/slack accounting runs on `pool` when one is given
  /// (per-chunk integer partials — bit-identical to the serial scan).
  BalanceSpec(const graph::Csr& g, double fraction0, double tolerance,
              ThreadPool* pool = nullptr);

  [[nodiscard]] int ncon() const { return static_cast<int>(total_.size()); }
  [[nodiscard]] weight_t total(int c) const {
    return total_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] weight_t target(int side, int c) const {
    return side == 0 ? target0_[static_cast<std::size_t>(c)]
                     : total_[static_cast<std::size_t>(c)] -
                           target0_[static_cast<std::size_t>(c)];
  }
  /// Maximum admissible load of `side` for constraint c.
  [[nodiscard]] weight_t allowed(int side, int c) const {
    return allowed_[static_cast<std::size_t>(side) *
                        static_cast<std::size_t>(ncon()) +
                    static_cast<std::size_t>(c)];
  }

  /// True when both sides are within their allowances.
  /// loads0 holds side-0 loads; side 1 is total − side 0.
  [[nodiscard]] bool feasible(const std::vector<weight_t>& loads0) const;

  /// True if moving a vertex with weights `w` into `to_side` keeps that
  /// side within its allowance on every constraint.
  [[nodiscard]] bool move_keeps_feasible(const std::vector<weight_t>& loads0,
                                         std::span<const weight_t> w,
                                         int to_side) const;

  /// Scalar measure of how far the split is from feasible (0 = feasible);
  /// the sum over sides and constraints of the relative overshoot.
  [[nodiscard]] double violation(const std::vector<weight_t>& loads0) const;

private:
  std::vector<weight_t> total_;
  std::vector<weight_t> target0_;
  std::vector<weight_t> allowed_;  // [side][c]
};

/// Per-part allowances of a k-way split: allowed[p·ncon + c] =
/// round(total_c / nparts · (1 + slack)) + the largest vertex weight of
/// constraint c (the same one vertex of absolute slack as BalanceSpec).
[[nodiscard]] std::vector<weight_t> kway_allowances(const graph::Csr& g,
                                                    part_t nparts,
                                                    double slack);

/// The same table from each constraint's total and largest vertex weight,
/// for callers that already hold them.
[[nodiscard]] std::vector<weight_t> kway_allowances(
    const std::vector<weight_t>& totals, const std::vector<weight_t>& max_vwgt,
    part_t nparts, double slack);

/// True if adding weights `w` (one per constraint) to part q keeps q
/// within its allowance on every constraint.
[[nodiscard]] inline bool fits_part(const std::vector<weight_t>& loads,
                                    const std::vector<weight_t>& allowed,
                                    part_t q, std::span<const weight_t> w) {
  const std::size_t base = static_cast<std::size_t>(q) * w.size();
  for (std::size_t c = 0; c < w.size(); ++c)
    if (loads[base + c] + w[c] > allowed[base + c]) return false;
  return true;
}

/// Move weights `w` from part `from` to part `to` in a load table.
inline void move_load(std::vector<weight_t>& loads, part_t from, part_t to,
                      std::span<const weight_t> w) {
  const std::size_t nc = w.size();
  for (std::size_t c = 0; c < nc; ++c) {
    loads[static_cast<std::size_t>(from) * nc + c] -= w[c];
    loads[static_cast<std::size_t>(to) * nc + c] += w[c];
  }
}

}  // namespace tamp::partition
