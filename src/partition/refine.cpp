#include "partition/refine.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "obs/metrics.hpp"
#include "partition/partition.hpp"

namespace tamp::partition {

namespace {

/// Lazy max-heap of (gain, vertex): entries are invalidated by comparing
/// against the current gain array on pop.
class GainHeap {
public:
  void push(weight_t gain, index_t v) { heap_.emplace(gain, v); }

  /// Pop the best entry whose recorded gain matches current[v] and which
  /// is neither locked nor filtered out; returns invalid_index when empty
  /// or after `max_rejections` inadmissible candidates (keeps each
  /// selection O(1) amortised even under tight multi-constraint guards).
  template <typename Admissible>
  index_t pop_best(const std::vector<weight_t>& current,
                   const std::vector<char>& locked, Admissible&& admissible,
                   std::vector<std::pair<weight_t, index_t>>& rejected,
                   int max_rejections = 64) {
    while (!heap_.empty()) {
      auto [gain, v] = heap_.top();
      heap_.pop();
      if (locked[static_cast<std::size_t>(v)]) continue;
      if (gain != current[static_cast<std::size_t>(v)]) continue;  // stale
      if (!admissible(v)) {
        rejected.emplace_back(gain, v);
        if (static_cast<int>(rejected.size()) >= max_rejections)
          return invalid_index;
        continue;
      }
      return v;
    }
    return invalid_index;
  }

  void push_all(const std::vector<std::pair<weight_t, index_t>>& entries) {
    for (const auto& [gain, v] : entries) heap_.emplace(gain, v);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  void clear() { heap_ = {}; }

private:
  std::priority_queue<std::pair<weight_t, index_t>> heap_;
};

}  // namespace

weight_t fm_refine_bisection(const graph::Csr& g, std::vector<part_t>& part,
                             const BalanceSpec& spec, Rng& /*rng*/,
                             int passes) {
  const index_t n = g.num_vertices();
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(n),
               "partition vector size mismatch");
  const int nc = spec.ncon();

  std::vector<weight_t> gain(static_cast<std::size_t>(n), 0);
  std::vector<int> gain_pass(static_cast<std::size_t>(n), -1);
  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  std::vector<weight_t> loads0(static_cast<std::size_t>(nc), 0);

  auto compute_loads = [&] {
    std::fill(loads0.begin(), loads0.end(), 0);
    for (index_t v = 0; v < n; ++v) {
      if (part[static_cast<std::size_t>(v)] == 0) {
        const auto w = g.vertex_weights(v);
        for (int c = 0; c < nc; ++c)
          loads0[static_cast<std::size_t>(c)] += w[static_cast<std::size_t>(c)];
      }
    }
  };
  auto compute_gain = [&](index_t v) {
    const part_t pv = part[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    weight_t external = 0, internal = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part[static_cast<std::size_t>(nbrs[i])] == pv)
        internal += wgts[i];
      else
        external += wgts[i];
    }
    return external - internal;
  };
  auto apply_move = [&](index_t v) {
    const part_t from = part[static_cast<std::size_t>(v)];
    part[static_cast<std::size_t>(v)] = 1 - from;
    const auto w = g.vertex_weights(v);
    for (int c = 0; c < nc; ++c) {
      const auto sc = static_cast<std::size_t>(c);
      loads0[sc] += from == 0 ? -w[sc] : w[sc];
    }
  };

  compute_loads();
  weight_t cut = edge_cut(g, part);

  // Early-termination budget: abandon a pass after this many consecutive
  // moves without a new best prefix (METIS-style; full hill climbs are
  // O(n) per pass and rarely pay off past a short plateau).
  const std::size_t plateau_limit =
      std::max<std::size_t>(128, static_cast<std::size_t>(n) / 64);

  for (int pass = 0; pass < passes; ++pass) {
    std::fill(locked.begin(), locked.end(), 0);
    GainHeap heap[2];
    const bool start_infeasible = !spec.feasible(loads0);
    for (index_t v = 0; v < n; ++v) {
      // Seed only boundary vertices: interior moves cannot reduce the cut
      // and become candidates automatically once a neighbour moves. When
      // the split is infeasible every vertex is a rebalancing candidate.
      bool boundary = false;
      const part_t pv = part[static_cast<std::size_t>(v)];
      for (const index_t u : g.neighbors(v)) {
        if (part[static_cast<std::size_t>(u)] != pv) {
          boundary = true;
          break;
        }
      }
      if (!boundary && !start_infeasible) continue;
      gain[static_cast<std::size_t>(v)] = compute_gain(v);
      gain_pass[static_cast<std::size_t>(v)] = pass;
      heap[pv].push(gain[static_cast<std::size_t>(v)], v);
    }

    std::vector<Move> moves;
    moves.reserve(static_cast<std::size_t>(n));
    weight_t running_cut = cut;
    // Best prefix: feasible beats infeasible; then lower cut; for
    // infeasible prefixes lower violation wins.
    bool best_feasible = spec.feasible(loads0);
    weight_t best_cut = cut;
    double best_violation = spec.violation(loads0);
    std::size_t best_prefix = 0;

    std::vector<std::pair<weight_t, index_t>> rejected;
    std::size_t since_best = 0;
    while (moves.size() < static_cast<std::size_t>(n)) {
      if (since_best > plateau_limit) break;
      const bool feasible_now = spec.feasible(loads0);
      index_t chosen = invalid_index;
      if (!feasible_now) {
        // Move out of the side with the larger violation contribution.
        double over[2] = {0.0, 0.0};
        for (int c = 0; c < nc; ++c) {
          const auto sc = static_cast<std::size_t>(c);
          const weight_t o0 = loads0[sc] - spec.allowed(0, c);
          const weight_t o1 =
              (spec.total(c) - loads0[sc]) - spec.allowed(1, c);
          if (o0 > 0) over[0] += static_cast<double>(o0);
          if (o1 > 0) over[1] += static_cast<double>(o1);
        }
        const int from = over[0] >= over[1] ? 0 : 1;
        // Admissible: strictly reduces the violation.
        const double current_violation = spec.violation(loads0);
        rejected.clear();
        chosen = heap[from].pop_best(
            gain, locked,
            [&](index_t v) {
              const auto w = g.vertex_weights(v);
              std::vector<weight_t> trial = loads0;
              for (int c = 0; c < nc; ++c) {
                const auto sc = static_cast<std::size_t>(c);
                trial[sc] += from == 0 ? -w[sc] : w[sc];
              }
              return spec.violation(trial) < current_violation;
            },
            rejected);
        heap[from].push_all(rejected);
        if (chosen == invalid_index) break;  // cannot rebalance further
      } else {
        // Prefer the higher top gain of the two heaps, requiring the move
        // to keep feasibility. Bounded skip scan per heap.
        for (int attempt = 0; attempt < 2 && chosen == invalid_index;
             ++attempt) {
          // Try both sides: first the one whose admissible top is better.
          index_t cand[2] = {invalid_index, invalid_index};
          std::vector<std::pair<weight_t, index_t>> rej[2];
          for (int s = 0; s < 2; ++s) {
            cand[s] = heap[s].pop_best(
                gain, locked,
                [&](index_t v) {
                  return spec.move_keeps_feasible(loads0, g.vertex_weights(v),
                                                  1 - s);
                },
                rej[s]);
          }
          if (cand[0] != invalid_index && cand[1] != invalid_index) {
            const weight_t g0 = gain[static_cast<std::size_t>(cand[0])];
            const weight_t g1 = gain[static_cast<std::size_t>(cand[1])];
            const int keep = g0 >= g1 ? 0 : 1;
            chosen = cand[keep];
            // Re-push the loser with its current gain.
            heap[1 - keep].push(gain[static_cast<std::size_t>(cand[1 - keep])],
                                cand[1 - keep]);
          } else {
            chosen = cand[0] != invalid_index ? cand[0] : cand[1];
          }
          for (int s = 0; s < 2; ++s) heap[s].push_all(rej[s]);
        }
        if (chosen == invalid_index) break;
      }

      // Execute the move.
      const int from = part[static_cast<std::size_t>(chosen)];
      running_cut -= gain[static_cast<std::size_t>(chosen)];
      apply_move(chosen);
      locked[static_cast<std::size_t>(chosen)] = 1;
      moves.push_back({chosen, from});

      // Update neighbour gains (computing them fresh on first touch this
      // pass — interior vertices were not seeded).
      const auto nbrs = g.neighbors(chosen);
      const auto wgts = g.edge_weights(chosen);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const index_t u = nbrs[i];
        if (locked[static_cast<std::size_t>(u)]) continue;
        if (gain_pass[static_cast<std::size_t>(u)] != pass) {
          // compute_gain sees the post-move part[], so it is current.
          gain[static_cast<std::size_t>(u)] = compute_gain(u);
          gain_pass[static_cast<std::size_t>(u)] = pass;
        } else if (part[static_cast<std::size_t>(u)] == from) {
          // chosen moved from `from` to `1-from`; for u in `from` the
          // edge became external (+2w gain), else internal (−2w).
          gain[static_cast<std::size_t>(u)] += 2 * wgts[i];
        } else {
          gain[static_cast<std::size_t>(u)] -= 2 * wgts[i];
        }
        heap[part[static_cast<std::size_t>(u)]].push(
            gain[static_cast<std::size_t>(u)], u);
      }

      // Evaluate this prefix.
      const bool f = spec.feasible(loads0);
      const double viol = f ? 0.0 : spec.violation(loads0);
      const bool better =
          (f && !best_feasible) ||
          (f == best_feasible &&
           (f ? running_cut < best_cut
              : viol < best_violation ||
                    (viol == best_violation && running_cut < best_cut)));
      if (better) {
        best_feasible = f;
        best_cut = running_cut;
        best_violation = viol;
        best_prefix = moves.size();
        since_best = 0;
      } else {
        ++since_best;
      }
    }

    // Roll back to the best prefix.
    for (std::size_t i = moves.size(); i > best_prefix; --i) {
      const Move& m = moves[i - 1];
      apply_move(m.vertex);  // flips back
    }
    obs::counter("partition.refine.moves")
        .add(static_cast<std::int64_t>(best_prefix));
    const weight_t new_cut = best_cut;
    const bool improved = new_cut < cut || best_prefix > 0;
    cut = new_cut;
    if (!improved || best_prefix == 0) break;  // converged
  }
  return cut;
}

weight_t kway_refine(const graph::Csr& g, std::vector<part_t>& part,
                     part_t nparts, const std::vector<weight_t>& allowed,
                     std::vector<weight_t>& loads, Rng& rng, int passes,
                     std::vector<Move>* moves) {
  const index_t n = g.num_vertices();
  const int nc = g.num_constraints();
  TAMP_EXPECTS(allowed.size() ==
                   static_cast<std::size_t>(nparts) * static_cast<std::size_t>(nc),
               "allowance table size mismatch");
  TAMP_EXPECTS(loads.size() == allowed.size(), "load table size mismatch");

  // conn[b] = edge weight from the gathered vertex into part b, for the
  // parts listed in `touched` (zero everywhere else between gathers).
  std::vector<weight_t> conn(static_cast<std::size_t>(nparts), 0);
  std::vector<part_t> touched;
  const auto gather = [&](index_t v) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    touched.clear();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const part_t b = part[static_cast<std::size_t>(nbrs[i])];
      if (conn[static_cast<std::size_t>(b)] == 0) touched.push_back(b);
      conn[static_cast<std::size_t>(b)] += wgts[i];
    }
  };
  const auto clear = [&] {
    for (const part_t b : touched) conn[static_cast<std::size_t>(b)] = 0;
  };
  // A vertex can only move to a part that holds strictly more of its edge
  // weight than its own: the gain must be positive.
  std::vector<char> movable(static_cast<std::size_t>(n), 0);
  const auto classify = [&](index_t v) {
    const part_t a = part[static_cast<std::size_t>(v)];
    gather(v);
    const weight_t internal = conn[static_cast<std::size_t>(a)];
    bool can_move = false;
    for (const part_t b : touched)
      if (b != a && conn[static_cast<std::size_t>(b)] > internal)
        can_move = true;
    clear();
    movable[static_cast<std::size_t>(v)] = can_move ? 1 : 0;
  };

  // One pass in vertex order: the cut, and the flags of boundary vertices
  // (an interior vertex is never movable).
  weight_t cut2 = 0;  // every cut edge, seen from both ends
  for (index_t v = 0; v < n; ++v) {
    const part_t a = part[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    weight_t external = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (part[static_cast<std::size_t>(nbrs[i])] != a) external += wgts[i];
    if (external == 0) continue;
    cut2 += external;
    classify(v);
  }
  weight_t cut = cut2 / 2;

  std::int64_t kway_moves = 0;  // recorded once at the end; see metrics.hpp
  for (int pass = 0; pass < passes; ++pass) {
    bool any_move = false;
    // The permutation is drawn whole, so the stream of RNG draws does not
    // depend on which vertices are skipped.
    std::vector<index_t> order = random_permutation(n, rng);
    for (const index_t v : order) {
      if (!movable[static_cast<std::size_t>(v)]) continue;
      const part_t a = part[static_cast<std::size_t>(v)];
      gather(v);
      const weight_t internal = conn[static_cast<std::size_t>(a)];
      part_t best = invalid_part;
      weight_t best_gain = 0;
      const auto w = g.vertex_weights(v);
      for (const part_t b : touched) {
        if (b == a) continue;
        const weight_t gain = conn[static_cast<std::size_t>(b)] - internal;
        if (gain <= best_gain) continue;
        if (fits_part(loads, allowed, b, w)) {
          best = b;
          best_gain = gain;
        }
      }
      clear();
      if (best == invalid_part) continue;
      part[static_cast<std::size_t>(v)] = best;
      move_load(loads, a, best, w);
      cut -= best_gain;
      any_move = true;
      ++kway_moves;
      if (moves != nullptr) moves->push_back({v, a});
      // Only the moved vertex and its neighbours see a different part.
      classify(v);
      for (const index_t u : g.neighbors(v)) classify(u);
    }
    if (!any_move) break;
  }
  obs::counter("partition.refine.kway_moves").add(kway_moves);
  return cut;
}

}  // namespace tamp::partition
