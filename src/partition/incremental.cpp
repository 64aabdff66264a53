#include "partition/incremental.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/balance.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"

namespace tamp::partition {

namespace {

/// True when v has a neighbour in another part.
bool on_boundary(const graph::Csr& g, const std::vector<part_t>& part,
                 index_t v) {
  const part_t p = part[static_cast<std::size_t>(v)];
  for (const index_t u : g.neighbors(v))
    if (part[static_cast<std::size_t>(u)] != p) return true;
  return false;
}

/// Make v's presence in the ascending list `list` equal `member`.
void set_member(std::vector<index_t>& list, index_t v, bool member) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  const bool present = it != list.end() && *it == v;
  if (member && !present) list.insert(it, v);
  if (!member && present) list.erase(it);
}

bool within_allowances(const std::vector<weight_t>& loads,
                       const std::vector<weight_t>& allowed) {
  for (std::size_t i = 0; i < loads.size(); ++i)
    if (loads[i] > allowed[i]) return false;
  return true;
}

}  // namespace

IncrementalReport incremental_repartition(const graph::Csr& g,
                                          std::vector<part_t>& part,
                                          part_t nparts,
                                          const IncrementalOptions& opts) {
  TAMP_TRACE_SCOPE("partition/incremental");
  const index_t n = g.num_vertices();
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(n),
               "partition vector size mismatch");
  const int nc = g.num_constraints();
  const auto snc = static_cast<std::size_t>(nc);

  // One O(n·ncon) pass: the load table and each constraint's largest
  // vertex weight, which with the loads' column sums give the allowances
  // on the *new* weights. Moves keep the loads current from here on.
  std::vector<weight_t> loads(static_cast<std::size_t>(nparts) * snc, 0);
  std::vector<weight_t> max_vwgt(snc, 0);
  for (index_t v = 0; v < n; ++v) {
    const part_t p = part[static_cast<std::size_t>(v)];
    TAMP_EXPECTS(p >= 0 && p < nparts, "part id out of range");
    const auto w = g.vertex_weights(v);
    for (std::size_t c = 0; c < snc; ++c) {
      loads[static_cast<std::size_t>(p) * snc + c] += w[c];
      max_vwgt[c] = std::max(max_vwgt[c], w[c]);
    }
  }
  std::vector<weight_t> totals(snc, 0);
  for (std::size_t i = 0; i < loads.size(); ++i) totals[i % snc] += loads[i];
  const std::vector<weight_t> allowed =
      kway_allowances(totals, max_vwgt, nparts, opts.tolerance);

  // One O(m) pass: the cut, and per part the ascending list of its
  // boundary vertices — the only vertices a rebalancing move can take,
  // since a move needs a neighbour in the destination part.
  std::vector<std::vector<index_t>> boundary(static_cast<std::size_t>(nparts));
  weight_t cut2 = 0;  // every cut edge, seen from both ends
  for (index_t v = 0; v < n; ++v) {
    const part_t p = part[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    weight_t external = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (part[static_cast<std::size_t>(nbrs[i])] != p) external += wgts[i];
    if (external == 0) continue;
    cut2 += external;
    boundary[static_cast<std::size_t>(p)].push_back(v);
  }

  IncrementalReport report;
  report.cut_before = cut2 / 2;
  report.imbalance_before = max_imbalance(loads, nparts, nc);
  if (opts.dirty_vertices == 0) {
    // No vertex weight changed: the previous assignment is still exactly
    // as balanced and as cut-optimal as it was, so reuse it verbatim.
    report.cut_after = report.cut_before;
    report.imbalance_after = report.imbalance_before;
    report.balanced = within_allowances(loads, allowed);
    report.reused_verbatim = true;
    obs::counter("partition.incremental.reused_verbatim").add(1);
    return report;
  }

  auto overshoot = [&](part_t p, int c) {
    return loads[static_cast<std::size_t>(p) * snc + static_cast<std::size_t>(c)] -
           allowed[static_cast<std::size_t>(p) * snc + static_cast<std::size_t>(c)];
  };
  std::vector<Move> moves;

  // --- phase 1: restore balance with targeted migrations --------------------
  const index_t max_moves = 4 * n / std::max<part_t>(nparts, 1) + 1024;
  {
    TAMP_TRACE_SCOPE("partition/incremental/rebalance");
    for (index_t move = 0; move < max_moves; ++move) {
      // Worst (part, constraint) overshoot.
      part_t worst_p = invalid_part;
      int worst_c = -1;
      weight_t worst_over = 0;
      for (part_t p = 0; p < nparts; ++p) {
        for (int c = 0; c < nc; ++c) {
          const weight_t over = overshoot(p, c);
          if (over > worst_over) {
            worst_over = over;
            worst_p = p;
            worst_c = c;
          }
        }
      }
      if (worst_p == invalid_part) break;  // balanced

      // Best migration: a vertex of worst_p carrying weight in worst_c,
      // moved to an adjacent (preferred) part that stays feasible on every
      // constraint; maximise cut gain among candidates, the lowest vertex
      // id first among equals.
      index_t best_v = invalid_index;
      part_t best_dest = invalid_part;
      weight_t best_gain = std::numeric_limits<weight_t>::min();
      for (const index_t v : boundary[static_cast<std::size_t>(worst_p)]) {
        const auto w = g.vertex_weights(v);
        if (w[static_cast<std::size_t>(worst_c)] <= 0) continue;
        // Connectivity per adjacent part.
        const auto nbrs = g.neighbors(v);
        const auto wgts = g.edge_weights(v);
        weight_t internal = 0;
        for (std::size_t i = 0; i < nbrs.size(); ++i)
          if (part[static_cast<std::size_t>(nbrs[i])] == worst_p)
            internal += wgts[i];
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const part_t q = part[static_cast<std::size_t>(nbrs[i])];
          if (q == worst_p || !fits_part(loads, allowed, q, w)) continue;
          weight_t external = 0;
          for (std::size_t j = 0; j < nbrs.size(); ++j)
            if (part[static_cast<std::size_t>(nbrs[j])] == q)
              external += wgts[j];
          const weight_t gain = external - internal;
          if (gain > best_gain) {
            best_gain = gain;
            best_v = v;
            best_dest = q;
          }
        }
      }
      if (best_v == invalid_index) break;  // no feasible rebalancing move
      move_load(loads, worst_p, best_dest, g.vertex_weights(best_v));
      part[static_cast<std::size_t>(best_v)] = best_dest;
      moves.push_back({best_v, worst_p});
      // Only the moved vertex and its neighbours change boundary status.
      set_member(boundary[static_cast<std::size_t>(worst_p)], best_v, false);
      set_member(boundary[static_cast<std::size_t>(best_dest)], best_v,
                 on_boundary(g, part, best_v));
      for (const index_t u : g.neighbors(best_v))
        set_member(boundary[static_cast<std::size_t>(
                       part[static_cast<std::size_t>(u)])],
                   u, on_boundary(g, part, u));
    }
  }

  // --- phase 2: local cut refinement under the same allowances --------------
  {
    TAMP_TRACE_SCOPE("partition/incremental/refine");
    Rng rng(opts.seed);
    report.cut_after = kway_refine(g, part, nparts, allowed, loads, rng,
                                   opts.refine_passes, &moves);
  }

  // A vertex migrated when its final part differs from the part its first
  // move left.
  std::stable_sort(moves.begin(), moves.end(),
                   [](const Move& a, const Move& b) {
                     return a.vertex < b.vertex;
                   });
  for (std::size_t i = 0; i < moves.size(); ++i)
    if ((i == 0 || moves[i - 1].vertex != moves[i].vertex) &&
        part[static_cast<std::size_t>(moves[i].vertex)] != moves[i].from)
      report.migrated.push_back(moves[i].vertex);
  report.migrated_vertices = static_cast<index_t>(report.migrated.size());
  report.imbalance_after = max_imbalance(loads, nparts, nc);
  report.balanced = within_allowances(loads, allowed);
  obs::counter("partition.incremental.migrated_vertices")
      .add(report.migrated_vertices);
  obs::gauge("partition.incremental.cut_after")
      .set(static_cast<double>(report.cut_after));
  obs::gauge("partition.incremental.imbalance_after")
      .set(report.imbalance_after);
  return report;
}

}  // namespace tamp::partition
