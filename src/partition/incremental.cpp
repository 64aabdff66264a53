#include "partition/incremental.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/balance.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"

namespace tamp::partition {

IncrementalReport incremental_repartition(const graph::Csr& g,
                                          std::vector<part_t>& part,
                                          part_t nparts,
                                          const IncrementalOptions& opts) {
  TAMP_TRACE_SCOPE("partition/incremental");
  const index_t n = g.num_vertices();
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(n),
               "partition vector size mismatch");
  const int nc = g.num_constraints();

  IncrementalReport report;
  if (opts.dirty_vertices == 0) {
    // No vertex weight changed: the previous assignment is still exactly
    // as balanced and as cut-optimal as it was, so reuse it verbatim.
    report.cut_before = report.cut_after = edge_cut(g, part);
    report.imbalance_before = report.imbalance_after =
        max_imbalance(g, part, nparts);
    report.reused_verbatim = true;
    obs::counter("partition.incremental.reused_verbatim").add(1);
    return report;
  }

  const std::vector<part_t> before = part;
  report.cut_before = edge_cut(g, part);
  report.imbalance_before = max_imbalance(g, part, nparts);

  // Allowances on the *new* weights.
  const std::vector<weight_t> allowed =
      kway_allowances(g, nparts, opts.tolerance);

  std::vector<weight_t> loads = part_loads(g, part, nparts);
  auto overshoot = [&](part_t p, int c) {
    return loads[static_cast<std::size_t>(p) * nc + static_cast<std::size_t>(c)] -
           allowed[static_cast<std::size_t>(p) * nc + static_cast<std::size_t>(c)];
  };

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
      // constraint; maximise cut gain among candidates.
      index_t best_v = invalid_index;
      part_t best_dest = invalid_part;
      weight_t best_gain = std::numeric_limits<weight_t>::min();
      for (index_t v = 0; v < n; ++v) {
        if (part[static_cast<std::size_t>(v)] != worst_p) continue;
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
    }
  }

  // --- phase 2: local cut refinement under the same allowances --------------
  {
    TAMP_TRACE_SCOPE("partition/incremental/refine");
    Rng rng(opts.seed);
    kway_refine(g, part, nparts, allowed, rng, opts.refine_passes);
  }

  for (index_t v = 0; v < n; ++v)
    if (part[static_cast<std::size_t>(v)] != before[static_cast<std::size_t>(v)])
      ++report.migrated_vertices;
  report.cut_after = edge_cut(g, part);
  report.imbalance_after = max_imbalance(g, part, nparts);
  obs::counter("partition.incremental.migrated_vertices")
      .add(report.migrated_vertices);
  obs::gauge("partition.incremental.cut_after")
      .set(static_cast<double>(report.cut_after));
  obs::gauge("partition.incremental.imbalance_after")
      .set(report.imbalance_after);
  return report;
}

}  // namespace tamp::partition
