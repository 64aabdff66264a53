#include "partition/repair.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/balance.hpp"
#include "partition/partition.hpp"

namespace tamp::partition {

namespace {

/// Label the connected fragments of every part. Returns fragment ids per
/// vertex (dense, 0-based) plus, per fragment, its part and size.
struct Fragments {
  std::vector<index_t> id_of_vertex;
  std::vector<part_t> part_of;
  std::vector<index_t> size_of;
  std::vector<index_t> largest_of_part;  ///< fragment id, per part
};

Fragments find_fragments(const graph::Csr& g, const std::vector<part_t>& part,
                         part_t nparts) {
  const index_t n = g.num_vertices();
  Fragments out;
  out.id_of_vertex.assign(static_cast<std::size_t>(n), invalid_index);
  std::vector<index_t> stack;
  for (index_t seed = 0; seed < n; ++seed) {
    if (out.id_of_vertex[static_cast<std::size_t>(seed)] != invalid_index)
      continue;
    const part_t p = part[static_cast<std::size_t>(seed)];
    const auto fid = static_cast<index_t>(out.part_of.size());
    out.part_of.push_back(p);
    out.size_of.push_back(0);
    out.id_of_vertex[static_cast<std::size_t>(seed)] = fid;
    stack.push_back(seed);
    while (!stack.empty()) {
      const index_t v = stack.back();
      stack.pop_back();
      ++out.size_of[static_cast<std::size_t>(fid)];
      for (const index_t u : g.neighbors(v)) {
        if (out.id_of_vertex[static_cast<std::size_t>(u)] == invalid_index &&
            part[static_cast<std::size_t>(u)] == p) {
          out.id_of_vertex[static_cast<std::size_t>(u)] = fid;
          stack.push_back(u);
        }
      }
    }
  }
  out.largest_of_part.assign(static_cast<std::size_t>(nparts), invalid_index);
  for (index_t f = 0; f < static_cast<index_t>(out.part_of.size()); ++f) {
    index_t& best = out.largest_of_part[static_cast<std::size_t>(
        out.part_of[static_cast<std::size_t>(f)])];
    if (best == invalid_index ||
        out.size_of[static_cast<std::size_t>(f)] >
            out.size_of[static_cast<std::size_t>(best)])
      best = f;
  }
  return out;
}

index_t count_extra_fragments(const Fragments& frags, part_t nparts) {
  std::vector<index_t> per_part(static_cast<std::size_t>(nparts), 0);
  for (const part_t p : frags.part_of) ++per_part[static_cast<std::size_t>(p)];
  index_t extra = 0;
  for (const index_t c : per_part) extra += std::max<index_t>(c - 1, 0);
  return extra;
}

}  // namespace

RepairReport repair_fragments(const graph::Csr& g, std::vector<part_t>& part,
                              part_t nparts, const RepairOptions& opts) {
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(g.num_vertices()),
               "partition vector size mismatch");
  TAMP_EXPECTS(opts.headroom >= 0, "headroom must be non-negative");
  TAMP_TRACE_SCOPE("partition/repair");
  const int nc = g.num_constraints();

  RepairReport report;
  report.cut_before = edge_cut(g, part);
  {
    const Fragments initial = find_fragments(g, part, nparts);
    report.fragments_before = count_extra_fragments(initial, nparts);
  }

  // Allowances: ideal share + headroom + one max vertex weight.
  const std::vector<weight_t> allowed =
      kway_allowances(g, nparts, opts.headroom);

  std::vector<weight_t> loads = part_loads(g, part, nparts);

  for (int pass = 0; pass < opts.max_passes; ++pass) {
    const Fragments frags = find_fragments(g, part, nparts);
    const auto nfrag = static_cast<index_t>(frags.part_of.size());

    // Per-fragment member lists, loads, and processing order (smallest
    // first — satellites resolve before bigger pieces, avoiding churn).
    std::vector<std::vector<index_t>> members(static_cast<std::size_t>(nfrag));
    std::vector<weight_t> frag_loads(
        static_cast<std::size_t>(nfrag) * static_cast<std::size_t>(nc), 0);
    for (index_t v = 0; v < g.num_vertices(); ++v) {
      const index_t f = frags.id_of_vertex[static_cast<std::size_t>(v)];
      members[static_cast<std::size_t>(f)].push_back(v);
      const auto w = g.vertex_weights(v);
      for (int c = 0; c < nc; ++c)
        frag_loads[static_cast<std::size_t>(f) * nc +
                   static_cast<std::size_t>(c)] += w[static_cast<std::size_t>(c)];
    }
    std::vector<index_t> frag_order(static_cast<std::size_t>(nfrag));
    for (index_t f = 0; f < nfrag; ++f)
      frag_order[static_cast<std::size_t>(f)] = f;
    std::sort(frag_order.begin(), frag_order.end(), [&](index_t a, index_t b) {
      return frags.size_of[static_cast<std::size_t>(a)] <
             frags.size_of[static_cast<std::size_t>(b)];
    });

    std::vector<index_t> part_size(static_cast<std::size_t>(nparts), 0);
    for (index_t v = 0; v < g.num_vertices(); ++v)
      ++part_size[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])];

    bool any_move = false;
    for (const index_t f : frag_order) {
      const part_t home = frags.part_of[static_cast<std::size_t>(f)];
      if (frags.largest_of_part[static_cast<std::size_t>(home)] == f)
        continue;  // main body stays
      if (static_cast<double>(frags.size_of[static_cast<std::size_t>(f)]) >
          opts.max_fragment_fraction *
              static_cast<double>(part_size[static_cast<std::size_t>(home)]))
        continue;

      // Contact map over the *current* part state, so earlier moves in
      // this pass are visible. If the fragment now touches its own part
      // (another fragment reattached it), it is no longer an artefact.
      std::unordered_map<part_t, weight_t> contact;
      bool touches_home = false;
      for (const index_t v : members[static_cast<std::size_t>(f)]) {
        const auto nbrs = g.neighbors(v);
        const auto wgts = g.edge_weights(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (frags.id_of_vertex[static_cast<std::size_t>(nbrs[i])] == f)
            continue;  // internal edge
          const part_t q = part[static_cast<std::size_t>(nbrs[i])];
          if (q == home) {
            touches_home = true;
            break;
          }
          contact[q] += wgts[i];
        }
        if (touches_home) break;
      }
      if (touches_home) continue;

      std::vector<std::pair<weight_t, part_t>> order;
      order.reserve(contact.size());
      for (const auto& [q, w] : contact) order.emplace_back(w, q);
      std::sort(order.rbegin(), order.rend());
      const auto fw = std::span<const weight_t>(frag_loads).subspan(
          static_cast<std::size_t>(f) * static_cast<std::size_t>(nc),
          static_cast<std::size_t>(nc));
      for (const auto& [w, dest] : order) {
        if (!fits_part(loads, allowed, dest, fw)) continue;
        for (const index_t v : members[static_cast<std::size_t>(f)]) {
          part[static_cast<std::size_t>(v)] = dest;
          ++report.vertices_moved;
        }
        move_load(loads, home, dest, fw);
        part_size[static_cast<std::size_t>(home)] -=
            frags.size_of[static_cast<std::size_t>(f)];
        part_size[static_cast<std::size_t>(dest)] +=
            frags.size_of[static_cast<std::size_t>(f)];
        any_move = true;
        break;
      }
    }
    if (!any_move) break;
  }

  const Fragments final_frags = find_fragments(g, part, nparts);
  report.fragments_after = count_extra_fragments(final_frags, nparts);
  report.cut_after = edge_cut(g, part);
  obs::counter("partition.repair.vertices_moved").add(report.vertices_moved);
  obs::counter("partition.repair.fragments_dissolved")
      .add(report.fragments_before - report.fragments_after);
  return report;
}

}  // namespace tamp::partition
