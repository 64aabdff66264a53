#include "partition/partition.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/balance.hpp"
#include "partition/bisect.hpp"
#include "partition/refine.hpp"
#include "support/thread_pool.hpp"

namespace tamp::partition {

namespace {

/// Fork a recursive-bisection subtree only when the smaller side has at
/// least this many vertices; below that the task overhead dominates.
constexpr index_t kForkCutoff = 128;

/// Build the subgraph induced by side `s` of a bisection. `n2o` maps the
/// child's vertices to `sub` vertices and `local` maps back (valid only
/// for vertices on side `s`); both come out of the single split pass in
/// rb_recurse. Two sweeps over the side's rows — degree count, then fill
/// after a prefix sum — and each sweep parallelizes over child vertices
/// with disjoint output rows.
graph::Csr build_side_graph(const graph::Csr& sub,
                            const std::vector<part_t>& side, part_t s,
                            const std::vector<index_t>& n2o,
                            const std::vector<index_t>& local,
                            ThreadPool* pool) {
  const auto nv = static_cast<index_t>(n2o.size());
  const int ncon = sub.num_constraints();

  std::vector<eindex_t> xadj(static_cast<std::size_t>(nv) + 1, 0);
  std::vector<weight_t> vwgt(static_cast<std::size_t>(nv) *
                             static_cast<std::size_t>(ncon));
  parallel_for(pool, 0, nv, 4096, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const index_t v = n2o[static_cast<std::size_t>(i)];
      eindex_t deg = 0;
      for (const index_t u : sub.neighbors(v))
        if (side[static_cast<std::size_t>(u)] == s) ++deg;
      xadj[static_cast<std::size_t>(i) + 1] = deg;
      const auto w = sub.vertex_weights(v);
      weight_t* out = vwgt.data() + static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(ncon);
      for (int c = 0; c < ncon; ++c) out[c] = w[static_cast<std::size_t>(c)];
    }
  });
  for (index_t i = 0; i < nv; ++i)
    xadj[static_cast<std::size_t>(i) + 1] += xadj[static_cast<std::size_t>(i)];

  std::vector<index_t> adjncy(
      static_cast<std::size_t>(xadj[static_cast<std::size_t>(nv)]));
  std::vector<weight_t> adjwgt(adjncy.size());
  parallel_for(pool, 0, nv, 4096, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const index_t v = n2o[static_cast<std::size_t>(i)];
      auto pos = static_cast<std::size_t>(xadj[static_cast<std::size_t>(i)]);
      const auto nbrs = sub.neighbors(v);
      const auto wgts = sub.edge_weights(v);
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        if (side[static_cast<std::size_t>(nbrs[j])] != s) continue;
        adjncy[pos] = local[static_cast<std::size_t>(nbrs[j])];
        adjwgt[pos] = wgts[j];
        ++pos;
      }
    }
  });

  return graph::Csr(nv, ncon, std::move(xadj), std::move(adjncy),
                    std::move(adjwgt), std::move(vwgt));
}

/// Recursive-bisection driver. Assigns parts [part_base, part_base+k) to
/// the vertices of `sub`, writing through `to_global` into `out`.
///
/// Each tree node seeds its own RNG from (opts.seed, part_base, k) — the
/// pair uniquely names the node — so sibling subtrees are independent and
/// can run on different workers while producing the exact bits the serial
/// traversal produces. `out` writes are disjoint across subtrees (each
/// global vertex belongs to exactly one side).
void rb_recurse(const graph::Csr& sub, const std::vector<index_t>& to_global,
                part_t k, part_t part_base, const Options& opts,
                ThreadPool* pool, std::vector<part_t>& out) {
  if (k == 1) {
    for (const index_t gv : to_global)
      out[static_cast<std::size_t>(gv)] = part_base;
    return;
  }
  Rng rng(mix_seed(opts.seed, static_cast<std::uint64_t>(part_base),
                   static_cast<std::uint64_t>(k)));
  const part_t k0 = k / 2;
  const part_t k1 = k - k0;
  const double fraction0 = static_cast<double>(k0) / static_cast<double>(k);

  weight_t cut = 0;
  std::vector<part_t> side =
      multilevel_bisect(sub, fraction0, opts, rng, cut, pool);

  // One pass splits both sides at once: n2o[s] lists side-s vertices in
  // `sub` order and local[v] is v's index within its side.
  std::array<std::vector<index_t>, 2> n2o;
  std::vector<index_t> local(static_cast<std::size_t>(sub.num_vertices()));
  for (index_t v = 0; v < sub.num_vertices(); ++v) {
    auto& list = n2o[static_cast<std::size_t>(side[static_cast<std::size_t>(v)])];
    local[static_cast<std::size_t>(v)] = static_cast<index_t>(list.size());
    list.push_back(v);
  }

  struct Child {
    graph::Csr graph;
    std::vector<index_t> to_global;
    part_t ks;
    part_t base;
  };
  std::array<std::optional<Child>, 2> children;

  for (int s = 0; s < 2; ++s) {
    const part_t ks = s == 0 ? k0 : k1;
    const part_t base = s == 0 ? part_base : part_base + k0;
    const auto& list = n2o[static_cast<std::size_t>(s)];
    if (list.empty()) continue;  // degenerate: that side's parts stay empty
    if (ks == 1) {
      for (const index_t v : list)
        out[static_cast<std::size_t>(
            to_global[static_cast<std::size_t>(v)])] = base;
      continue;
    }
    if (list.size() < 2 * static_cast<std::size_t>(ks)) {
      // Too few vertices to keep splitting sensibly: deal them round-robin.
      for (std::size_t i = 0; i < list.size(); ++i)
        out[static_cast<std::size_t>(
            to_global[static_cast<std::size_t>(list[i])])] =
            base + static_cast<part_t>(i % static_cast<std::size_t>(ks));
      continue;
    }
    std::vector<index_t> child_to_global(list.size());
    for (std::size_t i = 0; i < list.size(); ++i)
      child_to_global[i] = to_global[static_cast<std::size_t>(list[i])];
    children[static_cast<std::size_t>(s)] = Child{
        build_side_graph(sub, side, static_cast<part_t>(s), list, local, pool),
        std::move(child_to_global), ks, base};
  }

  // Fork the two subtrees when both are non-trivial: side 0 goes to the
  // pool, the caller descends into side 1 and then helps until side 0
  // completes. Children outlive the task (we wait before returning), so
  // capturing by reference is safe.
  if (pool != nullptr && children[0] && children[1] &&
      std::min(children[0]->graph.num_vertices(),
               children[1]->graph.num_vertices()) >= kForkCutoff) {
    ThreadPool::TaskHandle handle = pool->submit([&]() {
      TAMP_TRACE_SCOPE("partition/rb_subtree");
      const Child& c = *children[0];
      rb_recurse(c.graph, c.to_global, c.ks, c.base, opts, pool, out);
    });
    {
      const Child& c = *children[1];
      rb_recurse(c.graph, c.to_global, c.ks, c.base, opts, pool, out);
    }
    pool->wait(handle);
    return;
  }
  for (int s = 0; s < 2; ++s) {
    if (!children[static_cast<std::size_t>(s)]) continue;
    const Child& c = *children[static_cast<std::size_t>(s)];
    rb_recurse(c.graph, c.to_global, c.ks, c.base, opts, pool, out);
  }
}

}  // namespace

Result partition_graph(const graph::Csr& g, const Options& opts) {
  TAMP_EXPECTS(opts.nparts >= 1, "nparts must be positive");
  TAMP_EXPECTS(g.num_vertices() >= opts.nparts,
               "more parts requested than vertices");

  const int nthreads = resolve_num_threads(opts.num_threads);
  ThreadPool* pool = ThreadPool::shared(nthreads);

  Result result;
  result.nparts = opts.nparts;
  result.ncon = g.num_constraints();
  result.part.assign(static_cast<std::size_t>(g.num_vertices()), 0);

  if (opts.nparts > 1) {
    std::vector<index_t> identity(static_cast<std::size_t>(g.num_vertices()));
    for (index_t v = 0; v < g.num_vertices(); ++v)
      identity[static_cast<std::size_t>(v)] = v;
    // Per-bisection tolerance is the global budget divided across the
    // recursion depth, so imbalances do not compound to (1+tol)^log2(k).
    Options bisect_opts = opts;
    int depth = 0;
    for (part_t k = 1; k < opts.nparts; k *= 2) ++depth;
    bisect_opts.tolerance =
        std::max(opts.tolerance / std::max(depth, 1), 0.005);
    {
      TAMP_TRACE_SCOPE("partition/rb");
      rb_recurse(g, identity, opts.nparts, 0, bisect_opts, pool, result.part);
    }

    if (opts.method == Method::kway_direct) {
      TAMP_TRACE_SCOPE("partition/kway");
      // RB seeds a direct k-way refinement over the whole graph. The k-way
      // RNG is derived from the seed, not shared with the RB tree, so its
      // stream does not depend on traversal order.
      Rng kway_rng(mix_seed(opts.seed, 0x6b776179ULL /* "kway" */,
                            static_cast<std::uint64_t>(opts.nparts)));
      std::vector<weight_t> loads = part_loads(g, result.part, opts.nparts);
      kway_refine(g, result.part, opts.nparts,
                  kway_allowances(g, opts.nparts, opts.tolerance), loads,
                  kway_rng, opts.refine_passes);
    }
  }

  result.edge_cut = edge_cut(g, result.part);
  result.loads = part_loads(g, result.part, opts.nparts);
  obs::gauge("partition.threads").set(static_cast<double>(nthreads));
  for (int c = 0; c < result.ncon; ++c)
    obs::gauge("partition.imbalance.c" + std::to_string(c))
        .set(result.imbalance(c));
  return result;
}

}  // namespace tamp::partition
