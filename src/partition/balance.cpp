#include "partition/balance.hpp"

#include <algorithm>
#include <cmath>

namespace tamp::partition {

BalanceSpec::BalanceSpec(const graph::Csr& g, double fraction0,
                         double tolerance, ThreadPool* pool) {
  TAMP_EXPECTS(fraction0 > 0.0 && fraction0 < 1.0,
               "side-0 fraction must be in (0,1)");
  TAMP_EXPECTS(tolerance >= 0.0, "tolerance must be non-negative");
  const index_t n = g.num_vertices();
  const int nc = g.num_constraints();

  // One pass computes per-constraint totals plus one max vertex weight of
  // absolute slack. Chunk partials are integers combined in chunk order,
  // so the parallel result is bit-identical to the serial scan.
  constexpr std::int64_t kGrain = 16384;
  const std::int64_t nchunks =
      n > 0 ? (static_cast<std::int64_t>(n) + kGrain - 1) / kGrain : 0;
  std::vector<weight_t> partial_total(
      static_cast<std::size_t>(nchunks) * static_cast<std::size_t>(nc), 0);
  std::vector<weight_t> partial_slack(
      static_cast<std::size_t>(nchunks) * static_cast<std::size_t>(nc), 0);
  parallel_for(pool, 0, n, kGrain, [&](std::int64_t b, std::int64_t e) {
    const auto chunk = static_cast<std::size_t>(b / kGrain);
    weight_t* tot = partial_total.data() + chunk * static_cast<std::size_t>(nc);
    weight_t* slk = partial_slack.data() + chunk * static_cast<std::size_t>(nc);
    for (std::int64_t v = b; v < e; ++v) {
      const auto w = g.vertex_weights(static_cast<index_t>(v));
      for (int c = 0; c < nc; ++c) {
        tot[c] += w[static_cast<std::size_t>(c)];
        slk[c] = std::max(slk[c], w[static_cast<std::size_t>(c)]);
      }
    }
  });
  total_.assign(static_cast<std::size_t>(nc), 0);
  std::vector<weight_t> slack(static_cast<std::size_t>(nc), 0);
  for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
    for (int c = 0; c < nc; ++c) {
      const auto idx = static_cast<std::size_t>(chunk) *
                           static_cast<std::size_t>(nc) +
                       static_cast<std::size_t>(c);
      total_[static_cast<std::size_t>(c)] += partial_total[idx];
      slack[static_cast<std::size_t>(c)] =
          std::max(slack[static_cast<std::size_t>(c)], partial_slack[idx]);
    }
  }

  target0_.resize(static_cast<std::size_t>(nc));
  allowed_.resize(2 * static_cast<std::size_t>(nc));
  for (int c = 0; c < nc; ++c) {
    const auto sc = static_cast<std::size_t>(c);
    target0_[sc] = static_cast<weight_t>(
        std::llround(static_cast<double>(total_[sc]) * fraction0));
    const weight_t target1 = total_[sc] - target0_[sc];
    allowed_[sc] = static_cast<weight_t>(std::llround(
                       static_cast<double>(target0_[sc]) * (1.0 + tolerance))) +
                   slack[sc];
    allowed_[static_cast<std::size_t>(nc) + sc] =
        static_cast<weight_t>(std::llround(static_cast<double>(target1) *
                                           (1.0 + tolerance))) +
        slack[sc];
  }
}

bool BalanceSpec::feasible(const std::vector<weight_t>& loads0) const {
  for (int c = 0; c < ncon(); ++c) {
    const auto sc = static_cast<std::size_t>(c);
    if (loads0[sc] > allowed(0, c)) return false;
    if (total_[sc] - loads0[sc] > allowed(1, c)) return false;
  }
  return true;
}

bool BalanceSpec::move_keeps_feasible(const std::vector<weight_t>& loads0,
                                      std::span<const weight_t> w,
                                      int to_side) const {
  for (int c = 0; c < ncon(); ++c) {
    const auto sc = static_cast<std::size_t>(c);
    const weight_t new_load = to_side == 0
                                  ? loads0[sc] + w[sc]
                                  : total_[sc] - loads0[sc] + w[sc];
    if (new_load > allowed(to_side, c)) return false;
  }
  return true;
}

double BalanceSpec::violation(const std::vector<weight_t>& loads0) const {
  double v = 0.0;
  for (int c = 0; c < ncon(); ++c) {
    const auto sc = static_cast<std::size_t>(c);
    const double denom = std::max<double>(1.0, static_cast<double>(total_[sc]));
    const weight_t over0 = loads0[sc] - allowed(0, c);
    const weight_t over1 = (total_[sc] - loads0[sc]) - allowed(1, c);
    if (over0 > 0) v += static_cast<double>(over0) / denom;
    if (over1 > 0) v += static_cast<double>(over1) / denom;
  }
  return v;
}

std::vector<weight_t> kway_allowances(const graph::Csr& g, part_t nparts,
                                      double slack) {
  const int nc = g.num_constraints();
  std::vector<weight_t> max_vwgt(static_cast<std::size_t>(nc), 0);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const auto w = g.vertex_weights(v);
    for (int c = 0; c < nc; ++c)
      max_vwgt[static_cast<std::size_t>(c)] =
          std::max(max_vwgt[static_cast<std::size_t>(c)],
                   w[static_cast<std::size_t>(c)]);
  }
  return kway_allowances(g.total_weights(), max_vwgt, nparts, slack);
}

std::vector<weight_t> kway_allowances(const std::vector<weight_t>& totals,
                                      const std::vector<weight_t>& max_vwgt,
                                      part_t nparts, double slack) {
  TAMP_EXPECTS(totals.size() == max_vwgt.size(),
               "totals and largest weights need one entry per constraint");
  const std::size_t nc = totals.size();
  std::vector<weight_t> allowed(static_cast<std::size_t>(nparts) * nc);
  for (part_t p = 0; p < nparts; ++p) {
    for (std::size_t c = 0; c < nc; ++c) {
      const double ideal =
          static_cast<double>(totals[c]) / static_cast<double>(nparts);
      allowed[static_cast<std::size_t>(p) * nc + c] =
          static_cast<weight_t>(std::llround(ideal * (1.0 + slack))) +
          max_vwgt[c];
    }
  }
  return allowed;
}

}  // namespace tamp::partition
