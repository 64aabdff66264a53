#include <algorithm>

#include "partition/partition.hpp"

namespace tamp::partition {

namespace {

double constraint_imbalance(const std::vector<weight_t>& loads, part_t nparts,
                            int ncon, int constraint) {
  weight_t total = 0;
  weight_t worst = 0;
  for (part_t p = 0; p < nparts; ++p) {
    const weight_t w = loads[static_cast<std::size_t>(p) * ncon +
                             static_cast<std::size_t>(constraint)];
    total += w;
    worst = std::max(worst, w);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(worst) * static_cast<double>(nparts) /
         static_cast<double>(total);
}

}  // namespace

double Result::imbalance(int constraint) const {
  TAMP_EXPECTS(constraint >= 0 && constraint < ncon, "constraint out of range");
  return constraint_imbalance(loads, nparts, ncon, constraint);
}

double Result::max_imbalance() const {
  return partition::max_imbalance(loads, nparts, ncon);
}

weight_t edge_cut(const graph::Csr& g, const std::vector<part_t>& part) {
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(g.num_vertices()),
               "partition vector size mismatch");
  weight_t cut = 0;
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (part[static_cast<std::size_t>(v)] !=
          part[static_cast<std::size_t>(nbrs[i])])
        cut += wgts[i];
    }
  }
  return cut / 2;
}

std::vector<weight_t> part_loads(const graph::Csr& g,
                                 const std::vector<part_t>& part,
                                 part_t nparts) {
  TAMP_EXPECTS(part.size() == static_cast<std::size_t>(g.num_vertices()),
               "partition vector size mismatch");
  const int ncon = g.num_constraints();
  std::vector<weight_t> loads(
      static_cast<std::size_t>(nparts) * static_cast<std::size_t>(ncon), 0);
  for (index_t v = 0; v < g.num_vertices(); ++v) {
    const part_t p = part[static_cast<std::size_t>(v)];
    TAMP_EXPECTS(p >= 0 && p < nparts, "part id out of range");
    const auto w = g.vertex_weights(v);
    for (int c = 0; c < ncon; ++c)
      loads[static_cast<std::size_t>(p) * ncon + static_cast<std::size_t>(c)] +=
          w[static_cast<std::size_t>(c)];
  }
  return loads;
}

double max_imbalance(const std::vector<weight_t>& loads, part_t nparts,
                     int ncon) {
  TAMP_EXPECTS(loads.size() == static_cast<std::size_t>(nparts) *
                                   static_cast<std::size_t>(ncon),
               "load table size mismatch");
  double worst = 1.0;
  for (int c = 0; c < ncon; ++c)
    worst = std::max(worst, constraint_imbalance(loads, nparts, ncon, c));
  return worst;
}

double max_imbalance(const graph::Csr& g, const std::vector<part_t>& part,
                     part_t nparts) {
  return max_imbalance(part_loads(g, part, nparts), nparts,
                       g.num_constraints());
}

}  // namespace tamp::partition
