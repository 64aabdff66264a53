// Compressed-sparse-row graph with multi-constraint vertex weights.
//
// This is the partitioner's working representation, equivalent to the
// METIS input format the paper feeds: `vwgt` holds `ncon` weights per
// vertex (SC_OC uses ncon = 1 with operating costs; MC_TL uses
// ncon = #temporal levels with binary indicator vectors), `adjwgt` holds
// symmetric edge weights.
#pragma once

#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace tamp::graph {

/// Undirected graph in CSR form. Both directions of every edge are
/// stored; invariants are verified by validate().
class Csr {
public:
  Csr() = default;

  /// Assemble from raw CSR arrays. ncon must divide vwgt.size().
  Csr(index_t nvtx, int ncon, std::vector<eindex_t> xadj,
      std::vector<index_t> adjncy, std::vector<weight_t> adjwgt,
      std::vector<weight_t> vwgt);

  [[nodiscard]] index_t num_vertices() const { return nvtx_; }
  [[nodiscard]] eindex_t num_edges() const {
    return static_cast<eindex_t>(adjncy_.size()) / 2;
  }
  [[nodiscard]] int num_constraints() const { return ncon_; }

  /// Neighbours of vertex v.
  [[nodiscard]] std::span<const index_t> neighbors(index_t v) const {
    TAMP_DBG_ASSERT(v >= 0 && v < nvtx_, "vertex out of range");
    const auto b = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {adjncy_.data() + b, e - b};
  }

  /// Edge weights aligned with neighbors(v).
  [[nodiscard]] std::span<const weight_t> edge_weights(index_t v) const {
    const auto b = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {adjwgt_.data() + b, e - b};
  }

  /// Weight vector (length ncon) of vertex v.
  [[nodiscard]] std::span<const weight_t> vertex_weights(index_t v) const {
    return {vwgt_.data() + static_cast<std::size_t>(v) * ncon_,
            static_cast<std::size_t>(ncon_)};
  }

  /// Writable weight vector of vertex v: reweights the graph in place,
  /// topology untouched (partition::StrategyGraph's level refresh).
  [[nodiscard]] std::span<weight_t> mutable_vertex_weights(index_t v) {
    return {vwgt_.data() + static_cast<std::size_t>(v) * ncon_,
            static_cast<std::size_t>(ncon_)};
  }

  [[nodiscard]] index_t degree(index_t v) const {
    return static_cast<index_t>(xadj_[static_cast<std::size_t>(v) + 1] -
                                xadj_[static_cast<std::size_t>(v)]);
  }

  /// Sum of vertex weights, per constraint (length ncon).
  [[nodiscard]] std::vector<weight_t> total_weights() const;

  /// Sum of all edge weights (each undirected edge counted once).
  [[nodiscard]] weight_t total_edge_weight() const;

  /// Raw access for tight loops.
  [[nodiscard]] const std::vector<eindex_t>& xadj() const { return xadj_; }
  [[nodiscard]] const std::vector<index_t>& adjncy() const { return adjncy_; }
  [[nodiscard]] const std::vector<weight_t>& adjwgt() const { return adjwgt_; }
  [[nodiscard]] const std::vector<weight_t>& vwgt() const { return vwgt_; }

  /// Check structural invariants: sorted xadj, symmetric adjacency with
  /// matching weights, no self-loops, indices in range. Throws
  /// invariant_error on violation. O(E log deg).
  void validate() const;

private:
  index_t nvtx_ = 0;
  int ncon_ = 1;
  std::vector<eindex_t> xadj_{0};
  std::vector<index_t> adjncy_;
  std::vector<weight_t> adjwgt_;
  std::vector<weight_t> vwgt_;
};

/// Extract the subgraph induced by the vertices with mask[v] == true.
/// `old_to_new` (size nvtx, invalid_index for excluded vertices) and
/// `new_to_old` report the vertex mapping. Edges leaving the set are
/// dropped.
Csr induced_subgraph(const Csr& g, const std::vector<char>& mask,
                     std::vector<index_t>& old_to_new,
                     std::vector<index_t>& new_to_old);

}  // namespace tamp::graph
