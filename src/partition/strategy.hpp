// The paper's mesh-partitioning strategies, expressed on top of the
// multilevel partitioner.
//
//   SC_CELLS — single constraint, unit weights (plain cell balance);
//              included as a naive baseline.
//   SC_OC    — Single-Constraint Operating Cost (paper's default):
//              weight(cell) = 2^(τmax − τ), balancing the *iteration*.
//   MC_TL    — Multi-Constraint Temporal-Level (paper's contribution,
//              §IV/§V): one binary constraint per temporal level,
//              balancing every *subiteration* at once.
//   HYBRID   — the paper's §VII perspective: MC_TL across processes
//              first, then SC_OC inside each process domain, trading a
//              little balance for less inter-process communication.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mesh/levels.hpp"
#include "mesh/mesh.hpp"
#include "partition/partition.hpp"

namespace tamp::partition {

enum class Strategy { sc_cells, sc_oc, mc_tl, hybrid };

[[nodiscard]] const char* to_string(Strategy s);
/// Parse "sc_cells" | "sc_oc" | "mc_tl" | "hybrid".
Strategy parse_strategy(const std::string& name);

/// How domains map onto MPI processes.
enum class DomainMapping {
  block,        ///< contiguous runs of domain ids per process (default; RB
                ///< numbering keeps them spatially close)
  round_robin,  ///< domain d → process d mod nprocesses
};

/// Parameters of a domain decomposition.
struct StrategyOptions {
  Strategy strategy = Strategy::sc_oc;
  part_t ndomains = 16;
  /// Number of MPI processes the domains will be mapped to. Only used to
  /// size HYBRID's first phase; defaults to ndomains when 0.
  part_t nprocesses = 0;
  Options partitioner;  ///< tolerance / seed / method knobs
};

/// A domain decomposition of a mesh plus derived statistics.
struct DomainDecomposition {
  std::vector<part_t> domain_of_cell;
  part_t ndomains = 0;
  weight_t edge_cut = 0;  ///< interior faces crossing domains

  /// cells[d * num_levels + τ] = number of level-τ cells in domain d —
  /// the paper's Fig 7a / 10a census.
  std::vector<index_t> cells_by_level;
  level_t num_levels = 0;

  [[nodiscard]] index_t cells_in(part_t d, level_t tau) const {
    return cells_by_level[static_cast<std::size_t>(d) * num_levels +
                          static_cast<std::size_t>(tau)];
  }
  /// Operating cost held by domain d for level τ (Fig 7a bars).
  [[nodiscard]] weight_t cost_in(part_t d, level_t tau) const {
    return static_cast<weight_t>(cells_in(d, tau)) *
           mesh::operating_cost(tau, static_cast<level_t>(num_levels - 1));
  }
  /// Total operating cost of domain d.
  [[nodiscard]] weight_t total_cost(part_t d) const;

  /// Worst per-level cell-count imbalance across domains (MC_TL's target
  /// metric): max_τ max_d cells_in(d,τ)·ndomains / total(τ).
  [[nodiscard]] double level_imbalance() const;
  /// Operating-cost imbalance across domains (SC_OC's target metric).
  [[nodiscard]] double cost_imbalance() const;
};

/// Build the weighted dual graph a strategy feeds to the partitioner.
/// (HYBRID builds per-phase graphs internally; asking for it here throws.)
graph::Csr build_strategy_graph(const mesh::Mesh& mesh, Strategy strategy);

/// One strategy graph kept across the temporal-level changes of a mesh
/// whose cells and faces stay the same, as the iteration pipeline
/// repartitions it. refresh() rewrites in place only the weight rows of
/// the cells whose level differs from the levels the graph is weighted
/// for, through build_strategy_graph's weight rule: the whole-mesh form
/// finds them by comparing every level, the list form is handed them.
/// When the maximum level changed it rebuilds instead: MC_TL's constraint
/// count and every SC_OC weight depend on it. After each refresh the
/// graph equals build_strategy_graph(mesh, strategy).
class StrategyGraph {
public:
  explicit StrategyGraph(Strategy strategy);

  /// Bring the graph to `mesh`'s levels (the first call builds it).
  const graph::Csr& refresh(const mesh::Mesh& mesh);
  /// The same, when only the cells in `changed` can differ from the
  /// levels of the previous refresh (mesh::LevelEvolver::changed()):
  /// O(changed) unless it builds or rebuilds.
  const graph::Csr& refresh(const mesh::Mesh& mesh,
                            std::span<const index_t> changed);

private:
  Strategy strategy_;
  graph::Csr graph_;
  std::vector<level_t> levels_;  ///< the levels graph_ is weighted for
  level_t max_level_ = -1;       ///< no level yet: the first refresh builds
};

/// Run a full domain decomposition of `mesh`.
DomainDecomposition decompose(const mesh::Mesh& mesh,
                              const StrategyOptions& opts);

/// Recompute a decomposition's census/cut after its domain_of_cell was
/// edited externally (e.g. by repair_fragments or incremental
/// repartitioning).
void update_census(const mesh::Mesh& mesh, DomainDecomposition& dd);

/// The same from the cells that changed: `dd` holds the census and cut
/// of (`old_levels`, `old_domains`), its domain_of_cell is already the
/// new assignment, and only the cells in `changed` (new level) and
/// `migrated` (new domain), both ascending, differ from the old. O(changed
/// + faces of migrated); when the number of levels changed it recounts
/// with update_census instead.
void update_census(const mesh::Mesh& mesh, DomainDecomposition& dd,
                   const std::vector<level_t>& old_levels,
                   const std::vector<part_t>& old_domains,
                   std::span<const index_t> changed,
                   std::span<const index_t> migrated);

/// Map domain ids to process ids.
std::vector<part_t> map_domains_to_processes(part_t ndomains,
                                             part_t nprocesses,
                                             DomainMapping mapping);

}  // namespace tamp::partition
