#include "partition/strategy.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::partition {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::sc_cells: return "SC_CELLS";
    case Strategy::sc_oc: return "SC_OC";
    case Strategy::mc_tl: return "MC_TL";
    case Strategy::hybrid: return "HYBRID";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "sc_cells") return Strategy::sc_cells;
  if (lower == "sc_oc") return Strategy::sc_oc;
  if (lower == "mc_tl") return Strategy::mc_tl;
  if (lower == "hybrid") return Strategy::hybrid;
  throw precondition_error("unknown strategy: " + name +
                           " (expected sc_cells|sc_oc|mc_tl|hybrid)");
}

weight_t DomainDecomposition::total_cost(part_t d) const {
  weight_t total = 0;
  for (level_t tau = 0; tau < num_levels; ++tau) total += cost_in(d, tau);
  return total;
}

double DomainDecomposition::level_imbalance() const {
  double worst = 1.0;
  for (level_t tau = 0; tau < num_levels; ++tau) {
    weight_t total = 0, max_d = 0;
    for (part_t d = 0; d < ndomains; ++d) {
      total += cells_in(d, tau);
      max_d = std::max<weight_t>(max_d, cells_in(d, tau));
    }
    if (total == 0) continue;
    worst = std::max(worst, static_cast<double>(max_d) *
                                static_cast<double>(ndomains) /
                                static_cast<double>(total));
  }
  return worst;
}

double DomainDecomposition::cost_imbalance() const {
  weight_t total = 0, max_d = 0;
  for (part_t d = 0; d < ndomains; ++d) {
    total += total_cost(d);
    max_d = std::max(max_d, total_cost(d));
  }
  if (total == 0) return 1.0;
  return static_cast<double>(max_d) * static_cast<double>(ndomains) /
         static_cast<double>(total);
}

namespace {

constexpr const char* kNoHybridGraph =
    "HYBRID composes MC_TL and SC_OC phases; no single graph exists";

/// The one weight rule of the strategy graphs: the weight row of a cell
/// at `level` when the mesh's maximum level is `max_level`.
void write_weights(Strategy strategy, level_t level, level_t max_level,
                   std::span<weight_t> row) {
  switch (strategy) {
    case Strategy::sc_cells:
      row[0] = 1;
      return;
    case Strategy::sc_oc:
      row[0] = mesh::operating_cost(level, max_level);
      return;
    case Strategy::mc_tl:
      // Binary indicator vectors (paper §V): exactly one 1 per cell, in
      // the slot of its temporal level.
      std::fill(row.begin(), row.end(), 0);
      row[static_cast<std::size_t>(level)] = 1;
      return;
    case Strategy::hybrid:
      break;
  }
  throw precondition_error(kNoHybridGraph);
}

graph::Csr build_weighted_dual(const mesh::Mesh& mesh, Strategy strategy) {
  TAMP_EXPECTS(strategy != Strategy::hybrid, kNoHybridGraph);
  const level_t max_level = mesh.max_level();
  const int ncon = strategy == Strategy::mc_tl ? max_level + 1 : 1;
  graph::Builder b(mesh.num_cells(), ncon);
  for (index_t f = 0; f < mesh.num_faces(); ++f)
    if (!mesh.is_boundary_face(f))
      b.add_edge(mesh.face_cell(f, 0), mesh.face_cell(f, 1));
  graph::Csr g = b.build();
  for (index_t c = 0; c < mesh.num_cells(); ++c)
    write_weights(strategy, mesh.cell_level(c), max_level,
                  g.mutable_vertex_weights(c));
  return g;
}

void fill_census(const mesh::Mesh& mesh, DomainDecomposition& dd) {
  dd.num_levels = static_cast<level_t>(mesh.max_level() + 1);
  dd.cells_by_level.assign(static_cast<std::size_t>(dd.ndomains) *
                               static_cast<std::size_t>(dd.num_levels),
                           0);
  for (index_t c = 0; c < mesh.num_cells(); ++c) {
    const part_t d = dd.domain_of_cell[static_cast<std::size_t>(c)];
    ++dd.cells_by_level[static_cast<std::size_t>(d) * dd.num_levels +
                        static_cast<std::size_t>(mesh.cell_level(c))];
  }
  dd.edge_cut = 0;
  for (index_t f = 0; f < mesh.num_faces(); ++f) {
    if (mesh.is_boundary_face(f)) continue;
    if (dd.domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 0))] !=
        dd.domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 1))])
      ++dd.edge_cut;
  }
}

DomainDecomposition decompose_hybrid(const mesh::Mesh& mesh,
                                     const StrategyOptions& opts) {
  const part_t nproc = opts.nprocesses > 0 ? opts.nprocesses : opts.ndomains;
  TAMP_EXPECTS(opts.ndomains % nproc == 0,
               "HYBRID requires ndomains to be a multiple of nprocesses");
  const part_t per_proc = opts.ndomains / nproc;

  // Phase 1: MC_TL across processes (one domain per process).
  StrategyOptions phase1 = opts;
  phase1.strategy = Strategy::mc_tl;
  phase1.ndomains = nproc;
  phase1.nprocesses = nproc;
  DomainDecomposition coarse = decompose(mesh, phase1);
  if (per_proc == 1) return coarse;

  // Phase 2: SC_OC inside each process domain, refining granularity
  // without adding inter-process interfaces.
  DomainDecomposition dd;
  dd.ndomains = opts.ndomains;
  dd.domain_of_cell.assign(static_cast<std::size_t>(mesh.num_cells()),
                           invalid_part);

  graph::Csr oc_graph = build_weighted_dual(mesh, Strategy::sc_oc);
  for (part_t p = 0; p < nproc; ++p) {
    std::vector<char> mask(static_cast<std::size_t>(mesh.num_cells()), 0);
    index_t count = 0;
    for (index_t c = 0; c < mesh.num_cells(); ++c) {
      if (coarse.domain_of_cell[static_cast<std::size_t>(c)] == p) {
        mask[static_cast<std::size_t>(c)] = 1;
        ++count;
      }
    }
    std::vector<index_t> old_to_new, new_to_old;
    graph::Csr sub = graph::induced_subgraph(oc_graph, mask, old_to_new,
                                             new_to_old);
    Options popts = opts.partitioner;
    popts.nparts = per_proc;
    popts.seed = opts.partitioner.seed + 1000003ULL * static_cast<std::uint64_t>(p + 1);
    if (sub.num_vertices() < 2 * per_proc) {
      for (std::size_t i = 0; i < new_to_old.size(); ++i)
        dd.domain_of_cell[static_cast<std::size_t>(new_to_old[i])] =
            p * per_proc + static_cast<part_t>(i % static_cast<std::size_t>(per_proc));
      continue;
    }
    Result r = partition_graph(sub, popts);
    for (index_t v = 0; v < sub.num_vertices(); ++v)
      dd.domain_of_cell[static_cast<std::size_t>(new_to_old[static_cast<std::size_t>(v)])] =
          p * per_proc + r.part[static_cast<std::size_t>(v)];
  }
  fill_census(mesh, dd);
  return dd;
}

/// Publish decomposition-quality gauges, including the per-level cell
/// imbalance the paper's census figures plot (partition.level_imbalance.l<τ>).
void record_decomposition_metrics(const DomainDecomposition& dd) {
  obs::gauge("partition.level_imbalance").set(dd.level_imbalance());
  obs::gauge("partition.cost_imbalance").set(dd.cost_imbalance());
  obs::gauge("partition.edge_cut").set(static_cast<double>(dd.edge_cut));
  for (level_t tau = 0; tau < dd.num_levels; ++tau) {
    weight_t total = 0, max_d = 0;
    for (part_t d = 0; d < dd.ndomains; ++d) {
      total += dd.cells_in(d, tau);
      max_d = std::max<weight_t>(max_d, dd.cells_in(d, tau));
    }
    const double imb = total == 0 ? 1.0
                                  : static_cast<double>(max_d) *
                                        static_cast<double>(dd.ndomains) /
                                        static_cast<double>(total);
    obs::gauge("partition.level_imbalance.l" + std::to_string(tau)).set(imb);
  }
}

}  // namespace

graph::Csr build_strategy_graph(const mesh::Mesh& mesh, Strategy strategy) {
  return build_weighted_dual(mesh, strategy);
}

StrategyGraph::StrategyGraph(Strategy strategy) : strategy_(strategy) {}

const graph::Csr& StrategyGraph::refresh(const mesh::Mesh& mesh) {
  const std::vector<level_t>& levels = mesh.cell_levels();
  if (mesh.max_level() != max_level_ || levels.size() != levels_.size()) {
    graph_ = build_weighted_dual(mesh, strategy_);
    levels_ = levels;
    max_level_ = mesh.max_level();
    return graph_;
  }
  for (std::size_t c = 0; c < levels.size(); ++c) {
    if (levels[c] == levels_[c]) continue;
    write_weights(strategy_, levels[c], max_level_,
                  graph_.mutable_vertex_weights(static_cast<index_t>(c)));
    levels_[c] = levels[c];
  }
  return graph_;
}

const graph::Csr& StrategyGraph::refresh(const mesh::Mesh& mesh,
                                         std::span<const index_t> changed) {
  if (mesh.max_level() != max_level_ ||
      mesh.cell_levels().size() != levels_.size())
    return refresh(mesh);
  for (const index_t c : changed) {
    const level_t level = mesh.cell_level(c);
    write_weights(strategy_, level, max_level_,
                  graph_.mutable_vertex_weights(c));
    levels_[static_cast<std::size_t>(c)] = level;
  }
  return graph_;
}

void update_census(const mesh::Mesh& mesh, DomainDecomposition& dd) {
  TAMP_EXPECTS(dd.domain_of_cell.size() ==
                   static_cast<std::size_t>(mesh.num_cells()),
               "decomposition does not match mesh");
  fill_census(mesh, dd);
}

void update_census(const mesh::Mesh& mesh, DomainDecomposition& dd,
                   const std::vector<level_t>& old_levels,
                   const std::vector<part_t>& old_domains,
                   std::span<const index_t> changed,
                   std::span<const index_t> migrated) {
  const auto n = static_cast<std::size_t>(mesh.num_cells());
  TAMP_EXPECTS(dd.domain_of_cell.size() == n && old_levels.size() == n &&
                   old_domains.size() == n,
               "decomposition does not match mesh");
  if (dd.num_levels != mesh.max_level() + 1 ||
      dd.cells_by_level.size() != static_cast<std::size_t>(dd.ndomains) *
                                      static_cast<std::size_t>(dd.num_levels)) {
    fill_census(mesh, dd);
    return;
  }
  const auto slot = [&dd](part_t d, level_t tau) {
    return static_cast<std::size_t>(d) * dd.num_levels +
           static_cast<std::size_t>(tau);
  };
  // Each cell of changed ∪ migrated leaves its old (domain, level) slot
  // for its new one, once.
  const auto move_cell = [&](index_t c) {
    const auto sc = static_cast<std::size_t>(c);
    --dd.cells_by_level[slot(old_domains[sc], old_levels[sc])];
    ++dd.cells_by_level[slot(dd.domain_of_cell[sc], mesh.cell_level(c))];
  };
  std::size_t i = 0, j = 0;
  while (i < changed.size() || j < migrated.size()) {
    if (j == migrated.size() ||
        (i < changed.size() && changed[i] < migrated[j])) {
      move_cell(changed[i++]);
    } else {
      if (i < changed.size() && changed[i] == migrated[j]) ++i;
      move_cell(migrated[j++]);
    }
  }
  // Only a face of a migrated cell can change sides of the cut; a face
  // between two migrated cells is counted from its lower one.
  const auto was_migrated = [&](index_t c) {
    return std::binary_search(migrated.begin(), migrated.end(), c);
  };
  for (const index_t c : migrated)
    for (const index_t f : mesh.cell_faces(c)) {
      const index_t o = mesh.face_other_cell(f, c);
      if (o == invalid_index || (o < c && was_migrated(o))) continue;
      const auto sc = static_cast<std::size_t>(c);
      const auto so = static_cast<std::size_t>(o);
      dd.edge_cut += (dd.domain_of_cell[sc] != dd.domain_of_cell[so] ? 1 : 0) -
                     (old_domains[sc] != old_domains[so] ? 1 : 0);
    }
}

DomainDecomposition decompose(const mesh::Mesh& mesh,
                              const StrategyOptions& opts) {
  TAMP_EXPECTS(opts.ndomains >= 1, "need at least one domain");
  TAMP_TRACE_SCOPE("partition/decompose");
  DomainDecomposition dd;
  if (opts.strategy == Strategy::hybrid) {
    dd = decompose_hybrid(mesh, opts);
  } else {
    dd.ndomains = opts.ndomains;
    if (opts.ndomains == 1) {
      dd.domain_of_cell.assign(static_cast<std::size_t>(mesh.num_cells()), 0);
    } else {
      graph::Csr g = build_weighted_dual(mesh, opts.strategy);
      Options popts = opts.partitioner;
      popts.nparts = opts.ndomains;
      Result r = partition_graph(g, popts);
      dd.domain_of_cell = std::move(r.part);
    }
    fill_census(mesh, dd);
  }
  record_decomposition_metrics(dd);
  return dd;
}

std::vector<part_t> map_domains_to_processes(part_t ndomains,
                                             part_t nprocesses,
                                             DomainMapping mapping) {
  TAMP_EXPECTS(ndomains >= 1 && nprocesses >= 1,
               "domain and process counts must be positive");
  TAMP_EXPECTS(ndomains >= nprocesses,
               "cannot have fewer domains than processes");
  std::vector<part_t> map(static_cast<std::size_t>(ndomains));
  if (mapping == DomainMapping::round_robin) {
    for (part_t d = 0; d < ndomains; ++d)
      map[static_cast<std::size_t>(d)] = d % nprocesses;
  } else {
    // Block mapping distributing remainders evenly: process p receives
    // ceil or floor of ndomains/nprocesses contiguous domains.
    part_t d = 0;
    for (part_t p = 0; p < nprocesses; ++p) {
      const part_t count = (ndomains + nprocesses - 1 - p) / nprocesses;
      for (part_t i = 0; i < count; ++i)
        map[static_cast<std::size_t>(d++)] = p;
    }
  }
  return map;
}

}  // namespace tamp::partition
