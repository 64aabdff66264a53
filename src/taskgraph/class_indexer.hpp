// Algorithm 1 (paper §II-B) in one place. The task graph is a pure
// function of how cells and faces fall into object classes — the
// (domain, temporal level τ, locality) triples — so every consumer of
// that classification runs the code below instead of a copy:
//
//   * ClassIndexer and Classifier, the dense class id and the §II-B
//     classification rules, are header-only because generate.cpp and
//     patch.cpp both classify objects with them;
//   * the from-scratch build (build_task_graph), the distinct
//     (face class, cell class) pair set and its adjacency CSR and the
//     emission loop (emit_task_graph), defined in generate.cpp, are what
//     generate_task_graph runs and what GraphPatcher (taskgraph/patch.*)
//     builds with and re-emits through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/check.hpp"
#include "support/types.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/taskgraph.hpp"

namespace tamp::taskgraph {

/// Dense id of an object class: (domain, level, locality), external
/// before internal. Rejects a class space that does not fit index_t.
struct ClassIndexer {
  part_t ndomains;
  level_t nlev;

  ClassIndexer(part_t domains, level_t levels)
      : ndomains(domains), nlev(levels) {
    const std::int64_t n = std::int64_t{domains} * levels * 2;
    TAMP_EXPECTS(n >= 1 && n <= std::numeric_limits<index_t>::max(),
                 "object class space (domains × levels × 2) exceeds index_t");
  }

  [[nodiscard]] index_t count() const {
    return ndomains * static_cast<index_t>(nlev) * 2;
  }
  [[nodiscard]] index_t id(part_t d, level_t tau, Locality loc) const {
    return (d * static_cast<index_t>(nlev) + static_cast<index_t>(tau)) * 2 +
           static_cast<index_t>(loc);
  }
};

/// Classification rules of §II-B. A cell is external when any of its
/// faces leads to another domain; a face is owned by the lower-indexed
/// adjacent domain and external when its two adjacent cells live in
/// different domains; boundary faces are internal and owned by their
/// single cell's domain. Domain ids are the caller's to range-check.
struct Classifier {
  const mesh::Mesh& mesh;
  const std::vector<part_t>& domain_of_cell;
  ClassIndexer cls;

  [[nodiscard]] Locality cell_locality(index_t c) const {
    const part_t dc = domain_of_cell[static_cast<std::size_t>(c)];
    for (const index_t f : mesh.cell_faces(c)) {
      const index_t o = mesh.face_other_cell(f, c);
      if (o != invalid_index &&
          domain_of_cell[static_cast<std::size_t>(o)] != dc)
        return Locality::external;
    }
    return Locality::internal;
  }
  [[nodiscard]] index_t cell_class(index_t c) const {
    return cls.id(domain_of_cell[static_cast<std::size_t>(c)],
                  mesh.cell_level(c), cell_locality(c));
  }
  [[nodiscard]] part_t face_owner(index_t f) const {
    const part_t da =
        domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 0))];
    if (mesh.is_boundary_face(f)) return da;
    const part_t db =
        domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 1))];
    return std::min(da, db);
  }
  [[nodiscard]] Locality face_locality(index_t f) const {
    if (mesh.is_boundary_face(f)) return Locality::internal;
    const part_t da =
        domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 0))];
    const part_t db =
        domain_of_cell[static_cast<std::size_t>(mesh.face_cell(f, 1))];
    return da == db ? Locality::internal : Locality::external;
  }
  [[nodiscard]] index_t face_class(index_t f) const {
    return cls.id(face_owner(f), mesh.face_level(f), face_locality(f));
  }
};

// --- Algorithm 1 over class aggregates (generate.cpp) ------------------------

/// Key of a (face class, cell class) adjacency pair.
[[nodiscard]] constexpr std::uint64_t pack_pair(index_t face_cls,
                                                index_t cell_cls) {
  return static_cast<std::uint64_t>(face_cls) << 32 |
         static_cast<std::uint32_t>(cell_cls);
}

/// Face class → adjacent cell classes and the transpose, each list in
/// ascending class order.
struct ClassAdjacency {
  std::vector<eindex_t> f2c_xadj, c2f_xadj;
  std::vector<index_t> f2c, c2f;
};

/// Algorithm 1's input: per-object classes, per-class populations, and
/// the distinct (face class, cell class) pairs — one per side of every
/// face, counted so a patch can retract them — with their adjacency CSR.
struct ClassAggregates {
  std::vector<index_t> cell_class, face_class;
  std::vector<index_t> cell_count, face_count;
  std::unordered_map<std::uint64_t, index_t> pair_count;
  ClassAdjacency adjacency;
};

/// Adjacency CSR of the distinct pairs (the keys of `pair_count`).
[[nodiscard]] ClassAdjacency class_adjacency(
    const std::unordered_map<std::uint64_t, index_t>& pair_count,
    index_t nclasses);

/// Algorithm 1's emission loop over the aggregates. When `task_class` is
/// non-null it receives each task's class id.
[[nodiscard]] TaskGraph emit_task_graph(const ClassIndexer& cls,
                                        const ClassAggregates& agg,
                                        const GenerateOptions& opts,
                                        std::vector<index_t>* task_class);

/// The from-scratch build: range-check the domain ids, classify every
/// object into `agg`, fill `class_map`'s lists when non-null, and emit.
[[nodiscard]] TaskGraph build_task_graph(const Classifier& cf,
                                         const GenerateOptions& opts,
                                         ClassAggregates& agg,
                                         ClassMap* class_map);

}  // namespace tamp::taskgraph
