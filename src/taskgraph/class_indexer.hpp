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

/// Counts per (face class, cell class) pair key, in one flat
/// open-addressing table (linear probing, backward-shift deletion). A
/// patch updates four pair counts per dirty face, so the table stays in
/// cache and an update is a multiply and a probe or two, with no node
/// allocation.
class PairCounter {
public:
  PairCounter() { clear(); }

  /// Add one to `key`'s count; true when the key is new.
  bool add(std::uint64_t key) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    std::size_t i = home(key);
    for (; keys_[i] != kEmpty; i = (i + 1) & mask()) {
      if (keys_[i] == key) {
        ++counts_[i];
        return false;
      }
    }
    keys_[i] = key;
    counts_[i] = 1;
    ++size_;
    return true;
  }

  /// Take one from `key`'s count and return what is left (the key goes
  /// at zero), or -1 when the key is absent.
  index_t remove_one(std::uint64_t key) {
    std::size_t i = home(key);
    for (; keys_[i] != key; i = (i + 1) & mask())
      if (keys_[i] == kEmpty) return -1;
    const index_t left = --counts_[i];
    if (left == 0) erase_slot(i);
    return left;
  }

  void clear() {
    keys_.assign(kInitialSlots, kEmpty);
    counts_.assign(kInitialSlots, 0);
    shift_ = kInitialShift;
    size_ = 0;
  }

  /// Every key, in table order.
  [[nodiscard]] std::vector<std::uint64_t> keys() const {
    std::vector<std::uint64_t> out;
    out.reserve(size_);
    for (const std::uint64_t k : keys_)
      if (k != kEmpty) out.push_back(k);
    return out;
  }

private:
  /// No pair key has every bit set: its class ids are below 2^31.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr int kInitialShift = 58;  ///< 64 − log2(kInitialSlots)

  [[nodiscard]] std::size_t mask() const { return keys_.size() - 1; }
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product, as many as the
    // power-of-two table needs.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void erase_slot(std::size_t hole) {
    // Shift back every later entry of the probe run that may fill the
    // hole: one whose home is not cyclically within (hole, j].
    for (std::size_t j = (hole + 1) & mask(); keys_[j] != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t h = home(keys_[j]);
      const bool stays = hole <= j ? (h > hole && h <= j)
                                   : (h > hole || h <= j);
      if (stays) continue;
      keys_[hole] = keys_[j];
      counts_[hole] = counts_[j];
      hole = j;
    }
    keys_[hole] = kEmpty;
    counts_[hole] = 0;
    --size_;
  }

  void grow() {
    std::vector<std::uint64_t> keys = std::move(keys_);
    std::vector<index_t> counts = std::move(counts_);
    keys_.assign(2 * keys.size(), kEmpty);
    counts_.assign(keys_.size(), 0);
    --shift_;
    for (std::size_t s = 0; s < keys.size(); ++s) {
      if (keys[s] == kEmpty) continue;
      std::size_t i = home(keys[s]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask();
      keys_[i] = keys[s];
      counts_[i] = counts[s];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<index_t> counts_;
  int shift_ = kInitialShift;
  std::size_t size_ = 0;
};

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
  PairCounter pair_count;
  ClassAdjacency adjacency;
};

/// Adjacency CSR of the distinct pairs (the keys of `pair_count`).
[[nodiscard]] ClassAdjacency class_adjacency(const PairCounter& pair_count,
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
