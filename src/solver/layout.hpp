// Kernel data path for the solvers: padded structure-of-arrays state,
// a precomputed per-face/per-cell geometry pack, the class-contiguous
// kernel order the driver keeps them in, and the id runs the task bodies
// stream and the race annotations record.
//
// The mesh interface (mesh::Mesh) is convenient but the wrong shape for
// a hot sweep: face_cell() re-derives offsets per call, face_normal()
// returns a Vec3 by value, cell_volume() costs a division per gather in
// update_cell, and the Vec3 arrays interleave x/y/z. KernelGeometry
// flattens everything a flux or update kernel touches into plain
// unit-stride double/index arrays. Its order is not the mesh's: the
// driver (solver/fv_driver.hpp) lays cells and faces out class by class
// (class_layout), so each task's objects are a few consecutive runs of
// kernel ids however the mesh numbers them.
//
// PaddedVars stores kNumVars-style multi-variable state in one buffer
// with the per-variable stride rounded up to a cache line (8 doubles):
// variable v of object i lives at data[v * stride + i]. Padding keeps
// each variable's column 64-byte aligned relative to the buffer start so
// streaming sweeps touch disjoint lines per variable, and it lets a
// vectorised tail read/write past `size` without touching a neighbour
// column.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace tamp::taskgraph {
struct ClassMap;
struct ClassMoves;
}

namespace tamp::solver {

/// A paired cell + face bijection between mesh ids (old) and kernel ids
/// (new); the `new_to_old` vectors are the inverses of `old_to_new`.
struct MeshPermutation {
  std::vector<index_t> cell_old_to_new;
  std::vector<index_t> cell_new_to_old;
  std::vector<index_t> face_old_to_new;
  std::vector<index_t> face_new_to_old;
};

/// Is `perm` a bijection of [0, n)? O(n) check, no throw.
[[nodiscard]] bool is_permutation(const std::vector<index_t>& perm);

/// Invert a bijection of [0, n): result[perm[i]] = i. Throws
/// precondition_error if `perm` is not a permutation.
[[nodiscard]] std::vector<index_t> invert_permutation(
    const std::vector<index_t>& perm);

/// Identity permutation sized for `mesh`: the mesh order a driver starts
/// in before its first bind.
[[nodiscard]] MeshPermutation identity_permutation(const mesh::Mesh& mesh);

/// Stride quantum: 8 doubles = one 64-byte cache line.
inline constexpr std::size_t kPadDoubles = 8;

/// Smallest multiple of kPadDoubles that holds n objects.
[[nodiscard]] inline std::size_t padded_stride(index_t n) {
  const auto un = static_cast<std::size_t>(n);
  return (un + kPadDoubles - 1) / kPadDoubles * kPadDoubles;
}

/// Multi-variable state in one contiguous buffer, variable-major with a
/// padded per-variable stride. var(v) is a raw column pointer — the form
/// the streaming kernels index with a unit-stride object id.
class PaddedVars {
public:
  PaddedVars() = default;
  PaddedVars(index_t size, int num_vars)
      : size_(size), num_vars_(num_vars), stride_(padded_stride(size)),
        data_(stride_ * static_cast<std::size_t>(num_vars), 0.0) {
    TAMP_EXPECTS(size >= 0 && num_vars >= 1, "invalid PaddedVars shape");
  }

  [[nodiscard]] index_t size() const { return size_; }
  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }

  [[nodiscard]] double* var(int v) {
    return data_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const double* var(int v) const {
    return data_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] double& at(int v, index_t i) {
    return var(v)[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double at(int v, index_t i) const {
    return var(v)[static_cast<std::size_t>(i)];
  }

  /// Fill in place: column pointers stay valid.
  void fill(double value) { std::fill(data_.begin(), data_.end(), value); }

private:
  index_t size_ = 0;
  int num_vars_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

/// Everything a flux or cell-update kernel needs, as flat arrays in one
/// kernel order (see class_layout below): every id stored here, and
/// every index into these arrays, is a kernel id, never a mesh id.
///
/// Face arrays (size num_faces): adjacent cells a/b (b = invalid_index
/// at a boundary), unit normal components, area, and the clamped
/// centroid distance max(|xa − xb|, 1e-300) the diffusive flux divides
/// by (1.0 at boundaries, where it is never read).
///
/// Cell arrays: inv_vol[c] = 1.0 / V(c), plus the gather CSR — the
/// cell's adjacent faces in exactly mesh.cell_faces(c) order (the
/// accumulator gather is order-sensitive floating-point addition, so
/// this order is part of the bitwise contract). The solvers fold both
/// accumulator sides into one PaddedVars so a single base pointer per
/// variable reaches either side: gather_slot[k] = face + side ·
/// side_offset is the entry's offset from that base (side_offset =
/// num_vars · stride of the combined buffer), and gather_sign[k] is the
/// side as the update's signed weight, -1.0 for side 0 (flux leaves the
/// cell), +1.0 for side 1.
struct KernelGeometry {
  std::vector<index_t> face_a;
  std::vector<index_t> face_b;
  std::vector<double> nx, ny, nz;
  std::vector<double> area;
  std::vector<double> dist;
  std::vector<double> inv_vol;
  std::vector<eindex_t> gather_xadj;  ///< num_cells + 1
  std::vector<index_t> gather_slot;
  std::vector<double> gather_sign;    ///< parallel to gather_slot
  eindex_t side_offset = 0;
};

/// Fill `geom` with `mesh`'s geometry in the kernel order `layout` names
/// (old = mesh id, new = kernel id), in place: a relayout reuses the
/// storage, so it never holds two packs. The values are copies of the
/// mesh quantities (1/V the same division the per-object update
/// performs), so kernels reading the pack are bitwise identical to
/// kernels reading the mesh. Checked: every gather slot fits index_t,
/// the 32-bit type the hardware gathers index with.
void fill_kernel_geometry(const mesh::Mesh& mesh,
                          const MeshPermutation& layout,
                          eindex_t side_offset, KernelGeometry& geom);

/// Boundary-face accumulator contract: a boundary face has no side-1
/// cell, so nothing ever gathers its side-1 slot — a side-1 deposit
/// there is inert. Every streaming tier skips it, the scalar tier (the
/// width-1 instantiation of the kernel templates) included, so skipping
/// it does not differ between tiers, and record_face_runs records
/// side-1 writes on interior faces only. The per-object kernels are the
/// one reference every tier is compared against, bitwise except for the
/// transport boundary tally (a diagnostic compared within a tolerance).
/// The per-object Euler flux_face deposits into the inert slot (matching
/// the seed); no cell reads it.

/// Nominal main-memory traffic of the streaming kernels, in bytes per
/// object update, for converting measured counter totals into bandwidth
/// context (perf attribution, flusim --execute). These are *models*, not
/// measurements: they count the doubles a kernel logically streams per
/// object assuming no cache reuse between objects, which is the upper
/// bound a perfectly-streaming sweep approaches on meshes much larger
/// than LLC. Hex meshes average 6 faces per cell.
inline constexpr double kAvgFacesPerCell = 6.0;

/// Cell update: write num_vars state doubles, read 1/V, and gather
/// num_vars accumulator doubles from each adjacent face.
[[nodiscard]] constexpr double streaming_bytes_per_cell_update(int num_vars) {
  return 8.0 * (static_cast<double>(num_vars) + 1.0 +
                kAvgFacesPerCell * static_cast<double>(num_vars));
}

/// Face flux: read both adjacent cells' num_vars state doubles and five
/// geometry doubles (normal, area, distance), write both accumulator
/// sides.
[[nodiscard]] constexpr double streaming_bytes_per_face_flux(int num_vars) {
  return 8.0 * (2.0 * static_cast<double>(num_vars) + 5.0 +
                2.0 * static_cast<double>(num_vars));
}

/// Half-open id run [begin, end).
struct IdRange {
  index_t begin = 0;
  index_t end = 0;

  friend bool operator==(const IdRange&, const IdRange&) = default;
};

/// Compress an id set into the minimal list of maximal consecutive runs
/// (sorts and deduplicates its argument first).
[[nodiscard]] std::vector<IdRange> compress_to_ranges(std::vector<index_t> ids);

/// A class map's object lists as kernel-id runs under one layout. Class
/// k streams its cells as runs [offset[3k], offset[3k+1]), its interior
/// faces as [offset[3k+1], offset[3k+2]) and its boundary faces as
/// [offset[3k+2], offset[3k+3]).
struct ClassRuns {
  std::vector<IdRange> runs;
  std::vector<std::size_t> offset;  ///< 3 · classes + 1
  /// Mesh id of each run's last object — where the run ends in its
  /// list's ascending mesh-id order — as update_class_runs leaves it for
  /// the next update (empty from build_class_runs and class_layout).
  std::vector<index_t> last;

  /// The runs the class_layout of the same map gives: one per non-empty
  /// cell, interior-face and boundary-face list.
  [[nodiscard]] std::size_t fresh_runs() const;
};

/// The class-contiguous kernel order of a class map (old = mesh id, new
/// = kernel id), a pure function of the lists computed in O(objects)
/// with no sort: cells are the class_cells lists concatenated in
/// class-id order, and faces each class's interior faces followed by its
/// boundary faces, both in list order (ascending mesh id on a generated
/// map). When `runs` is given it receives the map's runs under the new
/// order, fresh_runs() of them. Throws precondition_error unless the
/// lists cover every cell and every face of `mesh` exactly once.
[[nodiscard]] MeshPermutation class_layout(
    const mesh::Mesh& mesh, const taskgraph::ClassMap& classes,
    ClassRuns* runs = nullptr);

/// Walk each class list through `layout`'s mesh→kernel maps and cut a
/// run wherever the next kernel id is not the previous one + 1 —
/// interior faces first, then boundary faces. On class_layout(classes)
/// itself this gives fresh_runs() runs. Order within a class is free
/// (its objects are independent), so streaming the runs is bitwise the
/// list walk. O(objects): the from-scratch path.
[[nodiscard]] ClassRuns build_class_runs(const mesh::Mesh& mesh,
                                         const taskgraph::ClassMap& classes,
                                         const MeshPermutation& layout);

/// build_class_runs of a patched map, from the runs `before` of the map
/// it was patched from (under the same `layout`) and the patch's class
/// moves: the lists no move touches keep their runs, and each touched
/// list is re-cut from its old runs, its leaving ids and its joining
/// ids. A list's runs are in ascending mesh id, and so are the mesh ids
/// inside a run (layout.*_new_to_old over the run), so a leaving id
/// splits the run holding it and a joining id is placed by a galloping
/// search; adjacent pieces whose kernel ids meet are joined again.
/// O(runs + moves · log run length), and equal to build_class_runs on
/// the patched map run for run. Throws precondition_error when a
/// leaving id is in none of its list's runs.
[[nodiscard]] ClassRuns update_class_runs(const mesh::Mesh& mesh,
                                          const ClassRuns& before,
                                          const taskgraph::ClassMoves& moves,
                                          const MeshPermutation& layout);

/// Move every column of `vars` from one kernel order to another: entry n
/// becomes the old entry old_kernel_of_mesh[mesh_of_new_kernel[n]]. One
/// column at a time through `scratch`, in place, so column pointers stay
/// valid.
void permute_vars(PaddedVars& vars,
                  const std::vector<index_t>& old_kernel_of_mesh,
                  const std::vector<index_t>& mesh_of_new_kernel,
                  std::vector<double>& scratch);

/// Record one streamed face task's accesses, in kernel ids, into the
/// active verify::TaskRecordScope: it reads the adjacent cells (side 0
/// of every face, side 1 of interior faces) and writes side 0 of every
/// face and side 1 of its interior faces (see the boundary-face contract
/// above). Callers guard on verify::recording_active() so the streaming
/// kernels stay annotation-free.
void record_face_runs(const KernelGeometry& geom,
                      std::span<const IdRange> interior,
                      std::span<const IdRange> boundary);

/// Record one streamed cell task's accesses, in kernel ids: it writes
/// its cells and gathers-and-resets its exact side of each adjacent face
/// — exact, not the faces' runs, because two unordered cell classes
/// legitimately touch opposite sides of one face.
void record_cell_runs(const KernelGeometry& geom,
                      std::span<const IdRange> cells);

}  // namespace tamp::solver
