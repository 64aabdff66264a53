// Kernel data path for the solvers: padded structure-of-arrays state,
// a precomputed per-face/per-cell geometry pack, and the range helpers
// the streaming kernels and the range-granular race annotations share.
//
// The mesh interface (mesh::Mesh) is convenient but the wrong shape for
// a hot sweep: face_cell() re-derives offsets per call, face_normal()
// returns a Vec3 by value, cell_volume() costs a division per gather in
// update_cell, and the Vec3 arrays interleave x/y/z. KernelGeometry
// flattens everything a flux or update kernel touches into plain
// unit-stride double/index arrays, computed once per solver. The values
// are *copies* of the mesh quantities (and 1/V the exact same division
// the per-object kernels performed), so kernels reading the pack are
// bitwise identical to kernels reading the mesh.
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
#include <array>
#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace tamp::taskgraph {
struct ClassMap;
}

namespace tamp::solver {

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
      : size_(size), stride_(padded_stride(size)),
        data_(stride_ * static_cast<std::size_t>(num_vars), 0.0) {
    TAMP_EXPECTS(size >= 0 && num_vars >= 1, "invalid PaddedVars shape");
  }

  [[nodiscard]] index_t size() const { return size_; }
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
  std::size_t stride_ = 0;
  std::vector<double> data_;
};

/// Everything a flux or cell-update kernel needs, as flat arrays.
///
/// Face arrays (size num_faces): adjacent cells a/b (b = invalid_index
/// at a boundary), unit normal components, area, and the clamped
/// centroid distance max(|xa − xb|, 1e-300) the diffusive flux divides
/// by (1.0 at boundaries, where it is never read).
///
/// Cell arrays: inv_vol[c] = 1.0 / V(c), plus the gather CSR — the
/// cell's adjacent faces in exactly mesh.cell_faces(c) order (the
/// accumulator gather is order-sensitive floating-point addition, so
/// this order is part of the bitwise contract) with the cell's side of
/// each face precomputed.
struct KernelGeometry {
  std::vector<index_t> face_a;
  std::vector<index_t> face_b;
  std::vector<double> nx, ny, nz;
  std::vector<double> area;
  std::vector<double> dist;
  std::vector<double> inv_vol;
  std::vector<eindex_t> gather_xadj;       ///< num_cells + 1
  std::vector<index_t> gather_face;
  std::vector<std::uint8_t> gather_side;   ///< 0 or 1, parallel to gather_face
};

[[nodiscard]] KernelGeometry build_kernel_geometry(const mesh::Mesh& mesh);

/// Flattened gather addressing for the SIMD cell-update kernels
/// (solver/simd_kernels.hpp). The solvers fold both accumulator sides
/// into one PaddedVars so a single base pointer per variable reaches
/// either side; slot[k] = gather_face[k] + gather_side[k] * side_offset
/// rewrites the CSR's (face, side) pairs into direct offsets from that
/// base. `side_offset` is num_vars * stride of the combined buffer.
/// Checked: every slot fits index_t, the 32-bit type the hardware
/// gathers index with.
[[nodiscard]] std::vector<index_t> build_gather_slots(
    const KernelGeometry& geom, eindex_t side_offset);

/// gather_side recoded as the update kernels' signed weight: -1.0 for
/// side 0 (flux leaves the cell), +1.0 for side 1.
[[nodiscard]] std::vector<double> build_gather_signs(
    const KernelGeometry& geom);

/// Boundary-face accumulator contract: a boundary face has no side-1
/// cell, so nothing ever gathers its side-1 slot — a side-1 deposit
/// there is inert. Every streaming tier skips it, the scalar tier (the
/// width-1 instantiation of the kernel templates) included, so skipping
/// it does not differ between tiers, and build_class_access_ranges
/// records side-1 writes on interior faces only. The per-object kernels
/// are the one reference every tier is compared against, bitwise except
/// for the transport boundary tally (a diagnostic compared within a
/// tolerance). The per-object Euler flux_face deposits into the inert
/// slot (matching the seed) and records that write inline; no cell
/// reads it.

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

/// Precomputed race-verifier annotation for one ranged task: the exact
/// object sets it touches, compressed to runs so recording costs
/// O(ranges) per task execution instead of O(objects).
///
/// For a face task: `cells` are the adjacent cells the fluxes read
/// (side 0 of every face, side 1 of interior faces) and `acc[s]` the
/// accumulator-side slots written. For a cell task: `cells` is the
/// single written run and `acc[s]` the exact side-s slots the gathers
/// reset — exact, not the class's face range, because two unordered cell
/// classes legitimately touch opposite sides of one face.
struct ClassAccessRanges {
  std::vector<IdRange> cells;
  std::array<std::vector<IdRange>, 2> acc;
};

/// Per-class annotation tables, indexed by class id. One class id names
/// both a face list and a cell list (its face task and its cell task),
/// so the two task types get separate tables.
struct ClassAccessTable {
  std::vector<ClassAccessRanges> face;
  std::vector<ClassAccessRanges> cell;
};

/// Build the annotation tables for every class whose object list is a
/// valid range in `classes`; scattered classes get empty entries (their
/// tasks fall back to per-object kernels which record inline). A face
/// task writes side 0 of all its faces and side 1 of its interior faces
/// (see the boundary-face contract above).
[[nodiscard]] ClassAccessTable build_class_access_ranges(
    const mesh::Mesh& mesh, const taskgraph::ClassMap& classes);

/// Record one ranged task's precomputed accesses into the active
/// verify::TaskRecordScope: `cells` as reads for a face task and as
/// writes for a cell task, accumulator slots always as writes. Callers
/// guard on verify::recording_active() so the streaming kernels stay
/// annotation-free.
void record_class_ranges(const ClassAccessRanges& ranges, bool face_task);

}  // namespace tamp::solver
