// Unstructured finite-volume mesh: cells connected by faces.
//
// The representation matches what FLUSEPA's front-end hands to the
// partitioner (paper §V): cells carry volumes/centroids and a temporal
// level τ; faces carry areas/normals and connect exactly one or two
// cells (one → physical boundary face). A face's temporal level is the
// minimum of its adjacent cells' levels: the face flux must refresh at
// the finer neighbour's rate (paper Fig 4's "active faces").
#pragma once

#include <array>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "mesh/geometry.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace tamp::mesh {

/// Immutable-topology mesh assembled by MeshBuilder. Temporal levels are
/// mutable (they are a solver-assigned annotation, not topology).
class Mesh {
public:
  friend class MeshBuilder;

  [[nodiscard]] index_t num_cells() const { return num_cells_; }
  [[nodiscard]] index_t num_faces() const {
    return static_cast<index_t>(face_area_.size());
  }
  [[nodiscard]] index_t num_interior_faces() const { return num_interior_; }

  /// Adjacent cells of face f. side ∈ {0,1}; boundary faces return
  /// invalid_index on side 1.
  [[nodiscard]] index_t face_cell(index_t f, int side) const {
    TAMP_DBG_ASSERT(side == 0 || side == 1, "side must be 0 or 1");
    return face_cells_[2 * static_cast<std::size_t>(f) +
                       static_cast<std::size_t>(side)];
  }
  [[nodiscard]] bool is_boundary_face(index_t f) const {
    return face_cells_[2 * static_cast<std::size_t>(f) + 1] == invalid_index;
  }
  /// Given one adjacent cell, the cell across face f (invalid_index at a
  /// boundary).
  [[nodiscard]] index_t face_other_cell(index_t f, index_t c) const {
    const index_t a = face_cell(f, 0);
    const index_t b = face_cell(f, 1);
    TAMP_DBG_ASSERT(c == a || c == b, "cell not adjacent to face");
    return c == a ? b : a;
  }

  /// Faces bounding cell c.
  [[nodiscard]] std::span<const index_t> cell_faces(index_t c) const {
    const auto b =
        static_cast<std::size_t>(cell_face_xadj_[static_cast<std::size_t>(c)]);
    const auto e = static_cast<std::size_t>(
        cell_face_xadj_[static_cast<std::size_t>(c) + 1]);
    return {cell_face_.data() + b, e - b};
  }

  [[nodiscard]] double cell_volume(index_t c) const {
    return cell_volume_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] Vec3 cell_centroid(index_t c) const {
    return cell_centroid_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double face_area(index_t f) const {
    return face_area_[static_cast<std::size_t>(f)];
  }
  /// Unit normal oriented from face_cell(f,0) towards face_cell(f,1)
  /// (outward at boundaries).
  [[nodiscard]] Vec3 face_normal(index_t f) const {
    return face_normal_[static_cast<std::size_t>(f)];
  }

  // --- temporal levels ----------------------------------------------------

  [[nodiscard]] level_t cell_level(index_t c) const {
    return cell_level_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const std::vector<level_t>& cell_levels() const {
    return cell_level_;
  }
  /// Highest temporal level present in the mesh (τmax).
  [[nodiscard]] level_t max_level() const { return max_level_; }
  /// Face level = min of adjacent cell levels (the rate the flux must
  /// refresh at).
  [[nodiscard]] level_t face_level(index_t f) const {
    const index_t a = face_cell(f, 0);
    const index_t b = face_cell(f, 1);
    const level_t la = cell_level(a);
    return b == invalid_index ? la : std::min(la, cell_level(b));
  }

  /// Replace the temporal level annotation. Values must be in [0, 127].
  void set_cell_levels(std::vector<level_t> levels);
  /// Give cell cells[i] the level levels[i], for each i, and keep
  /// max_level() exact without visiting the other cells: the O(changed)
  /// form of set_cell_levels for a few changed cells.
  void set_cell_levels(std::span<const index_t> cells,
                       std::span<const level_t> levels);

  // --- derived structures ---------------------------------------------------

  /// Dual graph: one vertex per cell, one edge per interior face.
  /// Vertex weights initialised to 1 with `ncon` constraints (strategies
  /// overwrite them). Edge weights are 1 (one face = one coupling).
  [[nodiscard]] graph::Csr dual_graph(int ncon = 1) const;

  /// Structural sanity checks (face/cell handshake, positive volumes and
  /// areas, normals unit-length). Throws invariant_error on failure.
  void validate() const;

private:
  Mesh() = default;

  index_t num_cells_ = 0;
  index_t num_interior_ = 0;
  std::vector<index_t> face_cells_;      // 2 per face
  std::vector<double> face_area_;
  std::vector<Vec3> face_normal_;
  std::vector<double> cell_volume_;
  std::vector<Vec3> cell_centroid_;
  std::vector<level_t> cell_level_;
  level_t max_level_ = 0;
  /// Cells per temporal level (level_t holds at most 128 non-negative
  /// values): keeps max_level_ exact under the per-cell update.
  std::array<index_t, 128> level_population_{};
  std::vector<eindex_t> cell_face_xadj_;
  std::vector<index_t> cell_face_;
};

/// Assembles a Mesh from cells and faces.
class MeshBuilder {
public:
  explicit MeshBuilder(index_t num_cells);

  /// Define geometric properties of a cell.
  void set_cell(index_t c, double volume, Vec3 centroid);

  /// Add an interior face between cells a and b.
  void add_interior_face(index_t a, index_t b, double area, Vec3 unit_normal);

  /// Add a boundary face of cell a (normal pointing outward).
  void add_boundary_face(index_t a, double area, Vec3 unit_normal);

  /// Finalise. Cell levels default to 0; callers typically follow up with
  /// an assign_levels_* function from mesh/levels.hpp.
  Mesh build();

private:
  index_t num_cells_;
  std::vector<char> cell_set_;
  std::vector<index_t> face_cells_;
  std::vector<double> face_area_;
  std::vector<Vec3> face_normal_;
  std::vector<double> cell_volume_;
  std::vector<Vec3> cell_centroid_;
};

}  // namespace tamp::mesh
