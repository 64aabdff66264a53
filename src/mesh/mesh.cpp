#include "mesh/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "graph/builder.hpp"

namespace tamp::mesh {

void Mesh::set_cell_levels(std::vector<level_t> levels) {
  TAMP_EXPECTS(levels.size() == static_cast<std::size_t>(num_cells_),
               "level vector size must equal cell count");
  level_population_.fill(0);
  level_t max_level = 0;
  for (const level_t l : levels) {
    TAMP_EXPECTS(l >= 0, "temporal levels must be non-negative");
    ++level_population_[static_cast<std::size_t>(l)];
    max_level = std::max(max_level, l);
  }
  cell_level_ = std::move(levels);
  max_level_ = max_level;
}

void Mesh::set_cell_levels(std::span<const index_t> cells,
                           std::span<const level_t> levels) {
  TAMP_EXPECTS(cells.size() == levels.size(),
               "one level per listed cell expected");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const index_t c = cells[i];
    const level_t l = levels[i];
    TAMP_EXPECTS(c >= 0 && c < num_cells_, "cell id out of range");
    TAMP_EXPECTS(l >= 0, "temporal levels must be non-negative");
    level_t& mine = cell_level_[static_cast<std::size_t>(c)];
    --level_population_[static_cast<std::size_t>(mine)];
    ++level_population_[static_cast<std::size_t>(l)];
    mine = l;
    max_level_ = std::max(max_level_, l);
  }
  while (max_level_ > 0 &&
         level_population_[static_cast<std::size_t>(max_level_)] == 0)
    --max_level_;
}

graph::Csr Mesh::dual_graph(int ncon) const {
  graph::Builder b(num_cells_, ncon);
  for (index_t f = 0; f < num_faces(); ++f) {
    if (!is_boundary_face(f)) b.add_edge(face_cell(f, 0), face_cell(f, 1));
  }
  return b.build();
}

void Mesh::validate() const {
  for (index_t c = 0; c < num_cells_; ++c) {
    TAMP_ENSURE(cell_volume(c) > 0.0, "non-positive cell volume");
    TAMP_ENSURE(!cell_faces(c).empty(), "cell with no faces");
  }
  index_t interior = 0;
  for (index_t f = 0; f < num_faces(); ++f) {
    TAMP_ENSURE(face_area(f) > 0.0, "non-positive face area");
    const double n = norm(face_normal(f));
    TAMP_ENSURE(std::abs(n - 1.0) < 1e-9, "face normal not unit length");
    const index_t a = face_cell(f, 0);
    const index_t b = face_cell(f, 1);
    TAMP_ENSURE(a >= 0 && a < num_cells_, "face cell 0 out of range");
    TAMP_ENSURE(b == invalid_index || (b >= 0 && b < num_cells_),
                "face cell 1 out of range");
    TAMP_ENSURE(a != b, "face connecting a cell to itself");
    if (b != invalid_index) ++interior;
    // Handshake: the face must appear in each adjacent cell's face list.
    for (const index_t cell : {a, b}) {
      if (cell == invalid_index) continue;
      const auto faces = cell_faces(cell);
      TAMP_ENSURE(std::find(faces.begin(), faces.end(), f) != faces.end(),
                  "face missing from adjacent cell's face list");
    }
  }
  TAMP_ENSURE(interior == num_interior_, "interior face count mismatch");
}

MeshBuilder::MeshBuilder(index_t num_cells) : num_cells_(num_cells) {
  TAMP_EXPECTS(num_cells > 0, "mesh needs at least one cell");
  cell_set_.assign(static_cast<std::size_t>(num_cells), 0);
  cell_volume_.assign(static_cast<std::size_t>(num_cells), 0.0);
  cell_centroid_.assign(static_cast<std::size_t>(num_cells), Vec3{});
}

void MeshBuilder::set_cell(index_t c, double volume, Vec3 centroid) {
  TAMP_EXPECTS(c >= 0 && c < num_cells_, "cell index out of range");
  TAMP_EXPECTS(volume > 0.0, "cell volume must be positive");
  cell_set_[static_cast<std::size_t>(c)] = 1;
  cell_volume_[static_cast<std::size_t>(c)] = volume;
  cell_centroid_[static_cast<std::size_t>(c)] = centroid;
}

void MeshBuilder::add_interior_face(index_t a, index_t b, double area,
                                    Vec3 unit_normal) {
  TAMP_EXPECTS(a >= 0 && a < num_cells_ && b >= 0 && b < num_cells_,
               "face cell out of range");
  TAMP_EXPECTS(a != b, "interior face must connect distinct cells");
  TAMP_EXPECTS(area > 0.0, "face area must be positive");
  face_cells_.push_back(a);
  face_cells_.push_back(b);
  face_area_.push_back(area);
  face_normal_.push_back(normalized(unit_normal));
}

void MeshBuilder::add_boundary_face(index_t a, double area, Vec3 unit_normal) {
  TAMP_EXPECTS(a >= 0 && a < num_cells_, "face cell out of range");
  TAMP_EXPECTS(area > 0.0, "face area must be positive");
  face_cells_.push_back(a);
  face_cells_.push_back(invalid_index);
  face_area_.push_back(area);
  face_normal_.push_back(normalized(unit_normal));
}

Mesh MeshBuilder::build() {
  for (index_t c = 0; c < num_cells_; ++c)
    TAMP_EXPECTS(cell_set_[static_cast<std::size_t>(c)],
                 "cell " + std::to_string(c) + " geometry never set");

  Mesh m;
  m.num_cells_ = num_cells_;
  m.face_cells_ = std::move(face_cells_);
  m.face_area_ = std::move(face_area_);
  m.face_normal_ = std::move(face_normal_);
  m.cell_volume_ = std::move(cell_volume_);
  m.cell_centroid_ = std::move(cell_centroid_);
  m.cell_level_.assign(static_cast<std::size_t>(num_cells_), 0);
  m.max_level_ = 0;
  m.level_population_[0] = num_cells_;

  const auto nfaces = static_cast<index_t>(m.face_area_.size());
  m.num_interior_ = 0;
  // Build cell→face CSR by counting sort.
  m.cell_face_xadj_.assign(static_cast<std::size_t>(num_cells_) + 1, 0);
  for (index_t f = 0; f < nfaces; ++f) {
    const index_t a = m.face_cells_[2 * static_cast<std::size_t>(f)];
    const index_t b = m.face_cells_[2 * static_cast<std::size_t>(f) + 1];
    ++m.cell_face_xadj_[static_cast<std::size_t>(a) + 1];
    if (b != invalid_index) {
      ++m.cell_face_xadj_[static_cast<std::size_t>(b) + 1];
      ++m.num_interior_;
    }
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(num_cells_); ++c)
    m.cell_face_xadj_[c + 1] += m.cell_face_xadj_[c];
  m.cell_face_.resize(static_cast<std::size_t>(m.cell_face_xadj_.back()));
  std::vector<eindex_t> cursor(m.cell_face_xadj_.begin(),
                               m.cell_face_xadj_.end() - 1);
  for (index_t f = 0; f < nfaces; ++f) {
    const index_t a = m.face_cells_[2 * static_cast<std::size_t>(f)];
    const index_t b = m.face_cells_[2 * static_cast<std::size_t>(f) + 1];
    m.cell_face_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(a)]++)] = f;
    if (b != invalid_index)
      m.cell_face_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(b)]++)] = f;
  }
  return m;
}

}  // namespace tamp::mesh
