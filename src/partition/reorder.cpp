#include "partition/reorder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "partition/sfc.hpp"
#include "support/check.hpp"
#include "taskgraph/class_indexer.hpp"

namespace tamp::partition {

const char* to_string(Reorder r) {
  switch (r) {
    case Reorder::none: return "none";
    case Reorder::locality: return "locality";
  }
  return "?";
}

Reorder parse_reorder(const std::string& name) {
  if (name == "none") return Reorder::none;
  if (name == "locality") return Reorder::locality;
  throw precondition_error("unknown reorder mode '" + name +
                           "' (expected none|locality)");
}

namespace {

/// Hilbert index of every cell centroid, normalised to the mesh bounds.
std::vector<std::uint64_t> cell_hilbert_indices(const mesh::Mesh& mesh) {
  const index_t n = mesh.num_cells();
  mesh::Vec3 lo{std::numeric_limits<double>::max(),
                std::numeric_limits<double>::max(),
                std::numeric_limits<double>::max()};
  mesh::Vec3 hi{-lo.x, -lo.y, -lo.z};
  for (index_t c = 0; c < n; ++c) {
    const mesh::Vec3 p = mesh.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  const mesh::Vec3 span{std::max(hi.x - lo.x, 1e-300),
                        std::max(hi.y - lo.y, 1e-300),
                        std::max(hi.z - lo.z, 1e-300)};
  std::vector<std::uint64_t> h(static_cast<std::size_t>(n));
  for (index_t c = 0; c < n; ++c) {
    const mesh::Vec3 p = mesh.cell_centroid(c);
    h[static_cast<std::size_t>(c)] =
        hilbert_index_3d((p.x - lo.x) / span.x, (p.y - lo.y) / span.y,
                         (p.z - lo.z) / span.z);
  }
  return h;
}

}  // namespace

mesh::MeshPermutation build_locality_permutation(
    const mesh::Mesh& mesh, const std::vector<part_t>& domain_of_cell,
    part_t ndomains) {
  const index_t ncells = mesh.num_cells();
  const index_t nfaces = mesh.num_faces();
  TAMP_EXPECTS(domain_of_cell.size() == static_cast<std::size_t>(ncells),
               "domain vector size must equal cell count");
  TAMP_EXPECTS(ndomains >= 1, "need at least one domain");
  for (const part_t d : domain_of_cell)
    TAMP_EXPECTS(d >= 0 && d < ndomains, "domain id out of range");
  // Sorting by the task generator's own classes is what makes every
  // class list of the renumbered mesh one consecutive id run.
  const taskgraph::Classifier cf{
      mesh, domain_of_cell,
      taskgraph::ClassIndexer{ndomains,
                              static_cast<level_t>(mesh.max_level() + 1)}};
  std::vector<index_t> cell_class(static_cast<std::size_t>(ncells));
  for (index_t c = 0; c < ncells; ++c)
    cell_class[static_cast<std::size_t>(c)] = cf.cell_class(c);
  std::vector<index_t> face_class(static_cast<std::size_t>(nfaces));
  for (index_t f = 0; f < nfaces; ++f)
    face_class[static_cast<std::size_t>(f)] = cf.face_class(f);

  const std::vector<std::uint64_t> hilbert = cell_hilbert_indices(mesh);

  // --- cells: domain-major, class-minor, SFC within the class ------------
  mesh::MeshPermutation perm;
  perm.cell_new_to_old.resize(static_cast<std::size_t>(ncells));
  std::iota(perm.cell_new_to_old.begin(), perm.cell_new_to_old.end(), 0);
  auto cell_key = [&](index_t c) {
    const auto sc = static_cast<std::size_t>(c);
    return std::make_tuple(cell_class[sc], hilbert[sc], c);
  };
  std::sort(perm.cell_new_to_old.begin(), perm.cell_new_to_old.end(),
            [&](index_t a, index_t b) { return cell_key(a) < cell_key(b); });
  perm.cell_old_to_new = mesh::invert_permutation(perm.cell_new_to_old);

  // --- faces: class-major, interior before boundary, stream-ordered ------
  // Interior faces of a class come first so the boundary branch hoists
  // into a tail sub-range; within each sub-range faces follow the
  // renumbered id of their side-0 cell, which makes the flux sweep's cell
  // reads advance monotonically through the adjacent cell ranges.
  perm.face_new_to_old.resize(static_cast<std::size_t>(nfaces));
  std::iota(perm.face_new_to_old.begin(), perm.face_new_to_old.end(), 0);
  auto face_key = [&](index_t f) {
    const bool boundary = mesh.is_boundary_face(f);
    index_t stream =
        perm.cell_old_to_new[static_cast<std::size_t>(mesh.face_cell(f, 0))];
    if (!boundary)
      stream = std::min(stream, perm.cell_old_to_new[static_cast<std::size_t>(
                                    mesh.face_cell(f, 1))]);
    return std::make_tuple(face_class[static_cast<std::size_t>(f)],
                           boundary ? 1 : 0, stream, f);
  };
  std::sort(perm.face_new_to_old.begin(), perm.face_new_to_old.end(),
            [&](index_t a, index_t b) { return face_key(a) < face_key(b); });
  perm.face_old_to_new = mesh::invert_permutation(perm.face_new_to_old);
  return perm;
}

ReorderedDecomposition reorder_for_locality(
    const mesh::Mesh& mesh, const std::vector<part_t>& domain_of_cell,
    part_t ndomains) {
  mesh::MeshPermutation perm =
      build_locality_permutation(mesh, domain_of_cell, ndomains);
  mesh::Mesh permuted = mesh::permute_mesh(mesh, perm);
  std::vector<part_t> domains =
      mesh::permute_cell_values(domain_of_cell, perm);
  return {std::move(permuted), std::move(perm), std::move(domains)};
}

}  // namespace tamp::partition
