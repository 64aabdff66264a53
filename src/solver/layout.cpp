#include "solver/layout.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "taskgraph/generate.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

bool is_permutation(const std::vector<index_t>& perm) {
  const auto n = static_cast<index_t>(perm.size());
  std::vector<char> seen(perm.size(), 0);
  for (const index_t p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

std::vector<index_t> invert_permutation(const std::vector<index_t>& perm) {
  TAMP_EXPECTS(is_permutation(perm), "vector is not a permutation of [0, n)");
  std::vector<index_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<index_t>(i);
  return inv;
}

MeshPermutation identity_permutation(const mesh::Mesh& mesh) {
  MeshPermutation p;
  p.cell_old_to_new.resize(static_cast<std::size_t>(mesh.num_cells()));
  p.face_old_to_new.resize(static_cast<std::size_t>(mesh.num_faces()));
  std::iota(p.cell_old_to_new.begin(), p.cell_old_to_new.end(), index_t{0});
  std::iota(p.face_old_to_new.begin(), p.face_old_to_new.end(), index_t{0});
  p.cell_new_to_old = p.cell_old_to_new;
  p.face_new_to_old = p.face_old_to_new;
  return p;
}

void fill_kernel_geometry(const mesh::Mesh& mesh,
                          const MeshPermutation& layout,
                          eindex_t side_offset, KernelGeometry& g) {
  const index_t ncells = mesh.num_cells();
  const index_t nfaces = mesh.num_faces();
  const auto sc = static_cast<std::size_t>(ncells);
  const auto sf = static_cast<std::size_t>(nfaces);
  TAMP_EXPECTS(layout.cell_new_to_old.size() == sc &&
                   layout.cell_old_to_new.size() == sc &&
                   layout.face_new_to_old.size() == sf &&
                   layout.face_old_to_new.size() == sf,
               "layout does not match the mesh");
  TAMP_EXPECTS(side_offset >= 0, "side offset must be non-negative");
  const auto kcell = [&](index_t c) {
    return c == invalid_index
               ? invalid_index
               : layout.cell_old_to_new[static_cast<std::size_t>(c)];
  };

  g.face_a.resize(sf);
  g.face_b.resize(sf);
  g.nx.resize(sf);
  g.ny.resize(sf);
  g.nz.resize(sf);
  g.area.resize(sf);
  g.dist.resize(sf);
  for (std::size_t i = 0; i < sf; ++i) {
    const index_t f = layout.face_new_to_old[i];
    const index_t a = mesh.face_cell(f, 0);
    const index_t b = mesh.face_cell(f, 1);
    g.face_a[i] = kcell(a);
    g.face_b[i] = kcell(b);
    const mesh::Vec3 n = mesh.face_normal(f);
    g.nx[i] = n.x;
    g.ny[i] = n.y;
    g.nz[i] = n.z;
    g.area[i] = mesh.face_area(f);
    // The same clamped two-point distance the transport diffusive flux
    // computes inline; 1.0 at boundaries where no kernel reads it.
    g.dist[i] = b == invalid_index
                    ? 1.0
                    : std::max(distance(mesh.cell_centroid(a),
                                        mesh.cell_centroid(b)),
                               1e-300);
  }

  g.inv_vol.resize(sc);
  g.gather_xadj.resize(sc + 1);
  g.gather_xadj[0] = 0;
  for (std::size_t i = 0; i < sc; ++i) {
    const index_t c = layout.cell_new_to_old[i];
    g.inv_vol[i] = 1.0 / mesh.cell_volume(c);
    g.gather_xadj[i + 1] =
        g.gather_xadj[i] + static_cast<eindex_t>(mesh.cell_faces(c).size());
  }
  g.side_offset = side_offset;
  g.gather_slot.resize(static_cast<std::size_t>(g.gather_xadj[sc]));
  g.gather_sign.resize(g.gather_slot.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < sc; ++i) {
    const index_t c = layout.cell_new_to_old[i];
    for (const index_t f : mesh.cell_faces(c)) {
      const bool side1 = mesh.face_cell(f, 0) != c;
      const eindex_t slot =
          static_cast<eindex_t>(
              layout.face_old_to_new[static_cast<std::size_t>(f)]) +
          (side1 ? side_offset : 0);
      TAMP_EXPECTS(slot <= std::numeric_limits<index_t>::max(),
                   "accumulator slot overflows 32-bit gather index");
      g.gather_slot[k] = static_cast<index_t>(slot);
      g.gather_sign[k] = side1 ? 1.0 : -1.0;
      ++k;
    }
  }
}

std::vector<IdRange> compress_to_ranges(std::vector<index_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<IdRange> runs;
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[j - 1] + 1) ++j;
    runs.push_back({ids[i], ids[j - 1] + 1});
    i = j;
  }
  return runs;
}

std::size_t ClassRuns::fresh_runs() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < offset.size(); ++i)
    n += offset[i + 1] > offset[i] ? 1 : 0;
  return n;
}

MeshPermutation class_layout(const mesh::Mesh& mesh,
                             const taskgraph::ClassMap& classes,
                             ClassRuns* runs) {
  const index_t nfaces = mesh.num_faces();
  const std::size_t nclasses = classes.class_cells.size();
  TAMP_EXPECTS(classes.class_faces.size() == nclasses, "inconsistent ClassMap");
  MeshPermutation p;
  p.cell_new_to_old.reserve(static_cast<std::size_t>(mesh.num_cells()));
  p.face_new_to_old.reserve(static_cast<std::size_t>(nfaces));
  ClassRuns out;
  out.offset.reserve(3 * nclasses + 1);
  out.offset.push_back(0);
  // Close the list that `order` holds from `begin` on: one run, none if
  // it is empty.
  const auto close = [&out](const std::vector<index_t>& order,
                            std::size_t begin) {
    if (order.size() > begin)
      out.runs.push_back({static_cast<index_t>(begin),
                          static_cast<index_t>(order.size())});
    out.offset.push_back(out.runs.size());
  };
  std::vector<index_t> boundary;
  for (std::size_t k = 0; k < nclasses; ++k) {
    std::size_t begin = p.cell_new_to_old.size();
    const std::vector<index_t>& cells = classes.class_cells[k];
    p.cell_new_to_old.insert(p.cell_new_to_old.end(), cells.begin(),
                             cells.end());
    close(p.cell_new_to_old, begin);
    begin = p.face_new_to_old.size();
    boundary.clear();
    for (const index_t f : classes.class_faces[k]) {
      TAMP_EXPECTS(f >= 0 && f < nfaces, "class map names a face off the mesh");
      (mesh.is_boundary_face(f) ? boundary : p.face_new_to_old).push_back(f);
    }
    close(p.face_new_to_old, begin);
    begin = p.face_new_to_old.size();
    p.face_new_to_old.insert(p.face_new_to_old.end(), boundary.begin(),
                             boundary.end());
    close(p.face_new_to_old, begin);
  }
  TAMP_EXPECTS(p.cell_new_to_old.size() ==
                       static_cast<std::size_t>(mesh.num_cells()) &&
                   p.face_new_to_old.size() == static_cast<std::size_t>(nfaces),
               "class map does not cover the mesh");
  // Throws unless the lists name every object exactly once.
  p.cell_old_to_new = invert_permutation(p.cell_new_to_old);
  p.face_old_to_new = invert_permutation(p.face_new_to_old);
  if (runs != nullptr) *runs = std::move(out);
  return p;
}

ClassRuns build_class_runs(const mesh::Mesh& mesh,
                           const taskgraph::ClassMap& classes,
                           const MeshPermutation& layout) {
  const std::size_t nclasses = classes.class_cells.size();
  TAMP_EXPECTS(classes.class_faces.size() == nclasses, "inconsistent ClassMap");
  ClassRuns out;
  out.offset.reserve(3 * nclasses + 1);
  out.offset.push_back(0);
  // Append kernel id k to `runs`, whose runs from `first` on are the
  // current list's: extend the last run or open one.
  const auto append = [](std::vector<IdRange>& runs, std::size_t first,
                         index_t k) {
    if (runs.size() > first && runs.back().end == k)
      ++runs.back().end;
    else
      runs.push_back({k, k + 1});
  };
  const auto ncells = static_cast<index_t>(layout.cell_old_to_new.size());
  const auto nfaces = static_cast<index_t>(layout.face_old_to_new.size());
  std::vector<IdRange> boundary;
  for (std::size_t k = 0; k < nclasses; ++k) {
    std::size_t first = out.runs.size();
    for (const index_t c : classes.class_cells[k]) {
      TAMP_EXPECTS(c >= 0 && c < ncells, "class map names a cell off the mesh");
      append(out.runs, first, layout.cell_old_to_new[static_cast<std::size_t>(c)]);
    }
    out.offset.push_back(out.runs.size());
    first = out.runs.size();
    boundary.clear();
    for (const index_t f : classes.class_faces[k]) {
      TAMP_EXPECTS(f >= 0 && f < nfaces, "class map names a face off the mesh");
      const index_t kf = layout.face_old_to_new[static_cast<std::size_t>(f)];
      if (mesh.is_boundary_face(f))
        append(boundary, 0, kf);
      else
        append(out.runs, first, kf);
    }
    out.offset.push_back(out.runs.size());
    out.runs.insert(out.runs.end(), boundary.begin(), boundary.end());
    out.offset.push_back(out.runs.size());
  }
  return out;
}

void permute_vars(PaddedVars& vars,
                  const std::vector<index_t>& old_kernel_of_mesh,
                  const std::vector<index_t>& mesh_of_new_kernel,
                  std::vector<double>& scratch) {
  const auto n = static_cast<std::size_t>(vars.size());
  TAMP_EXPECTS(old_kernel_of_mesh.size() == n && mesh_of_new_kernel.size() == n,
               "permutation does not match the columns");
  scratch.resize(n);
  for (int v = 0; v < vars.num_vars(); ++v) {
    double* col = vars.var(v);
    for (std::size_t i = 0; i < n; ++i)
      scratch[i] = col[static_cast<std::size_t>(
          old_kernel_of_mesh[static_cast<std::size_t>(mesh_of_new_kernel[i])])];
    std::copy(scratch.begin(), scratch.end(), col);
  }
}

void record_face_runs(const KernelGeometry& geom,
                      std::span<const IdRange> interior,
                      std::span<const IdRange> boundary) {
  std::vector<index_t> cells;
  for (const IdRange& r : interior)
    for (index_t f = r.begin; f < r.end; ++f) {
      cells.push_back(geom.face_a[static_cast<std::size_t>(f)]);
      cells.push_back(geom.face_b[static_cast<std::size_t>(f)]);
    }
  for (const IdRange& r : boundary)
    for (index_t f = r.begin; f < r.end; ++f)
      cells.push_back(geom.face_a[static_cast<std::size_t>(f)]);
  for (const IdRange& r : compress_to_ranges(std::move(cells)))
    verify::record_read_range(verify::ObjectKind::cell_state, r.begin, r.end);
  for (const auto runs : {interior, boundary})
    for (const IdRange& r : runs)
      verify::record_write_range(verify::ObjectKind::face_acc_side0, r.begin,
                                 r.end);
  for (const IdRange& r : interior)
    verify::record_write_range(verify::ObjectKind::face_acc_side1, r.begin,
                               r.end);
}

void record_cell_runs(const KernelGeometry& geom,
                      std::span<const IdRange> cells) {
  std::array<std::vector<index_t>, 2> slots;
  for (const IdRange& r : cells) {
    verify::record_write_range(verify::ObjectKind::cell_state, r.begin, r.end);
    for (index_t c = r.begin; c < r.end; ++c)
      for (eindex_t k = geom.gather_xadj[static_cast<std::size_t>(c)];
           k < geom.gather_xadj[static_cast<std::size_t>(c) + 1]; ++k) {
        const auto sk = static_cast<std::size_t>(k);
        const bool side1 = geom.gather_sign[sk] > 0.0;
        slots[side1 ? 1 : 0].push_back(static_cast<index_t>(
            geom.gather_slot[sk] - (side1 ? geom.side_offset : 0)));
      }
  }
  for (int side = 0; side < 2; ++side)
    for (const IdRange& r :
         compress_to_ranges(std::move(slots[static_cast<std::size_t>(side)])))
      verify::record_write_range(side == 0 ? verify::ObjectKind::face_acc_side0
                                           : verify::ObjectKind::face_acc_side1,
                                 r.begin, r.end);
}

}  // namespace tamp::solver
