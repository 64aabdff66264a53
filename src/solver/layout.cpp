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

namespace {

/// First position p in [lo, hi) with ids[p] > x, where ids is ascending
/// over [lo, hi): galloping from lo, so O(log(p − lo)) probes, all near
/// lo when p is.
index_t gallop_past(const index_t* ids, index_t lo, index_t hi, index_t x) {
  if (lo >= hi || ids[lo] > x) return lo;
  index_t below = lo;  // ids[below] <= x
  index_t step = 1;
  while (below + step < hi && ids[below + step] <= x) {
    below += step;
    step *= 2;
  }
  const index_t top = std::min(below + step, hi);
  return static_cast<index_t>(std::upper_bound(ids + below + 1, ids + top, x) -
                              ids);
}

/// Re-cut the runs [begin, end) of `before` — one list's, whose last
/// objects are `last_of` — for the ids that `left` the list and the ids that
/// `joined` it (each ascending), at kernel ids `left_k` and `joined_k`,
/// appending to `out`.
void recut_list(const ClassRuns& before, const std::vector<index_t>& last_of,
                std::size_t begin, std::size_t end,
                std::span<const index_t> left, std::span<const index_t> left_k,
                std::span<const index_t> joined,
                std::span<const index_t> joined_k,
                const std::vector<index_t>& new_to_old, ClassRuns& out) {
  const std::size_t first = out.runs.size();
  // Append run [b, e), whose last object is `last`, joining it to the
  // list's previous run when their kernel ids meet.
  const auto emit = [&](index_t b, index_t e, index_t last) {
    if (b == e) return;
    if (out.runs.size() > first && out.runs.back().end == b) {
      out.runs.back().end = e;
      out.last.back() = last;
    } else {
      out.runs.push_back({b, e});
      out.last.push_back(last);
    }
  };
  const auto mesh_id = [&new_to_old](index_t k) {
    return new_to_old[static_cast<std::size_t>(k)];
  };
  std::size_t l = 0, j = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const IdRange r = before.runs[i];
    const index_t last = last_of[i];
    index_t pos = r.begin;  // first kernel id of the run not yet emitted
    for (;;) {
      const bool leaves = l < left.size() && left[l] <= last;
      const bool joins = j < joined.size() && joined[j] <= last;
      if (!leaves && !joins) break;
      // The next event is likely a little further along the run: fetch
      // that stretch of the mesh ids while this one is handled.
      __builtin_prefetch(new_to_old.data() + std::min(pos + 24, r.end - 1));
      if (leaves && (!joins || left[l] < joined[j])) {
        const index_t k = left_k[l++];
        TAMP_EXPECTS(k >= pos && k < r.end,
                     "class moves do not match the runs they update");
        if (k > pos) emit(pos, k, mesh_id(k - 1));
        pos = k + 1;
      } else {
        // The run's mesh ids ascend and the joins walk it forward, so the
        // search gallops from where the last one ended.
        const index_t split =
            gallop_past(new_to_old.data(), pos, r.end, joined[j]);
        if (split > pos) emit(pos, split, mesh_id(split - 1));
        emit(joined_k[j], joined_k[j] + 1, joined[j]);
        ++j;
        pos = split;
      }
    }
    emit(pos, r.end, last);
  }
  TAMP_EXPECTS(l == left.size(),
               "class moves do not match the runs they update");
  for (; j < joined.size(); ++j) emit(joined_k[j], joined_k[j] + 1, joined[j]);
}

}  // namespace

ClassRuns update_class_runs(const mesh::Mesh& mesh, const ClassRuns& before,
                            const taskgraph::ClassMoves& moves,
                            const MeshPermutation& layout) {
  TAMP_EXPECTS(!before.offset.empty() && before.offset.size() % 3 == 1 &&
                   (before.last.empty() ||
                    before.last.size() == before.runs.size()),
               "malformed class runs");
  const std::size_t nclasses = before.offset.size() / 3;
  // Runs cut from scratch carry no last ids: read them off the layout,
  // once (a derived bind's runs carry them on).
  std::vector<index_t> read_last;
  if (before.last.empty()) {
    read_last.resize(before.runs.size());
    for (std::size_t i = 0; i + 1 < before.offset.size(); ++i) {
      const std::vector<index_t>& new_to_old =
          i % 3 == 0 ? layout.cell_new_to_old : layout.face_new_to_old;
      for (std::size_t r = before.offset[i]; r < before.offset[i + 1]; ++r)
        read_last[r] = new_to_old[static_cast<std::size_t>(
            before.runs[r].end - 1)];
    }
  }
  const std::vector<index_t>& last_of =
      before.last.empty() ? read_last : before.last;
  for (const taskgraph::ClassIdLists* l :
       {&moves.cells_left, &moves.cells_joined, &moves.faces_left,
        &moves.faces_joined})
    TAMP_EXPECTS(l->xadj.empty() || l->xadj.size() == nclasses + 1,
                 "class moves do not match the runs they update");
  ClassRuns out;
  const std::size_t capacity = before.runs.size() +
                               2 * (moves.cells_joined.ids.size() +
                                    moves.faces_joined.ids.size());
  out.runs.reserve(capacity);
  out.last.reserve(capacity);
  out.offset.reserve(before.offset.size());
  out.offset.push_back(0);
  const auto keep = [&](std::size_t i) {
    const std::size_t b = before.offset[i], e = before.offset[i + 1];
    out.runs.insert(out.runs.end(), before.runs.begin() + static_cast<std::ptrdiff_t>(b),
                    before.runs.begin() + static_cast<std::ptrdiff_t>(e));
    out.last.insert(out.last.end(), last_of.begin() + static_cast<std::ptrdiff_t>(b),
                    last_of.begin() + static_cast<std::ptrdiff_t>(e));
    out.offset.push_back(out.runs.size());
  };
  // Re-cut run list i for `left` and `joined`, their kernel ids looked
  // up first in one pass each: independent loads the core overlaps,
  // where the walk itself is a chain of dependent ones.
  std::vector<index_t> left_k, joined_k;
  const auto recut = [&](std::size_t i, std::span<const index_t> left,
                         std::span<const index_t> joined,
                         const std::vector<index_t>& old_to_new,
                         const std::vector<index_t>& new_to_old) {
    const auto kernel_ids = [&old_to_new](std::span<const index_t> ids,
                                          std::vector<index_t>& k) {
      k.resize(ids.size());
      for (std::size_t n = 0; n < ids.size(); ++n)
        k[n] = old_to_new[static_cast<std::size_t>(ids[n])];
    };
    kernel_ids(left, left_k);
    kernel_ids(joined, joined_k);
    recut_list(before, last_of, before.offset[i], before.offset[i + 1], left,
               left_k, joined, joined_k, new_to_old, out);
    out.offset.push_back(out.runs.size());
  };
  // A face list's moves, split into its interior and boundary sub-lists.
  std::array<std::vector<index_t>, 2> face_left, face_joined;
  const auto split = [&mesh](std::span<const index_t> faces,
                             std::array<std::vector<index_t>, 2>& parts) {
    parts[0].clear();
    parts[1].clear();
    for (const index_t f : faces)
      parts[mesh.is_boundary_face(f) ? 1 : 0].push_back(f);
  };
  for (std::size_t k = 0; k < nclasses; ++k) {
    const auto cells_left = moves.cells_left.of(k);
    const auto cells_joined = moves.cells_joined.of(k);
    if (cells_left.empty() && cells_joined.empty())
      keep(3 * k);
    else
      recut(3 * k, cells_left, cells_joined, layout.cell_old_to_new,
            layout.cell_new_to_old);
    const auto faces_left = moves.faces_left.of(k);
    const auto faces_joined = moves.faces_joined.of(k);
    if (faces_left.empty() && faces_joined.empty()) {
      keep(3 * k + 1);
      keep(3 * k + 2);
      continue;
    }
    split(faces_left, face_left);
    split(faces_joined, face_joined);
    for (std::size_t b = 0; b < 2; ++b)
      recut(3 * k + 1 + b, face_left[b], face_joined[b],
            layout.face_old_to_new, layout.face_new_to_old);
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
