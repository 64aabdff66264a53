#include "mesh/evolve.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::mesh {

EvolveStats evolve_levels(Mesh& mesh, double drift, Rng& rng) {
  LevelEvolver evolver(mesh);
  return evolver.step(mesh, drift, rng);
}

LevelEvolver::LevelEvolver(const Mesh& mesh)
    : across_(static_cast<std::size_t>(mesh.num_cells()), 0),
      eligible_bits_((static_cast<std::size_t>(mesh.num_cells()) + 63) / 64, 0) {
  for (index_t f = 0; f < mesh.num_faces(); ++f) {
    if (mesh.is_boundary_face(f)) continue;
    const index_t a = mesh.face_cell(f, 0);
    const index_t b = mesh.face_cell(f, 1);
    if (mesh.cell_level(a) == mesh.cell_level(b)) continue;
    add_across(a, 1);
    add_across(b, 1);
  }
}

void LevelEvolver::add_across(index_t c, index_t delta) {
  index_t& n = across_[static_cast<std::size_t>(c)];
  const bool was = n > 0;
  n += delta;
  const bool now = n > 0;
  if (was == now) return;
  eligible_bits_[static_cast<std::size_t>(c) / 64] ^= std::uint64_t{1}
                                                      << (c % 64);
  eligible_ += now ? 1 : -1;
}

void LevelEvolver::move_counts(const Mesh& mesh) {
  for (std::size_t i = 0; i < changed_.size(); ++i) {
    const index_t c = changed_[i];
    const level_t was = mesh.cell_level(c);
    const level_t now = next_[i];
    for (index_t n = neighbour_xadj_[i]; n < neighbour_xadj_[i + 1]; ++n) {
      const index_t nb = neighbours_[static_cast<std::size_t>(n)];
      const index_t slot = slot_[static_cast<std::size_t>(nb)];
      // A face between two changed cells is counted from its lower one.
      if (slot != 0 && nb < c) continue;
      const level_t nb_was = mesh.cell_level(nb);
      const level_t nb_now =
          slot != 0 ? next_[static_cast<std::size_t>(slot - 1)] : nb_was;
      const index_t delta =
          (now != nb_now ? 1 : 0) - (was != nb_was ? 1 : 0);
      if (delta == 0) continue;
      add_across(c, delta);
      add_across(nb, delta);
    }
  }
}

EvolveStats LevelEvolver::step(Mesh& mesh, double drift, Rng& rng) {
  TAMP_TRACE_SCOPE("mesh/evolve");
  TAMP_EXPECTS(drift >= 0.0 && drift <= 1.0, "drift must be in [0,1]");
  TAMP_EXPECTS(across_.size() == static_cast<std::size_t>(mesh.num_cells()),
               "LevelEvolver stepped on a mesh of another size");
  EvolveStats stats;
  stats.eligible_cells = eligible_;
  changed_.clear();
  next_.clear();
  picks_.clear();
  neighbour_xadj_.assign(1, 0);
  neighbours_.clear();
  if (drift > 0.0) {
    // A draw needs only a cell's count of neighbours on another level
    // (capped at the kMaxTargets evolve_levels collects), which across_
    // holds: every draw comes first, in ascending cell order, and the
    // mesh is read after, for the drawn cells alone — reads independent
    // of one another, which the core overlaps.
    for (std::size_t w = 0; w < eligible_bits_.size(); ++w) {
      for (std::uint64_t bits = eligible_bits_[w]; bits != 0;
           bits &= bits - 1) {
        const auto c = static_cast<index_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        if (rng.uniform() >= drift) continue;
        const auto count = std::min<index_t>(
            across_[static_cast<std::size_t>(c)], kMaxTargets);
        changed_.push_back(c);
        picks_.push_back(
            static_cast<index_t>(rng.below(static_cast<std::uint64_t>(count))));
      }
    }
    // Step each drawn cell towards its picked neighbour level: the
    // pick-th neighbour on another level, in face order.
    const level_t max_level = mesh.max_level();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < changed_.size(); ++i) {
      const index_t c = changed_[i];
      const level_t mine = mesh.cell_level(c);
      const std::size_t first = neighbours_.size();
      level_t target = mine;
      index_t seen = 0;
      for (const index_t f : mesh.cell_faces(c)) {
        const index_t nb = mesh.face_other_cell(f, c);
        if (nb == invalid_index) continue;
        neighbours_.push_back(nb);
        const level_t ln = mesh.cell_level(nb);
        if (ln != mine && seen++ == picks_[i]) target = ln;
      }
      const level_t stepped = std::clamp<level_t>(
          static_cast<level_t>(mine + (target > mine ? 1 : -1)), 0, max_level);
      if (target == mine || stepped == mine) {
        neighbours_.resize(first);
        continue;
      }
      changed_[kept++] = c;
      next_.push_back(stepped);
      neighbour_xadj_.push_back(static_cast<index_t>(neighbours_.size()));
    }
    changed_.resize(kept);
    // Every draw read the old levels; move the counts to the new ones,
    // then write them.
    slot_.resize(across_.size(), 0);  // allocated by the first drift
    for (std::size_t i = 0; i < changed_.size(); ++i)
      slot_[static_cast<std::size_t>(changed_[i])] = static_cast<index_t>(i) + 1;
    move_counts(mesh);
    for (const index_t c : changed_) slot_[static_cast<std::size_t>(c)] = 0;
    mesh.set_cell_levels(changed_, next_);
  }
  stats.cells_changed = static_cast<index_t>(changed_.size());
  obs::counter("mesh.evolve.eligible_cells").add(stats.eligible_cells);
  obs::counter("mesh.evolve.cells_changed").add(stats.cells_changed);
  return stats;
}

}  // namespace tamp::mesh
