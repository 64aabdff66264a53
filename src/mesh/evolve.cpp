#include "mesh/evolve.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tamp::mesh {

EvolveStats evolve_levels(Mesh& mesh, double drift, Rng& rng) {
  TAMP_TRACE_SCOPE("mesh/evolve");
  TAMP_EXPECTS(drift >= 0.0 && drift <= 1.0, "drift must be in [0,1]");
  const index_t n = mesh.num_cells();
  const level_t max_level = mesh.max_level();
  std::vector<level_t> next(mesh.cell_levels());
  EvolveStats stats;

  for (index_t c = 0; c < n; ++c) {
    // Collect neighbour levels differing from ours.
    level_t mine = mesh.cell_level(c);
    std::array<level_t, 8> other{};
    std::size_t count = 0;
    for (const index_t f : mesh.cell_faces(c)) {
      const index_t nb = mesh.face_other_cell(f, c);
      if (nb == invalid_index) continue;
      const level_t ln = mesh.cell_level(nb);
      if (ln != mine && count < other.size()) other[count++] = ln;
    }
    if (count == 0) continue;
    ++stats.eligible_cells;
    if (rng.uniform() >= drift) continue;
    const level_t target = other[static_cast<std::size_t>(rng.below(count))];
    const level_t stepped = static_cast<level_t>(
        mine + (target > mine ? 1 : -1));
    next[static_cast<std::size_t>(c)] =
        std::clamp<level_t>(stepped, 0, max_level);
    if (next[static_cast<std::size_t>(c)] != mine) ++stats.cells_changed;
  }
  mesh.set_cell_levels(std::move(next));
  obs::counter("mesh.evolve.eligible_cells").add(stats.eligible_cells);
  obs::counter("mesh.evolve.cells_changed").add(stats.cells_changed);
  return stats;
}

}  // namespace tamp::mesh
