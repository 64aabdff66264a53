#include "solver/transport.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "solver/fv_driver_impl.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

using mesh::Vec3;

TransportSolver::TransportSolver(mesh::Mesh& mesh, TransportConfig config)
    : FvDriver(mesh, config.max_levels, config.simd), config_(config) {
  TAMP_EXPECTS(config.diffusivity >= 0, "diffusivity must be non-negative");
  TAMP_EXPECTS(config.cfl > 0 && config.cfl <= 1.0, "CFL must be in (0,1]");
  ctx_.vx = config.velocity.x;
  ctx_.vy = config.velocity.y;
  ctx_.vz = config.velocity.z;
  ctx_.diffusivity = config.diffusivity;
  ctx_.ambient = config.ambient;
}

void TransportSolver::initialize_uniform(double value) {
  std::fill_n(u_.var(0), mesh_.num_cells(), value);
  acc_.fill(0.0);
  boundary_net_.store(0.0, std::memory_order_relaxed);
  time_ = 0.0;
}

void TransportSolver::add_blob(Vec3 center, double radius, double amplitude) {
  TAMP_EXPECTS(radius > 0, "blob radius must be positive");
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    const double d = distance(mesh_.cell_centroid(c), center);
    u_.at(0, c) += amplitude * std::exp(-(d * d) / (radius * radius));
  }
}

void TransportSolver::set_value(index_t cell, double value) {
  TAMP_EXPECTS(cell >= 0 && cell < mesh_.num_cells(), "cell out of range");
  u_.at(0, cell) = value;
}

double TransportSolver::stable_step(index_t c) const {
  const double speed = norm(config_.velocity);
  const double h = std::cbrt(mesh_.cell_volume(c));
  // Combined explicit bound: advective h/|u| and diffusive h²/(6D).
  double dt = std::numeric_limits<double>::max();
  if (speed > 0) dt = std::min(dt, h / speed);
  if (config_.diffusivity > 0)
    dt = std::min(dt, h * h / (6.0 * config_.diffusivity));
  TAMP_EXPECTS(dt < std::numeric_limits<double>::max(),
               "transport needs a velocity or a diffusivity");
  return config_.cfl * dt;
}

void TransportSolver::flux_face(index_t f, double dtf) {
  const auto sf = static_cast<std::size_t>(f);
  const index_t a = mesh_.face_cell(f, 0);
  const Vec3 n = mesh_.face_normal(f);
  const double area = mesh_.face_area(f);
  const double phi_a = u_.at(0, a);
  const double un = dot(config_.velocity, n);
  // Race-verifier annotations (no-ops unless instrumented). boundary_net_
  // is deliberately NOT recorded: it is an atomic counter shared across
  // otherwise-unordered boundary face tasks by design.
  verify::record_read(verify::ObjectKind::cell_state, a);
  verify::record_write(verify::ObjectKind::face_acc_side0, f);

  if (mesh_.is_boundary_face(f)) {
    // Upwind inflow/outflow; no diffusive wall flux (insulated).
    const double flux = un * (un >= 0 ? phi_a : config_.ambient);
    const double amount = flux * area * dtf;
    acc_.var(0)[sf] += amount;
    boundary_net_.fetch_add(amount, std::memory_order_relaxed);
    return;
  }

  const index_t b = mesh_.face_cell(f, 1);
  verify::record_read(verify::ObjectKind::cell_state, b);
  verify::record_write(verify::ObjectKind::face_acc_side1, f);
  const double phi_b = u_.at(0, b);
  // Upwind convection along the face normal.
  double flux = un * (un >= 0 ? phi_a : phi_b);
  // Two-point diffusion with the centroid distance.
  if (config_.diffusivity > 0) {
    const double dist =
        std::max(distance(mesh_.cell_centroid(a), mesh_.cell_centroid(b)),
                 1e-300);
    flux -= config_.diffusivity * (phi_b - phi_a) / dist;
  }
  const double amount = flux * area * dtf;
  acc_.var(0)[sf] += amount;
  acc_.var(1)[sf] += amount;
}

double TransportSolver::total_scalar() const {
  double total = 0;
  for (index_t c = 0; c < mesh_.num_cells(); ++c)
    total += mesh_.cell_volume(c) * u_.at(0, c);
  for (index_t f = 0; f < mesh_.num_faces(); ++f) {
    total -= acc_.at(0, f);  // side-0 pending (incl. boundary: already left)
    if (!mesh_.is_boundary_face(f)) total += acc_.at(1, f);
  }
  return total;
}

double TransportSolver::min_value() const {
  return *std::min_element(u_.var(0), u_.var(0) + mesh_.num_cells());
}

double TransportSolver::max_value() const {
  return *std::max_element(u_.var(0), u_.var(0) + mesh_.num_cells());
}

bool TransportSolver::values_finite() const {
  return std::all_of(u_.var(0), u_.var(0) + mesh_.num_cells(),
                     [](double v) { return std::isfinite(v); });
}

template class FvDriver<TransportSolver>;

}  // namespace tamp::solver
