#include "solver/euler.hpp"

#include <algorithm>
#include <cmath>

#include "solver/fv_driver_impl.hpp"
#include "support/stopwatch.hpp"
#include "verify/access.hpp"

namespace tamp::solver {

using mesh::Vec3;

static_assert(simdk::kMaxVars == kNumVars,
              "SIMD kernel header disagrees on the Euler variable count");

namespace {

double kinetic(const State& u) {
  const double rho = u[0];
  return 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / rho;
}

}  // namespace

EulerSolver::EulerSolver(mesh::Mesh& mesh, SolverConfig config)
    : FvDriver(mesh, config.max_levels, config.simd), config_(config) {
  TAMP_EXPECTS(config.gamma > 1.0, "gamma must exceed 1");
  TAMP_EXPECTS(config.cfl > 0.0 && config.cfl <= 1.0, "CFL must be in (0,1]");
  ctx_.gamma = config.gamma;
}

void EulerSolver::initialize_uniform(double rho, Vec3 velocity,
                                     double pressure) {
  TAMP_EXPECTS(rho > 0 && pressure > 0, "density and pressure must be positive");
  const double energy =
      pressure / (config_.gamma - 1.0) +
      0.5 * rho * dot(velocity, velocity);
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    u_.at(0, c) = rho;
    u_.at(1, c) = rho * velocity.x;
    u_.at(2, c) = rho * velocity.y;
    u_.at(3, c) = rho * velocity.z;
    u_.at(4, c) = energy;
  }
  acc_.fill(0.0);
  time_ = 0.0;
}

void EulerSolver::add_pulse(Vec3 center, double radius,
                            double relative_amplitude) {
  TAMP_EXPECTS(radius > 0, "pulse radius must be positive");
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    const double d = distance(mesh_.cell_centroid(c), center);
    const double bump =
        relative_amplitude * std::exp(-(d * d) / (radius * radius));
    if (bump == 0.0) continue;
    // Scale density and energy together (roughly isentropic perturbation).
    const double factor = 1.0 + bump;
    u_.at(0, c) *= factor;
    u_.at(4, c) *= factor;
  }
}

double EulerSolver::wave_speed(const State& u) const {
  const double rho = std::max(u[0], 1e-12);
  const double p =
      std::max((config_.gamma - 1.0) * (u[4] - kinetic(u)), 1e-12);
  const double c = std::sqrt(config_.gamma * p / rho);
  const double speed =
      std::sqrt(u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / rho;
  return speed + c;
}

double EulerSolver::stable_step(index_t c) const {
  const double h = std::cbrt(mesh_.cell_volume(c));
  return config_.cfl * h / wave_speed(cell_state(c));
}

State EulerSolver::interior_flux(const State& left, const State& right,
                                 Vec3 n) const {
  auto physical = [&](const State& u, double& un_out) {
    const double rho = std::max(u[0], 1e-12);
    const Vec3 vel{u[1] / rho, u[2] / rho, u[3] / rho};
    const double p =
        std::max((config_.gamma - 1.0) * (u[4] - kinetic(u)), 1e-12);
    const double un = dot(vel, n);
    un_out = un;
    return State{rho * un, u[1] * un + p * n.x, u[2] * un + p * n.y,
                 u[3] * un + p * n.z, (u[4] + p) * un};
  };
  double unl = 0, unr = 0;
  const State fl = physical(left, unl);
  const State fr = physical(right, unr);
  const double smax = std::max(wave_speed(left), wave_speed(right));
  State f;
  for (int v = 0; v < kNumVars; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    f[sv] = 0.5 * (fl[sv] + fr[sv]) - 0.5 * smax * (right[sv] - left[sv]);
  }
  return f;
}

State EulerSolver::wall_flux(const State& inside, Vec3 n) const {
  // Slip wall: no mass or energy crosses; momentum feels wall pressure.
  const double p =
      std::max((config_.gamma - 1.0) * (inside[4] - kinetic(inside)), 1e-12);
  return State{0.0, p * n.x, p * n.y, p * n.z, 0.0};
}

void EulerSolver::flux_face(index_t f, double dtf) {
  const auto sf = static_cast<std::size_t>(f);
  const index_t a = mesh_.face_cell(f, 0);
  const State ua{u_.at(0, a), u_.at(1, a), u_.at(2, a), u_.at(3, a),
                 u_.at(4, a)};
  const Vec3 n = mesh_.face_normal(f);
  // Access annotations for the race verifier (no-ops when no
  // TaskRecordScope is active): a face flux reads both adjacent cell
  // states and writes both accumulator sides of its face.
  verify::record_read(verify::ObjectKind::cell_state, a);
  verify::record_write(verify::ObjectKind::face_acc_side0, f);
  verify::record_write(verify::ObjectKind::face_acc_side1, f);
  State flux;
  if (mesh_.is_boundary_face(f)) {
    flux = wall_flux(ua, n);
  } else {
    const index_t b = mesh_.face_cell(f, 1);
    verify::record_read(verify::ObjectKind::cell_state, b);
    const State ub{u_.at(0, b), u_.at(1, b), u_.at(2, b), u_.at(3, b),
                   u_.at(4, b)};
    flux = interior_flux(ua, ub, n);
  }
  const double scale = mesh_.face_area(f) * dtf;
  for (int v = 0; v < kNumVars; ++v) {
    const double amount = flux[static_cast<std::size_t>(v)] * scale;
    acc_.var(acc_col(0, v))[sf] += amount;
    acc_.var(acc_col(1, v))[sf] += amount;
  }
}

void EulerSolver::run_iteration_heun() {
  TAMP_EXPECTS(mesh_.max_level() == 0,
               "Heun integrator requires a single-level mesh");
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  const index_t n = mesh_.num_cells();

  // L(U): net flux divergence divided by volume; synchronous evaluation.
  auto rhs = [&](const PaddedVars& state,
                 std::array<std::vector<double>, kNumVars>& out) {
    for (int v = 0; v < kNumVars; ++v)
      out[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(n), 0.0);
    for (index_t f = 0; f < mesh_.num_faces(); ++f) {
      const index_t a = mesh_.face_cell(f, 0);
      const auto sa = static_cast<std::size_t>(a);
      const State ua{state.at(0, a), state.at(1, a), state.at(2, a),
                     state.at(3, a), state.at(4, a)};
      const Vec3 nrm = mesh_.face_normal(f);
      State flux;
      std::size_t sb = 0;
      const bool interior = !mesh_.is_boundary_face(f);
      if (interior) {
        const index_t b = mesh_.face_cell(f, 1);
        sb = static_cast<std::size_t>(b);
        const State ub{state.at(0, b), state.at(1, b), state.at(2, b),
                       state.at(3, b), state.at(4, b)};
        flux = interior_flux(ua, ub, nrm);
      } else {
        flux = wall_flux(ua, nrm);
      }
      const double area = mesh_.face_area(f);
      for (int v = 0; v < kNumVars; ++v) {
        const auto sv = static_cast<std::size_t>(v);
        out[sv][sa] -= flux[sv] * area;
        if (interior) out[sv][sb] += flux[sv] * area;
      }
    }
    for (index_t c = 0; c < n; ++c) {
      const double inv_v = 1.0 / mesh_.cell_volume(c);
      for (int v = 0; v < kNumVars; ++v)
        out[static_cast<std::size_t>(v)][static_cast<std::size_t>(c)] *= inv_v;
    }
  };

  std::array<std::vector<double>, kNumVars> k1, k2;
  rhs(u_, k1);
  PaddedVars predictor(n, kNumVars);
  for (int v = 0; v < kNumVars; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    for (index_t c = 0; c < n; ++c)
      predictor.at(v, c) = u_.at(v, c) + dt0_ * k1[sv][static_cast<std::size_t>(c)];
  }
  rhs(predictor, k2);
  for (int v = 0; v < kNumVars; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    for (index_t c = 0; c < n; ++c) {
      const auto sc = static_cast<std::size_t>(c);
      u_.at(v, c) += 0.5 * dt0_ * (k1[sv][sc] + k2[sv][sc]);
    }
  }
  time_ += dt0_;
}

State EulerSolver::conserved_totals() const {
  State total{};
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    const double vol = mesh_.cell_volume(c);
    for (int v = 0; v < kNumVars; ++v)
      total[static_cast<std::size_t>(v)] += vol * u_.at(v, c);
  }
  // In-flight flux: deposited but not yet consumed. Side 0 will subtract
  // its accumulator; side 1 will add its own.
  for (index_t f = 0; f < mesh_.num_faces(); ++f) {
    const bool interior = !mesh_.is_boundary_face(f);
    for (int v = 0; v < kNumVars; ++v) {
      total[static_cast<std::size_t>(v)] -= acc_.at(acc_col(0, v), f);
      if (interior)
        total[static_cast<std::size_t>(v)] += acc_.at(acc_col(1, v), f);
    }
  }
  return total;
}

double EulerSolver::cell_pressure(index_t c) const {
  const State u{u_.at(0, c), u_.at(1, c), u_.at(2, c), u_.at(3, c),
                u_.at(4, c)};
  return (config_.gamma - 1.0) * (u[4] - kinetic(u));
}

Vec3 EulerSolver::cell_velocity(index_t c) const {
  const double rho = std::max(u_.at(0, c), 1e-12);
  return {u_.at(1, c) / rho, u_.at(2, c) / rho, u_.at(3, c) / rho};
}

double EulerSolver::max_density() const {
  double m = 0;
  for (index_t c = 0; c < mesh_.num_cells(); ++c)
    m = std::max(m, u_.at(0, c));
  return m;
}

bool EulerSolver::state_is_finite() const {
  for (int v = 0; v < kNumVars; ++v)
    for (index_t c = 0; c < mesh_.num_cells(); ++c)
      if (!std::isfinite(u_.at(v, c))) return false;
  return true;
}

taskgraph::CostModel EulerSolver::measure_cost_model(int repetitions) {
  TAMP_EXPECTS(repetitions >= 1, "need at least one repetition");
  TAMP_EXPECTS(dt0_ > 0, "call assign_temporal_levels() first");
  const index_t nf = std::min<index_t>(mesh_.num_faces(), 200000);
  const index_t ncl = std::min<index_t>(mesh_.num_cells(), 200000);

  double face_seconds = std::numeric_limits<double>::max();
  double cell_seconds = std::numeric_limits<double>::max();
  obs::Histogram& face_hist = obs::histogram("solver.cost_model.face_pass");
  obs::Histogram& cell_hist = obs::histogram("solver.cost_model.cell_pass");
  for (int r = 0; r < repetitions; ++r) {
    {
      ScopedTimer timer(face_hist);
      for (index_t f = 0; f < nf; ++f) flux_face(f, 0.0);  // dt=0: no net effect
      face_seconds = std::min(face_seconds, timer.stop());
    }
    {
      ScopedTimer timer(cell_hist);
      for (index_t c = 0; c < ncl; ++c) update_cell(c);
      cell_seconds = std::min(cell_seconds, timer.stop());
    }
  }
  // Cost units are relative: a cell update = 1.
  const double per_face = face_seconds / static_cast<double>(nf);
  const double per_cell = cell_seconds / static_cast<double>(ncl);
  taskgraph::CostModel cm;
  cm.cell_unit = 1.0;
  cm.face_unit = per_cell > 0 ? per_face / per_cell : 0.4;
  return cm;
}

template class FvDriver<EulerSolver>;

}  // namespace tamp::solver
