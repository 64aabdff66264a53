#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mesh/generators.hpp"
#include "solver/layout.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace e2e {

using tamp::index_t;
using tamp::mesh::Mesh;
using tamp::mesh::Vec3;

namespace {

// Mesh sizes at scale 1: the ~195k-cell graded box and the ~200k-cell
// cylinder.
constexpr index_t kBoxCellsPerSide = 58;
constexpr index_t kCylinderCells = 200'000;

// The Euler solver's CFL number. The solver's default of 0.2 diverges on
// the graded box from iteration 2, likely because its per-cell step takes
// the cube root of the cell volume as the cell's length, which overstates
// it for cells of aspect ratio up to 1.08^57 ≈ 80. 0.05 stays finite and
// conservative over 400 iterations. The levels are ratios of per-cell
// steps, so the CFL number scales every step alike and leaves the levels,
// the task graph and the work per iteration unchanged.
constexpr double kEulerCfl = 0.05;

// What the seed varies: the initial condition (where the pulse or blob
// sits). The mesh geometry and the pipeline's configuration, including the
// pipeline seed that draws the partitioner's, the drift's and the
// repartitioner's random streams, belong to the workload's definition and
// stay fixed, so that the spread between runs measures the program and the
// machine rather than mesh and partition realisations. Measured while the
// benchmark was defined: letting the mesh jitter follow the seed spread the
// cylinder's median iteration by 14 % (IQR over median, five seeds), and
// letting the pipeline seed follow it spread the box's by 11 %.
constexpr std::uint64_t kPipelineSeed = 1;

Mesh generate_mesh(const WorkloadSpec& spec, double scale, double& seconds) {
  const tamp::Stopwatch clock;
  Mesh mesh = [&] {
    if (spec.name == "box_euler_frozen") {
      const auto n = std::max<index_t>(
          4, static_cast<index_t>(std::lround(
                 static_cast<double>(kBoxCellsPerSide) * std::cbrt(scale))));
      return tamp::mesh::make_graded_box_mesh(n, n, n);
    }
    tamp::mesh::TestMeshSpec ms;
    ms.target_cells = std::max<index_t>(
        2'000, static_cast<index_t>(std::lround(
                   static_cast<double>(kCylinderCells) * scale)));
    return tamp::mesh::make_cylinder_mesh(ms);
  }();
  seconds = clock.seconds();
  return mesh;
}

/// A seed-drawn point in the middle half of the mesh's bounding box, and
/// a radius of a fifth of its diagonal: where the initial pulse or blob
/// sits.
std::pair<Vec3, double> seeded_bump(const Mesh& mesh, std::uint64_t seed) {
  Vec3 lo = mesh.cell_centroid(0), hi = lo;
  for (index_t c = 1; c < mesh.num_cells(); ++c) {
    const Vec3 p = mesh.cell_centroid(c);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  tamp::Rng rng(tamp::mix_seed(seed, 0xB0B));
  const auto mid = [&rng](double a, double b) {
    return rng.uniform(a + 0.25 * (b - a), b - 0.25 * (b - a));
  };
  const Vec3 center{mid(lo.x, hi.x), mid(lo.y, hi.y), mid(lo.z, hi.z)};
  return {center, std::max(0.2 * distance(lo, hi), 1e-3)};
}

double relative_change(double now, double initial) {
  return std::abs(now - initial) /
         std::max(std::abs(initial), std::numeric_limits<double>::min());
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"box_euler_frozen", SolverKind::euler, 16, 0.0},
      {"cylinder_transport_drift", SolverKind::transport, 16, 0.05},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads())
    if (spec.name == name) return spec;
  throw tamp::precondition_error("unknown workload '" + name + "'");
}

tamp::core::IterationPipelineConfig pipeline_config(const WorkloadSpec& spec,
                                                    int num_iterations,
                                                    tamp::part_t processes,
                                                    int workers) {
  tamp::core::IterationPipelineConfig cfg;
  cfg.mode = tamp::core::PipelineMode::sync;
  cfg.num_iterations = num_iterations;
  cfg.drift = spec.drift;
  cfg.strategy = tamp::partition::Strategy::mc_tl;
  cfg.ndomains = spec.ndomains;
  cfg.nprocesses = processes;
  cfg.workers_per_process = workers;
  cfg.mapping = tamp::partition::DomainMapping::block;
  cfg.seed = kPipelineSeed;
  return cfg;
}

Instance::Instance(const WorkloadSpec& spec, std::uint64_t seed, double scale)
    : mesh_(generate_mesh(spec, scale, mesh_seconds_)) {
  const tamp::Stopwatch clock;
  const auto [center, radius] = seeded_bump(mesh_, seed);
  if (spec.solver == SolverKind::euler) {
    tamp::solver::SolverConfig config;
    config.cfl = kEulerCfl;
    euler_ = std::make_unique<tamp::solver::EulerSolver>(mesh_, config);
    euler_->initialize_uniform(1.0, {0.2, 0.1, 0.0}, 1.0);
    euler_->add_pulse(center, radius, 0.3);
    euler_->assign_temporal_levels();
    const tamp::solver::State totals = euler_->conserved_totals();
    initial_totals_ = {totals[0], totals[4]};
  } else {
    transport_ = std::make_unique<tamp::solver::TransportSolver>(mesh_);
    transport_->initialize_uniform(0.0);
    transport_->add_blob(center, radius, 1.0);
    transport_->assign_temporal_levels();
    initial_totals_ = {transport_->total_scalar()};
  }
  init_seconds_ = clock.seconds();
}

tamp::core::SolverHooks Instance::hooks() {
  return euler_ ? tamp::core::euler_pipeline_hooks(*euler_)
                : tamp::core::transport_pipeline_hooks(*transport_);
}

bool Instance::state_finite() const {
  return euler_ ? euler_->state_is_finite() : transport_->values_finite();
}

double Instance::conservation_drift() const {
  if (!state_finite()) return std::numeric_limits<double>::quiet_NaN();
  if (euler_) {
    const tamp::solver::State totals = euler_->conserved_totals();
    return std::max(relative_change(totals[0], initial_totals_[0]),
                    relative_change(totals[4], initial_totals_[1]));
  }
  return relative_change(
      transport_->total_scalar() + transport_->net_boundary_outflow(),
      initial_totals_[0]);
}

std::uint64_t Instance::state_fingerprint() const {
  tamp::Fnv1a h;
  for (index_t c = 0; c < mesh_.num_cells(); ++c) {
    if (euler_)
      h.add(euler_->cell_state(c));
    else
      h.add(transport_->value(c));
  }
  return h.value();
}

void Instance::poison() {
  if (euler_)
    euler_->add_pulse(mesh_.cell_centroid(0), 1.0,
                      std::numeric_limits<double>::quiet_NaN());
  else
    transport_->set_value(0, std::numeric_limits<double>::quiet_NaN());
}

double Instance::bytes_per_face() const {
  return tamp::solver::streaming_bytes_per_face_flux(
      euler_ ? tamp::solver::kNumVars : 1);
}

double Instance::bytes_per_cell() const {
  return tamp::solver::streaming_bytes_per_cell_update(
      euler_ ? tamp::solver::kNumVars : 1);
}

}  // namespace e2e
