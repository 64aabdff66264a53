// The benchmark's workloads: which mesh, solver and pipeline
// configuration each runs, and the solver-facing operations a leg needs
// (hooks, output checks, state fingerprint). Why each workload
// exists is recorded in ../README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "mesh/mesh.hpp"
#include "solver/euler.hpp"
#include "solver/transport.hpp"

namespace e2e {

enum class SolverKind { euler, transport };

struct WorkloadSpec {
  std::string name;
  SolverKind solver = SolverKind::transport;
  tamp::part_t ndomains = 16;
  double drift = 0;  ///< per-iteration temporal-level drift
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Throws tamp::precondition_error for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// A workload's pipeline configuration (MC_TL, block mapping, sync mode,
/// default patch policy, a fixed pipeline seed) at the given process ×
/// worker shape.
[[nodiscard]] tamp::core::IterationPipelineConfig pipeline_config(
    const WorkloadSpec& spec, int num_iterations, tamp::part_t processes,
    int workers);

/// One workload's inputs: its fixed mesh and the solver bound to it, with
/// the initial condition drawn from the seed and the CFL temporal levels
/// assigned (Euler at kEulerCfl, transport at its default).
/// `scale` shrinks the mesh (1 = benchmark size; the self-test uses tiny
/// meshes). The solver keeps a reference to the mesh, so an Instance never
/// moves.
class Instance {
public:
  Instance(const WorkloadSpec& spec, std::uint64_t seed, double scale);
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] tamp::mesh::Mesh& mesh() { return mesh_; }
  [[nodiscard]] tamp::core::SolverHooks hooks();

  /// Seconds spent generating the mesh, and initialising the solver state
  /// plus its CFL temporal levels.
  [[nodiscard]] double mesh_seconds() const { return mesh_seconds_; }
  [[nodiscard]] double init_seconds() const { return init_seconds_; }

  [[nodiscard]] bool state_finite() const;
  /// Largest relative change of the conserved quantities since
  /// initialisation: mass and energy of conserved_totals() for Euler,
  /// total_scalar() + net_boundary_outflow() for transport. NaN when the
  /// state is not finite.
  [[nodiscard]] double conservation_drift() const;
  /// FNV-1a over every cell's conserved state, in cell order.
  [[nodiscard]] std::uint64_t state_fingerprint() const;
  /// Self-test hook: make the state non-finite.
  void poison();

  /// Bytes the layout.hpp streaming models charge per face flux and per
  /// cell update for this solver's variable count.
  [[nodiscard]] double bytes_per_face() const;
  [[nodiscard]] double bytes_per_cell() const;

private:
  double mesh_seconds_ = 0;  ///< declared before mesh_, which sets it
  double init_seconds_ = 0;
  tamp::mesh::Mesh mesh_;
  std::unique_ptr<tamp::solver::EulerSolver> euler_;
  std::unique_ptr<tamp::solver::TransportSolver> transport_;
  std::vector<double> initial_totals_;
};

}  // namespace e2e
