#include "core/autotune.hpp"

#include "sim/messages.hpp"

namespace tamp::core {

namespace {

RunConfig candidate_config(const AutotuneOptions& opts, part_t nd) {
  RunConfig cfg;
  cfg.strategy = opts.strategy;
  cfg.ndomains = nd;
  cfg.nprocesses = opts.nprocesses;
  cfg.workers_per_process = opts.workers_per_process;
  cfg.comm = opts.comm;
  cfg.task_overhead = opts.task_overhead;
  cfg.seed = opts.seed;
  return cfg;
}

AutotuneRow score_candidate(const RunPlan& plan, const AutotuneOptions& opts,
                            part_t nd) {
  const RunConfig cfg = candidate_config(opts, nd);
  const sim::SimResult with_comm = simulate_plan(plan, cfg);

  // Zero-communication reference on the same decomposition: re-simulate
  // rather than re-partition.
  sim::SimOptions ideal;
  ideal.cluster.num_processes = opts.nprocesses;
  ideal.cluster.workers_per_process = opts.workers_per_process;
  ideal.seed = opts.seed;
  const sim::SimResult ideal_sim =
      sim::simulate(plan.graph, plan.domain_to_process, ideal);

  AutotuneRow row;
  row.ndomains = nd;
  row.makespan = with_comm.makespan;
  row.ideal_makespan = ideal_sim.makespan;
  row.cross_process_edges =
      sim::message_statistics(plan.graph, plan.domain_to_process)
          .crossing_edges;
  row.occupancy = with_comm.occupancy();
  return row;
}

}  // namespace

AutotuneResult suggest_domain_count(const mesh::Mesh& mesh,
                                    const AutotuneOptions& opts) {
  TAMP_EXPECTS(opts.nprocesses >= 1, "need at least one process");
  TAMP_EXPECTS(opts.max_multiplier >= 1, "multiplier must be positive");

  std::vector<part_t> candidates = opts.candidates;
  if (candidates.empty()) {
    for (part_t mult = 1; mult <= opts.max_multiplier; mult *= 2) {
      const part_t nd = opts.nprocesses * mult;
      if (nd > mesh.num_cells()) break;
      candidates.push_back(nd);
    }
  }
  TAMP_EXPECTS(!candidates.empty(), "no candidate domain counts");

  AutotuneResult result;
  simtime_t best_makespan = 0;
  for (const part_t nd : candidates) {
    const RunPlan plan = prepare_on_mesh(mesh, candidate_config(opts, nd));
    const AutotuneRow row = score_candidate(plan, opts, nd);
    result.sweep.push_back(row);
    if (result.best_ndomains == 0 || row.makespan < best_makespan) {
      result.best_ndomains = nd;
      best_makespan = row.makespan;
    }
  }
  return result;
}

}  // namespace tamp::core
