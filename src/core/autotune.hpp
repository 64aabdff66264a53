// Automatic domain-granularity selection — the paper's §IX perspective:
// "exploring ways to automatically determine the best domain granularity
// with respect to the target machine's number of cores."
//
// The granularity trade-off: more domains → finer tasks → better
// pipelining and occupancy, but more interfaces → more communication and
// runtime overhead. suggest_domain_count() sweeps candidate counts
// through the event simulator *with a communication model enabled*, so
// the score reflects both sides of the trade, and returns the sweep for
// inspection alongside the winner.
#pragma once

#include <vector>

#include "core/pipeline.hpp"

namespace tamp::core {

struct AutotuneOptions {
  partition::Strategy strategy = partition::Strategy::mc_tl;
  part_t nprocesses = 4;
  int workers_per_process = 4;
  /// Candidate domain counts; empty = powers-of-two multiples of
  /// nprocesses from ×1 up to ×max_multiplier.
  std::vector<part_t> candidates;
  int max_multiplier = 32;
  /// Communication model used for scoring (zero latency would always
  /// favour the finest granularity; the default charges a realistic
  /// latency per crossing edge, in work units).
  sim::CommModel comm{/*latency=*/20.0, /*per_object=*/0.01};
  /// Per-task runtime-management cost (work units). The granularity
  /// counterweight: doubling the domain count roughly doubles the task
  /// count, and each task pays this.
  simtime_t task_overhead = 2.0;
  std::uint64_t seed = 1;
};

struct AutotuneRow {
  part_t ndomains = 0;
  simtime_t makespan = 0;       ///< with communication model
  simtime_t ideal_makespan = 0; ///< zero-communication reference
  weight_t cross_process_edges = 0;
  double occupancy = 0;
};

struct AutotuneResult {
  part_t best_ndomains = 0;
  std::vector<AutotuneRow> sweep;
};

/// Sweep candidate domain counts on `mesh` and pick the lowest
/// comm-aware makespan.
AutotuneResult suggest_domain_count(const mesh::Mesh& mesh,
                                    const AutotuneOptions& opts = {});

}  // namespace tamp::core
