// One leg of a benchmark run: a fresh process that builds a workload's
// inputs and drives them through core::run_iteration_pipeline, streaming
// one record per event to stdout (record.hpp) for run.py to aggregate.
#pragma once

#include <cstdint>
#include <string>

#include "support/types.hpp"

namespace e2e {

struct LegOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1;      ///< mesh size relative to the benchmark's
  int iterations = 1;    ///< pipeline iterations, iteration 0 included
  /// Time-bounded legs stop at the first iteration boundary at which
  /// `seconds` have passed since iteration `warmup` ended and at least
  /// `min_timed` iterations ran after it (0 seconds: run all iterations).
  int warmup = 0;
  double seconds = 0;
  int min_timed = 0;
  tamp::part_t processes = 1;
  int workers = 1;
  /// Time the layers: spans around the hooks, runtime and solver analysis
  /// of each ExecutionReport, and a replay of each iteration's prep stages.
  bool traced = false;
  int fingerprint_at = -1;  ///< report the state fingerprint after this
                            ///< iteration (-1: never)
  int stall_at = -1;   ///< self-test: this iteration's solve never finishes
  int poison_at = -1;  ///< self-test: the state goes non-finite before this
                       ///< iteration's solve
};

/// Returns the process exit code: 0, or 1 when the pipeline threw (the
/// error is reported as a record first).
int run_leg(const LegOptions& opts);

/// Machine probe: multi-threaded STREAM triad and a dependent-load pointer
/// chase over arrays of `array_mib` MiB each (0: four times the last-level
/// cache), reported as one record.
int run_probe(int threads, std::size_t array_mib);

}  // namespace e2e
