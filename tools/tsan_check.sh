#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-sensitive pieces: the
# lock-free trace buffers / metrics registry (test_obs), the simulator's
# worker pool (test_runtime), the flight recorder's per-worker rings
# (test_flight), the partitioner's work-stealing pool
# (test_thread_pool), the race verifier's instrumented solver runs under
# adversarial schedules (test_verify, test_verify_solver, flusim
# --verify-races), the SIMD lane tiers' adversarial equivalence suite
# (test_simd), the solver's relayouts under the drifting pipeline
# (test_layout), and the parallel decomposition itself — the partition
# test binaries plus the doctor smoke workflow run with
# TAMP_PARTITION_THREADS=4 so every pool code path executes under TSan.
# Uses a separate build tree so it never disturbs the main ./build
# directory.
#
#   tools/tsan_check.sh [extra cmake args...]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"

cmake -S "${ROOT}" -B "${BUILD}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTAMP_SANITIZE=thread \
  "$@"
cmake --build "${BUILD}" -j "$(nproc)" --target \
  test_obs test_runtime test_flight test_thread_pool test_partition \
  test_partition_properties test_verify test_verify_solver \
  test_simd test_pipeline_async test_layout flusim tamp_report

# Run the binaries directly (deterministic, no ctest discovery pass);
# TSan failures make the test runner exit non-zero.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
"${BUILD}/tests/test_obs"
"${BUILD}/tests/test_runtime"
"${BUILD}/tests/test_flight"
"${BUILD}/tests/test_thread_pool"
"${BUILD}/tests/test_verify"
"${BUILD}/tests/test_verify_solver"
# The SIMD lane tiers under real threads: the equivalence suite runs its
# adversarial executions per runnable level, so TSan watches the
# lane-transposed kernels race (or not) against each other's ranges.
"${BUILD}/tests/test_simd"

# The asynchronous iteration pipeline: prep(i+1) runs on the pool's
# background class while solve(i) executes on the runtime's workers —
# TSan watches the snapshot handoff, the cancellation flag, and the
# planning-mesh/live-mesh split across the full mode x thread matrix
# (fault-injection drains included).
"${BUILD}/tests/test_pipeline_async"

# The solver-owned kernel layout: drifting pipelines relay the kernel
# data out between iterations while two workers run the bodies bound to
# each layout — TSan watches the relayout handoff and the layout epoch
# every body checks.
"${BUILD}/tests/test_layout"

# The DAG-level race check itself, with the per-worker access buffers
# exercised by real threads + jitter: TSan watches the recorder while the
# checker proves the graph ordered every conflicting pair; the bodies
# stream the solver's own layout and record run-built annotations.
"${BUILD}/examples/flusim" --mesh nozzle --cells 4000 \
  --verify-races --verify-schedules 2 --verify-delay-us 20

# Overlapped pipeline + instrumented race verifier: the access recorder
# runs inside solve(i) while prep(i+1) mutates the planning mesh on a
# pool worker; TSan checks that the only shared state between the two is
# the immutable snapshot. Both solvers cross the handoff. The default
# --patch auto means these runs re-certify patched graphs on their dirty
# region; the oracle run additionally rebuilds and compares every patch.
"${BUILD}/examples/flusim" --mesh cylinder --cells 4000 --pipeline overlap \
  --iterations 3 --threads 2 --verify-races --verify-delay-us 20
"${BUILD}/examples/flusim" --mesh cylinder --cells 4000 --pipeline overlap \
  --pipeline-solver transport --iterations 3 --threads 2 --verify-races
"${BUILD}/examples/flusim" --mesh cylinder --cells 4000 --pipeline overlap \
  --patch oracle --iterations 3 --threads 2 --verify-races

# A recorded threaded execution: every worker pushes flight events into
# its ring while the emulated processes run concurrently, then the
# measured-run doctor and divergence report read the merged stream —
# TSan checks the record-then-read handoff end to end.
"${BUILD}/examples/flusim" --mesh cube --cells 4000 --domains 8 \
  --processes 2 --workers 2 --execute --doctor

# Per-thread counter groups + the what-if replay: every worker brackets
# each task with grouped perf reads (clock-only tier here — CI denies
# perf_event_open) while the main thread later aggregates the per-task
# deltas. TSan checks that bracket-then-aggregate handoff, at both the
# clock tier and the forced-off tier.
"${BUILD}/examples/flusim" --mesh cube --cells 4000 --domains 8 \
  --processes 2 --workers 2 --what-if --perf clock
TAMP_PERF=off "${BUILD}/examples/flusim" --mesh cube --cells 4000 \
  --domains 8 --processes 2 --workers 2 --execute --perf on

# Force the pool under every partition test, then through the full
# flusim → tamp-report smoke; bit-identical output keeps those passing.
export TAMP_PARTITION_THREADS=4
"${BUILD}/tests/test_partition"
"${BUILD}/tests/test_partition_properties"
"${ROOT}/tools/doctor_smoke.sh" "${BUILD}"

echo "tsan_check: OK"
