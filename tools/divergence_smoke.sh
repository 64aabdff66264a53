#!/usr/bin/env bash
# Sim-vs-reality divergence gate: run the Fig 5 experiment (FLUSIM
# prediction vs a real threaded execution of the same task graph, flight
# recorder armed), export the divergence.* gauges, and gate them with
# tamp-report against the committed zero-drift baseline. A simulator (or
# runtime, or adapter) change that makes the prediction drift past the
# tolerances fails CI loudly instead of silently rotting Fig 5.
#
# Tolerances are deliberately generous: CI runners timeslice the emulated
# workers, so the *absolute* gap wobbles — the gate catches gross drift
# (broken adapter, runaway overhead, miscalibrated simulator), not noise.
#
#   tools/divergence_smoke.sh [build-dir]   (default: ./build)
#
# Environment:
#   DIVERGENCE_ARTIFACTS  directory for the Gantt SVG + Chrome trace
#                         (default: a temp dir; CI sets this and uploads)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"
FIG5="${BUILD}/bench/fig5_sim_vs_runtime"
REPORT="${BUILD}/tools/tamp-report"
OUT="$(mktemp -d)"
trap 'rm -rf "${OUT}"' EXIT
ARTIFACTS="${DIVERGENCE_ARTIFACTS:-${OUT}/artifacts}"

for bin in "${FIG5}" "${REPORT}"; do
  [[ -x "${bin}" ]] || { echo "divergence_smoke: missing ${bin} (build first)"; exit 2; }
done

# Small config: 2 emulated processes x 2 workers fits CI cores, and a
# large-ish spin keeps per-task runtime overhead amortised.
TAMP_BENCH_METRICS_DIR="${OUT}/metrics" "${FIG5}" \
  --scale 0.002 --domains 8 --processes 2 --workers 2 --spin-us 50 \
  --artifacts "${ARTIFACTS}" | tee "${OUT}/fig5.txt"

METRICS="${OUT}/metrics/fig5_sim_vs_runtime.json"
[[ -s "${METRICS}" ]] || { echo "divergence_smoke: FAIL — no metrics snapshot"; exit 1; }
grep -q "sim vs reality" "${OUT}/fig5.txt" || {
  echo "divergence_smoke: FAIL — no divergence report in fig5 output"
  exit 1
}

# The measured run's Gantt and Chrome trace must have materialised (CI
# uploads both). Both are drawn through sim::to_sim_result; the trace must
# parse and carry the flight recorder's two counter tracks.
[[ -s "${ARTIFACTS}/fig5_traces.svg" ]] || {
  echo "divergence_smoke: FAIL — missing or empty fig5_traces.svg"
  exit 1
}
[[ -s "${ARTIFACTS}/fig5_runtime.trace.json" ]] || {
  echo "divergence_smoke: FAIL — missing fig5_runtime.trace.json"
  exit 1
}
python3 - "${ARTIFACTS}/fig5_runtime.trace.json" <<'PY' || {
import json, sys
names = {e.get("name") for e in json.load(open(sys.argv[1]))["traceEvents"]}
missing = {"ready_queue", "idle_workers"} - names
if missing:
    sys.exit("no %s events" % ", ".join(sorted(missing)))
PY
  echo "divergence_smoke: FAIL — Chrome trace does not parse or lacks counter tracks"
  exit 1
}

# Absolute gates against the zero-drift baseline ('=' replaces the
# default doctor rules — this snapshot has no doctor.* gauges).
RULES="=gauges.divergence.makespan.abs_rel_gap:1.5:higher:abs"
RULES+=";gauges.divergence.idle_share.abs_gap:0.6:higher:abs"
RULES+=";gauges.divergence.subiteration.max_abs_idle_gap:0.95:higher:abs"
"${REPORT}" "${ROOT}/bench/snapshots/divergence_baseline.json" "${METRICS}" \
  --rule "${RULES}" --verdict "${OUT}/verdict.json" || {
  echo "divergence_smoke: FAIL — simulator drift exceeded tolerance"
  exit 1
}
grep -q '"regressed": false' "${OUT}/verdict.json" || {
  echo "divergence_smoke: FAIL — verdict JSON lacks \"regressed\": false"
  exit 1
}

# CI visibility: publish the gate table to the job summary as markdown.
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "## divergence smoke (sim-vs-reality gate)"
    "${REPORT}" "${ROOT}/bench/snapshots/divergence_baseline.json" \
      "${METRICS}" --rule "${RULES}" --quiet --format markdown
  } >> "${GITHUB_STEP_SUMMARY}" || true
fi

echo "divergence_smoke: OK"
