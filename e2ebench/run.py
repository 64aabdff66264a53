#!/usr/bin/env python3
"""End-to-end benchmark of TAMP's iteration loop.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a TAMP checkout. The first run builds the library
(Release, tracing compiled out) and the `tamp_e2e` binary into
$CARGO_TARGET_DIR (default .bench_build). Every workload drives
core::run_iteration_pipeline in sync mode, MC_TL, block mapping, on
1 process x 1 worker, one leg per process:

  --trace 0  SETUPS - 1 set-up-only legs, then one timed leg that
             measures for --seconds after its warm-up; prints the
             end-to-end metrics.
  --trace 1  an untraced leg and a traced leg (layer spans, runtime
             analysis, a replay of each iteration's prep stages) on the
             same inputs; prints the per-layer metrics and the ledger of
             where each iteration's wall time went.

Each leg's iterations are checked (finite state, conservation within
CONSERVATION_TOL) and a stalled leg is killed after PROGRESS_DEADLINE_S
without progress; failures are counted, never retried. The last stdout
line is the result object; the machine block, legs, ledger and spans go to
<build>/e2e-results/<workload>-s<seed>-t<trace>.json.
"""

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Per workload: warm-up iterations left out of every timed window, and the
# timed iterations of the traced leg (a fixed count, so the leg's stage
# windows come back from the pipeline's own report).
WORKLOADS = {
    "box_euler_frozen": {"warmup": 10, "traced": 40},
    "cylinder_transport_drift": {"warmup": 3, "traced": 30},
}
# One worker thread: with two or more, runtime::execute can lose its final
# wake-up and never return (README.md, known defects), so a multi-worker
# leg cannot be relied on to finish.
PROCESSES, WORKERS = 1, 1
SETUPS = 4               # set-ups per timed run; setup_s is their median
MIN_TIMED = 100          # p90 needs ten samples beyond it
UNTRACED_SHARE = 0.3     # of --seconds, for the traced run's untraced leg
FINGERPRINT_AFTER = 10   # state fingerprinted this many iterations after
                         # warm-up, in every leg (all legs reach it)
CONSERVATION_TOL = 1e-9  # relative drift of the conserved totals
SETUP_DEADLINE_S = 60    # from leg start to iteration 0's set-up record
PROGRESS_DEADLINE_S = 15  # between consecutive iteration records: over
                          # ten times the slowest healthy iteration
LEGS_PER_ROLE = 3        # a role whose leg ended early continues in a
                         # fresh leg, at most this many legs in all

END_TO_END = [
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("cell_updates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("core.prep_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.unattributed_share", "ratio"),
    ("core.overlap_bound_share", "ratio"),
    ("mesh.evolve_ms", "ms"),
    ("mesh.cells_changed", "count"),
    ("partition.strategy_graph_ms", "ms"),
    ("partition.incremental_ms", "ms"),
    ("partition.migrated_cells", "count"),
    ("partition.reused_share", "ratio"),
    ("partition.decompose_s", "s"),
    ("partition.level_imbalance", "ratio"),
    ("partition.edge_cut", "count"),
    ("taskgraph.build_ms", "ms"),
    ("taskgraph.patched_share", "ratio"),
    ("taskgraph.tasks", "count"),
    ("taskgraph.dependencies", "count"),
    ("taskgraph.rebuild_ms", "ms"),
    ("runtime.prepare_ms", "ms"),
    ("runtime.execute_ms", "ms"),
    ("runtime.busy_share", "ratio"),
    ("runtime.tasks_per_s", "1/s"),
    ("runtime.dispatch_us_p50", "us"),
    ("solver.face_ns", "ns"),
    ("solver.cell_ns", "ns"),
    ("solver.computed_gb_per_s", "GB/s"),
    ("solver.bandwidth_fraction", "ratio"),
    ("machine.stream_gb_per_s", "GB/s"),
    ("machine.chase_ns", "ns"),
    ("trace.overhead_share", "ratio"),
]
UNATTRIBUTED_CAUSE = ("pipeline snapshot seal checks at solve exit and solve "
                      "entry, and the live mesh's level copy")


class BenchError(Exception):
    """The benchmark itself could not run (build, probe, bad arguments)."""


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(log):
    """Configure once, then build incrementally; returns the binary."""
    out = build_root() / "e2ebench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "tamp_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)} "
                             f"(log: {log.name})")
    return out / "tamp_e2e"


def child_env():
    """Every TAMP_* knob unset: serial partitioner, auto SIMD, no faults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TAMP_")}


def vm_hwm_kb(pid):
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


class Leg:
    """One tamp_e2e process: its records, and how it ended."""

    def __init__(self, name, records, stalled, deadline_s, returncode,
                 hwm_at_kill):
        self.name = name
        self.records = records
        self.stalled = stalled
        self.deadline_s = deadline_s
        self.returncode = returncode
        self.iters = [r for r in records if r["event"] == "iter"]
        self.setup = next((r for r in records if r["event"] == "setup"), None)
        self.stages = next((r for r in records if r["event"] == "stages"),
                           None)
        self.end = next((r for r in records if r["event"] == "end"), None)
        self.error = next((r for r in records if r["event"] == "error"), None)
        self.vm_hwm_kb = self.end["vm_hwm_kb"] if self.end else hwm_at_kill
        # Every failed iteration, in order: iterations whose output check
        # failed, then the one that threw, stalled or crashed, if any.
        self.failures = [{"i": r["i"], "why": iteration_problem(r)}
                         for r in self.iters if iteration_problem(r)]
        next_i = self.iters[-1]["i"] + 1 if self.iters else 0
        if stalled:
            self.failures.append({"i": next_i, "why": "stalled: no progress "
                                  f"for {deadline_s} s, killed"})
        elif self.error:
            self.failures.append({"i": self.error["i"],
                                  "why": "threw: " + self.error["what"]})
        elif returncode != 0 or self.end is None:
            self.failures.append({"i": next_i,
                                  "why": f"crashed (exit {returncode})"})
        # Ended early: stalled, threw or crashed.
        self.cut = bool(stalled or self.error or returncode != 0
                        or not self.end)
        self.attempted = len(self.iters) + (1 if self.cut else 0)

    def timed(self, warmup):
        """Completed iterations of the timed window."""
        return [r for r in self.iters if r["i"] > warmup]

    def fingerprints(self):
        return {r["i"]: r["fingerprint"] for r in self.iters
                if "fingerprint" in r}


def iteration_problem(rec):
    if not rec["finite"]:
        return "state not finite"
    drift = rec["conservation_drift"]
    if drift is None or drift > CONSERVATION_TOL:
        return f"conservation drift {drift} > {CONSERVATION_TOL}"
    return None


def run_leg(binary, name, args, log, deadline_s=PROGRESS_DEADLINE_S):
    """Run one leg under the watchdog: no record for `deadline_s` (set-up:
    SETUP_DEADLINE_S) means it stalled, and it is killed."""
    print(f"leg {name}: {' '.join(args)}", file=log, flush=True)
    proc = subprocess.Popen([str(binary), "leg", *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=log,
                            env=child_env())
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    records, buf = [], b""
    stalled, hwm_at_kill = False, None
    deadline = time.monotonic() + SETUP_DEADLINE_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                stalled = True
                hwm_at_kill = vm_hwm_kb(proc.pid)
                proc.kill()
                break
            if not sel.select(timeout=left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                try:
                    rec = json.loads(line)
                except ValueError:
                    print(f"leg {name}: not a record: {line!r}", file=log)
                    continue
                records.append(rec)
                if rec["event"] in ("setup", "iter"):
                    deadline = time.monotonic() + deadline_s
    finally:
        sel.close()
        proc.stdout.close()
        proc.wait()
    return Leg(name, records, stalled, deadline_s, proc.returncode,
               hwm_at_kill)


def probe(binary, log, array_mib):
    out = subprocess.run([str(binary), "probe", "--threads",
                          str(PROCESSES * WORKERS), "--array-mib",
                          str(array_mib)], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=log, env=child_env(), timeout=120)
    if out.returncode != 0:
        raise BenchError("machine probe failed")
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def leg_args(workload, seed, scale, iterations, extra=()):
    return ["--workload", workload, "--seed", str(seed), "--scale",
            str(scale), "--iterations", str(iterations), "--processes",
            str(PROCESSES), "--workers", str(WORKERS), *extra]


def timed(legs, warmup):
    """Completed iterations of the timed windows of a role's legs."""
    return [r for g in legs for r in g.timed(warmup)]


def run_role(leg, name, warmup, seconds=0.0, min_timed=0, iterations=0,
             extra=()):
    """Run legs for one role until it has its timed window: `seconds` of
    timed wall time and `min_timed` iterations, or else `iterations` timed
    iterations. A leg that ended early (stalled, threw, crashed) keeps its
    failure counted and its completed iterations; a fresh leg on the same
    inputs then measures what is still missing, up to LEGS_PER_ROLE legs.
    Every leg runs past the fingerprint iteration."""
    legs = []
    while len(legs) < LEGS_PER_ROLE:
        done = timed(legs, warmup)
        spent = sum(r["wall_ms"] for r in done) * 1e-3
        if seconds > 0:
            need = max(min_timed - len(done), FINGERPRINT_AFTER)
            left = max(seconds - spent, 1e-3)
            # The pipeline's iteration budget only caps a time-bounded leg.
            cap = 1 + warmup + max(need, int(left * 2000))
            window = ["--warmup", str(warmup), "--seconds", str(left),
                      "--min-timed", str(need)]
        else:
            cap = 1 + warmup + max(iterations - len(done), FINGERPRINT_AFTER)
            window = []
        g = leg(name if not legs else f"{name}{len(legs)}", cap,
                [*window, *extra])
        legs.append(g)
        if not g.cut:
            break
    return legs


def end_to_end_metrics(main, setups, warmup):
    walls = [r["wall_ms"] for r in timed(main, warmup)]
    updates = sum(r["cell_updates"] for r in timed(main, warmup))
    if not walls:
        # No leg got past its warm-up: the window holds only the stalled
        # iterations, each of which took at least the deadline.
        walls = [1e3 * g.deadline_s for g in main if g.stalled]
        updates = sum(r["cell_updates"] for g in main for r in g.iters[:1]
                      if g.stalled)
    return {
        "iter_ms_p50": median(walls),
        "iter_ms_p90": percentile(walls, 90),
        "cell_updates_per_s": updates / (1e-3 * sum(walls)) if walls else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": max((g.vm_hwm_kb or 0) for g in main) / 1024.0,
    }, len(walls)


def ledger(traced, warmup):
    """Split each timed iteration's wall time of the traced legs into layer
    spans; whatever no span covers is `unattributed`. Top level:
    wall = prep + bind + solve + unattributed. Prep's children are the
    replayed stages; its self time is the pipeline's internal census,
    seal and snapshot copy work. Only legs that returned the pipeline's
    stage windows are used, unless none did."""
    exact = [g for g in traced if g.stages and g.timed(warmup)]
    traced = exact or traced
    rows = []
    for g, r in ((g, r) for g in traced for r in g.timed(warmup)):
        i, stage = r["i"], g.stages
        if stage:
            prep, solve = stage["prep_ms"][i], stage["solve_ms"][i]
        else:
            # Killed before the pipeline returned its stage windows: solve
            # is the runtime's own wall clock and prep everything between
            # the previous solve and this bind (seal checks included).
            solve = r["exec_ms"]
            prep = r["wall_ms"] - r["bind_ms"] - solve
        children = {k: r[k] for k in ("evolve_ms", "strategy_graph_ms",
                                      "incremental_ms", "patch_ms",
                                      "prepare_ms")}
        rows.append({
            "i": i, "wall_ms": r["wall_ms"], "prep_ms": prep,
            "bind_ms": r["bind_ms"], "solve_ms": solve,
            "unattributed_ms": r["wall_ms"] - prep - r["bind_ms"] - solve,
            "prep_children_ms": children,
            "prep_self_ms": prep - sum(children.values()),
            "leg": g.name,
        })
    return rows, bool(exact), traced


def per_layer_metrics(untraced, traced, probe_rec, warmup):
    rows, exact, traced = ledger(traced, warmup)
    t = timed(traced, warmup)
    wall = sum(x["wall_ms"] for x in rows) or 1.0

    def med(key):
        return median([r[key] for r in t])

    def share(flag):
        return sum(1 for r in t if r[flag]) / len(t) if t else 0.0

    face_s = sum(r["face_task_s"] for r in t)
    cell_s = sum(r["cell_task_s"] for r in t)
    kernel_s = face_s + cell_s
    gbps = (sum(r["face_bytes"] + r["cell_bytes"] for r in t) / kernel_s
            * 1e-9 if kernel_s > 0 else 0.0)
    nxt = {(x["leg"], x["i"]): x for x in rows}
    overlap = sum(min(nxt[(x["leg"], x["i"] + 1)]["prep_ms"], x["solve_ms"])
                  for x in rows if (x["leg"], x["i"] + 1) in nxt)
    untraced_p50 = median([r["wall_ms"] for r in timed(untraced, warmup)])
    traced_p50 = median([r["wall_ms"] for r in t])
    first = next((g.iters[0] for g in traced if g.iters), {})
    metrics = {
        "core.prep_ms": median([x["prep_ms"] for x in rows]),
        "core.solve_ms": median([x["solve_ms"] for x in rows]),
        "core.bind_ms": med("bind_ms"),
        "core.unattributed_share":
            sum(x["unattributed_ms"] for x in rows) / wall,
        "core.overlap_bound_share": overlap / wall,
        "mesh.evolve_ms": med("evolve_ms"),
        "mesh.cells_changed": med("cells_changed"),
        "partition.strategy_graph_ms": med("strategy_graph_ms"),
        "partition.incremental_ms": med("incremental_ms"),
        "partition.migrated_cells": med("migrated_cells"),
        "partition.reused_share": share("reused"),
        "partition.decompose_s": first.get("decompose_s", 0.0),
        "partition.level_imbalance": med("level_imbalance"),
        "partition.edge_cut": med("edge_cut"),
        "taskgraph.build_ms": med("patch_ms"),
        "taskgraph.patched_share": share("patched"),
        "taskgraph.tasks": med("tasks"),
        "taskgraph.dependencies": med("dependencies"),
        "taskgraph.rebuild_ms": med("rebuild_ms"),
        "runtime.prepare_ms": med("prepare_ms"),
        "runtime.execute_ms": med("exec_ms"),
        "runtime.busy_share": med("busy_share"),
        "runtime.tasks_per_s": median([r["tasks"] / (1e-3 * r["exec_ms"])
                                       for r in t]),
        "runtime.dispatch_us_p50": med("dispatch_us"),
        "solver.face_ns": 1e9 * face_s / max(sum(r["faces"] for r in t), 1),
        "solver.cell_ns": 1e9 * cell_s / max(sum(r["cells"] for r in t), 1),
        "solver.computed_gb_per_s": gbps,
        # Every worker streaming at the kernels' computed rate, against the
        # triad bandwidth of the same thread count.
        "solver.bandwidth_fraction":
            gbps * PROCESSES * WORKERS / probe_rec["stream_gb_per_s"],
        "machine.stream_gb_per_s": probe_rec["stream_gb_per_s"],
        "machine.chase_ns": probe_rec["chase_ns"],
        "trace.overhead_share":
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 > 0 else 0.0,
    }
    return metrics, rows, exact


def spans_of(workload, run_id, leg, rows):
    """The traced leg's spans: iteration → prep/bind/solve/unattributed,
    prep → replayed stages."""
    out = []
    for x in rows:
        base = {"workload": workload, "run": run_id, "leg": leg,
                "iteration": x["i"]}
        it = f"iteration/{x['i']}"
        out.append({**base, "span": it, "parent": None, "ms": x["wall_ms"]})
        for name in ("prep", "bind", "solve", "unattributed"):
            out.append({**base, "span": f"core.{name}", "parent": it,
                        "ms": x[f"{name}_ms"]})
        for name, ms in x["prep_children_ms"].items():
            out.append({**base, "span": name[:-3], "parent": "core.prep",
                        "ms": ms})
    return out


def print_ledger(rows, exact, out):
    if not rows:
        return
    wall = sum(x["wall_ms"] for x in rows)
    print(f"ledger over {len(rows)} traced iterations "
          f"({wall / len(rows):.2f} ms mean wall):", file=out)

    def line(name, ms, depth=1):
        print(f"  {'  ' * depth}{name:<28}{ms / len(rows):10.3f} ms "
              f"{100 * ms / wall:7.2f} %", file=out)
    for name in ("prep", "bind", "solve"):
        line(f"core.{name}", sum(x[f"{name}_ms"] for x in rows))
        if name == "prep":
            for child in rows[0]["prep_children_ms"]:
                line(child[:-3], sum(x["prep_children_ms"][child]
                                     for x in rows), 2)
            line("(prep self)", sum(x["prep_self_ms"] for x in rows), 2)
    cause = UNATTRIBUTED_CAUSE if exact else (
        "not separable: the leg was killed before the pipeline returned "
        "its stage windows; prep includes the seal checks")
    line("unattributed", sum(x["unattributed_ms"] for x in rows))
    print(f"    unattributed = {cause}", file=out)


def machine_block(binary, seed, probe_rec, legs):
    cache = {}
    cache_file = binary.parent / "CMakeCache.txt"
    for line in cache_file.read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    end = next((leg.end for leg in legs if leg.end), {}) or {}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*"), *BENCH_DIR.rglob("*")]):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "hardware_threads": end.get("hardware_threads"),
        "simd": end.get("simd"),
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} "
                    f"{end.get('compiler', '?')}",
        "flags": " ".join(filter(None, (
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE",
                                                     "").upper(), "")))),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "tracing_compiled_in": cache.get("TAMP_ENABLE_TRACING"),
        "git_sha": sha or None,
        "sources_sha256": digest.hexdigest(),  # src/ and e2ebench/
        "seed": seed,
        "partition_threads": "TAMP_PARTITION_THREADS unset (serial)",
        "processes_x_workers": f"{PROCESSES}x{WORKERS}",
        "probe": probe_rec,
    }


def check_fingerprints(workload, seed, scale, at, legs, sources, store_path):
    """Every leg of this run, and every earlier run of the same inputs and
    the same sources (same store), must reach the same state at iteration
    `at`."""
    seen = {leg.name: leg.fingerprints()[at] for leg in legs
            if at in leg.fingerprints()}
    problems = []
    if len(set(seen.values())) > 1:
        problems.append(f"fingerprints differ between legs: {seen}")
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = (f"{sources[:16]}/{workload}/seed={seed}/scale={scale}/"
           f"iteration={at}")
    if seen:
        value = next(iter(seen.values()))
        if store.setdefault(key, value) != value:
            problems.append(f"fingerprint {value} differs from an earlier "
                            f"run's {store[key]} ({key})")
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return seen, problems


def run_benchmark(workload, seed, seconds, trace, scale=1.0, stall_at=-1,
                  poison_at=-1, deadline_s=PROGRESS_DEADLINE_S, probe_mib=0,
                  out=sys.stdout):
    """Run one benchmark invocation and return the result object."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload '{workload}' "
                         f"(choose from {', '.join(WORKLOADS)})")
    results = build_root() / "e2e-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}"
    with open(results / f"{stem}.log", "w") as log:
        binary = build(log)
        probe_rec = probe(binary, log, probe_mib)
        warmup = WORKLOADS[workload]["warmup"]
        fp_at = warmup + FINGERPRINT_AFTER
        tests = []
        if stall_at >= 0:
            tests += ["--stall-at", str(stall_at)]
        if poison_at >= 0:
            tests += ["--poison-at", str(poison_at)]
        common = ["--fingerprint-at", str(fp_at), *tests]

        def leg(name, iterations, extra=()):
            return run_leg(binary, name,
                           leg_args(workload, seed, scale, iterations, extra),
                           log, deadline_s)

        if trace == 0:
            setup_legs = [leg(f"setup{k}", 1, tests)
                          for k in range(SETUPS - 1)]
            main = run_role(leg, "timed", warmup, seconds=seconds,
                            min_timed=MIN_TIMED, extra=common)
            legs = setup_legs + main
            setups = [g.setup["setup_s"] for g in legs if g.setup]
            metrics, samples = end_to_end_metrics(main, setups, warmup)
            units = dict(END_TO_END)
            summary = (f"{workload}: iter_ms_p50 {metrics['iter_ms_p50']:.3f}"
                       f" ms, iter_ms_p90 {metrics['iter_ms_p90']:.3f} ms "
                       f"over {samples} timed iterations in {len(main)} "
                       f"leg(s); setup_s from {len(setups)} set-ups")
            rows, exact = [], True
        else:
            untraced = run_role(leg, "untraced", warmup,
                                seconds=UNTRACED_SHARE * seconds,
                                min_timed=FINGERPRINT_AFTER, extra=common)
            traced = run_role(leg, "traced", warmup,
                              iterations=WORKLOADS[workload]["traced"],
                              extra=["--traced", *common])
            legs = untraced + traced
            metrics, rows, exact = per_layer_metrics(untraced, traced,
                                                     probe_rec, warmup)
            units = dict(PER_LAYER)
            samples = len(rows)
            summary = (f"{workload}: traced {samples} timed iterations, "
                       f"untraced {len(timed(untraced, warmup))}")

    machine = machine_block(binary, seed, probe_rec, legs)
    fingerprints, problems = check_fingerprints(
        workload, seed, scale, fp_at, legs, machine["sources_sha256"],
        results / "fingerprints.json")
    failures = [{"leg": g.name, **f} for g in legs for f in g.failures]
    result = {
        "correct": not failures and not problems and bool(fingerprints),
        "attempted": sum(g.attempted for g in legs),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    run_id = f"{stem}-{int(time.time())}"
    report = {
        "run": run_id, "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "machine": machine,
        "legs": [{"name": g.name, "iterations": len(g.iters),
                  "attempted": g.attempted, "failures": g.failures,
                  "stalled": g.stalled, "returncode": g.returncode,
                  "setup": g.setup, "vm_hwm_kb": g.vm_hwm_kb}
                 for g in legs],
        "fingerprint_iteration": fp_at, "fingerprints": fingerprints,
        "fingerprint_problems": problems, "result": result,
        "ledger": rows, "unattributed_cause":
            UNATTRIBUTED_CAUSE if exact else "leg killed; see ledger",
        "spans": spans_of(workload, run_id, "traced", rows),
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print("machine: " + json.dumps(machine, sort_keys=True), file=out)
    print(summary, file=out)
    print_ledger(rows, exact, out)
    for f in failures[:5]:
        print(f"failed: leg {f['leg']} iteration {f['i']}: {f['why']}",
              file=out)
    if len(failures) > 5:
        print(f"failed: ... {len(failures) - 5} more", file=out)
    for p in problems:
        print(f"fingerprint: {p}", file=out)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               args.trace)
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
