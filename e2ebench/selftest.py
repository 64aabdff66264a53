#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark on tiny meshes.

    python3 e2ebench/selftest.py

Runs in well under a minute once the binary is built (the first call
builds it, as run.py does). Checks that:

  * BENCHMARK.json lists exactly the metrics run.py prints, and each mode
    prints every one of its metrics with its unit;
  * a deliberately stalled solve is killed and counted as a failed
    iteration, and the run still ends;
  * a deliberately non-finite state is counted as a failed iteration;
  * a run's state fingerprint agrees across its legs and with an earlier
    run of the same inputs;
  * in a directory holding only BENCHMARK.json and e2ebench/, run.py exits
    non-zero without printing a result.
Exit code 0 when every check passes.
"""

import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {"scale": 0.01, "probe_mib": 8}
problems = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def tiny_run(workload, trace, seed=1, **kw):
    sink = io.StringIO()
    t0 = time.monotonic()
    result = run.run_benchmark(workload, seed, 0.2, trace, out=sink,
                               **{**TINY, **kw})
    report = json.loads((run.build_root() / "e2e-results" /
                         f"{workload}-s{seed}-t{trace}.json").read_text())
    return result, report, time.monotonic() - t0


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]]
          == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check(sorted(w["name"] for w in bench["workloads"])
          == sorted(run.WORKLOADS), "BENCHMARK.json workloads match run.py")

    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        for workload in run.WORKLOADS:
            result, report, _ = tiny_run(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == dict(table),
                  f"{workload} --trace {trace}: every metric with its unit")
            # On 2,000 cells the cylinder's drifted transport goes
            # non-finite (see README.md, known defects); the box stays
            # healthy at every scale.
            if workload == "box_euler_frozen":
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{workload} --trace {trace}: checks pass")
            check(not report["fingerprint_problems"] and
                  len(set(report["fingerprints"].values())) == 1,
                  f"{workload} --trace {trace}: one fingerprint across legs "
                  f"and runs {report['fingerprints']} "
                  f"{report['fingerprint_problems']}")

    # Seed 2: the deliberately broken runs keep their own fingerprints.
    result, report, took = tiny_run("box_euler_frozen", 0, seed=2,
                                    stall_at=3, deadline_s=2)
    stalls = [f for leg in report["legs"] for f in leg["failures"]
              if f["why"].startswith("stalled") and f["i"] == 3]
    check(bool(stalls) and result["failed"] >= len(stalls)
          and not result["correct"],
          f"stalled solve killed and counted ({len(stalls)} stalled legs, "
          f"run took {took:.1f} s)")

    result, report, _ = tiny_run("box_euler_frozen", 0, seed=2,
                                 poison_at=2)
    fails = [f for leg in report["legs"] for f in leg["failures"]]
    check(bool(fails) and min(f["i"] for f in fails) == 2
          and all(f["why"] == "state not finite" for f in fails)
          and not result["correct"],
          "non-finite state flagged as failed from the poisoned iteration on")

    bare = run.build_root() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH_DIR, bare / "e2ebench")
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload",
         "box_euler_frozen", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=bare, capture_output=True, text=True, timeout=180,
        env={**run.child_env(), "CARGO_TARGET_DIR": ".bench_build"})
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "without the library's sources run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if not problems else
                          f"FAILED: {len(problems)} check(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
