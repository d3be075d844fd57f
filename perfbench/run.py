"""The coendcheck benchmark: time to verdict on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload in a fresh
interpreter (perfbench/one_pass.py), one pass at a time, and passes repeat
while the next one is expected to end within --seconds.  The run and its
passes stay on one CPU, and the reference kernel of reference.py runs on
that CPU, in a fresh interpreter of its own, before the first pass and
after every pass; times are reported
scaled to the host speed at which the kernel takes REFERENCE_S seconds
(see scaled()).  With --trace 0 the last line of stdout is the JSON
result with the end-to-end metrics (E2E below); with --trace 1, untraced
and traced passes alternate and the result holds the per-layer metrics
of tracing.py.  The workloads and their recorded report digests are in
perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S
from workloads import ROOT, WORKLOADS, checks_per_pass

HERE = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "coendcheck" / "__init__.py"
RUN_LIMIT_S = 170     # every run must end within 180 s
# A shared host runs passes at its quiet speed or up to ~2x slower while
# other tenants load it, in spells of seconds to minutes.  Each time is
# therefore divided by the reference kernel's time around its pass (see
# scaled()).  Verdict and CPU times are then the ratio of their total to
# the kernel's total over the run, which follows the share of slow spells
# smoothly; set-up time and peak memory are medians over the passes, and
# peak memory is not scaled.
E2E = {"verdict_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_to_one_cpu():
    """Keep this process, the passes it starts and the reference kernel on
    one CPU, so that the kernel sees the same host load as the passes."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_reference():
    """The reference kernel's time in seconds.  It runs in a fresh
    interpreter, as a pass does, and so that this process stays small: a
    pass's ru_maxrss starts from the size of the process that forked it."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_pass(workload, seed, trace, timeout):
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited with {proc.returncode}", file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def scaled(passes, key):
    """The metric over a run's passes, in seconds at the host speed where
    the reference kernel takes REFERENCE_S: each pass carries "ref", the
    mean of the kernel's times just before and just after it."""
    if key == "peak_rss_mb":
        return statistics.median(p[key] for p in passes)
    if key == "setup_s":
        return REFERENCE_S * statistics.median(p[key] / p["ref"] for p in passes)
    return REFERENCE_S * sum(p[key] for p in passes) / sum(p["ref"] for p in passes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not PACKAGE.is_file():
        print(f"perfbench: no coendcheck sources at {PACKAGE.relative_to(ROOT)}; "
              "run from the root of a coendcheck checkout", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    run_reference()    # warm-up
    start = time.perf_counter()
    ref = run_reference()
    untraced, traced, walls = [], [], []
    attempted = failed = 0
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        elapsed = time.perf_counter() - start
        out, wall = run_pass(args.workload, args.seed, int(trace),
                             RUN_LIMIT_S - elapsed)
        t0 = time.perf_counter()
        ref, ref_before = run_reference(), ref
        walls.append(wall + time.perf_counter() - t0)
        if out is None:
            attempted += checks_per_pass(args.workload)
            failed += checks_per_pass(args.workload)
        else:
            attempted += out["checks"]
            failed += out["failed"]
            out["ref"] = (ref_before + ref) / 2
            (traced if trace else untraced).append(out)
            print(f"pass {len(walls)} trace={int(trace)} seed={args.seed}: "
                  f"verdict {out['verdict_s']:.3f} s, setup {out['setup_s']:.3f} s, "
                  f"reference kernel {out['ref']:.3f} s, "
                  f"{out['failed']}/{out['checks']} checks failed")
        elapsed = time.perf_counter() - start
        if out is None or elapsed >= RUN_LIMIT_S:
            break
        if (traced or not args.trace) and elapsed + statistics.median(walls) > args.seconds:
            break

    if not untraced or (args.trace and not traced):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        # median_low keeps counts whole: it is always one pass's value
        metrics = {name: {"value": statistics.median_low(p["layers"][name]["value"]
                                                         for p in traced),
                          "unit": m["unit"]}
                   for name, m in traced[0]["layers"].items()}
        overhead = scaled(traced, "verdict_s") - scaled(untraced, "verdict_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {k: {"value": scaled(untraced, k), "unit": unit}
                   for k, unit in E2E.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
