"""Self-test of the benchmark's tracing, on a small input.

    python3 perfbench/selftest.py

Runs the lens-meet workload (lens_reduction x meet-lattice-2) once
untraced and twice traced, each in a fresh interpreter, and checks that
every pass made the recorded report with no failed check, that tracing
left the report digest unchanged, that every per-layer count repeats
exactly across the two traced passes, and that the wrappers were all
removed after each traced pass.  Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

from run import run_pass

WORKLOAD = "lens-meet"


def main():
    problems = []
    untraced, _ = run_pass(WORKLOAD, 0, 0, timeout=120)
    traced = [run_pass(WORKLOAD, 0, 1, timeout=120)[0] for _ in range(2)]
    passes = [untraced] + traced
    if any(p is None for p in passes):
        print("selftest: a pass did not complete")
        return 1
    for p in passes:
        if p["failed"]:
            problems.append(f"{p['failed']} of {p['checks']} checks failed")
    if any(p["digests"] != untraced["digests"] for p in traced):
        problems.append("tracing changed the report digest")
    counts = [{k: m["value"] for k, m in p["layers"].items() if m["unit"] == "count"}
              for p in traced]
    for k in sorted(counts[0]):
        if counts[0][k] != counts[1].get(k):
            problems.append(f"{k} differs across traced runs: "
                            f"{counts[0][k]} vs {counts[1].get(k)}")
    if counts[0].get("profunctor.coends_built", 0) == 0:
        problems.append("the traced run counted no coends")
    if not all(p["restored"] for p in traced):
        problems.append("tracing wrappers were left installed")
    for line in problems:
        print("selftest: " + line)
    print(f"selftest: {'FAILED' if problems else 'ok'} "
          f"({len(counts[0])} per-layer counts compared)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
