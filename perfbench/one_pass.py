"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/one_pass.py --workload NAME --seed N --trace 0|1

Set-up runs from the package import to the first checker call; the
verdict runs from there to the finished report text.  With --trace 1 the
wrappers of tracing.py are installed right after the import, the per-layer
metrics are added to the line, and the spans are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads

SPANS_DIR = workloads.ROOT / ".perfbench"


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(workloads.ROOT / "src"))

    tracer = None
    t0 = time.perf_counter()
    import coendcheck  # noqa: F401
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    jobs = workloads.setup(args.workload, args.seed)
    t1 = time.perf_counter()
    c1 = cpu_seconds()
    if tracer:
        with tracer.span("workload"):
            results = workloads.run_verdict(jobs)
    else:
        results = workloads.run_verdict(jobs)
    t2 = time.perf_counter()
    c2 = cpu_seconds()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    texts = [text for _, _, text in results if text is not None]
    out = {
        "setup_s": t1 - t0,
        "verdict_s": t2 - t1,
        "cpu_s": c2 - c1,
        "peak_rss_mb": peak_kb / 1024,
        "checks": workloads.checks_per_pass(args.workload),
        "failed": workloads.count_failed(args.workload, results),
        "digests": {label: workloads.sha1(text) for label, _, text in results
                    if text is not None},
    }
    if tracer:
        tracer.uninstall()
        layers = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        layers["cli.report_lines"] = {"value": sum(t.count("\n") for t in texts),
                                      "unit": "count"}
        layers["cli.report_bytes"] = {"value": sum(len(t.encode()) for t in texts),
                                      "unit": "B"}
        out["layers"] = layers
        # one more check in a traced pass: every wrapper was removed again
        out["restored"] = tracer.restored()
        out["checks"] += 1
        out["failed"] += not out["restored"]
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": tracer.spans}))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
