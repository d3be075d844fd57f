#!/usr/bin/env python3
"""Count the bytecodes and Python calls of one verdict of a benchmark
workload, per function; prints one JSON line.

    python3 tools/opcount.py WORKLOAD

The workload is set up and run as perfbench/one_pass.py runs it (seed
SEED), and only its verdict is counted, under `sys.settrace` with opcode
events on.  Unlike a wall-clock time, the counts repeat exactly from run
to run, so they resolve a change of a few percent on a noisy host.  A
call is a trace `call` event: a generator counts once more at each
resumption.  Tracing makes the verdict some 20 times slower.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SEED = 0


def count(fn, *args):
    """Run fn(*args) under the tracer; returns (its result, {code object:
    [bytecodes, calls]}) for every Python frame it ran."""
    counts = defaultdict(lambda: [0, 0])

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code][0] += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        counts[frame.f_code][1] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        out = fn(*args)
    finally:
        sys.settrace(previous)
    return out, counts


def function_name(code):
    path = os.path.relpath(code.co_filename, ROOT)
    return f"{path}:{code.co_firstlineno}:{getattr(code, 'co_qualname', code.co_name)}"


def main(argv):
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import workloads
    if len(argv) != 1 or argv[0] not in workloads.WORKLOADS:
        sys.exit(f"usage: opcount.py WORKLOAD, one of {', '.join(sorted(workloads.WORKLOADS))}")
    name = argv[0]
    jobs = workloads.setup(name, SEED)
    results, counts = count(workloads.run_verdict, jobs)
    per_function = defaultdict(lambda: {"bytecodes": 0, "calls": 0})
    for code, (ops, calls) in counts.items():
        row = per_function[function_name(code)]
        row["bytecodes"] += ops
        row["calls"] += calls
    print(json.dumps({
        "workload": name, "seed": SEED,
        "failed": workloads.count_failed(name, results),
        "bytecodes": sum(ops for ops, _ in counts.values()),
        "calls": sum(calls for _, calls in counts.values()),
        "functions": dict(sorted(per_function.items(), key=lambda kv: -kv[1]["bytecodes"])),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
