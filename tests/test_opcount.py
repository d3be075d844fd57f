"""tools/opcount.py counts the bytecodes and calls of a traced callable,
per function, the same on every run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

OPCOUNT = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def _opcount():
    spec = importlib.util.spec_from_file_location("opcount", OPCOUNT)
    opcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcount)
    return opcount


def _square(x):
    return x * x


def _sum_of_squares(n):
    return sum(_square(i) for i in range(n))


def test_counts_a_small_callable_per_function():
    opcount = _opcount()
    out, counts = opcount.count(_sum_of_squares, 5)
    assert out == 30
    rows = {code.co_name: row for code, row in counts.items()}
    # one call of each function, and one more call event of the generator
    # at each of its 5 resumptions and its exhaustion
    assert rows["_sum_of_squares"][1] == 1 and rows["_square"][1] == 5
    assert rows["<genexpr>"][1] == 6
    assert all(ops > 0 for ops, _ in counts.values())
    # the counts repeat exactly
    assert opcount.count(_sum_of_squares, 5)[1] == counts
    assert opcount.count(_sum_of_squares, 6)[1][_square.__code__][0] > rows["_square"][0]
    name = opcount.function_name(_square.__code__)
    assert name == f"tests/test_opcount.py:{_square.__code__.co_firstlineno}:_square"
    # summed per source file: all three functions live in this one
    assert opcount.totals(counts, opcount.source_file) == {"tests/test_opcount.py": {
        "bytecodes": sum(ops for ops, _ in counts.values()),
        "calls": sum(calls for _, calls in counts.values())}}
    assert opcount.totals(counts, opcount.function_name)[name] == {
        "bytecodes": rows["_square"][0], "calls": 5}


def test_counts_one_verdict_of_a_workload_the_same_twice():
    # the tool end to end, one JSON line per workload in the order named,
    # each counted in a fresh interpreter as it is run (the package's
    # caches would make a second run in one process cheaper): every report
    # digest matched, and the same counts for eval-optic-prod both times
    proc = subprocess.run([sys.executable, str(OPCOUNT), "eval-optic-prod", "lens-meet",
                           "eval-optic-prod"],
                          capture_output=True, text=True, timeout=240, check=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["workload"] for row in rows] == ["eval-optic-prod", "lens-meet",
                                                 "eval-optic-prod"]
    first, _, second = rows
    assert all(row["failed"] == 0 and row["bytecodes"] > 0 and row["calls"] > 0
               for row in rows)
    # the per-file and the per-function rows each add up to the totals
    for row in rows:
        for field in ("modules", "functions"):
            for total in ("bytecodes", "calls"):
                assert sum(r[total] for r in row[field].values()) == row[total]
    assert first["modules"]["src/coendcheck/profunctor.py"]["bytecodes"] > 0
    assert second == first


def test_refuses_an_unknown_workload_before_counting_any():
    proc = subprocess.run([sys.executable, str(OPCOUNT), "lens-meet", "no-such-workload"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: opcount.py WORKLOAD [WORKLOAD ...]")
