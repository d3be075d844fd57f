"""tools/opcount.py counts the bytecodes and calls of a traced callable,
per function, the same on every run."""

import importlib.util
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
