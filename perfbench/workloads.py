"""The benchmark's workloads: set-up and verdict for one pass, and the
checks on its output.

Each workload drives the public API the way the command line does:
`check` workloads follow `cli.cmd_check` (parse the packaged derivation
and its shapes, load the fixtures, build the `Env`, then
`check_derivation`), `eval` calls `cli.cmd_eval` itself because its class
rendering lives there, and `demos` calls `demos.run_demo` once per
shipped demo.

Nothing here imports coendcheck at module level: the pass times the
package import as part of set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "coendcheck" / "data"
SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]


def sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def checks_per_pass(name):
    """Checks one pass makes: the verdict and the report digest of every
    report, plus one independent-oracle comparison per assignment."""
    spec = WORKLOADS[name]
    if spec["kind"] == "demos":
        return 2 * len(spec["digests"])
    return 2 + (spec["assignments"] if spec.get("oracle") else 0)


def _fixture_path(fx):
    return str(DATA / "fixtures" / f"{fx}.json")


def setup(name, seed):
    """Everything up to the first checker call.  Returns the verdict as a
    list of (report label, job); a job returns (verdict ok, report text)."""
    spec = WORKLOADS[name]
    if spec["kind"] == "check":
        from coendcheck import Env, check_derivation, load_fixture_file
        from coendcheck.demos import load_scripts
        sig, script = load_scripts(spec["script"])
        bindings = {}
        for sym, fx in spec["bind"].items():
            cat, mon = load_fixture_file(_fixture_path(fx))
            bindings[sym] = mon if mon is not None else cat
        env = Env(sig, bindings)

        def check():
            report = check_derivation(script, sig, env)
            return report.ok, report.text()
        return [(name, check)]

    if spec["kind"] == "eval":
        from coendcheck import cli
        args = argparse.Namespace(
            script=str(DATA / "demos" / spec["script"]), shape=spec["shape"],
            bind=[f"{sym}={_fixture_path(fx)}" for sym, fx in spec["bind"].items()],
            format="text", fail_fast=False)

        def evaluate():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.cmd_eval(args)
            return code == cli.EXIT_OK, out.getvalue()
        return [(name, evaluate)]

    from coendcheck.demos import DEMOS, run_demo
    from coendcheck.fixtures import fixture
    for demo in DEMOS.values():
        for binding in demo["bindings"]:
            for fx in binding.values():
                fixture(fx)
    order = sorted(spec["digests"])
    random.Random(seed).shuffle(order)

    def demo_job(demo):
        def job():
            report = run_demo(demo)
            return report.ok, report.text()
        return job
    return [(demo, demo_job(demo)) for demo in order]


def run_verdict(jobs):
    """Run every job; a job that raises yields (label, False, None) and
    does not stop the others."""
    out = []
    for label, job in jobs:
        try:
            ok, text = job()
        except Exception as e:  # noqa: BLE001 - a crash is a failed check, not a stopped run
            print(f"perfbench: {label}: {type(e).__name__}: {e}", file=sys.stderr)
            ok, text = False, None
        out.append((label, ok, text))
    return out


def count_failed(name, results):
    """Failed checks among checks_per_pass(name): a wrong verdict, a report
    digest other than the recorded one, an independent-oracle miss, or a
    report that an exception (or its absence) kept from being made."""
    spec = WORKLOADS[name]
    digests = spec["digests"] if spec["kind"] == "demos" else {name: spec["digest"]}
    texts = {label: (ok, text) for label, ok, text in results}
    failed = 0
    for label, digest in digests.items():
        ok, text = texts.get(label, (False, None))
        failed += (not ok) + (text is None or sha1(text) != digest)
        if spec.get("oracle"):
            failed += oracle_misses(spec, text or "")
    return failed


STEP_RE = re.compile(r"^  step (\d+) (\S+) ok: classes (\d+) -> (\d+)")


def oracle_misses(spec, text):
    """Compare the class count after the last step of every assignment with
    |C(A,X)| * |C(A(x)Y,B)|, computed straight from the fixture JSON."""
    fx = json.loads(Path(_fixture_path(spec["bind"]["C"])).read_text())
    homs = {k: len(v) for k, v in fx["homs"].items()}
    tensor = {tuple(k.split(",")): v for k, v in fx["monoidal"]["tensor_obj"].items()}
    want = {}
    for a, b, x, y in itertools.product(fx["objects"], repeat=4):
        key = f"A={a} B={b} X={x} Y={y}"
        want[key] = homs.get(f"{a}->{x}", 0) * homs.get(f"{tensor[(a, y)]}->{b}", 0)
    got, current = {}, None
    last_step = str(spec["oracle"]["step"])
    for line in text.splitlines():
        if line.startswith("assignment: "):
            current = line[len("assignment: "):]
            continue
        m = STEP_RE.match(line)
        if m and m.group(1) == last_step and m.group(2) == spec["oracle"]["rule"]:
            got[current] = int(m.group(4))
    return sum(got.get(key) != n for key, n in want.items())
