"""Every optics operation factors through its shipped derivation script:
the direct class-level implementation and the script's composed semantic
map agree pointwise, checked by transporting points through the scripts."""

import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coendcheck.demos import DEMOS, _confirm, load_scripts, run_demo
from coendcheck.fixtures import build, fixture
from coendcheck.optics import (apply_lens, compose_optic,
                               compose_optic_crossed, learner_reduce,
                               learner_set, learner_triples, lens_set,
                               lens_to_feedback, lens_to_pair,
                               lenses_to_learner, prism_to_pair)
from coendcheck.pointed import OpenDiagram, lift_many
from coendcheck.fincat import split_obj
from coendcheck.rewrite import (Report, _count, check_derivation_once,
                                script_object_symbols, strip_labels)
from coendcheck.shapelang import Env, Evaluator, sweep


ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.json"
DEMO_DIGESTS = json.loads(WORKLOADS.read_text())["workloads"]["demos"]["digests"]
EXAMPLES = sorted((ROOT / "demos").glob("0[1-6]_*.py"))


def test_six_example_scripts():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_script_runs_clean(script):
    # a fresh interpreter, importing the package from this checkout
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs_clean(name):
    report = run_demo(name)
    assert report.ok, report.text()
    # the report bytes are pinned by the benchmark's recorded digests
    assert hashlib.sha1(report.text().encode("utf-8")).hexdigest() == DEMO_DIGESTS[name]


@functools.cache
def _floor_python():
    """The interpreter of the requires-python floor that starts: the one
    on PATH, or else the one pyenv has installed, since pyenv's shim on
    PATH does not start a version that is not active."""
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"',
                      (ROOT / "pyproject.toml").read_text()).group(1)
    exes = [shutil.which(f"python{floor}")]
    if shutil.which("pyenv"):
        prefix = subprocess.run(["pyenv", "prefix", floor], capture_output=True, text=True)
        if prefix.returncode == 0:
            exes.append(os.path.join(prefix.stdout.strip(), "bin", f"python{floor}"))
    for exe in filter(None, exes):
        if os.path.isfile(exe) and subprocess.run([exe, "-c", ""],
                                                  capture_output=True).returncode == 0:
            return exe
    return None


@pytest.mark.skipif(_floor_python() is None,
                    reason="no interpreter of the requires-python floor starts")
def test_demo_runs_under_the_oldest_supported_python():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([_floor_python(), "-m", "coendcheck.cli", "demo", "points"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == run_demo("points").text()


def _checked_main(name, pick=lambda ev, terms, maps: any(maps[-1].values())):
    """(evaluator, terms, maps) of a demo's main derivation at the first
    assignment of its first binding that `pick` accepts; by default, one
    where its last class map is not empty."""
    spec = DEMOS[name]
    sig, script = load_scripts(spec["script"])
    env = Env(sig, {sym: fixture(fx) for sym, fx in spec["bindings"][0].items()})
    for ev in sweep(env, script_object_symbols(script, sig)):
        terms, maps = check_derivation_once(script.main, ev, Report())
        if pick(ev, terms, maps):
            return ev, terms, maps


@pytest.mark.parametrize("name", ["lens_reduction", "prism_reduction", "learner_reduction"])
def test_confirmation_fails_on_a_composite_that_is_not_a_bijection(name):
    ev, terms, maps = _checked_main(name)
    ok = Report()
    DEMOS[name]["epilogue"](ok, ev, terms, maps)
    assert ok.ok and ok.lines[0].startswith("  composite bijection: ")
    confirmed = ok.lines[1].removeprefix("  confirmed: ")
    # the last map sends one fiber's classes outside the target fiber
    fiber, fmap = next((f, m) for f, m in maps[-1].items() if m)
    bad = Report()
    DEMOS[name]["epilogue"](bad, ev, terms,
                            maps[:-1] + [{**maps[-1], fiber: dict.fromkeys(fmap, None)}])
    assert bad.lines[0] == ok.lines[0].replace("composite bijection", "composite map")
    assert bad.failures == ["expected: " + confirmed]
    # a derivation of no steps composes to the identity
    none = Report()
    DEMOS[name]["epilogue"](none, ev, terms[:1], [])
    assert none.lines[0].startswith("  composite bijection: ")


def test_confirmation_fails_on_a_wrong_count():
    ev, terms, maps = _checked_main("lens_apply")
    report = Report()
    _confirm("no classes", lambda C, mon, objs: -1)(report, ev, terms, maps)
    assert report.failures == [f"expected: no classes = -1 at {ev.env.describe_objs()}"]
    assert report.lines == ["FAIL " + report.failures[0]]


def test_fail_fast_demo_stops_at_its_first_failed_epilogue(monkeypatch):
    # lens_apply checks over two oracles; the report stops at the first
    # assignment's failed confirmation and still ends in its result line
    monkeypatch.setitem(DEMOS["lens_apply"], "epilogue",
                        _confirm("no classes", lambda C, mon, objs: -1))
    report = run_demo("lens_apply", fail_fast=True)
    assert len(report.failures) == 1 and report.failures[0].startswith("expected: no classes")
    assert report.lines[-2:] == ["FAIL " + report.failures[0], "result: FAILURE"]
    assert sum(line.startswith("oracle ") for line in report.lines) == 1


def test_confirmation_counts_the_first_term_when_asked():
    # lens_apply plugs a lens of no class into an arrow of one class at
    # some assignments
    def counts(ev, terms):
        return [_count(ev.node(t)) for t in (terms[0], terms[-1])]
    ev, terms, maps = _checked_main("lens_apply", lambda ev, terms, maps:
                                    len(set(counts(ev, terms))) == 2)
    for first, n in zip((True, False), counts(ev, terms)):
        report = Report()
        _confirm("classes", lambda C, mon, objs: n, first=first)(report, ev, terms, maps)
        assert report.ok, report.text()


def _ids(c, *objs):
    return [c.identity(o) for o in objs]


def _lens_assignment(mon, lens, x):
    c = mon.base
    return {"g": lens.fwd,
            "s": (c.identity(mon.tensor(lens.residual, x)), (lens.residual, x)),
            "f": lens.bwd}


def test_lens_reduction_script_computes_lens_to_pair():
    sig, script = load_scripts("lens_reduction.deriv")
    mon = build("meet-lattice-2")
    c = mon.base
    steps = script.main.steps
    for a, b, x, y in itertools.product(c.objects, repeat=4):
        env = Env(sig, {"C": mon}, objs={"A": a, "B": b, "X": x, "Y": y})
        ev = Evaluator(env)
        space = lens_set(mon, a, b, x, y)
        for lens in space.all():
            d = OpenDiagram.from_values(ev, sig.shapes["lens"],
                                        _lens_assignment(mon, lens, x))
            out = lift_many(steps, d, ev)
            view, update = lens_to_pair(lens, mon)
            expected = OpenDiagram.from_values(
                ev, sig.shapes["lens-pair"],
                {"p1": view, "p3": update})
            assert strip_labels(out.shape) == strip_labels(expected.shape)
            assert out.point == expected.point


def test_prism_reduction_script_computes_prism_to_pair():
    sig, script = load_scripts("prism_reduction.deriv")
    mon = build("join-lattice-2")
    c = mon.base
    steps = script.main.steps
    for a, b, x, y in itertools.product(c.objects, repeat=4):
        env = Env(sig, {"C": mon}, objs={"A": a, "B": b, "X": x, "Y": y})
        ev = Evaluator(env)
        space = lens_set(mon, a, b, x, y)
        for prism in space.all():
            d = OpenDiagram.from_values(ev, sig.shapes["lens"],
                                        _lens_assignment(mon, prism, x))
            out = lift_many(steps, d, ev)
            match, bld = prism_to_pair(prism, mon)
            expected = OpenDiagram.from_values(
                ev, sig.shapes["prism-pair"],
                {"p1": match, "p3": bld})
            assert strip_labels(out.shape) == strip_labels(expected.shape)
            assert out.point == expected.point


def test_lens_apply_script_computes_apply_lens():
    sig, script = load_scripts("lens_apply.deriv")
    steps = script.main.steps
    for name in ("meet-lattice-2", "prod-l2-z2", "z2"):
        mon = build(name)
        c = mon.base
        for a, b, x, y in itertools.product(c.objects, repeat=4):
            env = Env(sig, {"C": mon}, objs={"A": a, "B": b, "X": x, "Y": y})
            ev = Evaluator(env)
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                for h in c.hom(x, y):
                    assignment = _lens_assignment(mon, lens, x)
                    assignment["h1"] = h
                    d = OpenDiagram.from_values(
                        ev, sig.shapes["lens-applied"], assignment)
                    out = lift_many(steps, d, ev)
                    m, g, f = out.point
                    assert c.compose(g, f) == apply_lens(lens, h, mon)


def test_optic_category_script_computes_compose_optic():
    sig, script = load_scripts("optic_category.deriv")
    steps = script.main.steps
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        c = mon.base
        objs = list(c.objects)
        for a, b, x, y, u, v in itertools.product(objs, repeat=6):
            env = Env(sig, {"C": mon},
                      objs=dict(zip("ABXYUV", (a, b, x, y, u, v))))
            ev = Evaluator(env)
            s1 = lens_set(mon, a, b, x, y)
            s2 = lens_set(mon, x, y, u, v)
            for l1 in s1.all():
                for l2 in s2.all():
                    assignment = {
                        "g1": l1.fwd,
                        "s1": (c.identity(mon.tensor(l1.residual, x)),
                               (l1.residual, x)),
                        "y1": c.identity(y), "j1": None, "f1": l1.bwd,
                        "g2": l2.fwd,
                        "s2": (c.identity(mon.tensor(l2.residual, u)),
                               (l2.residual, u)),
                        "v2": c.identity(v), "j2": None, "y2": l2.bwd,
                    }
                    assignment = {k: w for k, w in assignment.items()
                                  if w is not None}
                    d = OpenDiagram.from_values(
                        ev, sig.shapes["lens-composite"], assignment)
                    out = lift_many(steps, d, ev)
                    comp = compose_optic(l1, l2, mon)
                    # the composite lens written on the reduced shape
                    m, n = l1.residual, l2.residual
                    expected = OpenDiagram.from_values(
                        ev, sig.shapes["composite-reduced"],
                        {"g1": comp.fwd,
                         "s1": (c.identity(mon.tensor(mon.tensor(m, n), u)),
                                (m, mon.tensor(n, u))),
                         "s2": (c.identity(mon.tensor(n, u)), (n, u)),
                         "f1": comp.bwd})
                    assert strip_labels(out.shape) == strip_labels(expected.shape)
                    assert out.point == expected.point


def test_optic_crossed_script_computes_crossed_composition():
    sig, script = load_scripts("optic_crossed.deriv")
    steps = script.main.steps
    mon = build("z2")
    c = mon.base
    env = Env(sig, {"C": mon}, objs={k: 0 for k in "ABXYUV"})
    ev = Evaluator(env)
    s1 = lens_set(mon, 0, 0, 0, 0)
    for l1 in s1.all():
        for l2 in s1.all():
            m, n = l1.residual, l2.residual
            assignment = {
                "g1": l1.fwd,
                "s1": (c.identity(mon.tensor(m, 0)), (m, 0)),
                "s2": (c.identity(mon.tensor(n, 0)), (n, 0)),
                "j1": None, "yo": l1.bwd, "yi": c.identity(0),
                "uo": c.identity(0), "vi": c.identity(0),
                "f2": l2.bwd,
            }
            assignment = {k: w for k, w in assignment.items() if w is not None}
            d = OpenDiagram.from_values(ev, sig.shapes["crossed"], assignment)
            out = lift_many(steps, d, ev)
            comp = compose_optic_crossed(l1, l2, mon)
            mn = mon.tensor(m, n)
            expected = OpenDiagram.from_values(
                ev, sig.shapes["crossed-reduced"],
                {"g1": comp.fwd,
                 "s1": (c.identity(mon.tensor(mn, 0)), (m, mon.tensor(n, 0))),
                 "s2": (c.identity(mon.tensor(n, 0)), (n, 0)),
                 "f2": c.compose(mon.tensor_m(mon.braid(n, m), c.identity(0)),
                                 comp.bwd)})
            assert strip_labels(out.shape) == strip_labels(expected.shape)
            assert out.point == expected.point


def test_lens_to_dynamics_script_computes_lens_to_feedback():
    sig, script = load_scripts("lens_to_dynamics.deriv")
    steps = script.main.steps
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        c = mon.base
        for a, x, y in itertools.product(c.objects, repeat=3):
            env = Env(sig, {"C": mon}, objs={"A": a, "X": x, "Y": y})
            ev = Evaluator(env)
            space = lens_set(mon, a, a, x, y)
            for lens in space.all():
                m = lens.residual
                d = OpenDiagram.from_values(
                    ev, sig.shapes["dynamics"],
                    {"st": c.identity(m), "yi": c.identity(y),
                     "j": c.identity(mon.tensor(m, y)),
                     "fo": lens.bwd, "gi": lens.fwd,
                     "s": (c.identity(mon.tensor(m, x)), (m, x)),
                     "xo": c.identity(x)})
                out = lift_many(steps, d, ev)
                fm, fh = lens_to_feedback(lens, mon)
                expected = OpenDiagram.from_values(
                    ev, sig.shapes["dynamics-reduced"],
                    {"st": c.identity(fm), "yi": c.identity(y),
                     "j": c.identity(mon.tensor(fm, y)),
                     "s": (fh, (fm, x)), "xo": c.identity(x)})
                assert strip_labels(out.shape) == strip_labels(expected.shape)
                assert out.point == expected.point


def _learner_assignment(mon, p, q, h1, h2, a, b):
    c = mon.base
    return {"cp": c.identity(p), "a1": c.identity(a),
            "j1": c.identity(mon.tensor(p, a)), "s1": (h1, (q, b)),
            "b1": c.identity(b), "cq": c.identity(q), "cuq": c.identity(q),
            "a2": c.identity(b), "j2": c.identity(mon.tensor(q, b)),
            "s2": (h2, (p, a)), "b2": c.identity(a), "cu": c.identity(p)}


def test_learner_reduction_script_computes_learner_reduce():
    sig, script = load_scripts("learner_reduction.deriv")
    steps = script.main.steps
    mon = build("meet-lattice-2")
    c = mon.base
    for a, b in itertools.product(c.objects, repeat=2):
        env = Env(sig, {"C": mon}, objs={"A": a, "B": b})
        ev = Evaluator(env)
        ls = learner_set(mon, a, b)
        ts = learner_triples(mon, a, b)
        for (s, (h1, h2)) in ls.coend.reps:
            p, q = split_obj(c, s)
            d = OpenDiagram.from_values(
                ev, sig.shapes["learner"],
                _learner_assignment(mon, p, q, h1, h2, a, b))
            out = lift_many(steps, d, ev)
            tp, (ti, tr, tu) = learner_reduce(mon, a, b, (s, (h1, h2)), ts)
            pa = mon.tensor(tp, a)
            expected = OpenDiagram.from_values(
                ev, sig.shapes["learner-reduced"],
                {"cp": c.identity(tp), "a1": c.identity(a),
                 "j1": c.identity(pa), "s1": (c.identity(pa), ti),
                 "b1": c.identity(b), "a2": c.identity(b),
                 "j2": c.identity(mon.tensor(pa, b)),
                 "s2": (tu, tr), "b2": c.identity(a),
                 "cu": c.identity(tp)})
            assert strip_labels(out.shape) == strip_labels(expected.shape)
            assert out.point == expected.point


def test_lenses_to_learner_script_computes_the_operation():
    sig, script = load_scripts("lenses_to_learner.deriv")
    steps = script.main.steps
    for name in ("meet-lattice-2", "z2"):
        mon = build(name)
        c = mon.base
        objs = list(c.objects)
        for u, v, a, b in itertools.product(objs, repeat=4):
            env = Env(sig, {"C": mon},
                      objs={"A": a, "B": b, "U": u, "V": v})
            ev = Evaluator(env)
            s1 = lens_set(mon, u, v, a, a)
            s2 = lens_set(mon, v, u, b, b)
            ls = learner_set(mon, a, b)
            for l1 in s1.all():
                for l2 in s2.all():
                    m, n = l1.residual, l2.residual
                    d = OpenDiagram.from_values(
                        ev, sig.shapes["learner-from-lenses"],
                        {"cp": c.identity(m), "a1": c.identity(a),
                         "j1": c.identity(mon.tensor(m, a)),
                         "vo": l1.bwd, "vi": c.identity(v),
                         "s1": (l2.fwd, (n, b)), "b1": c.identity(b),
                         "cq": c.identity(n), "cuq": c.identity(n),
                         "a2": c.identity(b),
                         "j2": c.identity(mon.tensor(n, b)),
                         "uo": l2.bwd, "ui": c.identity(u),
                         "s2": (l1.fwd, (m, a)), "b2": c.identity(a),
                         "cu": c.identity(m)})
                    out = lift_many(steps, d, ev)
                    (s, (h1, h2)) = lenses_to_learner(l1, l2, mon, ls)
                    lp, lq = split_obj(c, s)
                    expected = OpenDiagram.from_values(
                        ev, sig.shapes["learner"],
                        _learner_assignment(mon, lp, lq, h1, h2, a, b))
                    assert strip_labels(out.shape) == strip_labels(expected.shape)
                    assert out.point == expected.point


def test_learner_shape_eval_matches_direct_formula():
    sig, _ = load_scripts("learner_reduction.deriv")
    from coendcheck.shapelang import class_count
    for name in ("meet-lattice-2", "z2"):
        mon = build(name)
        c = mon.base
        for a, b in itertools.product(c.objects, repeat=2):
            env = Env(sig, {"C": mon}, objs={"A": a, "B": b,
                                             "U": 0, "V": 0})
            got = class_count(sig.shapes["learner"], env)
            assert got == learner_set(mon, a, b).class_count, (name, a, b)


def test_lens_reduction_demo_prints_16_confirmations():
    report = run_demo("lens_reduction")
    assert report.ok
    confirms = [l for l in report.lines if l.startswith("  confirmed:")]
    assert len(confirms) == 16


def test_validate_prof_flags_unlawful_action():
    from coendcheck import profunctor as pf
    c = build("z2").base
    bad_act = lambda f, g, v: 1 - v if f or g else v
    bad = pf.ConcreteProf(c, c, lambda a, b: (0, 1), bad_act)
    assert pf.validate_prof(bad)
    assert pf.validate_prof(pf.hom_prof(c)) == []
