"""The benchmark's tracer wraps package names from outside the package;
installing and removing it here catches a rename before a traced run, and
a traced demo catches a call that goes around a wrapped name."""

import functools
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_restores():
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert tracer.restored()


def test_traced_points_demo_reaches_every_wrapped_layer():
    # the points demo applies and checks steps, builds points and asserts
    # their equality: a checker that called around a wrapped name (the
    # private point builder in place of from_names, say) would leave that
    # layer's counter at 0
    from coendcheck import demos
    tracer = _tracer()
    try:
        tracer.install()
        report = demos.run_demo("points")
    finally:
        tracer.uninstall()
    assert tracer.restored() and report.ok
    metrics = tracer.metrics()
    for name in ("rewrite.apply_step_calls", "rewrite.transport_calls",
                 "rewrite.check_step_calls", "pointed.points_built",
                 "pointed.asserts", "shapelang.assignment_ms.count",
                 "profunctor.coends_built", "profunctor.coend_index_elems",
                 "profunctor.act_calls", "profunctor.classify_calls"):
        assert metrics[name][0] > 0, name


def test_traced_coends_built_counts_every_coend(monkeypatch):
    # every composite coend is a CoendSet: _coend builds one inside a
    # support, and empty_coend builds the one empty coend of a middle
    # category on its first read, so the tracer's count is the sum of the
    # two; a fresh empty_coend cache makes the count the same whichever
    # tests ran before in the process
    from coendcheck import demos, fixtures, profunctor
    built, empties = [], []
    real = profunctor.ComposedProf._coend
    real_empty = profunctor.empty_coend.__wrapped__

    def spy(comp, a, c):
        built.append((a, c))
        return real(comp, a, c)

    @functools.cache
    def empty_spy(cat):
        empties.append(cat)
        return real_empty(cat)
    monkeypatch.setattr(profunctor.ComposedProf, "_coend", spy)
    monkeypatch.setattr(profunctor, "empty_coend", empty_spy)
    c = fixtures.build("meet-lattice-2").base
    lo, hi = c.obj_id("0"), c.obj_id("1")
    tracer = _tracer()
    try:
        tracer.install()
        report = demos.run_demo("lens_reduction")
        # C(1, -) x C(-, 0) is empty: two composites share one empty coend
        for _ in range(2):
            comp = profunctor.ComposedProf(profunctor.hom_prof(c), profunctor.hom_prof(c))
            assert comp.coend_at(hi, lo).index == ()
    finally:
        tracer.uninstall()
    assert tracer.restored() and report.ok
    assert len(built) > 0 and empties == [c]
    assert tracer.metrics()["profunctor.coends_built"][0] == len(built) + len(empties)
