"""The shipped demo registry: each demo is a shape script and a derivation
script checked end to end over named fixture bindings, with a per-demo
confirmation pass (count formulas and composite-map bijections)."""

from __future__ import annotations

from importlib import resources

from .fixtures import fixture
from .rewrite import (CheckAborted, Report, _count, check_assignments,
                      load_derivation_script)
from .shapelang import Env


def demo_dir():
    return resources.files("coendcheck") / "data" / "demos"


def load_scripts(deriv_name):
    """Parse a packaged derivation script together with its shape script."""
    droot = demo_dir()
    return load_derivation_script(
        (droot / deriv_name).read_text(encoding="utf-8"),
        lambda ref: (droot / ref).read_text(encoding="utf-8"))


def _composite_bijection(report, ev, terms, maps, label):
    """Compose the per-step class maps of the main derivation and report
    whether the composite is a bijection at every fiber."""
    src = ev.node(terms[0])
    dst = ev.node(terms[-1])
    total = bij = True
    n_src = n_dst = 0
    for a in src.prof.source.objects:
        for b in src.prof.target.objects:
            image = []
            for rep in src.prof.fiber(a, b):
                v = rep
                for fwd in maps:
                    v = fwd[(a, b)][v]
                image.append(v)
            n_src += len(image)
            dstf = dst.prof.fiber(a, b)
            n_dst += len(dstf)
            if len(set(image)) != len(image) or set(image) != set(dstf):
                bij = False
    desc = ev.env.describe_objs()
    tag = "bijection" if bij else "map"
    report.line(f"  composite {tag}: {n_src} -> {n_dst} classes"
                f"{' for ' + desc if desc else ''} [{label}]")
    return bij


def _expect(report, cond, text):
    if cond:
        report.line("  confirmed: " + text)
    else:
        report.fail("expected: " + text)


def _epilogue_lens_reduction(report, ev, terms, maps):
    env = ev.env
    c = env.cats["C"]
    mon = env.monoidal("C")
    a, b = env.objs["A"], env.objs["B"]
    x, y = env.objs["X"], env.objs["Y"]
    want = len(c.hom(a, x)) * len(c.hom(mon.tensor(a, y), b))
    got = _count(ev.node(terms[-1]))
    ok = _composite_bijection(report, ev, terms, maps, "view/update pair")
    _expect(report, ok and got == want,
            f"|pairs| = |C(A,X)|*|C(A(x)Y,B)| = {want} at {env.describe_objs()}")


def _epilogue_prism_reduction(report, ev, terms, maps):
    env = ev.env
    c = env.cats["C"]
    mon = env.monoidal("C")
    a, b = env.objs["A"], env.objs["B"]
    x, y = env.objs["X"], env.objs["Y"]
    want = len(c.hom(y, b)) * len(c.hom(a, mon.tensor(b, x)))
    got = _count(ev.node(terms[-1]))
    ok = _composite_bijection(report, ev, terms, maps, "match/build pair")
    _expect(report, ok and got == want,
            f"|pairs| = |C(Y,B)|*|C(A,B(+)X)| = {want} at {env.describe_objs()}")


def _epilogue_lens_apply(report, ev, terms, maps):
    env = ev.env
    c = env.cats["C"]
    a, b = env.objs["A"], env.objs["B"]
    got = _count(ev.node(terms[-1]))
    _expect(report, got == len(c.hom(a, b)),
            f"final classes = |C(A,B)| = {len(c.hom(a, b))} at {env.describe_objs()}")


def _epilogue_learner_reduction(report, ev, terms, maps):
    from .optics import learner_triples
    env = ev.env
    mon = env.monoidal("C")
    a, b = env.objs["A"], env.objs["B"]
    want = learner_triples(mon, a, b).class_count
    got = _count(ev.node(terms[-1]))
    ok = _composite_bijection(report, ev, terms, maps, "triple reduction")
    _expect(report, ok and got == want,
            f"final classes = |triples| = {want} at {env.describe_objs()}")


def _epilogue_feedback(report, ev, terms, maps):
    from .optics import feedback_set
    env = ev.env
    mon = env.monoidal("C")
    x, y = env.objs["X"], env.objs["Y"]
    want = feedback_set(mon, x, y).class_count
    got = _count(ev.node(terms[0]))
    _expect(report, got == want,
            f"feedback classes = {want} at {env.describe_objs()}")


DEMOS = {
    "lens_reduction": {
        "script": "lens_reduction.deriv",
        "bindings": [{"C": "meet-lattice-2"}],
        "epilogue": _epilogue_lens_reduction,
        "blurb": "cartesian lenses are view/update pairs",
    },
    "prism_reduction": {
        "script": "prism_reduction.deriv",
        "bindings": [{"C": "join-lattice-2"}],
        "epilogue": _epilogue_prism_reduction,
        "blurb": "cocartesian lenses are match/build pairs",
    },
    "lens_apply": {
        "script": "lens_apply.deriv",
        "bindings": [{"C": "meet-lattice-2"}, {"C": "prod-l2-z2"}],
        "epilogue": _epilogue_lens_apply,
        "blurb": "plugging a morphism into a lens yields a morphism",
    },
    "optic_category": {
        "script": "optic_category.deriv",
        "bindings": [{"C": "z2"}, {"C": "meet-lattice-2"}],
        "blurb": "plugged optics contract to the composite optic",
    },
    "optic_crossed": {
        "script": "optic_crossed.deriv",
        "bindings": [{"C": "z2"}],
        "blurb": "the crossed composition and braid slides",
    },
    "feedback": {
        "script": "feedback.deriv",
        "bindings": [{"C": "z2"}, {"C": "meet-lattice-2"}],
        "epilogue": _epilogue_feedback,
        "blurb": "stateful processes modulo sliding the state",
    },
    "lens_to_dynamics": {
        "script": "lens_to_dynamics.deriv",
        "bindings": [{"C": "z2"}, {"C": "meet-lattice-2"}],
        "blurb": "a lens with matching types is a dynamical system",
    },
    "learner_reduction": {
        "script": "learner_reduction.deriv",
        "bindings": [{"C": "meet-lattice-2"}],
        "epilogue": _epilogue_learner_reduction,
        "blurb": "monoidal learners reduce to implement/request/update",
    },
    "lenses_to_learner": {
        "script": "lenses_to_learner.deriv",
        "bindings": [{"C": "meet-lattice-2"}, {"C": "z2"}],
        "blurb": "a pair of lenses defines a learner",
    },
    "adjunctions": {
        "script": "adjunctions.deriv",
        "bindings": [{"C": "meet-lattice-2", "D": "z2"}],
        "blurb": "all unit/counit triangles compose to the identity",
    },
    "points": {
        "script": "points.deriv",
        "bindings": [{"C": "z2"}],
        "blurb": "element tracking: sliding, unitors and embeddings",
    },
}


def run_demo(name, fail_fast=False) -> Report:
    spec = DEMOS[name]
    sig, script = load_scripts(spec["script"])
    report = Report(fail_fast)
    report.line(f"demo {name}: {spec['blurb']}")
    try:
        for binding in spec["bindings"]:
            mons = {sym: fixture(fx) for sym, fx in binding.items()}
            rendered = " ".join(f"{s}={f}" for s, f in sorted(binding.items()))
            report.line(f"oracle {rendered}")
            check_assignments(script, sig, Env(sig, mons), report,
                              spec.get("epilogue"))
    except CheckAborted:
        pass
    return report.finish()
