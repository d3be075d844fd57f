"""The shipped demo registry: each demo is a shape script and a derivation
script checked end to end over named fixture bindings, with a per-demo
confirmation pass (count formulas and composite-map bijections)."""

from __future__ import annotations

from importlib import resources

# rewrite first: compiling it is the package's largest transient at import,
# and the less of the package is resident then, the lower a run's peak memory
from .rewrite import _count, check_assignments, load_derivation_script
from . import optics
from .fixtures import fixture
from .shapelang import CheckAborted, Env, Report


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
    whether the composite is a bijection: injective into the target fiber
    at every source fiber, with as many classes on both sides.  The first
    map's keys are the source's non-empty fibers and all their classes."""
    dst = ev.node(terms[-1])
    n_src, n_dst = _count(ev.node(terms[0])), _count(dst)
    bij = n_src == n_dst
    for fiber, fmap in (maps[0].items() if maps else ()):
        image = set()
        for v in fmap:
            for fwd in maps:
                v = fwd[fiber][v]
            image.add(v)
        bij = bij and len(image) == len(fmap) and image <= set(dst.fiber(*fiber))
    desc = ev.env.describe_objs()
    tag = "bijection" if bij else "map"
    report.line(f"  composite {tag}: {n_src} -> {n_dst} classes"
                f"{' for ' + desc if desc else ''} [{label}]")
    return bij


def _confirm(text, want, label=None, first=False):
    """A demo's confirmation pass, run after its main derivation checks at
    an assignment: the class count of the last term (the first, if
    `first`) must be want(C, mon, objs) for the bound category C, its
    monoidal structure and the object assignment, and with a `label` the
    composed class maps must be a bijection, reported under that label."""
    def epilogue(report, ev, terms, maps):
        env = ev.env
        n = want(env.cats["C"], env.monoidal("C"), env.objs)
        got = _count(ev.node(terms[0 if first else -1]))
        ok = _composite_bijection(report, ev, terms, maps, label) if label else True
        line = f"{text} = {n} at {env.describe_objs()}"
        if ok and got == n:
            report.line("  confirmed: " + line)
        else:
            report.fail("expected: " + line)
    return epilogue


DEMOS = {
    "lens_reduction": {
        "script": "lens_reduction.deriv",
        "bindings": [{"C": "meet-lattice-2"}],
        "epilogue": _confirm(
            "|pairs| = |C(A,X)|*|C(A(x)Y,B)|",
            lambda C, mon, o: (len(C.hom(o["A"], o["X"]))
                               * len(C.hom(mon.tensor(o["A"], o["Y"]), o["B"]))),
            "view/update pair"),
        "blurb": "cartesian lenses are view/update pairs",
    },
    "prism_reduction": {
        "script": "prism_reduction.deriv",
        "bindings": [{"C": "join-lattice-2"}],
        "epilogue": _confirm(
            "|pairs| = |C(Y,B)|*|C(A,B(+)X)|",
            lambda C, mon, o: (len(C.hom(o["Y"], o["B"]))
                               * len(C.hom(o["A"], mon.tensor(o["B"], o["X"])))),
            "match/build pair"),
        "blurb": "cocartesian lenses are match/build pairs",
    },
    "lens_apply": {
        "script": "lens_apply.deriv",
        "bindings": [{"C": "meet-lattice-2"}, {"C": "prod-l2-z2"}],
        "epilogue": _confirm(
            "final classes = |C(A,B)|",
            lambda C, mon, o: len(C.hom(o["A"], o["B"]))),
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
        "epilogue": _confirm(
            "feedback classes",
            lambda C, mon, o: optics.feedback_set(mon, o["X"], o["Y"]).class_count,
            first=True),
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
        "epilogue": _confirm(
            "final classes = |triples|",
            lambda C, mon, o: optics.learner_triples(mon, o["A"], o["B"]).class_count,
            "triple reduction"),
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
