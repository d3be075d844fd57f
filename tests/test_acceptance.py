"""The acceptance gate: one test per criterion, each printing a pass line.

Everything here is exact (finite enumeration, no tolerances): the oracles
are explicit finite categories, so each property is checked on every
instance it quantifies over.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import itertools
import random

import pytest

from coendcheck.cli import main as cli_main
from coendcheck.demos import DEMOS, demo_dir, load_scripts, run_demo
from coendcheck.fincat import (load_fixture_file, terminal_category,
                               validate_category, validate_monoidal)
from coendcheck.fixtures import (FIXTURE_NAMES, bad_fixture_names,
                                 bad_fixture_path, build, fixture_path)
from coendcheck.optics import (Lens, apply_lens, compose_optic,
                               compose_optic_crossed, identity_optic,
                               learner_reduce, learner_set, learner_triples,
                               lens_set, lens_to_pair, lenses_to_learner,
                               pair_to_lens, pair_to_prism, prism_to_pair,
                               triple_to_learner)
from coendcheck.pointed import OpenDiagram, forget, lift
from coendcheck.profunctor import (ComposedProf, ConcreteProf, coend,
                                   companion, conjoint,
                                   copy_prof, cup_prof, cap_prof, hom_prof,
                                   merge_prof, point, swap_prof,
                                   tensor_functor)
from coendcheck.rewrite import (Derivation, Report, Step, apply_step,
                                check_derivation_once,
                                script_object_symbols)
from coendcheck.shapelang import Env, Evaluator, parse_shape_script


def constant_prof(c):
    """A profunctor 1 -> c with the fiber ("p0", "p1") at every object and
    trivial actions: functorial, but not representable."""
    return ConcreteProf(terminal_category(), c, lambda _, b: ("p0", "p1"), lambda _, g, v: v)


def value_key(v):
    """The flattened key of an element value: its leaves left to right,
    ints before strings (an order independent of the one CoendSet uses)."""
    if isinstance(v, tuple):
        return tuple(k for x in v for k in value_key(x))
    if isinstance(v, int):
        return ((0, v),)
    return ((1, str(v)),)


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def oracles():
    return {name: build(name) for name in FIXTURE_NAMES}


def shipped_profunctors(mon):
    c = mon.base
    tensor, unit = tensor_functor(mon), point(c, mon.unit)
    out = [hom_prof(c), companion(tensor), conjoint(tensor), companion(unit),
           conjoint(unit),
           copy_prof(c), merge_prof(c), swap_prof(c, c), cup_prof(c),
           cap_prof(c)]
    for a in c.objects:
        out.append(companion(point(c, a)))
        out.append(conjoint(point(c, a)))
    return out


def test_criterion_1_fixture_validity(oracles):
    for name in FIXTURE_NAMES:
        cat, mon = load_fixture_file(fixture_path(name))
        assert validate_category(cat).ok, name
        assert validate_monoidal(mon).ok, name
    bad = bad_fixture_names()
    assert len(bad) == 5
    for name in bad:
        cat, mon = load_fixture_file(bad_fixture_path(name))
        rep = validate_category(cat)
        if rep.ok:
            rep = validate_monoidal(mon)
        assert not rep.ok, name
    ok(1, "5 shipped fixtures validate; 5 mutated fixtures are rejected")


def test_criterion_2_yoneda_unitors(oracles):
    pairs = 0
    for name, mon in oracles.items():
        c = mon.base
        h = hom_prof(c)
        for p in shipped_profunctors(mon):
            if p.source is c:
                left = ComposedProf(h, p)
                for a in p.source.objects:
                    for b in p.target.objects:
                        image = [p.act(u, p.target.identity(b), w)
                                 for (m, u, w) in left.fiber(a, b)]
                        assert len(set(map(value_key, image))) == len(image)
                        assert sorted(map(value_key, image)) == \
                            sorted(map(value_key, p.fiber(a, b))), (name, p)
                        pairs += 1
            if p.target is c:
                right = ComposedProf(p, h)
                for a in p.source.objects:
                    for b in p.target.objects:
                        image = [p.act(p.source.identity(a), w, u)
                                 for (m, u, w) in right.fiber(a, b)]
                        assert len(set(map(value_key, image))) == len(image)
                        assert sorted(map(value_key, image)) == \
                            sorted(map(value_key, p.fiber(a, b))), (name, p)
                        pairs += 1
    ok(2, f"hom unitors are bijections at {pairs} object pairs across the "
          "shipped profunctors of every fixture")


def test_criterion_3_coend_oracle_sanity(oracles):
    from coendcheck.fincat import build_category
    objs = [f"o{i}" for i in range(4)]
    disc = build_category(
        "disc", objs, {(o, o): [f"id{o}"] for o in objs},
        {(f"id{o}", f"id{o}"): f"id{o}" for o in objs},
        {o: f"id{o}" for o in objs})
    assert coend(hom_prof(disc)).class_count == 4
    z2 = oracles["z2"].base
    assert coend(hom_prof(z2)).class_count == 2
    reference = coend(hom_prof(z2))
    ref_classes = {frozenset(reference.members(r)) for r in reference.reps}
    for seed in range(10):
        rng = random.Random(seed)

        def shuffled(a, b):
            ms = list(z2.hom(a, b))
            rng.shuffle(ms)
            return ms

        p = ConcreteProf(z2, z2, shuffled,
                         lambda f, g, v: z2.compose(f, z2.compose(v, g)))
        ce = coend(p)
        assert ce.class_count == 2
        assert {frozenset(ce.members(r)) for r in ce.reps} == ref_classes
    ok(3, "discrete coends are disjoint unions; hom over Z/2 has 2 classes; "
          "10 shuffled re-runs give identical quotients")


def test_criterion_4_lens_and_prism_counts(oracles):
    for name in ("meet-lattice-2", "diamond"):
        mon = build(name)
        c = mon.base
        for a, b, x, y in itertools.product(c.objects, repeat=4):
            space = lens_set(mon, a, b, x, y)
            expected = len(c.hom(a, x)) * len(c.hom(mon.tensor(a, y), b))
            assert space.class_count == expected, (name, a, b, x, y)
            for lens in space.all():
                v, w = lens_to_pair(lens, mon)
                assert pair_to_lens(mon, lens.typ, v, w) == lens
            for v in c.hom(a, x):
                for w in c.hom(mon.tensor(a, y), b):
                    lens = pair_to_lens(mon, space.typ, v, w)
                    assert lens_to_pair(lens, mon) == (v, w)
    mon = build("join-lattice-2")
    c = mon.base
    for a, b, x, y in itertools.product(c.objects, repeat=4):
        space = lens_set(mon, a, b, x, y)
        expected = len(c.hom(y, b)) * len(c.hom(a, mon.tensor(b, x)))
        assert space.class_count == expected
        for prism in space.all():
            m, bld = prism_to_pair(prism, mon)
            assert pair_to_prism(mon, prism.typ, m, bld) == prism
    ok(4, "lens counts factor as |C(A,X)|*|C(A(x)Y,B)| on both cartesian "
          "fixtures with round-trip bijections; dual prism counts hold")


def test_criterion_5_lens_apply_script(oracles):
    sig, script = load_scripts("lens_apply.deriv")
    steps = script.main.steps
    deriv = script.main
    for name in ("meet-lattice-2", "prod-l2-z2"):
        mon = build(name)
        c = mon.base
        env = Env(sig, {"C": mon})
        report = Report()
        used = script_object_symbols(script, sig)
        for env_a in env.assignments(only=used):
            assert check_derivation_once(deriv, Evaluator(env_a), report) is not None
        assert report.ok, report.text()
        # well-definedness and pointwise agreement with the script
        from coendcheck.pointed import lift_many
        for a, b, x, y in itertools.product(c.objects, repeat=4):
            env_a = Env(sig, {"C": mon}, objs={"A": a, "B": b, "X": x, "Y": y})
            ev = Evaluator(env_a)
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                for h in c.hom(x, y):
                    outs = {apply_lens(Lens(lens.typ, m, g, f), h, mon)
                            for (m, (g, f)) in space.members(lens)}
                    assert len(outs) == 1
                    d = OpenDiagram.from_values(
                        ev, sig.shapes["lens-applied"],
                        {"g": lens.fwd,
                         "s": (c.identity(mon.tensor(lens.residual, x)),
                               (lens.residual, x)),
                         "f": lens.bwd, "h1": h})
                    out = lift_many(steps, d, ev)
                    m_, g_, f_ = out.point
                    assert c.compose(g_, f_) == outs.pop()
    ok(5, "the 4-step composition script verifies end to end and agrees "
          "pointwise with apply_lens, which is class-independent")


def test_criterion_6_optic_category_laws(oracles):
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        objs = list(mon.base.objects)
        for a, b, x, y in itertools.product(objs, repeat=4):
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                assert compose_optic(identity_optic(mon, a, b), lens, mon) == lens
                assert compose_optic(lens, identity_optic(mon, x, y), mon) == lens
        for combo in itertools.product(objs, repeat=8):
            a, b, x, y, u, v, s, t = combo
            for l1 in lens_set(mon, a, b, x, y).all():
                for l2 in lens_set(mon, x, y, u, v).all():
                    c12 = compose_optic(l1, l2, mon)
                    for l3 in lens_set(mon, u, v, s, t).all():
                        assert compose_optic(c12, l3, mon) == \
                            compose_optic(l1, compose_optic(l2, l3, mon), mon)
    for name in ("z2", "meet-lattice-2", "prod-l2-z2"):
        mon = build(name)
        objs = list(mon.base.objects)
        for combo in itertools.product(objs, repeat=8):
            a, y, x, v, b, u, b2, u2 = combo
            for l1 in lens_set(mon, a, y, x, v).all():
                for l2 in lens_set(mon, x, b, u, y).all():
                    c12 = compose_optic_crossed(l1, l2, mon)
                    for l3 in lens_set(mon, u, b2, u2, b).all():
                        c23 = compose_optic_crossed(l2, l3, mon)
                        assert compose_optic_crossed(c12, l3, mon) == \
                            compose_optic_crossed(l1, c23, mon)
    ok(6, "optic unit and associativity laws hold on all composable triples; "
          "crossed associativity holds on all three symmetric fixtures")


def test_criterion_7_adjunction_zigzags(oracles):
    shapes = """
    (category C)
    (object A C)
    (shape in-leg (inport A))
    (shape out-leg (outport A))
    (shape junction-leg (junction C))
    (shape fork-leg (fork C))
    (shape port-pair (seq (inport A @pa) (outport A @pb)))
    (shape op-wire (id (op C) @w))
    """
    sig = parse_shape_script(shapes)
    triangles = [
        ("in-leg", [Step("R-ETA-A", (0,), inst={"A": "A"}),
                    Step("R-EPS-A", (1,))]),
        ("out-leg", [Step("R-ETA-A", (1,), inst={"A": "A"}),
                     Step("R-EPS-A", (0,))]),
        ("junction-leg", [Step("R-ETA-TENSOR", (0,)),
                          Step("R-EPS-TENSOR", (1,))]),
        ("fork-leg", [Step("R-ETA-TENSOR", (1,)),
                      Step("R-EPS-TENSOR", (0,))]),
        ("port-pair", [Step("R-ZIGZAG-CUP", (1,), backward=True),
                       Step("R-ZIGZAG-CUP", (1,))]),
        ("op-wire", [Step("R-ZIGZAG-CAP", (0,), backward=True),
                     Step("R-ZIGZAG-CAP", (0,))]),
    ]
    checked = 0
    for name in FIXTURE_NAMES:
        env = Env(sig, {"C": build(name)})
        for shape, steps in triangles:
            deriv = Derivation("t", shape, steps, [(1, 2)])
            report = Report()
            for env_a in env.assignments():
                assert check_derivation_once(deriv, Evaluator(env_a), report) \
                    is not None, (name, shape, report.text())
                checked += 1
            assert report.ok, (name, shape, report.text())
    # the functor adjunction triangle, between two different oracles
    report = run_demo("adjunctions")
    assert report.ok, report.text()
    assert "functor-triangle" in report.text()
    ok(7, f"{checked} unit/counit identity obligations verified across all "
          "fixtures, plus the functor adjunction triangle")


def test_criterion_8_point_lifting(oracles):
    lifted = 0
    for name, spec in sorted(DEMOS.items()):
        sig, script = load_scripts(spec["script"])
        derivs = list(script.named.values())
        if script.main:
            derivs.append(script.main)
        for binding in spec["bindings"]:
            mons = {sym: build(fx) for sym, fx in binding.items()}
            env = Env(sig, mons)
            used = script_object_symbols(script, sig)
            for env_a in env.assignments(only=used):
                ev = Evaluator(env_a)
                for deriv in derivs:
                    term = sig.shapes[deriv.shape]
                    node = ev.node(term)
                    for a in node.source.objects:
                        for b in node.target.objects:
                            for point in node.fiber(a, b):
                                d = OpenDiagram(term, (a, b), point)
                                t = term
                                for step in deriv.steps:
                                    up = lift(step, d, ev)
                                    t2, _, _ = apply_step(t, step, ev)
                                    assert forget(up) == t2
                                    assert up.point in ev.node(t2).fiber(a, b)
                                    d, t = up, t2
                                    lifted += 1
    # sliding equality of lens points as class equality
    sig = parse_shape_script("""
    (category C)
    (object A C) (object B C) (object X C) (object Y C)
    (shape lens
      (seq (inport A @g) (fork C @s)
           (par (id C) (outport X @xo))
           (par (id C) (inport Y @yi))
           (junction C @j) (outport B @f)))
    """)
    mon = build("z2")
    c = mon.base
    env = Env(sig, {"C": mon}, objs={k: 0 for k in "ABXY"})
    split = (c.identity(0), (0, 0))
    d1 = OpenDiagram.from_values(Evaluator(env), sig.shapes["lens"],
                                 {"g": 1, "s": split, "f": 0})
    d2 = OpenDiagram.from_values(Evaluator(env), sig.shapes["lens"],
                                 {"g": 0, "s": split, "f": 1})
    d3 = OpenDiagram.from_values(Evaluator(env), sig.shapes["lens"],
                                 {"g": 0, "s": split, "f": 0})
    assert d1.point == d2.point and d1.point != d3.point
    ok(8, f"forget commutes with lift and points stay in the target set "
          f"across {lifted} lifted steps; sliding equality holds as class "
          "equality")


def test_criterion_9_learners(oracles):
    mon = build("meet-lattice-2")
    c = mon.base
    for a, b in itertools.product(c.objects, repeat=2):
        ls = learner_set(mon, a, b)
        ts = learner_triples(mon, a, b)
        assert ls.class_count == ts.class_count
        image = set()
        for cls in ls.coend.reps:
            tri = learner_reduce(mon, a, b, cls, ts)
            image.add(tri)
            assert triple_to_learner(mon, a, b, tri, ls) == cls
            outs = {learner_reduce(mon, a, b, member, ts)
                    for member in ls.coend.members(cls)}
            assert len(outs) == 1
        assert image == set(ts.coend.reps)
    for name in ("meet-lattice-2", "z2"):
        mon = build(name)
        objs = list(mon.base.objects)
        for u, v, a, b in itertools.product(objs, repeat=4):
            s1 = lens_set(mon, u, v, a, a)
            s2 = lens_set(mon, v, u, b, b)
            ls = learner_set(mon, a, b)
            for l1 in s1.all():
                for l2 in s2.all():
                    outs = {lenses_to_learner(Lens(l1.typ, m1, g1, f1),
                                              Lens(l2.typ, m2, g2, f2), mon, ls)
                            for (m1, (g1, f1)) in s1.members(l1)
                            for (m2, (g2, f2)) in s2.members(l2)}
                    assert len(outs) == 1
    ok(9, "learner_reduce is a verified bijection onto independently "
          "enumerated triples; lenses_to_learner is representative-independent")


def test_criterion_10_lax_copy(oracles):
    sig = parse_shape_script("""
    (category C)
    (object A C)
    (prof K () (C))
    (shape port-copy (seq (inport A @g) (copy C @c)))
    (shape named-copy (seq (named K) (copy C @c)))
    """)
    for name in FIXTURE_NAMES:
        mon = build(name)
        env = Env(sig, {"C": mon}, profs={"K": constant_prof(mon.base)})
        # totality and well-definedness on every fixture, checked by the
        # derivation machinery for both a representable and a constant input
        for shape in ("port-copy", "named-copy"):
            deriv = Derivation("t", shape, [Step("R-LAX-COPY", (0,))])
            report = Report()
            for env_a in env.assignments():
                assert check_derivation_once(deriv, Evaluator(env_a), report) \
                    is not None, (name, shape, report.text())
            assert report.ok, (name, shape)
        # bijective exactly on the representable inputs of the shipped set
        for env_a in env.assignments():
            ev = Evaluator(env_a)
            for shape, want_bijection in (("port-copy", True),
                                          ("named-copy", False)):
                term = sig.shapes[shape]
                new_t, tr = apply_step(term, Step("R-LAX-COPY", (0,)), ev)[:2]
                src, dst = ev.node(term), ev.node(new_t)
                bij = True
                for bq in src.target.objects:
                    fib = src.fiber(0, bq)
                    image = {tr((0, bq), v) for v in fib}
                    if len(image) != len(fib) or \
                            image != set(dst.fiber(0, bq)):
                        bij = False
                if name == "z2" and shape == "named-copy":
                    assert not bij
                if want_bijection:
                    assert bij, (name, shape)
    ok(10, "lax copy is total and well-defined on every fixture, bijective "
           "on representables and non-bijective on the constant profunctor")


def test_criterion_11_cli_end_to_end(capsys):
    for name in sorted(DEMOS):
        code = cli_main(["demo", name])
        out1 = capsys.readouterr().out
        assert code == 0, (name, out1)
        assert cli_main(["demo", name]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2, name
    neg = [
        (["check", str(demo_dir() / "bad_backward.deriv"),
          "--bind", f"C={fixture_path('z2')}"], 1),
        (["check", str(demo_dir() / "bad_structure.deriv"),
          "--bind", f"C={fixture_path('z2')}"], 1),
        (["eval", str(demo_dir() / "bad_syntax.shapes"), "--shape", "x",
          "--bind", f"C={fixture_path('z2')}"], 2),
    ]
    for argv, expected in neg:
        assert cli_main(argv) == expected, argv
        capsys.readouterr()
    ok(11, "all 11 demos exit 0 with byte-identical reports on re-run; the "
           "three documented negative cases exit 1, 1 and 2")
