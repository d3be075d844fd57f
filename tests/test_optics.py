import itertools

import pytest

from coendcheck.fixtures import build
from coendcheck.optics import (Lens, OpticError, OpticType, apply_lens,
                               compose_optic, compose_optic_crossed,
                               feedback_set, identity_optic, lens_set,
                               lens_to_feedback, lens_to_pair, learner_reduce,
                               learner_set, learner_triples, lenses_to_learner,
                               pair_to_lens, pair_to_prism, prism_to_pair,
                               triple_to_learner)
from coendcheck.shapelang import StructureMissing


@pytest.fixture(scope="module")
def oracles():
    return {n: build(n) for n in
            ("meet-lattice-2", "join-lattice-2", "diamond", "z2", "prod-l2-z2")}


def type_tuples(mon):
    objs = list(mon.base.objects)
    return itertools.product(objs, repeat=4)


# -- lens set counts -----------------------------------------------------------


def test_lens_count_z2(oracles):
    assert lens_set(oracles["z2"], 0, 0, 0, 0).class_count == 2


def test_lens_count_meet_top(oracles):
    mon = oracles["meet-lattice-2"]
    one = mon.base.obj_id("1")
    assert lens_set(mon, one, one, one, one).class_count == 1


def test_lens_count_empty_fiber(oracles):
    mon = oracles["meet-lattice-2"]
    lo, hi = mon.base.obj_id("0"), mon.base.obj_id("1")
    # a = 1, x = 0: C(1, m^0) is empty for every m
    assert lens_set(mon, hi, lo, lo, hi).class_count == 0


def test_cartesian_lens_counts_factor(oracles):
    for name in ("meet-lattice-2", "diamond"):
        mon = build(name)
        c = mon.base
        for a, b, x, y in type_tuples(mon):
            expected = len(c.hom(a, x)) * len(c.hom(mon.tensor(a, y), b))
            assert lens_set(mon, a, b, x, y).class_count == expected, (name, a, b, x, y)


def test_lens_pair_roundtrip_exhaustive(oracles):
    for name in ("meet-lattice-2", "diamond"):
        mon = build(name)
        for a, b, x, y in type_tuples(mon):
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                v, w = lens_to_pair(lens, mon)
                back = pair_to_lens(mon, lens.typ, v, w)
                assert back == lens
            # and the other round trip
            c = mon.base
            for v in c.hom(a, x):
                for w in c.hom(mon.tensor(a, y), b):
                    lens = pair_to_lens(mon, OpticType(a, b, x, y), v, w)
                    assert lens_to_pair(lens, mon) == (v, w)


def test_lens_to_pair_requires_cartesian(oracles):
    mon = oracles["z2"]
    lens = identity_optic(mon, 0, 0)
    with pytest.raises(StructureMissing):
        lens_to_pair(lens, mon)


def test_lens_to_pair_well_defined_on_representatives(oracles):
    mon = oracles["diamond"]
    for a, b, x, y in type_tuples(mon):
        space = lens_set(mon, a, b, x, y)
        for lens in space.all():
            images = {lens_to_pair(Lens(lens.typ, m, g, f), mon)
                      for (m, (g, f)) in space.members(lens)}
            assert len(images) == 1


# -- prisms ---------------------------------------------------------------------


def test_prism_counts_dual_formula(oracles):
    mon = oracles["join-lattice-2"]
    c = mon.base
    for a, b, x, y in type_tuples(mon):
        expected = len(c.hom(y, b)) * len(c.hom(a, mon.tensor(b, x)))
        assert lens_set(mon, a, b, x, y).class_count == expected


def test_prism_pair_roundtrip(oracles):
    mon = oracles["join-lattice-2"]
    for a, b, x, y in type_tuples(mon):
        space = lens_set(mon, a, b, x, y)
        for prism in space.all():
            match, bld = prism_to_pair(prism, mon)
            back = pair_to_prism(mon, prism.typ, match, bld)
            assert back == prism


def test_prism_rejected_on_meet_oracle(oracles):
    mon = oracles["meet-lattice-2"]
    lens = identity_optic(mon, 0, 0)
    with pytest.raises(StructureMissing):
        prism_to_pair(lens, mon)


# -- apply ----------------------------------------------------------------------


def test_apply_identity_lens(oracles):
    for mon in oracles.values():
        c = mon.base
        for a in c.objects:
            for b in c.objects:
                lens = identity_optic(mon, a, b)
                for h in c.hom(a, b):
                    assert apply_lens(lens, h, mon) == h


def test_apply_lens_z2_invariant_arithmetic(oracles):
    mon = oracles["z2"]
    c = mon.base
    space = lens_set(mon, 0, 0, 0, 0)
    for lens in space.all():
        invariant = (lens.fwd + lens.bwd) % 2
        for h in c.morphisms:
            assert apply_lens(lens, h, mon) == (invariant + h) % 2


def test_apply_lens_well_defined_sweep(oracles):
    for name, mon in oracles.items():
        c = mon.base
        for a, b, x, y in type_tuples(mon):
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                for h in c.hom(x, y):
                    outs = {apply_lens(Lens(lens.typ, m, g, f), h, mon)
                            for (m, (g, f)) in space.members(lens)}
                    assert len(outs) == 1, (name, lens, h)


def test_apply_lens_type_mismatch(oracles):
    mon = oracles["meet-lattice-2"]
    c = mon.base
    lens = identity_optic(mon, c.obj_id("0"), c.obj_id("0"))
    with pytest.raises(OpticError):
        apply_lens(lens, c.hom(c.obj_id("0"), c.obj_id("1"))[0], mon)


def _identities(mon, *pairs):
    """The identity optic on each pair of object names ("01" for (0, 1))."""
    return [identity_optic(mon, *map(mon.base.obj_id, pair)) for pair in pairs]


# each OpticError message with one input that raises it, over meet-lattice-2
OPTIC_ERRORS = [
    (lambda mon: lens_set(mon, 0, 0, 0, 9), "object id 9 not in meet-lattice-2"),
    (lambda mon: apply_lens(*_identities(mon, "00"), mon.base.mor_id("0<1"), mon),
     "morphism does not fit the hole"),
    (lambda mon: compose_optic(*_identities(mon, "00", "11"), mon),
     "optic boundaries do not match"),
    (lambda mon: compose_optic_crossed(*_identities(mon, "00", "11"), mon),
     "crossed optic boundaries do not match"),
    (lambda mon: lens_to_feedback(*_identities(mon, "01"), mon),
     "feedback needs a lens of type (a,a) -> (x,y)"),
    (lambda mon: lenses_to_learner(*_identities(mon, "01", "00"), mon),
     "learner lenses need port types (a,a) and (b,b)"),
    (lambda mon: lenses_to_learner(*_identities(mon, "00", "11"), mon),
     "learner lenses must share their outer types crosswise"),
]


@pytest.mark.parametrize("fail, message", OPTIC_ERRORS, ids=[m for _, m in OPTIC_ERRORS])
def test_every_optic_error_has_a_failing_input(oracles, fail, message):
    with pytest.raises(OpticError) as info:
        fail(oracles["meet-lattice-2"])
    assert str(info.value) == message


# -- category laws ---------------------------------------------------------------


def composable_lens_triples(mon, max_objs=None):
    objs = list(mon.base.objects)
    for a, b, x, y, u, v, s, t in itertools.product(objs, repeat=8):
        s1 = lens_set(mon, a, b, x, y)
        s2 = lens_set(mon, x, y, u, v)
        s3 = lens_set(mon, u, v, s, t)
        yield s1, s2, s3


def test_optic_category_laws(oracles):
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        objs = list(mon.base.objects)
        # unit laws
        for a, b, x, y in type_tuples(mon):
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                li = compose_optic(identity_optic(mon, a, b), lens, mon)
                ri = compose_optic(lens, identity_optic(mon, x, y), mon)
                assert li == lens and ri == lens
        # associativity over all composable triples
        for a, b, x, y, u, v, s, t in itertools.product(objs, repeat=8):
            for l1 in lens_set(mon, a, b, x, y).all():
                for l2 in lens_set(mon, x, y, u, v).all():
                    for l3 in lens_set(mon, u, v, s, t).all():
                        lhs = compose_optic(compose_optic(l1, l2, mon), l3, mon)
                        rhs = compose_optic(l1, compose_optic(l2, l3, mon), mon)
                        assert lhs == rhs


def test_compose_z2_adds_invariants(oracles):
    mon = oracles["z2"]
    for l1 in lens_set(mon, 0, 0, 0, 0).all():
        for l2 in lens_set(mon, 0, 0, 0, 0).all():
            out = compose_optic(l1, l2, mon)
            assert (out.fwd + out.bwd) % 2 == \
                (l1.fwd + l1.bwd + l2.fwd + l2.bwd) % 2


# -- crossed composition -----------------------------------------------------------


def test_crossed_requires_braiding(oracles):
    mon = build("z2")
    l1 = identity_optic(mon, 0, 0)
    mon.braiding = None
    with pytest.raises(StructureMissing):
        compose_optic_crossed(l1, l1, mon)


def test_crossed_composition_defined_on_z2(oracles):
    mon = oracles["z2"]
    for l1 in lens_set(mon, 0, 0, 0, 0).all():
        for l2 in lens_set(mon, 0, 0, 0, 0).all():
            out = compose_optic_crossed(l1, l2, mon)
            assert (out.fwd + out.bwd) % 2 == \
                (l1.fwd + l1.bwd + l2.fwd + l2.bwd) % 2


def test_crossed_associativity_z2(oracles):
    mon = oracles["z2"]
    space = lens_set(mon, 0, 0, 0, 0)
    for l1 in space.all():
        for l2 in space.all():
            for l3 in space.all():
                lhs = compose_optic_crossed(compose_optic_crossed(l1, l2, mon),
                                            l3, mon)
                rhs = compose_optic_crossed(l1, compose_optic_crossed(l2, l3, mon),
                                            mon)
                assert lhs == rhs


def test_crossed_identity_laws(oracles):
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        for a, b, x, y in type_tuples(mon):
            space = lens_set(mon, a, b, x, y)
            for lens in space.all():
                # right identity: (x,b) -> (x,b) lens with matching wiring
                rid = identity_optic(mon, x, b)
                out = compose_optic_crossed(lens, rid, mon)
                assert out == lens
                lid = identity_optic(mon, a, y)
                out = compose_optic_crossed(lid, lens, mon)
                assert out == lens


def test_crossed_well_defined_sweep(oracles):
    mon = oracles["z2"]
    space = lens_set(mon, 0, 0, 0, 0)
    for l1 in space.all():
        for l2 in space.all():
            outs = {compose_optic_crossed(Lens(l1.typ, m1, g1, f1),
                                          Lens(l2.typ, m2, g2, f2), mon)
                    for (m1, (g1, f1)) in space.members(l1)
                    for (m2, (g2, f2)) in space.members(l2)}
            assert len(outs) == 1


# -- feedback -----------------------------------------------------------------------


def test_feedback_count_z2(oracles):
    assert feedback_set(oracles["z2"], 0, 0).class_count == 2


def test_feedback_no_sliding_morphisms_is_disjoint_union(oracles):
    # on a thin oracle the only sliding morphisms between distinct states
    # are the order arrows; summing fibers after quotienting must match a
    # naive closure computed independently
    mon = oracles["meet-lattice-2"]
    c = mon.base
    for x in c.objects:
        for y in c.objects:
            fs = feedback_set(mon, x, y)
            pairs = list(fs.coend.index)
            rels = []
            for mo in c.morphisms:
                m1, m2 = c.dom(mo), c.cod(mo)
                for q in fs.prof.fiber(m2, m1):
                    rels.append(((m1, fs.prof.act(mo, c.identity(m1), q)),
                                 (m2, fs.prof.act(c.identity(m2), mo, q))))
            classes = [{p} for p in pairs]
            changed = True
            while changed:
                changed = False
                for (l, r) in rels:
                    cl = next(s for s in classes if l in s)
                    cr = next(s for s in classes if r in s)
                    if cl is not cr:
                        cl |= cr
                        classes.remove(cr)
                        changed = True
            assert fs.class_count == len(classes)


def test_lens_to_feedback_well_defined(oracles):
    for name in ("z2", "meet-lattice-2", "prod-l2-z2"):
        mon = build(name)
        c = mon.base
        for a in c.objects:
            for x in c.objects:
                for y in c.objects:
                    space = lens_set(mon, a, a, x, y)
                    for lens in space.all():
                        outs = {lens_to_feedback(Lens(lens.typ, m, g, f), mon)
                                for (m, (g, f)) in space.members(lens)}
                        assert len(outs) == 1


def test_lens_to_feedback_type_gate(oracles):
    mon = oracles["meet-lattice-2"]
    lo, hi = mon.base.obj_id("0"), mon.base.obj_id("1")
    space = lens_set(mon, lo, hi, hi, hi)
    for lens in space.all():
        with pytest.raises(OpticError):
            lens_to_feedback(lens, mon)


# -- learners -----------------------------------------------------------------------


def test_learner_counts_match_triples(oracles):
    mon = oracles["meet-lattice-2"]
    for a in mon.base.objects:
        for b in mon.base.objects:
            ls = learner_set(mon, a, b)
            ts = learner_triples(mon, a, b)
            assert ls.class_count == ts.class_count, (a, b)


def test_learner_reduce_is_bijection(oracles):
    mon = oracles["meet-lattice-2"]
    for a in mon.base.objects:
        for b in mon.base.objects:
            ls = learner_set(mon, a, b)
            ts = learner_triples(mon, a, b)
            image = {learner_reduce(mon, a, b, cls, ts)
                     for cls in ls.coend.reps}
            assert len(image) == ls.class_count
            assert image == set(ts.coend.reps)
            for cls in ls.coend.reps:
                tri = learner_reduce(mon, a, b, cls, ts)
                assert triple_to_learner(mon, a, b, tri, ls) == cls
            for tri in ts.coend.reps:
                cls = triple_to_learner(mon, a, b, tri, ls)
                assert learner_reduce(mon, a, b, cls, ts) == tri


def test_learner_reduce_well_defined(oracles):
    mon = oracles["meet-lattice-2"]
    for a in mon.base.objects:
        for b in mon.base.objects:
            ls = learner_set(mon, a, b)
            ts = learner_triples(mon, a, b)
            for rep in ls.coend.reps:
                outs = {learner_reduce(mon, a, b, (s, v), ts)
                        for (s, v) in ls.coend.members(rep)}
                assert len(outs) == 1


def test_lenses_to_learner_well_defined(oracles):
    for name in ("z2", "meet-lattice-2"):
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


def test_identity_lens_pair_shape(oracles):
    for name in ("meet-lattice-2", "diamond"):
        mon = build(name)
        c = mon.base
        for a in c.objects:
            for b in c.objects:
                lens = identity_optic(mon, a, b)
                view, update = lens_to_pair(lens, mon)
                assert view == c.identity(a)
                # the update is projection-shaped: it discards the copy of a
                assert update == mon.cartesian.proj2[(a, b)]
