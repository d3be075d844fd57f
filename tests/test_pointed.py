import itertools

import pytest

from coendcheck.fincat import FinFunctor, join_mors, opposite, terminal_category
from coendcheck.fixtures import build
from coendcheck.optics import apply_lens, lens_set
from coendcheck.pointed import (OpenDiagram, PointError, compose_open, embed,
                                equal_up_to, forget, lift, lift_many)
from coendcheck.fincat import join_objs, split_obj
from coendcheck.profunctor import ConcreteProf
from coendcheck.rewrite import Step, apply_step, strip_labels
from coendcheck.shapelang import (Env, Evaluator, Wire, boundary,
                                  parse_shape_script, print_term)

SHAPES = """
(category C)
(object A C) (object B C) (object X C) (object Y C)
(shape lens
  (seq (inport A @g) (fork C @s)
       (par (id C) (outport X @xo))
       (par (id C) (inport Y @yi))
       (junction C @j) (outport B @f)))
(shape lens-applied
  (seq (inport A @g) (fork C @s)
       (par (id C) (outport X @xo))
       (par (id C) (seq (inport X @h1) (outport Y @h2) (inport Y @yi)))
       (junction C @j) (outport B @f)))
(shape hom-pair (seq (id C @w1) (id C @w2)))
"""

APPLY_STEPS = [
    Step("R-INTERCHANGE", (2,)),
    Step("R-EPS-A", (2, 1, 0)),
    Step("R-EPS-A", (2, 1, 0)),
    Step("R-EPS-TENSOR", (1,)),
]


@pytest.fixture(scope="module")
def sig():
    return parse_shape_script(SHAPES)


def z2_env(sig):
    return Env(sig, {"C": build("z2")}, objs={k: 0 for k in "ABXY"})


def lens_point(sig, env, mon, m, g, f, shape="lens", extra=None):
    c = mon.base
    x = env.objs["X"]
    assignment = {"g": g, "s": (c.identity(mon.tensor(m, x)), (m, x)),
                  "f": f}
    assignment.update(extra or {})
    return OpenDiagram.from_values(Evaluator(env), sig.shapes[shape], assignment)


# -- embeddings ----------------------------------------------------------------


def test_embed_identity_and_composition(sig):
    env = z2_env(sig)
    ev = Evaluator(env)
    c = env.cats["C"]
    e0 = embed(ev, "C", c.identity(0))
    assert e0.point == c.identity(0)
    for f in c.morphisms:
        for g in c.morphisms:
            d = compose_open(embed(ev, "C", f), embed(ev, "C", g), ev)
            lifted = lift(Step("R-YONEDA-L", (0,)), d, ev)
            assert lifted.point == c.compose(f, g)
            assert forget(lifted) == lifted.shape


def test_embed_nonidentity_distinct(sig):
    env = z2_env(sig)
    c = env.cats["C"]
    e0 = embed(Evaluator(env), "C", c.mor_id("0"))
    e1 = embed(Evaluator(env), "C", c.mor_id("1"))
    assert e0.point != e1.point


# -- point construction ---------------------------------------------------------


def test_lens_points_classify(sig):
    env = z2_env(sig)
    mon = env.mons["C"]
    space = lens_set(mon, 0, 0, 0, 0)
    for (m, (g, f)) in space.coend.index:
        d = lens_point(sig, env, mon, m, g, f)
        rep_m, (rep_g, rep_f) = space.coend.rep((m, (g, f)))
        # the shape point and the direct coend agree on classes: two lens
        # data give the same point iff the coend identifies them
        d2 = lens_point(sig, env, mon, rep_m, rep_g, rep_f)
        assert d.point == d2.point


def test_point_requires_fork_split(sig):
    env = z2_env(sig)
    with pytest.raises(PointError):
        OpenDiagram.from_values(Evaluator(env), sig.shapes["lens"], {"g": 0})


def test_sliding_equality_as_class_equality(sig):
    env = z2_env(sig)
    mon = env.mons["C"]
    c = mon.base
    one, zero = c.mor_id("1"), c.mor_id("0")
    # slide m = 1 from the forward leg to the backward leg
    d1 = lens_point(sig, env, mon, 0, one, zero)
    d2 = lens_point(sig, env, mon, 0, zero, one)
    assert equal_up_to(d1, d2, [], Evaluator(env))
    d3 = lens_point(sig, env, mon, 0, zero, zero)
    assert not equal_up_to(d1, d3, [], Evaluator(env))


# -- lifting -------------------------------------------------------------------


def test_lift_opfibration_square_every_assignment(sig):
    # forget(lift(step, d)) == apply_step(step, forget(d)) and the lifted
    # point lands in the target set, for every step and every point
    env = z2_env(sig)
    ev = Evaluator(env)
    term = sig.shapes["lens-applied"]
    node = ev.node(term)
    groups = node.members(0, 0)
    for rep, members in groups.items():
        for raw in members:
            d = OpenDiagram(term, (0, 0), node.classify(0, 0, *raw))
            t = term
            for step in APPLY_STEPS:
                lifted = lift(step, d, ev)
                t2, _, _ = apply_step(t, step, ev)
                assert forget(lifted) == t2
                assert lifted.point in ev.node(t2).fiber(0, 0)
                d, t = lifted, t2


def test_lift_matches_apply_lens(sig):
    # lifting the full plugged-lens script computes exactly apply_lens
    for name in ("z2", "meet-lattice-2", "prod-l2-z2"):
        mon = build(name)
        c = mon.base
        for a in c.objects:
            for b in c.objects:
                for x in c.objects:
                    for y in c.objects:
                        env = Env(sig, {"C": mon},
                                  objs={"A": a, "B": b, "X": x, "Y": y})
                        space = lens_set(mon, a, b, x, y)
                        for lens in space.all():
                            for h in c.hom(x, y):
                                d = lens_point(
                                    sig, env, mon, lens.residual, lens.fwd,
                                    lens.bwd, shape="lens-applied",
                                    extra={"h1": h})
                                out = lift_many(APPLY_STEPS, d, Evaluator(env))
                                expected = apply_lens(lens, h, mon)
                                got_m, got_g, got_f = out.point
                                assert c.compose(got_g, got_f) == expected


def test_lift_iso_roundtrip_restores_point(sig):
    env = z2_env(sig)
    mon = env.mons["C"]
    d = lens_point(sig, env, mon, 0, 1, 0)
    fwd = Step("R-CART-FORK", (1,))
    # z2 has no cartesian witness; use interchange instead
    fwd = Step("R-INTERCHANGE", (2,))
    ev = Evaluator(env)
    up = lift(fwd, d, ev)
    _, _, inv = apply_step(d.shape, fwd, ev)
    back = lift(Step("R-INTERCHANGE", (2,), backward=True, inst=inv), up, ev)
    assert strip_labels(back.shape) == strip_labels(d.shape)
    assert back.point == d.point


# -- equality up to deformation ---------------------------------------------------


def test_equal_up_to_rejects_directed(sig):
    env = z2_env(sig)
    mon = env.mons["C"]
    d = lens_point(sig, env, mon, 0, 0, 0)
    with pytest.raises(Exception) as e:
        equal_up_to(d, d, [Step("R-EPS-A", (0,))], Evaluator(env))
    assert "directed" in str(e.value) or "invertible" in str(e.value)


def test_equal_up_to_equivalence_relation(sig):
    env = z2_env(sig)
    mon = env.mons["C"]
    ev = Evaluator(env)
    d1 = lens_point(sig, env, mon, 0, 1, 0)
    # reflexivity under the empty deformation
    assert equal_up_to(d1, d1, [], ev)
    step = Step("R-INTERCHANGE", (2,))
    d2 = lift(step, d1, ev)
    assert equal_up_to(d1, d2, [step], ev)
    # symmetry: the inverse deformation relates them the other way
    _, _, inv = apply_step(d1.shape, step, ev)
    back_step = Step("R-INTERCHANGE", step.path, True, inv)
    assert equal_up_to(d2, d1, [back_step], ev)
    # transitivity: concatenation of deformations
    step2 = Step("R-INTERCHANGE", (2,), True, {"cut1": 1, "cut2": 1})
    d3 = lift(step2, d2, ev)
    assert equal_up_to(d2, d3, [step2], ev)
    assert equal_up_to(d1, d3, [step, step2], ev)


def test_embed_forget_is_the_hom_shape(sig):
    env = z2_env(sig)
    c = env.cats["C"]
    from coendcheck.shapelang import Id, Wire
    d = embed(Evaluator(env), "C", c.mor_id("1"), label="w")
    assert forget(d) == Id((Wire("C"),), "w")


# -- one-leaf points of every generator kind ---------------------------------------

LEAVES = """
(category C)
(object A C)
(functor F C C (obj) (mor))
(prof K (C) (C))
(shape id (id C @v))
(shape inport (inport A @v))
(shape unit-in (unit-in C @v))
(shape junction (junction C @v))
(shape box (box F @v))
(shape outport (outport A @v))
(shape unit-out (unit-out C @v))
(shape fork (fork C @v))
(shape cobox (cobox F @v))
(shape merge (merge C @v))
(shape copy (copy C @v))
(shape discard (discard C @v))
(shape codiscard (codiscard C @v))
(shape sym (sym C C @v))
(shape cup (cup C @v))
(shape cap (cap C @v))
(shape named (named K @v))
"""

# kinds whose value does not pin the right object: a point names it
NEEDS_OBJECTS = {"fork", "cobox", "codiscard", "named"}
COMPANIONS = {"inport", "unit-in", "junction", "box"}


def _leaf_env(sig, mon, a):
    """C bound to mon, A to a, F to x |-> x (x) x and K to a profunctor with
    two elements in every fiber and trivial actions."""
    c = mon.base
    env = Env(sig, {"C": mon}, objs={"A": a},
              profs={"K": ConcreteProf(c, c, lambda x, y: ("k0", "k1"),
                                       lambda f, g, v: v)})
    env.functors["F"] = FinFunctor(
        "F", c, c, {x: mon.tensor(x, x) for x in c.objects},
        {f: mon.tensor_m(f, f) for f in c.morphisms})
    return env


def _pinned_right(kind, env, v):
    """The right object that a value pins, by the kind's typing (for the
    kinds not in NEEDS_OBJECTS)."""
    c = env.cats["C"]
    if kind == "id" or kind in COMPANIONS:
        return c.cod(v)
    if kind == "merge":
        return c.cod(v[0])
    if kind == "copy":
        return join_objs([(c, c.cod(v[0])), (c, c.cod(v[1]))])
    if kind == "sym":
        return join_objs([(c, c.cod(v[1])), (c, c.cod(v[0]))])
    if kind == "cap":
        return join_objs([(opposite(c), c.dom(v)), (c, c.cod(v))])
    return 0  # outport, unit-out, discard, cup: no right wires


def _unassigned(kind, env, left):
    """The point (value, right object) of an unassigned leaf, or None where
    the leaf needs a value."""
    c = env.cats["C"]
    if kind == "id":
        return c.identity(left), left
    if kind in COMPANIONS:
        fx = env.functor_of(env.sig.shapes[kind]).obj(left)
        return c.identity(fx), fx
    if kind in ("outport", "unit-out"):
        fx = env.functor_of(env.sig.shapes[kind]).obj(0)
        return (c.identity(fx), 0) if left == fx else None
    if kind == "merge":
        m, n = split_obj(c, left)
        return ((c.identity(m), c.identity(n)), m) if m == n else None
    if kind == "copy":
        e = c.identity(left)
        return (e, e), join_objs([(c, left), (c, left)])
    if kind == "discard":
        return "*", 0
    if kind == "sym":
        a, b = split_obj(c, left)
        return (c.identity(a), c.identity(b)), join_objs([(c, b), (c, a)])
    if kind == "cup":
        x, y = split_obj(opposite(c), left)
        return (c.identity(x), 0) if x == y else None
    return None  # fork, cobox, codiscard, cap, named


@pytest.mark.parametrize("fixture", ["z2", "meet-lattice-2", "prod-l2-z2"])
def test_every_leaf_kind_points_at_its_fiber(fixture):
    # every element of every fiber of every one-leaf shape, built with and
    # without its right objects, lands at its own fiber, which is the one
    # the kind's typing names; an unassigned leaf carries its identity
    sig = parse_shape_script(LEAVES)
    mon = build(fixture)
    for a_obj in mon.base.objects:
        env = _leaf_env(sig, mon, a_obj)
        ev = Evaluator(env)
        for kind, shape in sig.shapes.items():
            rw = boundary(shape, sig)[1]
            prof = ev.node(shape)
            cats = [env.wire_cat(w) for w in rw]
            objs_of = {join_objs(zip(cats, objs)): objs
                       for objs in itertools.product(*[c.objects for c in cats])}
            for left in prof.source.objects:
                for b in prof.target.objects:
                    for v in prof.fiber(left, b):
                        d = OpenDiagram.from_fiber(ev, shape,
                                                   {"v": (v, objs_of[b])}, left)
                        assert (d.point, d.fiber) == (v, (left, b)), kind
                        if kind in NEEDS_OBJECTS:
                            with pytest.raises(PointError):
                                OpenDiagram.from_fiber(ev, shape, {"v": v}, left)
                            continue
                        assert _pinned_right(kind, env, v) == b, kind
                        d = OpenDiagram.from_fiber(ev, shape, {"v": v}, left)
                        assert (d.point, d.fiber) == (v, (left, b)), kind
                expected = _unassigned(kind, env, left)
                if expected is None:
                    with pytest.raises(PointError):
                        OpenDiagram.from_fiber(ev, shape, {}, left)
                    continue
                d = OpenDiagram.from_fiber(ev, shape, {}, left)
                assert (d.point, d.fiber[1]) == expected, kind


def test_objects_outside_their_wires_fail_the_point():
    # a left object, or right objects, given from outside must be ids of
    # their wires' categories; over meet-lattice-2, right objects (0, 2)
    # would otherwise pack to the id of (1, 0)
    sig = parse_shape_script(LEAVES)
    mon = build("meet-lattice-2")
    ev = Evaluator(_leaf_env(sig, mon, 0))
    fork, junction = sig.shapes["fork"], sig.shapes["junction"]
    v = mon.base.identity(0)
    for objs in [(0, 5), (0, 2), (2, 0), (-1, 1)]:
        with pytest.raises(PointError, match=r"objects .* of v are not its wires'"):
            OpenDiagram.from_values(ev, fork, {"v": (v, objs)})
        with pytest.raises(PointError, match=r"objects .* of v are not its wires'"):
            OpenDiagram.from_fiber(ev, fork, {"v": (v, objs)}, 0)
    for left in (9, 4, -1):
        with pytest.raises(PointError, match=r"^v has no left object"):
            OpenDiagram.from_fiber(ev, junction, {}, left)
    assert OpenDiagram.from_fiber(ev, junction, {}, 3).fiber == (3, 1)


# -- points on functor boxes between two categories ---------------------------

BOXES = """
(category C) (category D)
(functor F C D {functor})
(shape box (box F @v))
(shape cobox (cobox F @v))
"""

# F: C -> D, constant at one object of D
FUNCTORS = {("meet-lattice-2", "z2"): "(obj (0 x) (1 x)) (mor (id_0 0) (id_1 0) (0<1 1))",
            ("z2", "meet-lattice-2"): "(obj (x 0)) (mor (0 id_0) (1 id_0))"}


# the left object of a box over meet-lattice-2 is never pinned (F is constant)
@pytest.mark.parametrize("kind,cats", [
    ("cobox", ("meet-lattice-2", "z2")),
    ("cobox", ("z2", "meet-lattice-2")),
    ("box", ("z2", "meet-lattice-2")),
])
def test_box_points_resolve_names_in_their_wire_categories(kind, cats):
    # a box's values are morphisms of F's target D, and (mor f X) names X
    # on the leaf's right wire: D for a box, C for a cobox
    sig = parse_shape_script(BOXES.format(functor=FUNCTORS[cats]))
    env = Env(sig, {"C": build(cats[0]), "D": build(cats[1])})
    ev = Evaluator(env)
    shape = sig.shapes[kind]
    prof = ev.node(shape)
    d = env.cats["D"]
    right = env.wire_cat(boundary(shape, sig)[1][0])
    points = 0
    for left in prof.source.objects:
        for b in prof.target.objects:
            for v in prof.fiber(left, b):
                spec = ("mor", d.mor_name(v), right.obj_name(b))
                got = OpenDiagram.from_names(ev, shape, {"v": spec})
                assert (got.point, got.fiber) == (v, (left, b))
                points += 1
    assert points
    for spec in [("mor", d.mor_name(v), "Q"), ("split", d.mor_name(v), "Q", "Q")]:
        with pytest.raises(PointError):
            OpenDiagram.from_names(ev, shape, {"v": spec})


# -- point construction failures, (pair ..) specs and pair-shaped elements ------

SMALL = """
(category C)
(prof K () (C))
(shape discard (discard C @v))
(shape wire (id C @w))
(shape wires (id C C @v))
(shape sym (sym C C @v))
(shape copy (copy C @v))
(shape named (named K @k))
"""


def test_a_lone_discard_point_is_ambiguous():
    # every object of meet-lattice-2 is a left object of the discard's point
    sig = parse_shape_script(SMALL)
    ev = Evaluator(Env(sig, {"C": build("meet-lattice-2")}))
    with pytest.raises(PointError, match="^left fiber object is ambiguous; use from_fiber$"):
        OpenDiagram.from_values(ev, sig.shapes["discard"], {})
    assert OpenDiagram.from_fiber(ev, sig.shapes["discard"], {}, 1).fiber == (1, 0)


def test_right_objects_must_match_the_right_wires():
    sig = parse_shape_script(SMALL)
    ev = Evaluator(Env(sig, {"C": build("meet-lattice-2")}))
    with pytest.raises(PointError, match=r"^w needs 1 target object\(s\)$"):
        OpenDiagram.from_values(ev, sig.shapes["wire"], {"w": (0, (0, 1))})


def test_compose_open_needs_a_shared_middle_object(sig):
    ev = Evaluator(Env(sig, {"C": build("meet-lattice-2")}))
    c = ev.env.cats["C"]
    d0, d1 = (embed(ev, "C", c.mor_id(n)) for n in ("id_0", "id_1"))
    with pytest.raises(PointError, match="^open diagrams do not share a middle object$"):
        compose_open(d0, d1, ev)
    assert compose_open(d0, embed(ev, "C", c.mor_id("0<1")), ev).fiber == (0, 1)


def test_compose_open_of_a_composite_points_into_the_flattened_shape(sig):
    # the right diagram is itself a composite: the shape flattens, and the
    # point, assembled for the flattened composite, is one of its elements
    ev = Evaluator(z2_env(sig))
    c = ev.env.cats["C"]
    d = compose_open(embed(ev, "C", 1, "a"),
                     compose_open(embed(ev, "C", 1, "b"), embed(ev, "C", 0, "c"), ev), ev)
    assert print_term(d.shape) == "(seq (id C @l:a) (id C @r:l:b) (id C @r:r:c))"
    assert d.point in ev.node(d.shape).fiber(*d.fiber)
    lifted = lift_many([Step("R-YONEDA-L", (0,))] * 2, d, ev)
    assert print_term(lifted.shape) == "(id C @r:r:c)"
    assert lifted.point == c.compose(c.compose(1, 1), 0)


@pytest.mark.parametrize("shape, names", [
    ("sym", ("0", "1")), ("wires", ("1", "0")), ("copy", ("1", "1"))])
def test_pair_specs_name_one_morphism_per_wire(shape, names):
    sig = parse_shape_script(SMALL)
    ev = Evaluator(Env(sig, {"C": build("z2")}))
    c = ev.env.cats["C"]
    mors = tuple(c.mor_id(n) for n in names)
    want = join_mors(zip([c, c], mors)) if shape == "wires" else mors
    d = OpenDiagram.from_names(ev, sig.shapes[shape], {"v": ("pair", *names)})
    assert (d.point, d.fiber) == (want, (0, 0))
    with pytest.raises(PointError, match=r"^\(pair \.\.\.\) takes 2 argument\(s\)$"):
        OpenDiagram.from_names(ev, sig.shapes[shape], {"v": ("pair", names[0])})


def test_an_element_that_is_a_pair_is_read_as_the_value():
    # K: 1 -/-> C has the one element ("p", (b,)) at each fiber (*, b): a
    # bare value of that form is the element, not (value, right objects)
    sig = parse_shape_script(SMALL)
    c = build("meet-lattice-2").base
    k = ConcreteProf(terminal_category(), c, lambda x, b: (("p", (b,)),),
                     lambda f, g, v: ("p", (c.cod(g),)))
    ev = Evaluator(Env(sig, {"C": build("meet-lattice-2")}, profs={"K": k}))
    shape = sig.shapes["named"]
    with pytest.raises(PointError, match="^k needs a value with its target objects$"):
        OpenDiagram.from_values(ev, shape, {"k": ("p", (1,))})
    d = OpenDiagram.from_values(ev, shape, {"k": (("p", (1,)), (1,))})
    assert (d.point, d.fiber) == (("p", (1,)), (0, 1))


def test_star_and_unknown_value_specs():
    # `*` names the one element of a discard's fiber; a tuple spec must
    # be a (pair ...), (split ...) or (mor ...)
    sig = parse_shape_script(SMALL)
    ev = Evaluator(Env(sig, {"C": build("z2")}))
    d = OpenDiagram.from_names(ev, sig.shapes["discard"], {"v": "*"})
    assert (d.point, d.fiber) == ("*", (0, 0))
    with pytest.raises(PointError, match=r"^unknown value spec \('frob', '0'\)$"):
        OpenDiagram.from_names(ev, sig.shapes["wire"], {"w": ("frob", "0")})
