"""Lenses, prisms, optic composition, feedback and learners, implemented
directly at the level of coend classes.

Every operation here is mirrored by a shipped derivation script; the tests
check the direct implementation against the script's composed semantic map
pointwise, so this module and the rewrite engine cross-validate.
"""

from __future__ import annotations

from typing import NamedTuple

from .fincat import MonoidalStructure, join_objs, opposite_monoidal, product, split_mor, split_obj
from .profunctor import ConcreteProf, coend
from .shapelang import StructureMissing


class OpticError(Exception):
    pass


class OpticType(NamedTuple):
    a: int
    b: int
    x: int
    y: int


class Lens(NamedTuple):
    """A canonical coend class: residual tag plus the pair of morphisms."""
    typ: OpticType
    residual: int
    fwd: int   # g: a -> residual (x) x
    bwd: int   # f: residual (x) y -> b


class CoendSpace:
    """A set of processes over one oracle, as the coend over `cat` of the
    profunctor with fibers `fib` and action `act`.  `cls` is the class of
    an element given by its residual object and its components."""

    def __init__(self, cat, fib, act):
        self.prof = ConcreteProf(cat, cat, fib, act)
        self.coend = coend(self.prof)

    def cls(self, m, *v):
        return self.coend.rep((m, v[0] if len(v) == 1 else v))

    @property
    def class_count(self):
        return self.coend.class_count


class LensSpace(CoendSpace):
    """The set of lenses of one type over one oracle, as a coend."""

    def __init__(self, mon: MonoidalStructure, typ: OpticType):
        self.typ = typ
        c = mon.base
        for o in (typ.a, typ.b, typ.x, typ.y):
            if o not in c.objects:
                raise OpticError(f"object id {o} not in {c.name}")

        def fib(m1, m2):
            return tuple((g, f) for g in c.hom(typ.a, mon.tensor(m2, typ.x))
                         for f in c.hom(mon.tensor(m1, typ.y), typ.b))

        def act(fm, gm, v):
            g, f = v
            return (c.compose(g, mon.tensor_m(gm, c.identity(typ.x))),
                    c.compose(mon.tensor_m(fm, c.identity(typ.y)), f))

        super().__init__(c, fib, act)

    def cls(self, m, g, f) -> Lens:
        rep_m, (rep_g, rep_f) = super().cls(m, g, f)
        return Lens(self.typ, rep_m, rep_g, rep_f)

    def all(self):
        return [Lens(self.typ, m, v[0], v[1]) for (m, v) in self.coend.reps]

    def members(self, lens: Lens):
        return self.coend.members((lens.residual, (lens.fwd, lens.bwd)))


def lens_set(mon, a, b, x, y) -> LensSpace:
    return LensSpace(mon, OpticType(a, b, x, y))


def identity_optic(mon, a, b) -> Lens:
    c = mon.base
    space = lens_set(mon, a, b, a, b)
    return space.cls(mon.unit, c.identity(a), c.identity(b))


def _require(mon, what):
    """Raise StructureMissing unless `mon` has the structure whose attribute
    is the first word of `what` ("cartesian witness", "braiding")."""
    if getattr(mon, what.split()[0]) is None:
        raise StructureMissing(f"{mon.base.name} carries no {what}")


def lens_to_pair(lens: Lens, mon):
    """A cartesian lens is a view morphism a -> x and an update a(x)y -> b."""
    _require(mon, "cartesian witness")
    c, w, t = mon.base, mon.cartesian, lens.typ
    m = lens.residual
    view = c.compose(lens.fwd, w.proj2[(m, t.x)])
    keep = c.compose(lens.fwd, w.proj1[(m, t.x)])
    update = c.compose(mon.tensor_m(keep, c.identity(t.y)), lens.bwd)
    return view, update


def pair_to_lens(mon, typ: OpticType, view, update) -> Lens:
    _require(mon, "cartesian witness")
    c, w = mon.base, mon.cartesian
    g = w.pairing[(c.identity(typ.a), view)]
    return lens_set(mon, typ.a, typ.b, typ.x, typ.y).cls(typ.a, g, update)


def prism_to_pair(lens: Lens, mon):
    """A cocartesian lens (a prism) is a match a -> b (+) x and a build
    y -> b: the update and view of the same lens read in C^op."""
    _require(mon, "cocartesian witness")
    t = lens.typ
    view, update = lens_to_pair(Lens(OpticType(t.b, t.a, t.y, t.x), lens.residual,
                                     lens.bwd, lens.fwd), opposite_monoidal(mon))
    return update, view


def pair_to_prism(mon, typ: OpticType, match, build) -> Lens:
    _require(mon, "cocartesian witness")
    c, w = mon.base, mon.cocartesian
    f = w.pairing[(c.identity(typ.b), build)]
    return lens_set(mon, typ.a, typ.b, typ.x, typ.y).cls(typ.b, match, f)


def apply_lens(lens: Lens, h, mon):
    """Plug a morphism x -> y into the hole; independent of the class
    representative."""
    c, t = mon.base, lens.typ
    if c.dom(h) != t.x or c.cod(h) != t.y:
        raise OpticError("morphism does not fit the hole")
    idm = c.identity(lens.residual)
    return c.compose(lens.fwd, c.compose(mon.tensor_m(idm, h), lens.bwd))


def compose_optic(l1: Lens, l2: Lens, mon) -> Lens:
    """Plug the second optic into the first one's hole."""
    t1, t2 = l1.typ, l2.typ
    if (t1.x, t1.y) != (t2.a, t2.b):
        raise OpticError("optic boundaries do not match")
    c = mon.base
    m, n = l1.residual, l2.residual
    g = c.compose(l1.fwd, mon.tensor_m(c.identity(m), l2.fwd))
    f = c.compose(mon.tensor_m(c.identity(m), l2.bwd), l1.bwd)
    return lens_set(mon, t1.a, t1.b, t2.x, t2.y).cls(mon.tensor(m, n), g, f)


def compose_optic_crossed(l1: Lens, l2: Lens, mon) -> Lens:
    """The crossed composition: (a,y)->(x,v) with (x,b)->(u,y) gives
    (a,b)->(u,v), using the braiding of the base."""
    _require(mon, "braiding")
    t1, t2 = l1.typ, l2.typ
    if t1.x != t2.a or t1.b != t2.y:
        raise OpticError("crossed optic boundaries do not match")
    c = mon.base
    m, n = l1.residual, l2.residual
    g = c.compose(l1.fwd, mon.tensor_m(c.identity(m), l2.fwd))
    f = c.compose(
        mon.tensor_m(mon.braid(m, n), c.identity(t1.y)),
        c.compose(mon.tensor_m(c.identity(n), l1.bwd), l2.bwd))
    return lens_set(mon, t1.a, t2.b, t2.x, t1.y).cls(mon.tensor(m, n), g, f)


# ---------------------------------------------------------------------------
# feedback


def feedback_set(mon, x, y) -> CoendSpace:
    """Stateful processes x -> y modulo sliding the state morphisms."""
    c = mon.base

    def fib(m1, m2):
        return c.hom(mon.tensor(m1, x), mon.tensor(m2, y))

    def act(fm, gm, h):
        return c.compose(mon.tensor_m(fm, c.identity(x)),
                         c.compose(h, mon.tensor_m(gm, c.identity(y))))

    return CoendSpace(c, fib, act)


def lens_to_feedback(lens: Lens, mon):
    """A lens (a,a) -> (x,y) becomes a stateful process y -> x with state
    the residual, by composing the two legs through a."""
    t = lens.typ
    if t.a != t.b:
        raise OpticError("feedback needs a lens of type (a,a) -> (x,y)")
    c = mon.base
    h = c.compose(lens.bwd, lens.fwd)  # residual (x) y -> residual (x) x
    return feedback_set(mon, t.y, t.x).cls(lens.residual, h)


# ---------------------------------------------------------------------------
# learners


class LearnerSpace(CoendSpace):
    """The monoidal learner set: pairs of stateful maps between p(x)a and
    q(x)b, with both parameter objects quotiented, as a coend over C x C."""

    def __init__(self, mon: MonoidalStructure, a, b):
        c = self.base = mon.base

        def fib(s, t):
            (p1, q1), (p2, q2) = split_obj(c, s), split_obj(c, t)
            return tuple(
                (h1, h2)
                for h1 in c.hom(mon.tensor(p1, a), mon.tensor(q2, b))
                for h2 in c.hom(mon.tensor(q1, b), mon.tensor(p2, a)))

        def act(fm, gm, v):
            (f1, f2), (g1, g2) = split_mor(c, fm), split_mor(c, gm)
            h1, h2 = v
            ia, ib = c.identity(a), c.identity(b)
            return (c.compose(mon.tensor_m(f1, ia),
                              c.compose(h1, mon.tensor_m(g2, ib))),
                    c.compose(mon.tensor_m(f2, ib),
                              c.compose(h2, mon.tensor_m(g1, ia))))

        super().__init__(product(c, c), fib, act)

    def cls(self, p, q, h1, h2):
        return super().cls(join_objs([(self.base, p), (self.base, q)]), h1, h2)


def learner_set(mon, a, b) -> LearnerSpace:
    return LearnerSpace(mon, a, b)


def learner_triples(mon, a, b) -> CoendSpace:
    """The cartesian learner set: implement, request and update morphisms
    sharing one parameter object, quotiented over the parameter."""
    _require(mon, "cartesian witness")
    c = mon.base
    ia, ib = c.identity(a), c.identity(b)

    def fib(p1, p2):
        pa1 = mon.tensor(p1, a)
        pab1 = mon.tensor(pa1, b)
        return tuple((i, r, u)
                     for i in c.hom(pa1, b)
                     for r in c.hom(pab1, a)
                     for u in c.hom(pab1, p2))

    def act(fm, gm, v):
        i, r, u = v
        fa = mon.tensor_m(fm, ia)
        fab = mon.tensor_m(fa, ib)
        return (c.compose(fa, i), c.compose(fab, r),
                c.compose(fab, c.compose(u, gm)))

    return CoendSpace(c, fib, act)


def learner_reduce(mon, a, b, learner_cls, triples: CoendSpace = None):
    """Reduce a monoidal learner class to an (implement, request, update)
    triple class over a cartesian oracle."""
    _require(mon, "cartesian witness")
    c, w = mon.base, mon.cartesian
    triples = triples or learner_triples(mon, a, b)
    s, (h1, h2) = learner_cls
    p, q = split_obj(c, s)
    i = c.compose(h1, w.proj2[(q, b)])
    qmap = c.compose(h1, w.proj1[(q, b)])          # p(x)a -> q
    wmap = c.compose(mon.tensor_m(qmap, c.identity(b)), h2)  # p(x)a(x)b -> p(x)a
    r = c.compose(wmap, w.proj2[(p, a)])
    u = c.compose(wmap, w.proj1[(p, a)])
    return triples.cls(p, i, r, u)


def triple_to_learner(mon, a, b, triple_cls, space: LearnerSpace = None):
    """Inverse direction: realize a triple as a learner with the second
    parameter chosen as p (x) a."""
    _require(mon, "cartesian witness")
    c, w = mon.base, mon.cartesian
    space = space or learner_set(mon, a, b)
    p, (i, r, u) = triple_cls
    pa = mon.tensor(p, a)
    h1 = w.pairing[(c.identity(pa), i)]            # p(x)a -> (p(x)a)(x)b
    h2 = w.pairing[(u, r)]                         # p(x)a(x)b -> p(x)a
    return space.cls(p, pa, h1, h2)


def lenses_to_learner(l1: Lens, l2: Lens, mon, space: LearnerSpace = None):
    """A pair of lenses (u,v) -> (a,a) and (v,u) -> (b,b) defines a learner
    on (a, b), by composing the legs through u and v."""
    t1, t2 = l1.typ, l2.typ
    if t1.x != t1.y or t2.x != t2.y:
        raise OpticError("learner lenses need port types (a,a) and (b,b)")
    if (t1.a, t1.b) != (t2.b, t2.a):
        raise OpticError("learner lenses must share their outer types crosswise")
    a, b = t1.x, t2.x
    c = mon.base
    space = space or learner_set(mon, a, b)
    h1 = c.compose(l1.bwd, l2.fwd)   # m(x)a -> v -> n(x)b
    h2 = c.compose(l2.bwd, l1.fwd)   # n(x)b -> u -> m(x)a
    return space.cls(l1.residual, l2.residual, h1, h2)
