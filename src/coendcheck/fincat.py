"""Explicit finite categories with strict monoidal structure.

Everything downstream is verified by brute force inside these small
universes: objects and morphisms are interned integer ids, composition is
a table, and every law is checked by exhaustive loops.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import NamedTuple

_UID = itertools.count()


class FixtureError(Exception):
    """Malformed fixture data (bad names, missing tables)."""


class Violation(NamedTuple):
    kind: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.detail}"


class ValidationReport:
    def __init__(self, subject):
        self.subject = subject
        self.violations = []

    @property
    def ok(self):
        return not self.violations

    def add(self, kind, detail):
        self.violations.append(Violation(kind, detail))

    def __str__(self):
        head = f"validation of {self.subject}: "
        if self.ok:
            return head + "ok"
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class FinCategory:
    """A finite category given by explicit tables.

    Objects are ids 0..n-1, morphisms ids 0..m-1.  `compose(f, g)` is in
    diagrammatic order: f: A->B composed with g: B->C gives A->C.
    """

    def __init__(self, name, obj_names, mor_names, dom, cod, compose_table,
                 identities):
        self.uid = next(_UID)
        self.name = name
        self.obj_names = tuple(obj_names)
        self.mor_names = tuple(mor_names)
        self.objects = range(len(self.obj_names))
        self.morphisms = range(len(self.mor_names))
        self._dom = tuple(dom)
        self._cod = tuple(cod)
        self._compose = dict(compose_table)
        self._identity = tuple(identities)
        self.identities = frozenset(self._identity)
        self._hom = {}
        for m in range(len(mor_names)):
            self._hom.setdefault((dom[m], cod[m]), []).append(m)
        self._hom = {k: tuple(v) for k, v in self._hom.items()}
        self._obj_by_name = {}
        for o, n in enumerate(obj_names):
            if n in self._obj_by_name:
                raise FixtureError(f"duplicate object name {n!r}")
            self._obj_by_name[n] = o
        # product/opposite bookkeeping, populated by the constructions below
        self.factors = None        # tuple of FinCategory for product categories
        self._op_cache = None
        # composite coend quotients over this middle category, by what
        # their relation grids read (profunctor.ComposedProf._coend)
        self._quotients = {}

    # -- basic accessors ---------------------------------------------------

    def obj_name(self, o):
        return self.obj_names[o]

    def obj_id(self, name):
        try:
            return self._obj_by_name[name]
        except KeyError:
            raise FixtureError(f"unknown object {name!r} in {self.name}")

    def mor_name(self, m):
        return self.mor_names[m]

    def mors_named(self, name):
        return tuple(m for m in self.morphisms if self.mor_names[m] == name)

    def mor_id(self, name):
        ms = self.mors_named(name)
        if not ms:
            raise FixtureError(f"unknown morphism {name!r} in {self.name}")
        if len(ms) > 1:
            raise FixtureError(f"ambiguous morphism name {name!r} in {self.name}")
        return ms[0]

    def dom(self, m):
        return self._dom[m]

    def cod(self, m):
        return self._cod[m]

    def hom(self, a, b):
        return self._hom.get((a, b), ())

    def identity(self, o):
        return self._identity[o]

    def compose(self, f, g):
        """Diagrammatic composition: f then g.  A product composes a pair
        from its factors' tables when first asked for it."""
        try:
            return self._compose[(f, g)]
        except KeyError:
            if self.factors and self._cod[f] == self._dom[g]:
                h = self._compose[(f, g)] = self.pack_mor(tuple(
                    c.compose(*fg) for c, *fg in zip(self.factors, self.mor_tuple(f),
                                                     self.mor_tuple(g))))
                return h
            raise FixtureError(
                f"no composition entry for {self.mor_name(f)};{self.mor_name(g)}"
                f" in {self.name}")

    def composition(self):
        """The whole composition table {(f, g): f;g}."""
        if self.factors:  # a product's is filled in by compose
            for f in self.morphisms:
                for o in self.objects:
                    for g in self.hom(self._cod[f], o):
                        self.compose(f, g)
        return self._compose

    def compose_chain(self, *ms):
        out = ms[0]
        for m in ms[1:]:
            out = self.compose(out, m)
        return out

    @functools.cached_property
    def generators(self):
        """Non-identity morphisms from which composition reaches every
        non-identity morphism.  A product pairs each factor's generators
        with identities in the other slots; any other category keeps its
        non-identity morphisms minus each one the rest already generate."""
        if self.factors is not None:
            ids = [[d.identity(o) for o in d.objects] for d in self.factors]
            gens = []
            for i, c in enumerate(self.factors):
                slots = ids[:i] + [c.generators] + ids[i + 1:]
                gens.extend(self.pack_mor(t) for t in itertools.product(*slots))
            return tuple(gens)
        gens = [m for m in self.morphisms if m not in self.identities]
        for m in tuple(gens):
            rest = [g for g in gens if g != m]
            if m in self._generated_by(rest):
                gens = rest
        return tuple(gens)

    @functools.cached_property
    def generators_from(self):
        """The generators grouped by domain: {object: generators from it},
        each group in generator order."""
        out = {}
        for f in self.generators:
            out.setdefault(self._dom[f], []).append(f)
        return out

    def _generated_by(self, gens):
        """The identities and every composite of the morphisms `gens`."""
        reached = set(self._identity)
        todo = list(reached)
        while todo:
            f = todo.pop()
            for g in gens:
                if self._cod[f] == self._dom[g]:
                    h = self.compose(f, g)
                    if h not in reached:
                        reached.add(h)
                        todo.append(h)
        return reached

    # -- product ids (see join_objs) ---------------------------------------

    def mor_tuple(self, m):
        """The factors' ids of the morphism m, with |factor.morphisms| as
        radices; (m,) outside a product."""
        if self.factors is None:
            return (m,)
        out = []
        for c in reversed(self.factors):
            m, d = divmod(m, len(c.morphisms))
            out.append(d)
        return tuple(reversed(out))

    def pack_mor(self, parts):
        if self.factors is None:
            (m,) = parts
            return m
        return join_mors(zip(self.factors, parts, strict=True))

    def __repr__(self):
        return (f"FinCategory({self.name!r}, {len(self.obj_names)} objects, "
                f"{len(self.mor_names)} morphisms)")


# A product's ids are its factors' ids in mixed radix, the last factor
# varying fastest (itertools.product order).  So an id of a product
# left x right is left id * |right| + right id, however either side is
# itself a product, and opposites share their base's ids.


def split_obj(right: FinCategory, o):
    """(left object, right object) of an object o of a product left x right."""
    return divmod(o, len(right.objects))


def split_mor(right: FinCategory, m):
    return divmod(m, len(right.morphisms))


def join_objs(pairs):
    """The product object of per-factor (category, object id) pairs."""
    return functools.reduce(lambda o, cx: o * len(cx[0].objects) + cx[1], pairs, 0)


def join_mors(pairs):
    return functools.reduce(lambda m, cx: m * len(cx[0].morphisms) + cx[1], pairs, 0)


class CartesianWitness(NamedTuple):
    """Projections, pairing and terminal points making the tensor a
    product.  A cocartesian structure on C is the cartesian structure of
    C^op: there proj1, proj2, pairing and terminal are C's injections
    A -> A(+)B, copairing A(+)B -> Y and initial points I -> X."""
    proj1: dict      # (A, B) -> morphism A(x)B -> A
    proj2: dict
    pairing: dict    # (h1: X->A, h2: X->B) -> X -> A(x)B
    terminal: dict   # X -> the morphism X -> I


class MonoidalStructure:
    def __init__(self, base, tensor_obj, tensor_mor, unit, braiding=None,
                 cartesian=None, cocartesian=None):
        self.base = base
        self.tensor_obj = tensor_obj    # (A, B) -> object
        self.tensor_mor = tensor_mor    # (f, g) -> morphism
        self.unit = unit
        self.braiding = braiding        # (A, B) -> morphism A(x)B -> B(x)A
        self.cartesian = cartesian      # a CartesianWitness
        self.cocartesian = cocartesian  # the cartesian witness of C^op

    def tensor(self, a, b):
        return self.tensor_obj[(a, b)]

    def tensor_m(self, f, g):
        return self.tensor_mor[(f, g)]

    def braid(self, a, b):
        if self.braiding is None:
            raise FixtureError(f"{self.base.name} carries no braiding")
        return self.braiding[(a, b)]


class FinFunctor(NamedTuple):
    name: str
    source: FinCategory
    target: FinCategory
    obj_map: dict
    mor_map: dict

    def obj(self, o):
        return self.obj_map[o]

    def mor(self, m):
        return self.mor_map[m]


# ---------------------------------------------------------------------------
# validation


def validate_category(c: FinCategory) -> ValidationReport:
    rep = ValidationReport(c.name)
    n_obj, n_mor = len(c.obj_names), len(c.mor_names)
    for m in c.morphisms:
        if not (0 <= c.dom(m) < n_obj and 0 <= c.cod(m) < n_obj):
            rep.add("malformed", f"morphism {c.mor_name(m)} has dangling endpoint")
    for o in c.objects:
        i = c.identity(o)
        if not (0 <= i < n_mor):
            rep.add("malformed", f"identity of {c.obj_name(o)} is a dangling id")
        elif c.dom(i) != o or c.cod(i) != o:
            rep.add("malformed", f"identity of {c.obj_name(o)} is not an endomorphism")
    table = c.composition()
    for (f, g), h in table.items():
        if not (0 <= h < n_mor):
            rep.add("malformed", f"composite of ({f},{g}) is a dangling id")
    if not rep.ok:
        return rep
    # totality and typing of composition
    for f in c.morphisms:
        for g in c.morphisms:
            if c.cod(f) != c.dom(g):
                continue
            if (f, g) not in table:
                rep.add("malformed",
                        f"missing composite {c.mor_name(f)};{c.mor_name(g)}")
                continue
            h = table[(f, g)]
            if c.dom(h) != c.dom(f) or c.cod(h) != c.cod(g):
                rep.add("malformed",
                        f"composite {c.mor_name(f)};{c.mor_name(g)} lands in the wrong hom-set")
    if not rep.ok:
        return rep
    for f in c.morphisms:
        if c.compose(c.identity(c.dom(f)), f) != f:
            rep.add("identity", f"id;{c.mor_name(f)} != {c.mor_name(f)}")
        if c.compose(f, c.identity(c.cod(f))) != f:
            rep.add("identity", f"{c.mor_name(f)};id != {c.mor_name(f)}")
    for f in c.morphisms:
        for g in c.morphisms:
            if c.cod(f) != c.dom(g):
                continue
            fg = c.compose(f, g)
            for h in c.morphisms:
                if c.cod(g) != c.dom(h):
                    continue
                if c.compose(fg, h) != c.compose(f, c.compose(g, h)):
                    rep.add("associativity",
                            f"({c.mor_name(f)};{c.mor_name(g)});{c.mor_name(h)} != "
                            f"{c.mor_name(f)};({c.mor_name(g)};{c.mor_name(h)})")
    return rep


def validate_monoidal(m: MonoidalStructure) -> ValidationReport:
    c = m.base
    rep = ValidationReport(f"monoidal structure on {c.name}")
    objs = list(c.objects)
    # totality
    for a in objs:
        for b in objs:
            if (a, b) not in m.tensor_obj:
                rep.add("malformed", f"tensor_obj missing at ({c.obj_name(a)},{c.obj_name(b)})")
    for f in c.morphisms:
        for g in c.morphisms:
            if (f, g) not in m.tensor_mor:
                rep.add("malformed", f"tensor_mor missing at ({c.mor_name(f)},{c.mor_name(g)})")
    if not rep.ok:
        return rep
    # strict associativity / unitality on objects
    for a in objs:
        if m.tensor(m.unit, a) != a or m.tensor(a, m.unit) != a:
            rep.add("strictness", f"unit law fails on object {c.obj_name(a)}")
        for b in objs:
            for d in objs:
                if m.tensor(m.tensor(a, b), d) != m.tensor(a, m.tensor(b, d)):
                    rep.add("strictness",
                            f"object associativity fails at ({c.obj_name(a)},{c.obj_name(b)},{c.obj_name(d)})")
    iu = c.identity(m.unit)
    for f in c.morphisms:
        tf = m.tensor_m(f, iu)
        ft = m.tensor_m(iu, f)
        if tf != f or ft != f:
            rep.add("strictness", f"morphism unit law fails at {c.mor_name(f)}")
        for g in c.morphisms:
            t = m.tensor_m(f, g)
            if c.dom(t) != m.tensor(c.dom(f), c.dom(g)) or \
               c.cod(t) != m.tensor(c.cod(f), c.cod(g)):
                rep.add("strictness", f"tensor_mor typing fails at ({c.mor_name(f)},{c.mor_name(g)})")
            for h in c.morphisms:
                if m.tensor_m(m.tensor_m(f, g), h) != m.tensor_m(f, m.tensor_m(g, h)):
                    rep.add("strictness",
                            f"morphism associativity fails at ({c.mor_name(f)},{c.mor_name(g)},{c.mor_name(h)})")
    for a in objs:
        for b in objs:
            if m.tensor_m(c.identity(a), c.identity(b)) != c.identity(m.tensor(a, b)):
                rep.add("strictness",
                        f"tensor of identities is not the identity at ({c.obj_name(a)},{c.obj_name(b)})")
    if not rep.ok:
        # typing is broken; the law loops below would chase dangling entries
        return rep
    # interchange
    for f1 in c.morphisms:
        for f2 in c.morphisms:
            if c.cod(f1) != c.dom(f2):
                continue
            for g1 in c.morphisms:
                for g2 in c.morphisms:
                    if c.cod(g1) != c.dom(g2):
                        continue
                    lhs = m.tensor_m(c.compose(f1, f2), c.compose(g1, g2))
                    rhs = c.compose(m.tensor_m(f1, g1), m.tensor_m(f2, g2))
                    if lhs != rhs:
                        rep.add("interchange",
                                f"interchange fails at ({c.mor_name(f1)};{c.mor_name(f2)}, "
                                f"{c.mor_name(g1)};{c.mor_name(g2)})")
    if m.braiding is not None:
        _validate_braiding(m, rep)
    if m.cartesian is not None:
        _validate_cartesian(m, rep, "cartesian")
    if m.cocartesian is not None:
        _validate_cartesian(opposite_monoidal(m), rep, "cocartesian")
    return rep


def _validate_braiding(m, rep):
    c = m.base
    for a in c.objects:
        for b in c.objects:
            if (a, b) not in m.braiding:
                rep.add("malformed", f"braiding missing at ({c.obj_name(a)},{c.obj_name(b)})")
                continue
            s = m.braiding[(a, b)]
            if c.dom(s) != m.tensor(a, b) or c.cod(s) != m.tensor(b, a):
                rep.add("braiding", f"braiding at ({c.obj_name(a)},{c.obj_name(b)}) has wrong type")
    if not rep.ok:
        return
    for a in c.objects:
        if m.braiding[(a, m.unit)] != c.identity(a) or \
           m.braiding[(m.unit, a)] != c.identity(a):
            rep.add("braiding", f"unit braiding at {c.obj_name(a)} is not the identity")
        for b in c.objects:
            s = m.braiding[(a, b)]
            if c.compose(s, m.braiding[(b, a)]) != c.identity(m.tensor(a, b)):
                rep.add("braiding", f"symmetry fails at ({c.obj_name(a)},{c.obj_name(b)})")
    # naturality
    for f in c.morphisms:
        for g in c.morphisms:
            a, a1 = c.dom(f), c.cod(f)
            b, b1 = c.dom(g), c.cod(g)
            lhs = c.compose(m.tensor_m(f, g), m.braiding[(a1, b1)])
            rhs = c.compose(m.braiding[(a, b)], m.tensor_m(g, f))
            if lhs != rhs:
                rep.add("braiding", f"naturality fails at ({c.mor_name(f)},{c.mor_name(g)})")
    # strict hexagons
    for a in c.objects:
        for b in c.objects:
            for d in c.objects:
                s = m.braiding
                lhs = s[(a, m.tensor(b, d))]
                rhs = c.compose(m.tensor_m(s[(a, b)], c.identity(d)),
                                m.tensor_m(c.identity(b), s[(a, d)]))
                if lhs != rhs:
                    rep.add("braiding", f"hexagon fails at ({c.obj_name(a)},{c.obj_name(b)},{c.obj_name(d)})")
                lhs = s[(m.tensor(a, b), d)]
                rhs = c.compose(m.tensor_m(c.identity(a), s[(b, d)]),
                                m.tensor_m(s[(a, d)], c.identity(b)))
                if lhs != rhs:
                    rep.add("braiding", f"co-hexagon fails at ({c.obj_name(a)},{c.obj_name(b)},{c.obj_name(d)})")


# each witness block's JSON keys, which also name it in messages: its two
# projections, its pairing and its terminal points (the cocartesian block
# holds the cartesian witness of C^op, so these are C's injections,
# copairing and initial points)
_WITNESSES = {"cartesian": ("proj1", "proj2", "pairing", "terminal"),
              "cocartesian": ("inj1", "inj2", "copairing", "initial")}


def _validate_cartesian(m, rep, kind):
    """Check m.cartesian in the words of the `kind` witness block."""
    one, two, pairing, terminal = _WITNESSES[kind]
    c, w = m.base, m.cartesian
    for a in c.objects:
        for b in c.objects:
            ab = m.tensor(a, b)
            for key, tgt, tab in ((one, a, w.proj1), (two, b, w.proj2)):
                if (a, b) not in tab:
                    rep.add("malformed", f"{key} missing at ({c.obj_name(a)},{c.obj_name(b)})")
                    continue
                p = tab[(a, b)]
                if c.dom(p) != ab or c.cod(p) != tgt:
                    rep.add(kind, f"{key} at ({c.obj_name(a)},{c.obj_name(b)}) has wrong type")
    if not rep.ok:
        return
    for x in c.objects:
        if x not in w.terminal:
            rep.add("malformed", f"{terminal} point missing at {c.obj_name(x)}")
            continue
        t = w.terminal[x]
        if c.dom(t) != x or c.cod(t) != m.unit:
            rep.add(kind, f"{terminal} point at {c.obj_name(x)} has wrong type")
        elif c.hom(x, m.unit) != (t,):
            rep.add(kind, f"unit is not {terminal} at {c.obj_name(x)}")
        for a in c.objects:
            for b in c.objects:
                p1, p2 = w.proj1[(a, b)], w.proj2[(a, b)]
                for h1 in c.hom(x, a):
                    for h2 in c.hom(x, b):
                        if (h1, h2) not in w.pairing:
                            rep.add("malformed",
                                    f"{pairing} missing for ({c.mor_name(h1)},{c.mor_name(h2)})")
                            continue
                        p = w.pairing[(h1, h2)]
                        cands = [q for q in c.hom(x, m.tensor(a, b))
                                 if c.compose(q, p1) == h1 and c.compose(q, p2) == h2]
                        if cands != [p]:
                            rep.add(kind,
                                    f"{pairing} of ({c.mor_name(h1)},{c.mor_name(h2)}) is not the "
                                    f"unique mediating morphism")


def validate_functor(fn: FinFunctor) -> ValidationReport:
    rep = ValidationReport(f"functor {fn.name}")
    s, t = fn.source, fn.target
    for o in s.objects:
        if o not in fn.obj_map:
            rep.add("malformed", f"object map missing at {s.obj_name(o)}")
    for m in s.morphisms:
        if m not in fn.mor_map:
            rep.add("malformed", f"morphism map missing at {s.mor_name(m)}")
    if not rep.ok:
        return rep
    for m in s.morphisms:
        fm = fn.mor_map[m]
        if t.dom(fm) != fn.obj_map[s.dom(m)] or t.cod(fm) != fn.obj_map[s.cod(m)]:
            rep.add("functoriality", f"image of {s.mor_name(m)} has wrong type")
    if not rep.ok:
        return rep
    for o in s.objects:
        if fn.mor_map[s.identity(o)] != t.identity(fn.obj_map[o]):
            rep.add("functoriality", f"identity at {s.obj_name(o)} not preserved")
    for f in s.morphisms:
        for g in s.morphisms:
            if s.cod(f) != s.dom(g):
                continue
            if fn.mor_map[s.compose(f, g)] != t.compose(fn.mor_map[f], fn.mor_map[g]):
                rep.add("functoriality",
                        f"composition not preserved at ({s.mor_name(f)},{s.mor_name(g)})")
    return rep


def compose_functors(f: FinFunctor, g: FinFunctor) -> FinFunctor:
    """Diagrammatic composite: f then g."""
    if f.target is not g.source:
        raise FixtureError(f"functors {f.name} and {g.name} are not composable")
    return FinFunctor(f"{f.name};{g.name}", f.source, g.target,
                      {o: g.obj_map[fo] for o, fo in f.obj_map.items()},
                      {m: g.mor_map[fm] for m, fm in f.mor_map.items()})


# ---------------------------------------------------------------------------
# constructions


def opposite(c: FinCategory) -> FinCategory:
    """Reverse all morphisms.  Object and morphism ids are shared with the
    base; the opposite of a product is the (interned) product of the
    factors' opposites, so mirrored boundaries meet at identical objects."""
    if c._op_cache is not None:
        return c._op_cache
    if c.factors is not None:
        op = product(*map(opposite, c.factors))
    else:
        op = FinCategory(f"op({c.name})", c.obj_names, c.mor_names,
                         c._cod, c._dom,
                         {(g, f): h for (f, g), h in c._compose.items()},
                         c._identity)
    op._op_cache = c
    c._op_cache = op
    return op


def opposite_monoidal(m: MonoidalStructure) -> MonoidalStructure:
    """The same tensor on C^op; the (co)cartesian witnesses trade places.
    Tables are shared with m, except the braiding, which is transposed."""
    braiding = None
    if m.braiding is not None:
        braiding = {(b, a): s for (a, b), s in m.braiding.items()}
    return MonoidalStructure(opposite(m.base), m.tensor_obj, m.tensor_mor, m.unit,
                             braiding, m.cocartesian, m.cartesian)


_PRODUCT_CACHE = {}


def product(*cats: FinCategory) -> FinCategory:
    """The n-ary product category, flattened over product factors.

    Products are interned per flat factor list, so any two boundaries with
    the same wire list resolve to the identical category object.
    """
    flat = []
    for c in cats:
        flat.extend(c.factors if c.factors is not None else [c])
    key = tuple(c.uid for c in flat)
    if key in _PRODUCT_CACHE:
        return _PRODUCT_CACHE[key]
    if len(flat) == 1:
        _PRODUCT_CACHE[key] = flat[0]
        return flat[0]
    name = "(" + "*".join(c.name for c in flat) + ")" if flat else "1"

    def names(table, empty):
        return ["(" + "|".join(t) + ")" for t in itertools.product(
            *[getattr(c, table) for c in flat])] if flat else [empty]

    def ids(table, kind):
        """The factors' `table` entries as product ids, in id order."""
        out = [0]
        for c in flat:
            n = len(getattr(c, kind))
            out = [i * n + x for i in out for x in getattr(c, table)]
        return out
    # no composites yet: compose fills them in from the factors (a product
    # of three factors of twenty morphisms has ~10^6 composable pairs, few
    # of which a check reads)
    p = FinCategory(name, names("obj_names", "*"), names("mor_names", "id*"),
                    ids("_dom", "objects"), ids("_cod", "objects"),
                    {(0, 0): 0} if not flat else {}, ids("_identity", "morphisms"))
    p.factors = tuple(flat)
    _PRODUCT_CACHE[key] = p
    return p


def terminal_category() -> FinCategory:
    return product()


def product_monoidal(m1: MonoidalStructure, m2: MonoidalStructure) -> MonoidalStructure:
    """The factorwise tensor, unit and braiding on the product of the bases."""
    c1, c2 = m1.base, m2.base
    c = product(c1, c2)

    def factorwise(t1, t2, ids, split, join):
        pairs = [(x, split(c2, x)) for x in ids]
        return {(x, y): join(((c1, t1[(x1, y1)]), (c2, t2[(x2, y2)])))
                for x, (x1, x2) in pairs for y, (y1, y2) in pairs}
    braiding = None
    if m1.braiding is not None and m2.braiding is not None:
        braiding = factorwise(m1.braiding, m2.braiding, c.objects, split_obj, join_mors)
    return MonoidalStructure(
        c, factorwise(m1.tensor_obj, m2.tensor_obj, c.objects, split_obj, join_objs),
        factorwise(m1.tensor_mor, m2.tensor_mor, c.morphisms, split_mor, join_mors),
        join_objs(((c1, m1.unit), (c2, m2.unit))), braiding)


# ---------------------------------------------------------------------------
# builders


def build_category(name, objects, homs, compose, identities) -> FinCategory:
    """Build from name-level data.

    objects: list of object names.  homs: {(a, b): [morphism names]}.
    compose: {(f_name, g_name): h_name} in diagrammatic order.
    identities: {obj_name: morphism name}.
    Duplicate morphism names within one hom-set are rejected; duplicates
    across hom-sets are resolved by typing.
    """
    obj_ids = {n: i for i, n in enumerate(objects)}
    mor_names, dom, cod = [], [], []
    for (a, b), names in homs.items():
        if a not in obj_ids or b not in obj_ids:
            raise FixtureError(f"hom key {a}->{b} names an unknown object")
        if len(set(names)) != len(names):
            raise FixtureError(f"duplicate morphism name in hom({a},{b})")
        for n in names:
            mor_names.append(n)
            dom.append(obj_ids[a])
            cod.append(obj_ids[b])
    by_name = {}
    for i, n in enumerate(mor_names):
        by_name.setdefault(n, []).append(i)

    def resolve(n, d=None, c=None):
        # a globally unique name stands on its own (so a tampered table can
        # still load and then fail validation); otherwise fall back to the
        # expected hom-set to disambiguate
        cands = by_name.get(n, ())
        if len(cands) != 1:
            cands = [i for i in cands
                     if (d is None or dom[i] == d) and (c is None or cod[i] == c)]
        if len(cands) != 1:
            raise FixtureError(f"morphism name {n!r} is {'unknown' if not cands else 'ambiguous'}")
        return cands[0]

    table = {}
    for (fn, gn), hn in compose.items():
        pairs = [(i, j) for i in by_name.get(fn, ()) for j in by_name.get(gn, ())
                 if cod[i] == dom[j]]
        if len(pairs) != 1:
            raise FixtureError(f"composition entry ({fn},{gn}) is "
                               f"{'unknown' if not pairs else 'ambiguous'}")
        i, j = pairs[0]
        table[(i, j)] = resolve(hn, dom[i], cod[j])
    idents = [resolve(identities[n], obj_ids[n], obj_ids[n]) for n in objects]
    return FinCategory(name, objects, mor_names, dom, cod, table, idents)


def from_lattice(name, elements, order, mode) -> MonoidalStructure:
    """Thin category from a finite lattice; meet gives a cartesian oracle,
    join a cocartesian one.

    order is the set of pairs (a, b) with a <= b, reflexive and transitive.
    """
    if mode not in ("meet", "join"):
        raise FixtureError(f"mode must be 'meet' or 'join', got {mode!r}")
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    leq = [[False] * n for _ in range(n)]
    for (a, b) in order:
        leq[idx[a]][idx[b]] = True
    for i in range(n):
        if not leq[i][i]:
            raise FixtureError(f"order is not reflexive at {elements[i]}")
    for i in range(n):
        for j in range(n):
            if leq[i][j] and leq[j][i] and i != j:
                raise FixtureError(f"order is not antisymmetric at ({elements[i]},{elements[j]})")
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    raise FixtureError(f"order is not transitive at ({elements[i]},{elements[k]})")

    # a join is a meet in the reversed order, and the cocartesian witness
    # is the cartesian one of the opposite category
    below = leq if mode == "meet" else [list(col) for col in zip(*leq)]

    def bound(i, j):
        cands = [k for k in range(n) if below[k][i] and below[k][j]]
        best = [k for k in cands if all(below[c][k] for c in cands)]
        if len(best) != 1:
            raise FixtureError(f"no {mode} for ({elements[i]},{elements[j]})")
        return best[0]

    units = [k for k in range(n) if all(below[i][k] for i in range(n))]
    if len(units) != 1:
        raise FixtureError(f"lattice has no {'top' if mode == 'meet' else 'bottom'} element")
    unit = units[0]

    homs = {}
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                nm = f"id_{elements[i]}" if i == j else f"{elements[i]}<{elements[j]}"
                homs[(elements[i], elements[j])] = [nm]
    compose = {}
    for (a, b), (f,) in homs.items():
        for (b2, c2), (g,) in homs.items():
            if b == b2:
                compose[(f, g)] = homs[(a, c2)][0]
    identities = {e: homs[(e, e)][0] for e in elements}
    cat = build_category(name, list(elements), homs, compose, identities)
    w = cat if mode == "meet" else opposite(cat)

    def arrow(i, j):
        return w.hom(i, j)[0]

    t_obj = {(i, j): bound(i, j) for i in range(n) for j in range(n)}
    t_mor = {}
    for f in w.morphisms:
        for g in w.morphisms:
            t_mor[(f, g)] = arrow(bound(w.dom(f), w.dom(g)), bound(w.cod(f), w.cod(g)))
    braiding = {(i, j): cat.identity(bound(i, j)) for i in range(n) for j in range(n)}
    cart = CartesianWitness(
        proj1={(i, j): arrow(bound(i, j), i) for i in range(n) for j in range(n)},
        proj2={(i, j): arrow(bound(i, j), j) for i in range(n) for j in range(n)},
        pairing={(h1, h2): arrow(w.dom(h1), bound(w.cod(h1), w.cod(h2)))
                 for h1 in w.morphisms for h2 in w.morphisms if w.dom(h1) == w.dom(h2)},
        terminal={i: arrow(i, unit) for i in range(n)})
    witness = "cartesian" if mode == "meet" else "cocartesian"
    return MonoidalStructure(cat, t_obj, t_mor, unit, braiding, **{witness: cart})


def from_comm_monoid(name, elements, op, unit) -> MonoidalStructure:
    """One-object oracle from a commutative monoid; tensor on morphisms is
    the monoid operation, so interchange is Eckmann-Hilton-tight.
    """
    idx = {e: i for i, e in enumerate(elements)}
    for a, b in itertools.product(elements, repeat=2):
        if op[(a, b)] not in idx:
            raise FixtureError(f"operation leaves the carrier at ({a},{b})")
    for a in elements:
        for b in elements:
            if op[(a, b)] != op[(b, a)]:
                raise FixtureError(f"operation is not commutative at ({a},{b})")
            for c in elements:
                if op[(op[(a, b)], c)] != op[(a, op[(b, c)])]:
                    raise FixtureError(f"operation is not associative at ({a},{b},{c})")
        if op[(unit, a)] != a:
            raise FixtureError(f"unit law fails at {a}")
    homs = {("x", "x"): [str(e) for e in elements]}
    compose = {(str(a), str(b)): str(op[(a, b)]) for a in elements for b in elements}
    cat = build_category(name, ["x"], homs, compose, {"x": str(unit)})
    t_mor = {(idx[a], idx[b]): idx[op[(a, b)]] for a in elements for b in elements}
    return MonoidalStructure(cat, {(0, 0): 0}, t_mor, 0,
                             braiding={(0, 0): cat.identity(0)})


# ---------------------------------------------------------------------------
# fixture file format (JSON syntax)


def _split_pair(key):
    parts = key.split("->")
    if len(parts) != 2:
        raise FixtureError(f"bad hom key {key!r}, expected 'A->B'")
    return parts[0], parts[1]


# the JSON shape of a fixture: str is a string, [s] an array of s, [s, ...]
# an array of as many s, {"": s} an object of s, and another dict an object
# whose keys named in it have their shapes
_TABLE, _TRIPLES = {"": str}, [[str] * 3]
_SCHEMA = {"name": str, "objects": [str], "homs": {"": [str]}, "compose": _TRIPLES,
           "identities": _TABLE, "monoidal": {
               "tensor_obj": _TABLE, "tensor_mor": _TRIPLES, "unit": str, "braiding": _TABLE,
               **{key: dict(zip(words, (_TABLE, _TABLE, _TRIPLES, _TABLE)))
                  for key, words in _WITNESSES.items()}}}
_JSON_TYPES = {str: "string", list: "array", dict: "object"}


def _check_shape(value, shape, where):
    """Raise FixtureError unless `value` has the JSON `shape`."""
    kind = shape if shape is str else type(shape)
    if not isinstance(value, kind):
        raise FixtureError(f"{where} must be a JSON {_JSON_TYPES[kind]}")
    if kind is list and len(shape) > 1 and len(value) != len(shape):
        raise FixtureError(f"{where} must have {len(shape)} entries")
    for k, v in enumerate(value) if kind is list else value.items() if kind is dict else ():
        sub = shape[0] if kind is list else shape.get("", shape.get(k))
        if sub is not None:
            _check_shape(v, sub, f"{where}[{k!r}]")


def load_fixture(data) -> tuple:
    """Load a category fixture from parsed JSON data.

    Returns (FinCategory, MonoidalStructure or None).
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    _check_shape(data, _SCHEMA, "fixture")
    try:
        return _load_fixture(data)
    except KeyError as e:
        raise FixtureError(f"fixture is missing key {e}")


def _load_fixture(data):
    objects = list(data["objects"])
    homs = {_split_pair(k): list(v) for k, v in data["homs"].items()}
    compose = {(f, g): h for f, g, h in data["compose"]}
    identities = dict(data["identities"])
    cat = build_category(data.get("name", "fixture"), objects, homs, compose, identities)
    if "monoidal" not in data:
        return cat, None
    mb = data["monoidal"]

    def obj_pairs(table):
        return {_obj_pair(cat, k): cat.mor_id(v) for k, v in table.items()}

    t_obj = {(cat.obj_id(a), cat.obj_id(b)): cat.obj_id(v)
             for (a, b), v in ((_split_comma(k), v) for k, v in mb["tensor_obj"].items())}
    t_mor = {}
    for f, g, h in mb["tensor_mor"]:
        pairs = [(i, j) for i in cat.mors_named(f) for j in cat.mors_named(g)]
        if len(pairs) != 1:
            raise FixtureError(f"tensor_mor entry ({f},{g}) is ambiguous")
        t_mor[pairs[0]] = cat.mor_id(h)
    mon = MonoidalStructure(cat, t_obj, t_mor, cat.obj_id(mb["unit"]))
    if "braiding" in mb:
        mon.braiding = obj_pairs(mb["braiding"])
    for key, (one, two, pairing, point) in _WITNESSES.items():
        if key in mb:
            w = mb[key]
            setattr(mon, key, CartesianWitness(
                obj_pairs(w[one]), obj_pairs(w[two]),
                {(cat.mor_id(f), cat.mor_id(g)): cat.mor_id(h)
                 for f, g, h in w[pairing]},
                {cat.obj_id(k): cat.mor_id(v) for k, v in w[point].items()}))
    return cat, mon


def _split_comma(key):
    parts = key.split(",")
    if len(parts) != 2:
        raise FixtureError(f"bad pair key {key!r}, expected 'A,B'")
    return parts[0], parts[1]


def _obj_pair(cat, key):
    a, b = _split_comma(key)
    return cat.obj_id(a), cat.obj_id(b)


def load_fixture_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise FixtureError(f"{path}: not valid JSON ({e})")
    return load_fixture(data)


def dump_fixture(cat: FinCategory, mon: MonoidalStructure = None) -> dict:
    """Serialize back to the fixture file format."""
    on, mn = cat.obj_name, cat.mor_name

    def obj_pairs(table):
        return {f"{on(a)},{on(b)}": mn(v) for (a, b), v in sorted(table.items())}

    def triples(table):
        return sorted([mn(f), mn(g), mn(h)] for (f, g), h in table.items())

    data = {
        "name": cat.name,
        "objects": list(cat.obj_names),
        "homs": {f"{on(a)}->{on(b)}": [mn(m) for m in ms]
                 for (a, b), ms in sorted(cat._hom.items())},
        "compose": triples(cat.composition()),
        "identities": {on(o): mn(cat.identity(o)) for o in cat.objects},
    }
    if mon is None:
        return data
    mb = {
        "tensor_obj": {f"{on(a)},{on(b)}": on(v)
                       for (a, b), v in sorted(mon.tensor_obj.items())},
        "tensor_mor": triples(mon.tensor_mor),
        "unit": on(mon.unit),
    }
    if mon.braiding is not None:
        mb["braiding"] = obj_pairs(mon.braiding)
    for key, (one, two, pairing, point) in _WITNESSES.items():
        w = getattr(mon, key)
        if w is not None:
            mb[key] = {one: obj_pairs(w.proj1), two: obj_pairs(w.proj2),
                       pairing: triples(w.pairing),
                       point: {on(o): mn(v) for o, v in sorted(w.terminal.items())}}
    data["monoidal"] = mb
    return data
