"""Set-valued profunctors between finite categories, with coends computed
as union-find coequalizers over a generating set of morphisms.

Every functor F: C -> D gives an adjoint pair of representables, its
companion D(F-, -) and its conjoint D(-, F-).  Ports, units,
junctions/forks and functor boxes are this pair for four functors: a point
1 -> C, the unit, the tensor C x C -> C, and F itself.

Element values are nested tuples over leaves (interned morphism ids, or
short strings for singleton fibers).  All elements of one profunctor have
the same tuple shape, so Python's tuple order, which compares their leaves
left to right, is a total order on them.  Every fiber lists its elements
in that order, so every coend index is in tuple order too: the least
position of a class holds its least element, the canonical
representative, and a coend finds it by positions alone.  So the
composite coends over one middle category whose relation grids are
equal share one quotient, which that category keeps.
"""

from __future__ import annotations

import functools

from .fincat import (FinCategory, FinFunctor, opposite, product, split_mor, split_obj,
                     terminal_category)


class ProfunctorError(Exception):
    pass


class ConcreteProf:
    """A profunctor source^op x target -> Set with explicit finite fibers.

    fiber_fn(a, b) returns the element values at (a, b) in tuple order (a
    coend represents a class by its first element listed); act(f, g, v)
    is the two-sided action for f: a'->a in source and g: b->b' in target,
    and table(f, g) is that action as positions.
    """

    def __init__(self, source: FinCategory, target: FinCategory, fiber_fn,
                 act_fn, render=None):
        self.source = source
        self.target = target
        self._fiber_fn = fiber_fn
        self.act = act_fn
        self._render = render
        self._fibers = {}
        self._supports = {}
        self._tables = {}

    def fiber(self, a, b):
        fib = self._fibers.get((a, b))
        if fib is None:
            fib = self._fibers[a, b] = tuple(self._fiber_fn(a, b))
        return fib

    def support(self, a):
        """The objects b with P(a, b) non-empty, in id order, as the keys
        of a dict (so membership is one lookup); kept per a."""
        sup = self._supports.get(a)
        if sup is None:
            sup = self._supports[a] = self._support(a)
        return sup

    def _support(self, a):
        return dict.fromkeys(b for b in self.target.objects if self.fiber(a, b))

    def table(self, f, g):
        """P(f, g) as positions: for each v in P(cod f, dom g), in order,
        the position of P(f, g)v in P(dom f, cod g).  Built on first read
        and kept, so every coend that reads it shares it.  With f and g
        both identities it is range(|P(dom f, cod g)|), by the identity
        law, as a fiber lists each element once."""
        table = self._tables.get((f, g))
        if table is None:
            src, tgt = self.source, self.target
            if f in src.identities and g in tgt.identities:
                table = range(len(self.fiber(src.dom(f), tgt.cod(g))))
            else:
                table = self._table(f, g)
            self._tables[f, g] = table
        return table

    def _table(self, f, g):
        """A leaf's table, by acting on its values."""
        src, tgt, act = self.source, self.target, self.act
        at = {w: i for i, w in enumerate(self.fiber(src.dom(f), tgt.cod(g)))}
        return [at[act(f, g, v)] for v in self.fiber(src.cod(f), tgt.dom(g))]

    def relations(self, f, base):
        """The coend relation of f: x -> y when source is target: for each
        q in P(y, x), (x, P(f, x)q) is related to (y, P(y, f)q).  It is
        the grid of `CoendSet` with one row, (base[x], base[y]), whose
        columns are the tables of P(f, x) and P(y, f), both over P(y, x):
        the fiber P(x, x) starts at base[x] in the coend index."""
        cat = self.source
        x, y = cat.dom(f), cat.cod(f)
        return [(base[x], base[y])], (self.table(f, cat.identity(x)),
                                      self.table(cat.identity(y), f))

    def members(self, a, b):
        """The raw elements at the fiber, grouped by class: with explicit
        fibers each element is a class of its own."""
        return {v: [v] for v in self.fiber(a, b)}

    def render(self, v):
        if self._render is not None:
            return self._render(v)
        return render_generic(v)

    def __repr__(self):
        return f"{type(self).__name__}({self.source.name}, {self.target.name})"


def render_generic(v):
    if isinstance(v, tuple):
        return "(" + ",".join(render_generic(x) for x in v) + ")"
    return str(v)


def validate_prof(p: ConcreteProf):
    """Exhaustive fiber order, identity and functoriality check; returns a
    list of violation strings (empty iff every fiber is listed in
    increasing tuple order and the actions are lawful)."""
    out = []
    src, tgt = p.source, p.target
    for a in src.objects:
        for b in p.support(a):
            fib = p.fiber(a, b)
            if any(v >= w for v, w in zip(fib, fib[1:])):
                out.append(f"fiber at ({a},{b}) is not in increasing tuple order")
            ida, idb = src.identity(a), tgt.identity(b)
            for v in fib:
                if p.act(ida, idb, v) != v:
                    out.append(f"identity action fails at ({a},{b}) on {p.render(v)}")
            for f in src.morphisms:
                if src.cod(f) != a:
                    continue
                for g in tgt.morphisms:
                    if tgt.dom(g) != b:
                        continue
                    for v in fib:
                        w = p.act(f, g, v)
                        if w not in p.fiber(src.dom(f), tgt.cod(g)):
                            out.append(f"action leaves the fiber at ({a},{b})")
                            continue
                        # composite actions agree with acting twice
                        for f2 in src.morphisms:
                            if src.cod(f2) != src.dom(f):
                                continue
                            if p.act(src.compose(f2, f), g, v) != p.act(f2, tgt.identity(tgt.cod(g)), w):
                                out.append(
                                    f"left functoriality fails at ({a},{b}) on {p.render(v)}")
                        for g2 in tgt.morphisms:
                            if tgt.dom(g2) != tgt.cod(g):
                                continue
                            if p.act(f, tgt.compose(g, g2), v) != p.act(src.identity(src.dom(f)), g2, w):
                                out.append(
                                    f"right functoriality fails at ({a},{b}) on {p.render(v)}")
    return out


# ---------------------------------------------------------------------------
# coends


class _derived:
    """A map that a coend derives from its classes: built on its first
    read and kept on the instance, where later reads find it first."""

    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, ce, owner=None):
        value = ce.__dict__[self.name] = self.build(ce)
        return value


def _walk(cat: FinCategory, base):
    """The generators of cat with both ends in `base`, in order: the only
    ones whose coend relation relates anything."""
    gens_from, cod = cat.generators_from, cat.cod
    return [f for x in base for f in gens_from.get(x, ()) if cod(f) in base]


class CoendSet:
    """The coequalizer of the two morphism actions on the diagonal of a
    profunctor with equal endpoints (a coend over the category `cat`).

    `index` is the tuple of tagged elements, object by object in id
    order, and the elements over x start at base[x]; an object left out
    of `base` has none.  The index is in tuple order: each fiber lists
    its elements in order (hom-sets and their products in id order, a
    composite's fiber as its representatives; `validate_prof` reports a
    fiber out of order).  relations(f, base) gives the relation of a
    generator f as a grid, (rows, (left, right)), with left and right
    read from `table`s of the profunctor's actions: each row (r, s) and
    column j relate the positions r + left[j] and s + right[j] of
    `index`.  Only the generators with both ends in
    `base` are related: an identity relates an element to itself, for a
    lawful action a composite's relation chains its factors' ones, and a
    generator with an end that holds no element relates nothing.

    A union links the larger root under the smaller, so every parent
    precedes its child and each class's root is its least position, which
    holds its least tagged element: the class's representative.  One pass
    in order then numbers the classes by their roots: `_heads` keeps the
    roots in order, `reps` their elements and `place` each position's
    class number.  `_rep_of` and `groups` (each representative's members
    in order) are built from them on first read.  A coend of at most one
    element reads no relation: its one element is its one class, so
    `reps` is `index`.  The coend with no elements is `empty_coend(cat)`,
    one per category.

    The partition depends on positions alone.  A coend given a `key`
    that fixes n and every grid it reads takes `place` and `_heads` from
    `cat._quotients` when that key is stored there, and reads no
    relation; else it runs the union-find and stores them under the key.
    So they are shared, read-only tuples; `reps` comes from the coend's
    own `index`.
    """

    def __init__(self, cat: FinCategory, index, base, relations, key=None):
        self.cat = cat
        self.index = index
        self.base = base
        n = len(index)
        if n <= 1:
            self.reps = index
            self._heads = self.place = ((), (0,))[n]
            return
        quotient = cat._quotients.get(key)
        if quotient is None:
            # union-find over positions, each root found by path halving
            parent = list(range(n))
            for f in _walk(cat, base):
                rows, (left, right) = relations(f, base)
                for r, s in rows:
                    for i, j in zip(left, right):
                        i += r
                        j += s
                        while parent[i] != i:
                            parent[i] = i = parent[parent[i]]
                        while parent[j] != j:
                            parent[j] = j = parent[parent[j]]
                        if i < j:
                            parent[j] = i
                        else:
                            parent[i] = j
            # a parent precedes its child, so one pass in order numbers the
            # roots in order and gives every other position its parent's number
            heads = []
            for k, r in enumerate(parent):
                if r == k:
                    parent[k] = len(heads)
                    heads.append(k)
                else:
                    parent[k] = parent[r]
            quotient = tuple(parent), tuple(heads)
            if key is not None:
                cat._quotients[key] = quotient
        self.place, self._heads = quotient
        self.reps = tuple(map(index.__getitem__, self._heads))

    @_derived
    def _rep_of(self):
        reps = self.reps
        return {t: reps[c] for t, c in zip(self.index, self.place)}

    @_derived
    def groups(self):
        members = [[] for _ in self.reps]
        for t, c in zip(self.index, self.place):
            members[c].append(t)
        return dict(zip(self.reps, members))

    @property
    def class_count(self):
        return len(self.reps)

    def rep(self, t):
        """The representative of the class of the tagged element t."""
        try:
            return self._rep_of[t]
        except KeyError:
            raise ProfunctorError(
                f"{render_generic(t)} is not an element of the coend index")

    def members(self, rep):
        return self.groups[rep]


def coend(p: ConcreteProf) -> CoendSet:
    """The coend of p over its category, on the tagged elements (x, v) for
    v in P(x, x)."""
    if p.source is not p.target:
        raise ProfunctorError("coend needs equal source and target")
    index, base = [], {}
    for x in p.source.objects:
        base[x] = len(index)
        index += [(x, v) for v in p.fiber(x, x)]
    return CoendSet(p.source, tuple(index), base, p.relations)


@functools.cache
def empty_coend(cat: FinCategory) -> CoendSet:
    """The coend over cat with no elements: every composite fiber outside
    its support shares it."""
    return CoendSet(cat, (), {}, None)


# ---------------------------------------------------------------------------
# basic constructors


def hom_prof(c: FinCategory) -> ConcreteProf:
    return ConcreteProf(
        c, c,
        lambda a, b: c.hom(a, b),
        lambda f, g, v: c.compose(f, c.compose(v, g)),
        render=c.mor_name)


def copy_prof(c: FinCategory) -> ConcreteProf:
    """The canonical pseudocomonoid C(-,-^1) x C(-,-^2): copies on the right."""
    def fib(x, t):
        a, b = split_obj(c, t)
        return tuple((p, q) for p in c.hom(x, a) for q in c.hom(x, b))

    def act(f, gp, v):
        g1, g2 = split_mor(c, gp)
        p, q = v
        return (c.compose(f, c.compose(p, g1)), c.compose(f, c.compose(q, g2)))

    return ConcreteProf(c, product(c, c), fib, act)


def merge_prof(c: FinCategory) -> ConcreteProf:
    """The canonical pseudomonoid C(-^1,-) x C(-^2,-): merges on the left."""
    return dual(copy_prof(opposite(c)))


def discard_prof(c: FinCategory) -> ConcreteProf:
    t = terminal_category()
    return ConcreteProf(c, t, lambda a, _: ("*",), lambda f, _, v: "*")


def codiscard_prof(c: FinCategory) -> ConcreteProf:
    return dual(discard_prof(opposite(c)))


def swap_prof(c1: FinCategory, c2: FinCategory) -> ConcreteProf:
    """The braiding 1-cell of the profunctor bicategory on c1 x c2."""
    def fib(s, t):
        a, b = split_obj(c2, s)
        b2, a2 = split_obj(c1, t)
        return tuple((u, v) for u in c1.hom(a, a2) for v in c2.hom(b, b2))

    def act(fp, gp, val):
        f1, f2 = split_mor(c2, fp)
        g2, g1 = split_mor(c1, gp)
        u, v = val
        return (c1.compose(f1, c1.compose(u, g1)), c2.compose(f2, c2.compose(v, g2)))

    return ConcreteProf(product(c1, c2), product(c2, c1), fib, act)


def cup_prof(c: FinCategory) -> ConcreteProf:
    """Counit of the compact closure: consumes a wire and its dual."""
    def fib(s, _):
        x, y = split_obj(c, s)
        return c.hom(x, y)

    def act(fp, _, v):
        f, gop = split_mor(c, fp)
        # gop: y' -> y in op(c), i.e. g: y -> y' in c
        return c.compose(f, c.compose(v, gop))

    return ConcreteProf(product(c, opposite(c)), terminal_category(), fib, act,
                        render=c.mor_name)


def cap_prof(c: FinCategory) -> ConcreteProf:
    """Unit of the compact closure: emits a dual wire and a wire."""
    return dual(cup_prof(c))


def point(c: FinCategory, a) -> FinFunctor:
    """The functor 1 -> c picking the object a."""
    if a not in c.objects:
        raise ProfunctorError(f"unknown object id {a} in {c.name}")
    return FinFunctor(c.obj_name(a), terminal_category(), c, {0: a},
                      {0: c.identity(a)})


def tensor_functor(m) -> FinFunctor:
    """The tensor C x C -> C of a monoidal structure, read off its tables."""
    c = m.base
    cc = product(c, c)
    return FinFunctor(
        f"(x)({c.name})", cc, c,
        {s: m.tensor(*split_obj(c, s)) for s in cc.objects},
        {f: m.tensor_m(*split_mor(c, f)) for f in cc.morphisms})


def companion(fn) -> ConcreteProf:
    """D(F-, -): the companion of a functor F: C -> D.  An inport is the
    companion of a point, a junction that of the tensor."""
    c, d = fn.source, fn.target
    return ConcreteProf(
        c, d,
        lambda x, y: d.hom(fn.obj(x), y),
        lambda f, g, v: d.compose(fn.mor(f), d.compose(v, g)),
        render=d.mor_name)


def conjoint(fn) -> ConcreteProf:
    """D(-, F-): the conjoint of a functor F: C -> D, the companion of F
    read in the opposite categories.  An outport is the conjoint of a
    point, a fork that of the tensor."""
    op_fn = FinFunctor(fn.name, opposite(fn.source), opposite(fn.target),
                       fn.obj_map, fn.mor_map)
    return dual(companion(op_fn))


def dual(p: ConcreteProf) -> ConcreteProf:
    """P read in the opposite categories: a profunctor from target^op to
    source^op with dual(P)(b, a) = P(a, b).  A mirror-image construction
    (a conjoint from a companion, merge from copy, ...) is its twin's dual."""
    return ConcreteProf(opposite(p.target), opposite(p.source),
                        lambda b, a: p.fiber(a, b),
                        lambda g, f, v: p.act(f, g, v),
                        render=p.render)


# ---------------------------------------------------------------------------
# tensor and composition


class TensorProf(ConcreteProf):
    """Parallel composition p1 (x) p2: fibers are cartesian products and
    actions componentwise, over the flattened products.  Its tables are
    its factors' tables by position, with no value acted on: a factor's
    table at two identities is a range, built without acting either."""

    def __init__(self, p1: ConcreteProf, p2: ConcreteProf):
        self.p1, self.p2 = p1, p2
        s2, t2 = p2.source, p2.target

        def fib(a, b):
            (a1, a2), (b1, b2) = split_obj(s2, a), split_obj(t2, b)
            return tuple((v1, v2) for v1 in p1.fiber(a1, b1) for v2 in p2.fiber(a2, b2))

        def act(f, g, v):
            (f1, f2), (g1, g2) = split_mor(s2, f), split_mor(t2, g)
            return (p1.act(f1, g1, v[0]), p2.act(f2, g2, v[1]))

        def render(v):
            return f"({p1.render(v[0])},{p2.render(v[1])})"

        super().__init__(product(p1.source, s2), product(p1.target, t2), fib, act,
                         render=render)

    def _support(self, a):
        """The product of the factors' supports, in the product's ids."""
        a1, a2 = split_obj(self.p2.source, a)
        s2, n2 = self.p2.support(a2), len(self.p2.target.objects)
        return dict.fromkeys(b1 * n2 + b2 for b1 in self.p1.support(a1) for b2 in s2)

    def _table(self, f, g):
        """From the factors' tables: (v1_i, v2_j) sits at i * n2 + j in
        P(cod f, dom g), so its image sits at t1[i] * n2' + t2[j] in
        P(dom f, cod g), with n2' = |P2(dom f2, cod g2)|."""
        p2 = self.p2
        (f1, f2), (g1, g2) = split_mor(p2.source, f), split_mor(p2.target, g)
        n2, t2 = len(p2.fiber(p2.source.dom(f2), p2.target.cod(g2))), p2.table(f2, g2)
        return [i1 * n2 + i2 for i1 in self.p1.table(f1, g1) for i2 in t2]

    def split_value(self, fiber, value):
        """The element `value` at `fiber` as its two factors, each with
        its own fiber: ((fiber of p1, value), (fiber of p2, value))."""
        (a1, a2), (b1, b2) = (split_obj(self.p2.source, fiber[0]),
                              split_obj(self.p2.target, fiber[1]))
        return ((a1, b1), value[0]), ((a2, b2), value[1])


class ComposedProf(ConcreteProf):
    """Sequential composition (P ; Q)(a, c) = coend over the middle category
    of P(a, -) x Q(-, c).

    The coend at (a, c) quotients the raw elements (m, u, w): a middle
    object and a pair of component values.  Elements of P ; Q are the
    canonical representatives, so the fiber at (a, c) is the coend's
    `reps`; `act` acts on them part by part and re-classifies, for
    element transport and points.

    The tables need no value: a coend is functorial, (P ; Q)(f, g) acting
    on a class [x, u, w] as [x, P(f, x)u, Q(x, g)w], and (x, u_i, w_j)
    sits at base[x] + i * |Q(x, c)| + j in the coend at (a, c).  So a
    representative's image is a position found from its factors' tables,
    and its class is that position's `place` in the target coend.

    The coend is empty unless some middle x has P(a, x) and Q(x, c) both
    non-empty, so supports compose as relations.  A coend is built only
    inside the support, over those x alone; outside it the fiber is the
    middle category's one `empty_coend`.
    """

    def __init__(self, p: ConcreteProf, q: ConcreteProf):
        if p.target is not q.source:
            raise ProfunctorError(f"cannot compose: middle categories "
                                  f"{p.target.name} and {q.source.name} differ")
        self.p, self.q = p, q
        self.source, self.mid, self.target = p.source, p.target, q.target
        self._coends = {}
        self._supports = {}
        self._tables = {}
        self._texts = {}

    def fiber(self, a, c):
        return self.coend_at(a, c).reps

    def coend_at(self, a, c) -> CoendSet:
        key = (a, c)
        ce = self._coends.get(key)
        if ce is None:
            ce = self._coends[key] = (self._coend(a, c) if c in self.support(a)
                                      else empty_coend(self.mid))
        return ce

    def _support(self, a):
        q = self.q
        return dict.fromkeys(sorted({c for x in self.p.support(a) for c in q.support(x)}))

    def _coend(self, a, c):
        """The coend at (a, c), over the raw (x, u, w) for u in P(a, x) and
        w in Q(x, c) on each middle object x with both non-empty.

        Its key is all that its grids read: each x in order with |P(a, x)|
        and |Q(x, c)|, then each generator f it walks followed by the
        contents of P(a, f) and Q(f, c), whose lengths those sizes fix.
        `_relations` runs only if the key is new, and reads the same
        tables, which the factors keep."""
        p, q, mid = self.p, self.q, self.mid
        index, base, sizes = [], {}, []
        for x in p.support(a):
            if c in q.support(x):
                base[x] = len(index)
                us, ws = p.fiber(a, x), q.fiber(x, c)
                sizes += x, len(us), len(ws)
                index += [(x, u, w) for u in us for w in ws]
        key = None
        if len(index) > 1:
            ida, idc = self.source.identity(a), self.target.identity(c)
            key = [tuple(sizes)]
            for f in _walk(mid, base):
                key += f, *p.table(ida, f), *q.table(f, idc)
            key = tuple(key)
        return CoendSet(mid, tuple(index), base, functools.partial(self._relations, a, c), key)

    def _relations(self, a, c, f, base):
        """(x, u_i, Q(f, c)w_j) ~ (y, P(a, f)u_i, w_j) for f: x -> y, as a
        grid read from the tables of P(a, f) and Q(f, c).  The
        fiber of the coend at x is |P(a, x)| rows of |Q(x, c)|: (x, u_i, w_j)
        sits at base[x] + i * |Q(x, c)| + j.  So row i is (base[x] + i *
        |Q(x, c)|, base[y] + P(a, f)[i] * |Q(y, c)|), and column j adds
        Q(f, c)[j] on the left and j on the right."""
        q, mid = self.q, self.mid
        x, y = mid.dom(f), mid.cod(f)
        nx, ny = len(q.fiber(x, c)), len(q.fiber(y, c))
        bx, by = base[x], base[y]
        rows = [(bx + i * nx, by + fi * ny)
                for i, fi in enumerate(self.p.table(self.source.identity(a), f))]
        return rows, (q.table(f, self.target.identity(c)), range(ny))

    def _table(self, f, g):
        """For each representative (x, u_i, w_j) of the coend at (cod f,
        dom g) in order, the class number of its image in the coend at
        (dom f, cod g), where it sits at base'[x] + P(f, x)[i] *
        |Q(x, cod g)| + Q(x, g)[j]."""
        p, q, mid, c2 = self.p, self.q, self.mid, self.target.cod(g)
        src = self.coend_at(self.source.cod(f), self.target.dom(g))
        dst = self.coend_at(self.source.dom(f), c2)
        index, base, place, to = src.index, src.base, dst.place, dst.base
        table, last = [], None
        for k in src._heads:
            x = index[k][0]
            if x != last:
                idx = mid.identity(x)
                last, bx, row0, n = x, base[x], to[x], len(q.fiber(x, c2))
                rows, cols = p.table(f, idx), q.table(idx, g)
                m = len(cols)
            i, j = divmod(k - bx, m)
            table.append(place[row0 + rows[i] * n + cols[j]])
        return table

    def classify(self, a, c, m, u, w):
        """Canonical representative of the class of the raw element."""
        ce = self._coends.get((a, c))
        if ce is None:
            ce = self.coend_at(a, c)
        return ce.rep((m, u, w))

    def act(self, f, g, val):
        return self._act(f, g, val)

    def _act(self, f, g, val):
        m, u, w = val
        a2 = self.source.dom(f)
        c2 = self.target.cod(g)
        u2 = self.p.act(f, self.mid.identity(m), u)
        w2 = self.q.act(self.mid.identity(m), g, w)
        return self.classify(a2, c2, m, u2, w2)

    def render(self, val):
        """The text of a value, kept per value: the same class is rendered
        at every fiber and assignment that shows it."""
        text = self._texts.get(val)
        if text is None:
            m, u, w = val
            text = self._texts[val] = (
                f"[{self.mid.obj_name(m)}: {self.p.render(u)}, {self.q.render(w)}]")
        return text

    def refold(self, fiber, vals, mids):
        """The class at `fiber` of the parts' values `vals` joined at the
        objects `mids`, folded through len(vals) - 1 composites down `p`:
        a first part that is itself a composite stays whole."""
        a, b = fiber
        v = vals[0] if len(vals) == 2 else self.p.refold((a, mids[-1]), vals[:-1], mids[:-1])
        return self.classify(a, b, mids[-1], v, vals[-1])

    def members(self, a, c):
        """All raw (m, u, w) index elements at the fiber, grouped by class."""
        return self.coend_at(a, c).groups
