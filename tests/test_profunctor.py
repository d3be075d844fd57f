import collections
import contextlib
import functools
import io
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcheck.cli import main
from coendcheck.demos import DEMOS, demo_dir, load_scripts, run_demo
from coendcheck.fincat import (build_category, from_comm_monoid, from_lattice,
                               join_objs, opposite, product, split_obj,
                               terminal_category)
from coendcheck.fixtures import FIXTURE_NAMES, build, fixture_path
from coendcheck.optics import lens_set
from coendcheck.profunctor import (ComposedProf, ConcreteProf,
                                   ProfunctorError, TensorProf, cap_prof,
                                   companion, conjoint, copy_prof,
                                   cup_prof, CoendSet, coend, discard_prof,
                                   hom_prof, merge_prof, point, swap_prof,
                                   tensor_functor, validate_prof)
from coendcheck.rewrite import (RULES, STEP_ERRORS, Report, Step, _count,
                                apply_step, check_derivation_once, check_step, unfold)
from coendcheck.shapelang import (Env, Evaluator, Par, Seq, ShapeTypeError, boundary,
                                  class_count, objects_in, parse_shape_script,
                                  print_term, sweep)


@pytest.fixture(scope="module")
def oracles():
    return {name: build(name) for name in FIXTURE_NAMES}


def value_key(v):
    """The flattened key of an element value: its leaves left to right,
    ints before strings (an order independent of the one CoendSet uses)."""
    if isinstance(v, tuple):
        return tuple(k for x in v for k in value_key(x))
    if isinstance(v, int):
        return ((0, v),)
    return ((1, str(v)),)


def tag_key(tagged):
    """The key of a tagged element (x, v) or (x, *v): both flatten alike."""
    return (tagged[0],) + value_key(tagged[1:])


def pair_tag(x, v):
    return (x, v)


def flat_tag(x, v):
    return (x, *v)


def naive_quotient(pairs, relations):
    """Independent oracle: quotient a finite set by the symmetric-transitive
    closure of a relation, via fixed-point sweeps that spread the least
    label over each related pair (no union-find)."""
    label = {p: i for i, p in enumerate(pairs)}
    changed = True
    while changed:
        changed = False
        for (x, y) in relations:
            lx, ly = label[x], label[y]
            if lx != ly:
                label[x] = label[y] = min(lx, ly)
                changed = True
    classes = {}
    for p in pairs:
        classes.setdefault(label[p], set()).add(p)
    return list(classes.values())


def coend_relations(p):
    """The coend relation of every morphism, identities and composites
    included."""
    cat = p.source
    rels = []
    for f in cat.morphisms:
        x, y = cat.dom(f), cat.cod(f)
        for q in p.fiber(y, x):
            rels.append(((x, p.act(f, cat.identity(x), q)),
                         (y, p.act(cat.identity(y), f, q))))
    return rels


def assert_matches_naive(p):
    """coend(p) against the naive closure, and each generator's one-row
    grid, expanded into position pairs and read back through the index,
    against acting on both sides."""
    ce = coend(p)
    assert_coend_matches_naive(ce, p, pair_tag)
    cat, naive = p.source, generator_relations(p)
    base = tuple(itertools.accumulate((len(p.fiber(x, x)) for x in cat.objects), initial=0))
    for f in cat.generators:
        pairs = grid_pairs(p.relations(f, base))
        assert {(ce.index[i], ce.index[j]) for i, j in pairs} == naive[f]


def two_sided_representable(c, lo, hi):
    """C(lo, -) x C(-, hi) as a profunctor from c to c: (u, w) at (a, b)
    for u: lo -> b and w: a -> hi.  By Yoneda its coend is C(lo, hi)."""
    return ConcreteProf(
        c, c,
        lambda a, b: tuple((u, w) for u in c.hom(lo, b) for w in c.hom(a, hi)),
        lambda f, g, v: (c.compose(v[0], g), c.compose(f, v[1])))


def assert_coend_matches_naive(ce, p, tag):
    """The classes, representatives and member order of a built coend
    against the closure over all morphisms of the reference p, whose
    element v over x the coend holds as tag(x, v)."""
    cat = p.source
    index = [tag(x, v) for x in cat.objects for v in p.fiber(x, x)]
    naive = naive_quotient(index, [(tag(*left), tag(*right))
                                   for left, right in coend_relations(p)])
    assert ce.class_count == len(naive)
    mine = {frozenset(ce.members(r)) for r in ce.reps}
    theirs = {frozenset(c) for c in naive}
    assert mine == theirs
    ordered = sorted((sorted(c, key=tag_key) for c in naive),
                     key=lambda c: tag_key(c[0]))
    assert ce.reps == tuple(c[0] for c in ordered)
    assert [ce.members(r) for r in ce.reps] == ordered


@contextlib.contextmanager
def recorded_coends():
    """Collect (composite, a, c) for every coend a composite builds
    meanwhile."""
    built = []
    real = ComposedProf._coend

    def record(comp, a, c):
        built.append((comp, a, c))
        return real(comp, a, c)
    with mock.patch.object(ComposedProf, "_coend", record):
        yield built


@contextlib.contextmanager
def recorded_fibers():
    """Collect every (composite, a, c) whose coend is read meanwhile."""
    seen = {}
    real = ComposedProf.coend_at

    def record(comp, a, c):
        seen[(comp, a, c)] = None
        return real(comp, a, c)
    with mock.patch.object(ComposedProf, "coend_at", record):
        yield seen


def pair_prof(p, q, a, c):
    """The reference P(a, -) x Q(-, c) on the middle category, whose coend
    is the fiber (P ; Q)(a, c): its fiber at (y, x) is P(a, x) x Q(y, c),
    and a morphism acts on one factor on each side."""
    ida, idc = p.source.identity(a), q.target.identity(c)
    return ConcreteProf(
        p.target, p.target,
        lambda y, x: tuple((u, w) for u in p.fiber(a, x) for w in q.fiber(y, c)),
        lambda f, g, v: (p.act(ida, g, v[0]), q.act(f, idc, v[1])))


def assert_fiber_matches_naive(comp, a, c):
    """The coend that a composite keeps at (a, c), against the naive
    quotient of a freshly built pair P(a, -) x Q(-, c), and against that
    pair's coend under the generic relation, flattened."""
    ce = comp.coend_at(a, c)
    pair = pair_prof(comp.p, comp.q, a, c)
    assert ce.cat is pair.source
    assert_coend_matches_naive(ce, pair, flat_tag)
    ref = coend(pair)
    assert list(ce.index) == [flat_tag(*t) for t in ref.index]
    assert list(ce.groups.values()) == [[flat_tag(*t) for t in group]
                                        for group in ref.groups.values()]
    return ce


def evaluate_every_fiber(term, env):
    prof = Evaluator(env).node(term)
    for a in prof.source.objects:
        for b in prof.target.objects:
            prof.fiber(a, b)


def discrete_category(n):
    objs = [f"o{i}" for i in range(n)]
    homs = {(o, o): [f"id{o}"] for o in objs}
    compose = {(f"id{o}", f"id{o}"): f"id{o}" for o in objs}
    return build_category("discrete", objs, homs, compose,
                          {o: f"id{o}" for o in objs})


# -- representables and canonical structures --------------------------------


def test_representables_on_chain():
    c = build("meet-lattice-2").base
    rin = companion(point(c, c.obj_id("0")))
    assert len(rin.fiber(0, c.obj_id("1"))) == 1
    rout = conjoint(point(c, c.obj_id("0")))
    assert len(rout.fiber(c.obj_id("1"), 0)) == 0


def test_hom_prof_action_is_two_sided_composition():
    c = build("z2").base
    h = hom_prof(c)
    one, zero = c.mor_id("1"), c.mor_id("0")
    assert len(h.fiber(0, 0)) == 2
    assert h.act(one, one, zero) == zero  # 1;0;1 = 0 mod 2
    assert h.act(one, zero, zero) == one


def test_junction_fork_unit_sizes(oracles):
    m2 = oracles["meet-lattice-2"]
    f = conjoint(tensor_functor(m2))
    one = m2.base.obj_id("1")
    assert len(f.fiber(one, join_objs([(m2.base, one), (m2.base, one)]))) == 1
    z2 = oracles["z2"]
    j = companion(tensor_functor(z2))
    assert len(j.fiber(join_objs([(z2.base, 0), (z2.base, 0)]), 0)) == 2
    uo = conjoint(point(m2.base, m2.unit))
    assert len(uo.fiber(m2.base.obj_id("0"), 0)) == 1
    ui = companion(point(m2.base, m2.unit))
    assert len(ui.fiber(0, m2.base.obj_id("0"))) == 0  # no arrow 1 -> 0


def test_constructed_profunctors_are_functorial(oracles):
    for name, mon in oracles.items():
        c = mon.base
        tensor, unit = tensor_functor(mon), point(c, mon.unit)
        profs = [hom_prof(c), companion(tensor), conjoint(tensor), companion(unit),
                 conjoint(unit), copy_prof(c), merge_prof(c), discard_prof(c),
                 swap_prof(c, c), cup_prof(c), cap_prof(c)]
        for a in c.objects:
            profs.append(companion(point(c, a)))
            profs.append(conjoint(point(c, a)))
        for p in profs:
            assert validate_prof(p) == [], (name, p)


@pytest.mark.parametrize("act, message", [
    (lambda f, g, v: "b", "identity action fails at (0,0) on a"),
    (lambda f, g, v: "z", "action leaves the fiber at (0,0)"),
], ids=["identity", "leaves-the-fiber"])
def test_validate_prof_reports_a_lawless_action(act, message):
    c = build("z2").base
    assert message in validate_prof(ConcreteProf(c, c, lambda a, b: ("a", "b"), act))


def test_validate_prof_reports_a_fiber_out_of_tuple_order():
    # a coend represents a class by its least position, so it reads each
    # fiber as listed in increasing tuple order, and a table at two
    # identities is the range over its fiber, so it reads each element as
    # listed once: a hom over z2 with its fibers reversed gives a
    # composite the greatest elements as representatives
    c = build("z2").base
    message = "fiber at (0,0) is not in increasing tuple order"
    rev = ConcreteProf(c, c, lambda a, b: c.hom(a, b)[::-1],
                       lambda f, g, v: c.compose(f, c.compose(v, g)))
    assert ComposedProf(rev, hom_prof(c)).fiber(0, 0) == ((0, 1, 0), (0, 1, 1))
    assert validate_prof(rev) == [message]
    twice = ConcreteProf(c, c, lambda a, b: ("a", "a"), lambda f, g, v: v)
    assert validate_prof(twice) == [message]


# -- coends ------------------------------------------------------------------


def test_coend_discrete_is_disjoint_union():
    c = discrete_category(3)
    p = hom_prof(c)
    ce = coend(p)
    assert ce.class_count == 3
    assert_matches_naive(p)


def test_coend_hom_z2_has_two_classes():
    p = hom_prof(build("z2").base)
    ce = coend(p)
    assert ce.class_count == 2
    assert_matches_naive(p)


def test_coend_two_sided_representable_is_hom():
    # coend over X of C(0,X) x C(X,1) on the chain: Yoneda predicts |C(0,1)| = 1
    c = build("meet-lattice-2").base
    lo, hi = c.obj_id("0"), c.obj_id("1")
    p = two_sided_representable(c, lo, hi)
    assert validate_prof(p) == []
    ce = coend(p)
    assert ce.class_count == len(c.hom(lo, hi)) == 1
    assert_matches_naive(p)
    # the same count through the composition route
    comp = ComposedProf(companion(point(c, lo)), conjoint(point(c, hi)))
    assert len(comp.fiber(0, 0)) == 1


def test_coend_of_all_fixture_homs_matches_naive(oracles):
    for mon in [*oracles.values(), z3()]:
        assert_matches_naive(hom_prof(mon.base))
        # over Z3 the relations of C(lo, -) x C(-, hi) are no symmetric sets
        # of pairs, so a grid that read P(f, x) and P(y, f) the wrong way
        # round would show
        c = mon.base
        lo, hi = c.objects[0], c.objects[-1]
        p = two_sided_representable(c, lo, hi)
        assert coend(p).class_count == len(c.hom(lo, hi))
        assert_matches_naive(p)
        tensor = tensor_functor(mon)
        assert_matches_naive(fork_junction := ComposedProf(conjoint(tensor),
                                                           companion(tensor)))


SCRIPTS = {name: parse_shape_script((demo_dir() / name).read_text(encoding="utf-8"))
           for name in ("lens.shapes", "feedback.shapes")}


def generator_relations(p):
    """coend_relations(p) split into one set per morphism (it lists each
    morphism's relation as one block, in the order of cat.morphisms)."""
    cat, naive = p.source, coend_relations(p)
    out, start = {}, 0
    for f in cat.morphisms:
        end = start + len(p.fiber(cat.cod(f), cat.dom(f)))
        out[f] = set(naive[start:end])
        start = end
    assert start == len(naive)
    return out


def z3():
    """(Z_3, +): its generator is no involution, unlike every morphism of
    the shipped one-object oracles, so a relation read backwards shows."""
    return from_comm_monoid("Z3", [0, 1, 2],
                            {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}, 0)


# lens.shapes meets products as middle categories, feedback.shapes also
# their opposites (its cost over prod-l2-z2 would double the test's)
@pytest.mark.parametrize("fx,scripts", [
    pytest.param("z2", ("lens.shapes", "feedback.shapes"), id="z2"),
    pytest.param("meet-lattice-2", ("lens.shapes", "feedback.shapes"), id="meet-lattice-2"),
    pytest.param("prod-l2-z2", ("lens.shapes",), id="prod-l2-z2"),
    pytest.param("Z3", ("lens.shapes", "feedback.shapes"), id="Z3")])
def test_pair_quotients_of_shipped_shapes_match_naive(fx, scripts):
    mon = z3() if fx == "Z3" else build(fx)
    with recorded_coends() as built:
        for sig in map(SCRIPTS.get, scripts):
            for term in sig.shapes.values():
                for env in Env(sig, {"C": mon}).assignments(only=objects_in(term)):
                    evaluate_every_fiber(term, env)
    mids = {comp.mid for comp, _, _ in built}
    c = mon.base
    assert product(c, c) in mids
    assert (product(opposite(c), c) in mids) == ("feedback.shapes" in scripts)
    for key in built:
        assert_relations_match_naive(*key)


def grid_pairs(grid):
    """The position pairs of a relation grid: (r + left[j], s + right[j])
    for each row (r, s) and column j."""
    rows, (left, right) = grid
    assert len(left) == len(right)
    return [(r + i, s + j) for r, s in rows for i, j in zip(left, right)]


def assert_relations_match_naive(comp, a, c):
    """The coend at (a, c) against the naive closure, and each generator's
    grid, expanded into position pairs and read back through the index,
    against acting on both factors."""
    ce = assert_fiber_matches_naive(comp, a, c)
    pair = pair_prof(comp.p, comp.q, a, c)
    naive = generator_relations(pair)
    cat = ce.cat
    base = tuple(itertools.accumulate((len(pair.fiber(x, x)) for x in cat.objects),
                                      initial=0))
    for f in cat.generators:
        pairs = grid_pairs(comp._relations(a, c, f, base))
        assert {(ce.index[i], ce.index[j]) for i, j in pairs} == \
            {(flat_tag(*left), flat_tag(*right)) for left, right in naive[f]}


def parallel_arrows():
    """Two objects and f, g: 0 -> 1."""
    return build_category("parallel", ["0", "1"],
                          {("0", "0"): ["id0"], ("0", "1"): ["f", "g"], ("1", "1"): ["id1"]},
                          {("id0", "id0"): "id0", ("id1", "id1"): "id1",
                           ("id0", "f"): "f", ("id0", "g"): "g",
                           ("f", "id1"): "f", ("g", "id1"): "g"},
                          {"0": "id0", "1": "id1"})


def test_pair_quotient_over_parallel_arrows_matches_naive():
    # f, g: 0 -> 1 make |C(0, 1)| = 2 but |C(1, 1)| = 1, so the fibers of a
    # pair quotient have rows of different lengths at 0 and at 1
    c = parallel_arrows()
    comp = ComposedProf(hom_prof(c), hom_prof(c))
    with recorded_fibers() as fibers:
        for a in c.objects:
            for b in c.objects:
                # Yoneda: C(a, -) x C(-, b) quotients to C(a, b)
                assert len(comp.fiber(a, b)) == len(c.hom(a, b))
    assert len(fibers) == 4
    # (0, 1) has two elements over each object; (1, 0) has none, (0, 0)
    # and (1, 1) one, and these build no union-find
    sizes = [len(assert_fiber_matches_naive(*key).index) for key in fibers]
    assert sorted(sizes) == [0, 1, 1, 4]
    assert_relations_match_naive(comp, c.obj_id("0"), c.obj_id("1"))


def test_small_coend_rejects_a_stranger_as_its_pair_quotient_does():
    c = build("meet-lattice-2").base
    lo, hi = c.obj_id("0"), c.obj_id("1")
    comp = ComposedProf(hom_prof(c), hom_prof(c))
    # C(1, -) x C(-, 0) is empty, C(0, -) x C(-, 0) has (id, id) over 0 only
    for a, b, n in [(hi, lo, 0), (lo, lo, 1)]:
        ce = comp.coend_at(a, b)
        ref = coend(pair_prof(comp.p, comp.q, a, b))
        assert ce.class_count == ref.class_count == n
        assert list(ce.index) == [flat_tag(*t) for t in ref.index]
        errors = []
        for quotient, tagged in [(ce, (hi, "u", "w")), (ref, (hi, ("u", "w")))]:
            with pytest.raises(ProfunctorError) as err:
                quotient.rep(tagged)
            errors.append(str(err.value))
        assert errors == [f"({hi},u,w) is not an element of the coend index",
                          f"({hi},(u,w)) is not an element of the coend index"]


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2"])
def test_composite_keeps_one_copy_of_its_classes(fx):
    # a composite's fiber is its coend's tuple of representatives and its
    # members are the coend's own grouping, not copies of them
    sig = SCRIPTS["lens.shapes"]
    with recorded_fibers() as fibers:
        for term in sig.shapes.values():
            for env in Env(sig, {"C": build(fx)}).assignments(only=objects_in(term)):
                evaluate_every_fiber(term, env)
    assert fibers
    for comp, a, c in fibers:
        ce = comp.coend_at(a, c)
        assert comp.fiber(a, c) is ce.reps
        assert comp.members(a, c) is ce.groups


def test_a_coend_of_at_most_one_element_builds_its_tables_on_first_read():
    c = build("meet-lattice-2").base
    lo, hi = c.obj_id("0"), c.obj_id("1")
    comp = ComposedProf(hom_prof(c), hom_prof(c))
    # the diagonal of the terminal hom has one element; the composite
    # fibers (1, 0) and (0, 0) have none and one
    empty = comp.coend_at(hi, lo)
    for ce in [coend(hom_prof(terminal_category())), empty, comp.coend_at(lo, lo)]:
        assert type(ce) is CoendSet and ce.reps is ce.index
        assert "groups" not in vars(ce) and "_rep_of" not in vars(ce)
    for ce in [coend(hom_prof(terminal_category())), comp.coend_at(lo, lo)]:
        (t,) = ce.index
        assert ce.rep(t) == t
        assert "_rep_of" in vars(ce) and "groups" not in vars(ce)
        assert ce.members(t) == [t] and "groups" in vars(ce)
    with pytest.raises(ProfunctorError):
        empty.rep((lo, "u", "w"))
    assert vars(empty)["_rep_of"] == {}
    # plain code builds them: a cached_property takes a lock on each first
    # read on Python 3.11
    assert not any(isinstance(v, functools.cached_property) for v in vars(CoendSet).values())


def _composites(p):
    if isinstance(p, ComposedProf):
        yield p
        yield from _composites(p.p)
        yield from _composites(p.q)
    elif isinstance(p, TensorProf):
        yield from _composites(p.p1)
        yield from _composites(p.p2)


def test_every_composite_fiber_is_its_coends_reps():
    # no composite keeps a fiber memo beside its coends
    sig = SCRIPTS["lens.shapes"]
    seen = 0
    for term in sig.shapes.values():
        for env in Env(sig, {"C": build("z2")}).assignments(only=objects_in(term)):
            for comp in _composites(Evaluator(env).node(term)):
                assert "_fibers" not in vars(comp)
                for a in comp.source.objects:
                    for c in comp.target.objects:
                        assert comp.fiber(a, c) is comp.coend_at(a, c).reps
                        seen += 1
    assert seen


class NaiveComposite(ComposedProf):
    """A composite with no supports: every fiber is a coend built over
    every middle object, related by the two-sided actions of the pair
    P(a, -) x Q(-, c), whose fiber at (x, x) lists (u, w) in the order
    the composite lists (x, u, w)."""

    def coend_at(self, a, c):
        ce = self._coends.get((a, c))
        if ce is None:
            pair = pair_prof(self.p, self.q, a, c)
            index, base = [], {}
            for x in self.mid.objects:
                base[x] = len(index)
                index += [flat_tag(x, v) for v in pair.fiber(x, x)]
            ce = self._coends[a, c] = CoendSet(self.mid, tuple(index), base,
                                               pair.relations)
        return ce

    def support(self, a):
        raise AssertionError("a naive composite has no support")


def naive_nodes(prof, out):
    """prof rebuilt from its leaves with naive composites; out maps each
    node of prof to its naive twin."""
    if isinstance(prof, ComposedProf):
        twin = NaiveComposite(naive_nodes(prof.p, out), naive_nodes(prof.q, out))
    elif isinstance(prof, TensorProf):
        twin = TensorProf(naive_nodes(prof.p1, out), naive_nodes(prof.p2, out))
    else:
        twin = prof
    out[prof] = twin
    return twin


def _demo_shape_nodes():
    """(demo, shape name, node) for every shape of every demo's shape
    script, at every assignment of its first binding."""
    for name, spec in DEMOS.items():
        sig, _ = load_scripts(spec["script"])
        env = Env(sig, {sym: build(fx) for sym, fx in spec["bindings"][0].items()})
        for shape, term in sig.shapes.items():
            for env_a in env.assignments(only=objects_in(term)):
                yield name, shape, Evaluator(env_a).node(term)


def test_support_of_every_demo_shape_matches_a_naive_composite():
    # a node's support at a is the objects where the composite built with
    # no supports has a non-empty fiber, in id order; outside it a
    # composite reads its middle category's empty coend and builds nothing
    nodes = outside = 0
    for demo, shape, node in _demo_shape_nodes():
        twins = {}
        naive_nodes(node, twins)
        for prof, twin in twins.items():
            for a in prof.source.objects:
                want = [c for c in prof.target.objects if twin.fiber(a, c)]
                assert list(prof.support(a)) == want, (demo, shape, prof, a)
                nodes += 1
                if not isinstance(prof, ComposedProf):
                    continue
                for c in prof.target.objects:
                    if c not in want:
                        with recorded_coends() as built:
                            ce = prof.coend_at(a, c)
                        assert ce.cat is prof.mid and ce.index == () and not built
                        outside += 1
    assert nodes and outside


def counting(p, calls):
    """p with every action call counted in calls[0]."""
    def act(f, g, v):
        calls[0] += 1
        return p.act(f, g, v)
    return ConcreteProf(p.source, p.target, p.fiber, act)


def tables_read(comp, a, b):
    """The keys of the tables of P(a, f) and of Q(f, b) that the coend of
    comp at (a, b) reads: none for a coend of at most one element, else
    one of each for every generator f of the middle category with both
    ends held (P(a, -) and Q(-, b) non-empty there)."""
    p, q, mid = comp.p, comp.q, comp.mid
    if len(comp.coend_at(a, b).index) <= 1:
        return set(), set()
    held = {x for x in mid.objects if p.fiber(a, x) and q.fiber(x, b)}
    gens = [f for f in mid.generators if mid.dom(f) in held and mid.cod(f) in held]
    return {(a, f) for f in gens}, {(f, b) for f in gens}


def table_acts(comp, rights, lefts):
    """The actions that building the tables with these keys takes: one per
    element of P(a, dom f) for each (a, f), one per element of
    Q(cod f, b) for each (f, b)."""
    p, q, mid = comp.p, comp.q, comp.mid
    return (sum(len(p.fiber(a, mid.dom(f))) for a, f in rights)
            + sum(len(q.fiber(mid.cod(f), b)) for f, b in lefts))


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2", "prod-l2-z2", "diamond"])
def test_pair_quotient_acts_once_per_factor_element(fx):
    # each factor keeps its tables of P(a, f) and Q(f, c), so building
    # every fiber of a composite acts once per element of each table's
    # domain fiber, however many coends read the table; over an oracle of
    # more than one object some table is read by two coends, where acting
    # per coend would count it twice (over one object, each of these
    # composites has one fiber)
    mon = build(fx)
    c, tensor = mon.base, tensor_functor(mon)
    shared = False
    for p, q in [(hom_prof(c), hom_prof(c)),
                 (conjoint(tensor), companion(tensor)),
                 (copy_prof(c), merge_prof(c))]:
        calls = [0]
        comp = ComposedProf(counting(p, calls), counting(q, calls))
        rights, lefts, reads = set(), set(), 0
        for a in comp.source.objects:
            for b in comp.target.objects:
                right, left = tables_read(comp, a, b)
                rights |= right
                lefts |= left
                reads += len(right) + len(left)
        assert calls[0] == table_acts(comp, rights, lefts)
        shared = shared or reads > len(rights) + len(lefts)
    assert shared == (len(c.objects) > 1)


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2", "prod-l2-z2", "diamond"])
def test_composites_sharing_a_left_factor_read_its_tables_once(fx):
    # P ; Q1 and P ; Q2 read P(a, f) from the one table P keeps: the second
    # composite acts on P only for the tables the first did not read, and
    # every fiber of both still matches the naive quotient
    mon = build(fx)
    c, tensor = mon.base, tensor_functor(mon)
    calls = [0]
    p = counting(hom_prof(c), calls)
    comps = [ComposedProf(p, hom_prof(c)), ComposedProf(p, conjoint(tensor))]
    read, both = set(), set()
    for comp in comps:
        calls[0] = 0
        rights = set()
        for a in comp.source.objects:
            for b in comp.target.objects:
                rights |= tables_read(comp, a, b)[0]
        assert calls[0] == table_acts(comp, rights - read, ())
        both |= rights & read
        read |= rights
    assert both
    for comp in comps:
        for a in comp.source.objects:
            for b in comp.target.objects:
                assert_relations_match_naive(comp, a, b)


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2", "prod-l2-z2", "diamond"])
def test_a_pair_quotient_walks_the_generators_with_both_ends_in_its_fibers(fx):
    # a generator with an end that holds no element relates nothing, so a
    # coend whose key its middle category has not stored walks each
    # generator between its non-empty fibers once and no other; a coend
    # with a stored key, or of at most one element, walks none.  The
    # fixture is built fresh, so no earlier test stored a key over it.
    mon = build(fx)
    c, tensor = mon.base, tensor_functor(mon)
    walked, kinds = [], collections.Counter()
    real = ComposedProf._relations

    def record(comp, a, b, f, base):
        walked.append(f)
        return real(comp, a, b, f, base)
    with mock.patch.object(ComposedProf, "_relations", record):
        for p, q in [(hom_prof(c), hom_prof(c)),
                     (conjoint(tensor), companion(tensor)),
                     (copy_prof(c), merge_prof(c))]:
            comp = ComposedProf(p, q)
            mid = comp.mid
            for a in comp.source.objects:
                for b in comp.target.objects:
                    walked.clear()
                    stored = len(mid._quotients)
                    n = len(comp.coend_at(a, b).index)
                    new = len(mid._quotients) > stored
                    held = {x for x in mid.objects if p.fiber(a, x) and q.fiber(x, b)}
                    want = [f for f in mid.generators
                            if mid.dom(f) in held and mid.cod(f) in held] if new else []
                    assert sorted(walked) == sorted(want), (a, b)
                    assert new == (n > 1 and len(mid._quotients) == stored + 1)
                    kinds["new" if new else "stored" if n > 1 else "small"] += 1
    # over a lattice some coends of one composite repeat a key
    assert kinds["new"] and kinds["stored"] == {"z2": 0, "meet-lattice-2": 1,
                                                "prod-l2-z2": 0, "diamond": 3}[fx]


def naive_table(p, f, g):
    """The reference for P(f, g) as positions: act on each v in
    P(cod f, dom g) and look its image up in P(dom f, cod g)."""
    src, tgt = p.source, p.target
    at = {v: i for i, v in enumerate(p.fiber(src.dom(f), tgt.cod(g)))}
    return [at[p.act(f, g, v)] for v in p.fiber(src.cod(f), tgt.dom(g))]


def table_cases(mon):
    """Composites and a tensor whose tables are built from their factors'
    tables, nested on either side; each is built fresh, so no table is
    read before the test reads it."""
    c, tensor = mon.base, tensor_functor(mon)

    def ends():
        return ComposedProf(conjoint(tensor), companion(tensor))

    def hom2():
        return ComposedProf(hom_prof(c), hom_prof(c))

    def copy_merge():
        return ComposedProf(copy_prof(c), merge_prof(c))
    return {"hom;hom": hom2(), "conjoint;companion": ends(), "copy;merge": copy_merge(),
            "(conjoint;companion);hom": ComposedProf(ends(), hom_prof(c)),
            "hom;(conjoint;companion)": ComposedProf(hom_prof(c), ends()),
            "(copy;merge);hom": ComposedProf(copy_merge(), hom_prof(c)),
            "(hom;hom)(x)(copy;merge)": TensorProf(hom2(), copy_merge())}


def assert_tables_match_naive(cases):
    """The table of each profunctor at every f among the source's
    generators and identities and every g among the target's, both sides
    moving at once too, against acting on each value."""
    for name, p in cases.items():
        src, tgt = p.source, p.target
        fs = [*src.generators, *map(src.identity, src.objects)]
        gs = [*tgt.generators, *map(tgt.identity, tgt.objects)]
        for f in fs:
            for g in gs:
                assert list(p.table(f, g)) == naive_table(p, f, g), (name, f, g)


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2", "prod-l2-z2", "diamond"])
def test_composite_and_tensor_tables_match_acting_on_values(fx):
    # a composite's and a tensor's tables come from their factors' tables
    # by position arithmetic; acting on each value and classifying its
    # image is the reference
    assert_tables_match_naive(table_cases(build(fx)))


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2", "prod-l2-z2", "diamond"])
def test_a_table_at_two_identities_is_the_range_over_its_fiber(fx):
    mon = build(fx)
    for name, p in {**table_cases(mon), "hom": hom_prof(mon.base)}.items():
        src, tgt = p.source, p.target
        for a in src.objects:
            for b in tgt.objects:
                table = p.table(src.identity(a), tgt.identity(b))
                assert table == range(len(p.fiber(a, b))), (name, a, b)


def test_no_table_is_built_at_two_identities():
    # a table at two identities is taken as a range before any class
    # builds one, so no leaf acts on its values for it and no tensor or
    # composite reads its factors' tables for it
    built = collections.Counter()

    def spy(cls):
        real = cls._table

        def record(p, f, g):
            built[f in p.source.identities and g in p.target.identities] += 1
            return real(p, f, g)
        return mock.patch.object(cls, "_table", record)
    with spy(ConcreteProf), spy(TensorProf), spy(ComposedProf):
        assert eval_lens_composite() == 0
        for name in DEMOS:
            assert run_demo(name).ok
    assert built[False] > 1000 and built[True] == 0


def test_tables_through_a_relation_free_middle_match_acting_on_values():
    # the terminal middle category relates nothing, so every element of a
    # composite fiber is its own class and representatives sit past the
    # first row; |C(0, 0)| = 1 but |C(0, 1)| = 2 over parallel arrows, so
    # a row is longer after f or g (no shipped oracle has such hom-sets)
    c = parallel_arrows()
    ends = ComposedProf(conjoint(point(c, 1)), companion(point(c, 0)))
    assert [len(ends.fiber(0, b)) for b in c.objects] == [2, 4]
    assert_tables_match_naive({
        "outport;inport": ends,
        "hom;(outport;inport)": ComposedProf(hom_prof(c), ends),
        "(outport;inport)(x)hom": TensorProf(ends, hom_prof(c))})


def _closure(elems, cover):
    """The reflexive-transitive closure of a covering relation."""
    order = {(x, x) for x in elems} | set(cover)
    while True:
        more = {(a, d) for (a, b) in order for (c, d) in order if b == c} - order
        if not more:
            return order
        order |= more


@st.composite
def small_oracles(draw):
    kind = draw(st.sampled_from(["add", "mul", "chain", "diamond"]))
    if kind in ("add", "mul"):
        n = draw(st.integers(1, 6))
        op = {(a, b): (a + b if kind == "add" else a * b) % n
              for a in range(n) for b in range(n)}
        return from_comm_monoid(f"Z{n}{kind}", list(range(n)), op,
                                0 if kind == "add" else 1 % n)
    mode = draw(st.sampled_from(["meet", "join"]))
    if kind == "chain":
        elems = [str(i) for i in range(draw(st.integers(1, 4)))]
        cover = list(zip(elems, elems[1:]))
    else:
        # a diamond with an optional element below and above it
        below, above = draw(st.booleans()), draw(st.booleans())
        elems = ["bot", "a", "b", "top"]
        cover = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
        if below:
            elems.insert(0, "z")
            cover.append(("z", "bot"))
        if above:
            elems.append("t")
            cover.append(("top", "t"))
    return from_lattice(f"{kind}{len(elems)}", elems, _closure(elems, cover), mode)


# the two largest lens shapes are covered on the shipped oracles above
SMALL_SHAPES = ("lens", "lens-pair", "arrow", "composite-reduced", "prism-pair")


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(mon=small_oracles(), shape=st.sampled_from(SMALL_SHAPES), data=st.data())
def test_pair_quotients_over_random_oracles_match_naive(mon, shape, data):
    sig = SCRIPTS["lens.shapes"]
    term = sig.shapes[shape]
    objs = {sym: data.draw(st.sampled_from(list(mon.base.objects)), label=sym)
            for sym in sorted(objects_in(term))}
    with recorded_fibers() as fibers:
        evaluate_every_fiber(term, Env(sig, {"C": mon}, objs=objs))
    assert fibers
    for key in fibers:
        assert_fiber_matches_naive(*key)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(mon=small_oracles(), data=st.data())
def test_lens_classes_over_random_oracles_match_lens_set(mon, data):
    # the closed lens shape denotes the optics from (A, B) to (X, Y): its
    # class count is that of the direct coend over the residual M of
    # C(A, M (x) X) x C(M (x) Y, B)
    sig = SCRIPTS["lens.shapes"]
    objs = {sym: data.draw(st.sampled_from(list(mon.base.objects)), label=sym)
            for sym in "ABXY"}
    got = class_count(sig.shapes["lens"], Env(sig, {"C": mon}, objs=objs))
    assert got == lens_set(mon, *(objs[sym] for sym in "ABXY")).class_count


ISO_RULES = sorted(name for name, rule in RULES.items() if rule.tag == "iso")


def rule_paths(term, rule):
    """Every path at which a rule of the given site can be tried in term:
    the node itself, or each offset of its parts, and the same in every
    part and side it descends into."""
    parts = term.parts if isinstance(term, Seq) else (term,)
    if rule.site == "node":
        yield ()
    else:
        yield from ((i,) for i in range(len(parts)))
    children = (term.top, term.bottom) if isinstance(term, Par) else \
        term.parts if isinstance(term, Seq) else ()
    for k, child in enumerate(children):
        for path in rule_paths(child, rule):
            yield (k,) + path


# the shipped derivations over one category, but for the negative cases,
# which fail by design on every oracle
ONE_CATEGORY_DERIVATIONS = {
    name: (sig, script) for name, (sig, script) in (
        (p.name, load_scripts(p.name)) for p in sorted(demo_dir().iterdir())
        if p.name.endswith(".deriv") and not p.name.startswith("bad_"))
    if len(sig.categories) == 1}
MISSING_WITNESS = re.compile(r"step \d+ \S+: oracle for 'C' has no (co)?cartesian witness$")


def applies(ev, term, step):
    try:
        apply_step(term, step, ev)
    except STEP_ERRORS:
        return False
    return True


def iso_steps(ev, term, name, backward):
    """The steps of an iso rule, one way, at every site of term where it
    applies."""
    steps = (Step(name, path, backward) for path in rule_paths(term, RULES[name]))
    return [step for step in steps if applies(ev, term, step)]


def derivation_sites(sig, script):
    """(term, step) for each iso rule, either way, at each site where it
    applies in a term that the derivations of a script pass through.
    Terms and sites depend on the steps alone, so they are found over the
    two-element lattice whose witnesses the steps read."""
    sites = {}
    for deriv in list(script.named.values()) + ([script.main] if script.main else []):
        for fx in ("meet-lattice-2", "join-lattice-2"):
            ev = Evaluator(Env(sig, {"C": build(fx)}, objs=dict.fromkeys(sig.objects, 0)))
            terms = [sig.shapes[deriv.shape]]
            try:
                for step in deriv.steps:
                    terms.append(apply_step(terms[-1], step, ev)[0])
            except STEP_ERRORS:
                continue
            for term in terms:
                for name in ISO_RULES:
                    for backward in (False, True):
                        sites.update(((term, step.rule, step.path, backward), step)
                                     for step in iso_steps(ev, term, name, backward))
            break
        else:
            raise AssertionError(f"{deriv.shape} applies over neither lattice")
    return [(key[0], step) for key, step in sites.items()]


DERIVATION_SITES = [(sig, derivation_sites(sig, script))
                    for sig, script in ONE_CATEGORY_DERIVATIONS.values()]


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(mon=small_oracles(), data=st.data())
def test_iso_rules_over_random_oracles_are_bijections(mon, data):
    # every iso rule, either way, at a drawn one of the sites where it
    # applies in each lens shape, and at a drawn one of its sites in all
    # the terms the shipped derivations pass through, passes check_step's
    # bijection and inverse round-trip checks, on oracles whose empty and
    # one-element coends the shipped fixtures do not reach
    lens = SCRIPTS["lens.shapes"]
    symbols = sorted({s for sig, _ in DERIVATION_SITES for s in sig.objects} | set(lens.objects))
    objs = {s: data.draw(st.sampled_from(list(mon.base.objects)), label=s) for s in symbols}
    checked = set()

    def check_drawn(sites, label):
        ev, term, step = data.draw(st.sampled_from(sites), label=label)
        report = Report()
        assert check_step(ev, term, step, report, 1), report.text()
        assert report.ok, report.text()
        checked.add(step.rule)

    ev = Evaluator(Env(lens, {"C": mon}, objs={s: objs[s] for s in lens.objects}))
    for term in lens.shapes.values():
        for name in ISO_RULES:
            for backward in (False, True):
                steps = iso_steps(ev, term, name, backward)
                if steps:
                    check_drawn([(ev, term, step) for step in steps], f"{name} site")
    # R-ASSOC, R-PORT-FUSE, R-SYM and the Yoneda rules have sites only in
    # the derivations' terms, where their transports split parallel
    # elements through TensorProf.split_value
    by_rule = {}
    for sig, sites in DERIVATION_SITES:
        ev = Evaluator(Env(sig, {"C": mon}, objs={s: objs[s] for s in sig.objects}))
        for term, step in sites:
            if applies(ev, term, step):
                by_rule.setdefault((step.rule, step.backward), []).append((ev, term, step))
    for (name, backward), sites in sorted(by_rule.items()):
        check_drawn(sites, f"{name} {'backward' if backward else 'forward'} derivation site")
    # the others need a (co)cartesian witness or sites these terms lack
    assert {"R-ASSOC", "R-INTERCHANGE", "R-PORT-FUSE", "R-SYM", "R-YONEDA-L",
            "R-YONEDA-R", "R-ZIGZAG-CUP"} <= checked


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(mon=small_oracles(), data=st.data())
def test_shipped_derivations_over_random_oracles_fail_only_for_structure(mon, data):
    # every named and main derivation, under one drawn assignment, either
    # checks or misses the (co)cartesian witness its rules read: no step is
    # ill-defined, non-bijective or fails its round trip, and no obligation
    # moves an element.  Points are left out: they name morphisms of the
    # oracles their scripts were written for.
    symbols = sorted({s for sig, _ in ONE_CATEGORY_DERIVATIONS.values() for s in sig.objects})
    objs = {s: data.draw(st.sampled_from(list(mon.base.objects)), label=s) for s in symbols}
    checked = 0
    for name, (sig, script) in ONE_CATEGORY_DERIVATIONS.items():
        ev = Evaluator(Env(sig, {"C": mon}, objs={s: objs[s] for s in sig.objects}))
        for deriv in list(script.named.values()) + ([script.main] if script.main else []):
            report = Report()
            if check_derivation_once(deriv, ev, report) is not None:
                checked += 1
            assert all(map(MISSING_WITNESS.match, report.failures)), (name, report.failures)
    assert checked


def test_coend_enumeration_order_invariance(oracles):
    base = hom_prof(build("z2").base)
    reference = coend(base)
    ref_classes = {frozenset(reference.members(r)) for r in reference.reps}
    ref_reps = set(reference.reps)
    for seed in range(10):
        rng = random.Random(seed)
        c = build("z2").base

        def shuffled(a, b, c=c, rng=rng):
            ms = list(c.hom(a, b))
            rng.shuffle(ms)
            return ms

        p = ConcreteProf(c, c, shuffled,
                         lambda f, g, v: c.compose(f, c.compose(v, g)))
        ce = coend(p)
        assert ce.class_count == reference.class_count
        assert {frozenset(ce.members(r)) for r in ce.reps} == ref_classes
        assert set(ce.reps) == ref_reps


@contextlib.contextmanager
def built_coends():
    """Collect every CoendSet built meanwhile."""
    built = []
    real = CoendSet.__init__

    def record(ce, *args):
        real(ce, *args)
        built.append(ce)
    with mock.patch.object(CoendSet, "__init__", record):
        yield built


def eval_lens_composite():
    """`coendcheck eval` of lens-composite over prod-l2-z2, in process."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["eval", str(demo_dir() / "lens.shapes"), "--shape", "lens-composite",
                     "--bind", f"C={fixture_path('prod-l2-z2')}"])


def test_every_coend_index_is_in_tuple_order():
    # a class's root is its least position, and that holds its least
    # tagged element only because the index is in tuple order: fibers list
    # their elements in order, tagged object by object in id order
    with built_coends() as built:
        for name in DEMOS:
            assert run_demo(name).ok
        assert eval_lens_composite() == 0
    assert len(built) > 1000
    for ce in built:
        assert list(ce.index) == sorted(ce.index)
        at = {t: k for k, t in enumerate(ce.index)}
        for c, (rep, group) in enumerate(ce.groups.items()):
            # each class's root is its least position, and numbers it
            assert rep == group[0] == min(group)
            assert ce._heads[c] == at[rep] == min(map(at.get, group))
            assert {ce.place[at[t]] for t in group} == {c}
        assert ce.reps == tuple(ce.groups)


def test_coends_with_equal_keys_share_one_quotient():
    # eval loads prod-l2-z2 afresh, so no earlier test stored a key over
    # its categories: of the 170 coends of more than one element that
    # lens-composite builds, 31 compute their quotient and every other one
    # repeats the key of one before it, at another fiber or assignment,
    # and takes its quotient; each matches the naive quotient either way
    with recorded_coends() as built:
        assert eval_lens_composite() == 0
    big = [ce for ce in map(assert_fiber_matches_naive, *zip(*built)) if len(ce.index) > 1]
    computed = {id(ce.place): ce for ce in reversed(big)}
    assert (len(big), len(computed)) == (170, 31)
    assert sum(len(mid._quotients) for mid in {comp.mid for comp, _, _ in built}) == 31
    for ce in big:
        first = computed[id(ce.place)]
        assert ce._heads is first._heads
        assert ce.reps == tuple(map(ce.index.__getitem__, ce._heads))


def test_a_quotient_is_shared_only_between_equal_grids():
    # over z2, the hom and a profunctor with its fibers but the trivial
    # action have equal block sizes but different tables P(0, f), so their
    # composites with the hom key and keep different quotients
    c = build("z2").base
    hom = hom_prof(c)
    trivial = ConcreteProf(c, c, c.hom, lambda f, g, v: v)
    ces = [assert_fiber_matches_naive(ComposedProf(p, hom), 0, 0) for p in (hom, trivial)]
    assert [len(ce.index) for ce in ces] == [4, 4]
    assert ces[0].place != ces[1].place and len(c._quotients) == 2
    # lens over a fresh prod-l2-z2 at two assignments: a coend of the second
    # that takes a quotient the first stored gives the representatives in
    # its own index, with other values than the first's
    sig = SCRIPTS["lens.shapes"]
    term = sig.shapes["lens"]
    firsts, differ = {}, 0
    for k, env in enumerate(itertools.islice(
            Env(sig, {"C": build("prod-l2-z2")}).assignments(only=objects_in(term)), 2)):
        with recorded_coends() as built:
            evaluate_every_fiber(term, env)
        for ce in map(assert_fiber_matches_naive, *zip(*built)):
            if k == 0:
                firsts[id(ce.place)] = ce
            elif id(ce.place) in firsts and len(ce.index) > 1:
                assert ce.reps == tuple(map(ce.index.__getitem__, ce._heads))
                differ += ce.reps != firsts[id(ce.place)].reps
    assert differ == 2


def test_evaluating_a_shape_acts_on_no_composite_value():
    # a composite's and a tensor's tables are built by position from their
    # factors' tables, so evaluating a shape acts on no composite value and
    # classifies none (acting on each value did each 1,468 times here)
    calls = collections.Counter()

    def counted(name):
        real = getattr(ComposedProf, name)

        def count(*args):
            calls[name] += 1
            return real(*args)
        return mock.patch.object(ComposedProf, name, count)
    with counted("_act"), counted("classify"):
        assert eval_lens_composite() == 0
    assert calls == {}


def test_coend_requires_equal_endpoints():
    c = build("z2").base
    with pytest.raises(ProfunctorError):
        coend(companion(point(c, 0)))


def test_a_profunctor_repr_gives_its_class_and_categories():
    h = hom_prof(build("z2").base)
    assert [repr(p) for p in (h, ComposedProf(h, h), TensorProf(h, h))] == [
        "ConcreteProf(z2, z2)", "ComposedProf(z2, z2)", "TensorProf((z2*z2), (z2*z2))"]


# the refusals no shipped input reaches, each with one input that raises it
PROFUNCTOR_ERRORS = [
    (lambda: point(build("z2").base, 1), "unknown object id 1 in z2"),
    (lambda: ComposedProf(hom_prof(build("z2").base), hom_prof(build("diamond").base)),
     "cannot compose: middle categories z2 and diamond differ"),
]


@pytest.mark.parametrize("fail, message", PROFUNCTOR_ERRORS,
                         ids=[m for _, m in PROFUNCTOR_ERRORS])
def test_every_profunctor_refusal_has_a_failing_input(fail, message):
    with pytest.raises(ProfunctorError) as info:
        fail()
    assert str(info.value) == message


# -- composition and tensor ---------------------------------------------------


def all_profs_for(mon):
    c = mon.base
    out = [hom_prof(c)]
    for a in c.objects:
        out.append(companion(point(c, a)))
        out.append(conjoint(point(c, a)))
    return out


def test_yoneda_unitors_are_bijections(oracles):
    for name, mon in oracles.items():
        c = mon.base
        h = hom_prof(c)
        tensor = tensor_functor(mon)
        for p in all_profs_for(mon) + [companion(tensor), conjoint(tensor)]:
            left = ComposedProf(h, p) if p.source is c else None
            if left is not None:
                for a in p.source.objects:
                    for b in p.target.objects:
                        image = [p.act(u, p.target.identity(b), w)
                                 for (m, u, w) in left.fiber(a, b)]
                        assert sorted(map(value_key, image)) == \
                            sorted(map(value_key, p.fiber(a, b))), (name, p)
                        assert len(set(image)) == len(image)
            right = ComposedProf(p, h) if p.target is c else None
            if right is not None:
                for a in p.source.objects:
                    for b in p.target.objects:
                        image = [p.act(p.source.identity(a), w, u)
                                 for (m, u, w) in right.fiber(a, b)]
                        assert sorted(map(value_key, image)) == \
                            sorted(map(value_key, p.fiber(a, b))), (name, p)
                        assert len(set(image)) == len(image)


def test_compose_with_empty_is_empty(oracles):
    c = oracles["meet-lattice-2"].base
    e = ConcreteProf(c, c, lambda a, b: (), lambda f, g, v: v)
    comp = ComposedProf(hom_prof(c), e)
    for a in c.objects:
        for b in c.objects:
            assert comp.fiber(a, b) == ()


def test_composed_action_well_defined(oracles):
    # acting on any two members of one class lands in one class
    for name, mon in oracles.items():
        c = mon.base
        tensor = tensor_functor(mon)
        comp = ComposedProf(conjoint(tensor), companion(tensor))
        for a in c.objects:
            for b in c.objects:
                for rep, members in comp.members(a, b).items():
                    for f in c.morphisms:
                        if c.cod(f) != a:
                            continue
                        for g in c.morphisms:
                            if c.dom(g) != b:
                                continue
                            images = {comp.act(f, g, m) if m == rep else
                                      comp.classify(c.dom(f), c.cod(g), m[0],
                                                    comp.p.act(f, comp.mid.identity(m[0]), m[1]),
                                                    comp.q.act(comp.mid.identity(m[0]), g, m[2]))
                                      for m in members}
                            assert len(images) == 1, (name, rep)


def test_tensor_sizes_multiply(oracles):
    m2, z2 = oracles["meet-lattice-2"], oracles["z2"]
    p = TensorProf(hom_prof(m2.base), hom_prof(z2.base))
    src = p.source
    for a in src.objects:
        for b in src.objects:
            (a1, a2), (b1, b2) = split_obj(z2.base, a), split_obj(z2.base, b)
            assert len(p.fiber(a, b)) == \
                len(m2.base.hom(a1, b1)) * len(z2.base.hom(a2, b2))
    assert validate_prof(p) == []


def test_tensor_of_representables_hand_count():
    c = build("meet-lattice-2").base
    p = TensorProf(companion(point(c, c.obj_id("0"))),
                   companion(point(c, c.obj_id("1"))))
    # C(0,a) x C(1,b): nonzero only when b = 1; sizes all 1 there
    for b1, b2, n in [("1", "1", 1), ("0", "1", 1), ("1", "0", 0)]:
        assert len(p.fiber(0, join_objs([(c, c.obj_id(b1)), (c, c.obj_id(b2))]))) == n


def test_tensor_with_terminal_unit_is_identity_shaped():
    c = build("z2").base
    t = terminal_category()
    unit = hom_prof(t)
    p = TensorProf(hom_prof(c), unit)
    # same fibers up to pairing with the unique unit element
    for a in c.objects:
        for b in c.objects:
            assert [v[0] for v in p.fiber(a, b)] == list(c.hom(a, b))


def subterms(term):
    """The term and every term below it."""
    yield term
    for child in (term.top, term.bottom) if isinstance(term, Par) else \
            term.parts if isinstance(term, Seq) else ():
        yield from subterms(child)


@pytest.mark.parametrize("fx", ["z2", "meet-lattice-2"])
@pytest.mark.parametrize("script", ["lens.shapes", "feedback.shapes"])
def test_unfolded_and_split_elements_fold_back(script, fx):
    # at every Seq node, each class representative unfolds into part
    # values in the parts' fibers, and ComposedProf.refold gives it back;
    # at every Par node, TensorProf.split_value gives factor values in
    # the factors' fibers, which pair back to it
    sig = SCRIPTS[script]
    nodes = {t for shape in sig.shapes.values() for t in subterms(shape)
             if isinstance(t, (Seq, Par))}
    seen = set()
    for ev in sweep(Env(sig, {"C": build(fx)})):
        for t in nodes:
            prof = ev.node(t)
            for a in prof.source.objects:
                for b in prof.target.objects:
                    for v in prof.fiber(a, b):
                        if isinstance(t, Seq):
                            vals, ends = unfold(t, (a, b), v)
                            for k, part in enumerate(t.parts):
                                assert vals[k] in ev.node(part).fiber(ends[k], ends[k + 1])
                            assert prof.refold((a, b), vals, ends[1:-1]) == v
                        else:
                            (f1, v1), (f2, v2) = prof.split_value((a, b), v)
                            p1, p2 = prof.p1, prof.p2
                            assert v1 in p1.fiber(*f1) and v2 in p2.fiber(*f2)
                            assert join_objs([(p1.source, f1[0]), (p2.source, f2[0])]) == a
                            assert join_objs([(p1.target, f1[1]), (p2.target, f2[1])]) == b
                            assert (v1, v2) == v
                        seen.add(type(t))
    assert seen == {Seq, Par}


# -- naturality ----------------------------------------------------------------


def test_composition_family_is_natural(oracles):
    # composition C(a, p) x C(p, b) -> C(a, b) commutes with every square
    for mon in oracles.values():
        c = mon.base
        h = hom_prof(c)
        for ap in c.objects:
            comp = ComposedProf(conjoint(point(c, ap)), companion(point(c, ap)))
            for a in c.objects:
                for b in c.objects:
                    for v in comp.fiber(a, b):
                        fv = c.compose(v[1], v[2])
                        assert fv in h.fiber(a, b)
                        for f in c.morphisms:
                            if c.cod(f) != a:
                                continue
                            for g in c.morphisms:
                                if c.dom(g) != b:
                                    continue
                                _, u, w = comp.act(f, g, v)
                                assert c.compose(u, w) == h.act(f, g, fv)


# -- the lax-copy counterexample input ----------------------------------------


def constant_prof(c):
    """A profunctor 1 -> c with the fiber ("p0", "p1") at every object and
    trivial actions: functorial, but not representable."""
    return ConcreteProf(terminal_category(), c, lambda _, b: ("p0", "p1"), lambda _, g, v: v)


def test_constant_prof_is_functorial_but_not_representable():
    c = build("z2").base
    p = constant_prof(c)
    assert validate_prof(p) == []
    # representables over z2 have transitive actions; the constant one does not
    assert p.act(0, c.mor_id("1"), "p0") == "p0"


# -- the mirror constructors, pinned to their docstring formulas ---------------


def _mirror_cases(mon):
    """(profunctor, fiber formula, action formula) for each mirror
    constructor; formulas take and return ids of the base category c."""
    from coendcheck.fincat import FinFunctor, split_mor, split_obj
    from coendcheck.profunctor import codiscard_prof
    c = mon.base
    out = []
    for a in c.objects:
        out.append((conjoint(point(c, a)),
                    lambda b, _, a=a: c.hom(b, a),
                    lambda f, _, v: c.compose(f, v)))

    def fork_fib(x, t):
        return c.hom(x, mon.tensor(*split_obj(c, t)))

    def fork_act(f, gp, v):
        return c.compose(f, c.compose(v, mon.tensor_m(*split_mor(c, gp))))

    def merge_fib(s, y):
        a, b = split_obj(c, s)
        return tuple((p, q) for p in c.hom(a, y) for q in c.hom(b, y))

    def merge_act(fp, g, v):
        f1, f2 = split_mor(c, fp)
        return (c.compose(f1, c.compose(v[0], g)), c.compose(f2, c.compose(v[1], g)))

    def cap_fib(_, s):
        y, x = split_obj(c, s)
        return c.hom(y, x)

    def cap_act(_, gp, v):
        u, g = split_mor(c, gp)
        return c.compose(u, c.compose(v, g))

    out += [(conjoint(tensor_functor(mon)), fork_fib, fork_act),
            (merge_prof(c), merge_fib, merge_act),
            (codiscard_prof(c), lambda _, b: ("*",), lambda _, g, v: "*"),
            (cap_prof(c), cap_fib, cap_act)]
    ident = FinFunctor("id", c, c, {o: o for o in c.objects},
                       {m: m for m in c.morphisms})
    # D(-, F-) with F the identity: the cobox is the hom profunctor
    out.append((conjoint(ident), lambda y, x: c.hom(y, x),
                lambda g, f, v: c.compose(g, c.compose(v, f))))
    return out


@pytest.mark.parametrize("loader", ["build", "json"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_mirror_constructors_match_their_formulas(name, loader):
    from coendcheck.fixtures import fixture
    mon = build(name) if loader == "build" else fixture(name)
    for p, fib, act in _mirror_cases(mon):
        src, tgt = p.source, p.target
        for a in src.objects:
            for b in tgt.objects:
                assert p.fiber(a, b) == tuple(fib(a, b)), (name, p, a, b)
                for v in p.fiber(a, b):
                    for f in src.morphisms:
                        if src.cod(f) != a:
                            continue
                        for g in tgt.morphisms:
                            if tgt.dom(g) == b:
                                assert p.act(f, g, v) == act(f, g, v), (name, p)


def _companion_cases(mon, load):
    """(functor F: C -> D, object formula, morphism formula) for the point at
    every object of the base, the tensor, and a functor meet-lattice-2 -> z2;
    formulas give F's action from the oracle's tables, not from F."""
    from coendcheck.fincat import FinFunctor, split_mor, split_obj
    c = mon.base
    out = [(point(c, a), lambda _, a=a: a, lambda _, a=a: c.identity(a))
           for a in c.objects]
    out.append((tensor_functor(mon),
                lambda s: mon.tensor(*split_obj(c, s)),
                lambda f: mon.tensor_m(*split_mor(c, f))))
    l2, z2 = load("meet-lattice-2").base, load("z2").base
    up = l2.mor_id("0<1")
    mors = {m: z2.mor_id("1" if m == up else "0") for m in l2.morphisms}
    out.append((FinFunctor("F", l2, z2, {o: 0 for o in l2.objects}, mors),
                lambda x: 0, mors.__getitem__))
    return out


@pytest.mark.parametrize("loader", ["build", "json"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_companions_match_their_formula(name, loader):
    # companion(F) = D(F-, -): the fiber at (x, y) is D(Fx, y) in hom order,
    # and f: x' -> x, g: y -> y' act by F(f);v;g
    from coendcheck.fixtures import fixture
    load = build if loader == "build" else fixture
    for fn, fobj, fmor in _companion_cases(load(name), load):
        p, src, d = companion(fn), fn.source, fn.target
        assert p.source is src and p.target is d
        for x in src.objects:
            for y in d.objects:
                assert p.fiber(x, y) == d.hom(fobj(x), y), (name, fn.name, x, y)
                for v in p.fiber(x, y):
                    for f in src.morphisms:
                        if src.cod(f) != x:
                            continue
                        for g in d.morphisms:
                            if d.dom(g) == y:
                                assert p.act(f, g, v) == d.compose_chain(fmor(f), v, g)


def test_cobox_of_a_functor_between_oracles():
    from coendcheck.fincat import FinFunctor
    c, d = build("meet-lattice-2").base, build("z2").base
    fn = FinFunctor("F", c, d, {o: 0 for o in c.objects},
                    {m: d.mor_id("1") if c.dom(m) != c.cod(m) else d.identity(0)
                     for m in c.morphisms})
    p = conjoint(fn)
    assert p.source is d and p.target is c
    for y in d.objects:
        for x in c.objects:
            assert p.fiber(y, x) == d.hom(y, fn.obj(x))
            for v in p.fiber(y, x):
                for g in d.morphisms:
                    for f in c.morphisms:
                        if c.dom(f) == x:
                            assert p.act(g, f, v) == d.compose(g, d.compose(v, fn.mor(f)))


# -- Fubini: the whole left fold as one quotient --------------------------------


def seq_parts(term):
    """The parts of a term's top-level Seq, nested Seqs flattened."""
    if not isinstance(term, Seq):
        return [term]
    return [q for part in term.parts for q in seq_parts(part)]


def fold_size(profs):
    """|P1(0, m1) x ... x Pn(m(n-1), 0)|, summed over the middle objects."""
    at = {0: 1}
    for i, prof in enumerate(profs):
        ends = (0,) if i == len(profs) - 1 else prof.target.objects
        at = {b: sum(k * len(prof.fiber(a, b)) for a, k in at.items()) for b in ends}
    return at[0]


def fubini_count(profs):
    """The classes of a closed term of parts P1, ..., Pn as one quotient of
    its whole left fold: P1(0, m1) x ... x Pn(m(n-1), 0) by the relation of
    every generator of every middle category m_i, which acts on parts i and
    i+1 only (Fubini for coends), in one union-find instead of one per
    composite."""
    n = len(profs)
    # an element is (objs, vals): objs[i] is the object between parts i-1
    # and i (objs[0] = objs[n] = 0), vals[i] is in P_i(objs[i], objs[i+1])
    elems = [((0,), ())]
    for i, prof in enumerate(profs):
        ends = (0,) if i == n - 1 else prof.target.objects
        elems = [(objs + (b,), vals + (v,)) for objs, vals in elems
                 for b in ends for v in prof.fiber(objs[-1], b)]
    pos = {e: k for k, e in enumerate(elems)}
    parent = list(range(len(elems)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for i in range(1, n):
        p, q = profs[i - 1], profs[i]
        mid = p.target
        # (u, Q(f, 1)w) at x ~ (P(1, f)u, w) at y, for u in part i-1 and w
        # in Q(y, -): read once per u, off the element at x whose part i
        # holds the first value of Q(x, -)
        firsts = {}
        for objs, vals in elems:
            if vals[i] == q.fiber(objs[i], objs[i + 1])[0]:
                firsts.setdefault(objs[i], []).append((objs, vals))
        for f in mid.generators:
            x, y = mid.dom(f), mid.cod(f)
            # many elements share a factor: act once per factor value
            p_f = functools.cache(lambda a, u: p.act(p.source.identity(a), f, u))
            q_f = functools.cache(lambda c, w: q.act(f, q.target.identity(c), w))
            for objs, vals in firsts.get(x, ()):
                fu = p_f(objs[i - 1], vals[i - 1])
                at_y = objs[:i] + (y,) + objs[i + 1:]
                for w in q.fiber(y, objs[i + 1]):
                    fw = q_f(objs[i + 1], w)
                    left = pos[(objs, vals[:i] + (fw,) + vals[i + 1:])]
                    right = pos[(at_y, vals[:i - 1] + (fu, w) + vals[i + 1:])]
                    parent[find(left)] = find(right)
    return len({find(k) for k in range(len(elems))})


def _shipped_terms(deriv_name, binding):
    """(evaluator, term) for every closed shape of a shipped derivation
    script's shape script and every term one of its derivations passes
    through, under every assignment of the object symbols."""
    sig, script = load_scripts(deriv_name)
    env = Env(sig, {sym: build(fx) for sym, fx in binding.items()})
    derivs = list(script.named.values()) + ([script.main] if script.main else [])
    for ev in sweep(env):
        terms = set(sig.shapes.values())
        for deriv in derivs:
            term = sig.shapes[deriv.shape]
            for idx, step in enumerate(deriv.steps, 1):
                out = check_step(ev, term, step, Report(), idx)
                if out is None:
                    break
                term = out[0]
                terms.add(term)
        for term in terms:
            try:
                closed = boundary(term, sig) == ((), ())
            except ShapeTypeError:
                continue
            if closed:
                yield ev, term


FUBINI_MAX = 20000
FUBINI_SCRIPTS = ["lens_reduction.deriv", "lens_apply.deriv", "optic_category.deriv",
                  "feedback.deriv", "lens_to_dynamics.deriv", "learner_reduction.deriv",
                  "lenses_to_learner.deriv", "optic_crossed.deriv", "points.deriv"]


@pytest.mark.parametrize("deriv_name,binding", [
    pytest.param(d, {"C": fx}, id=f"{d.split('.')[0]}-{fx}")
    for d in FUBINI_SCRIPTS for fx in ("z2", "meet-lattice-2")] + [
    pytest.param(d, {"C": "join-lattice-2"}, id=f"{d.split('.')[0]}-join-lattice-2")
    for d in FUBINI_SCRIPTS + ["prism_reduction.deriv"]] + [
    pytest.param("adjunctions.deriv", {"C": "meet-lattice-2", "D": "z2"},
                 id="adjunctions-meet-lattice-2-z2")])
def test_left_fold_matches_one_fubini_quotient(deriv_name, binding):
    # the composite of n parts, quotiented one middle category at a time by
    # coend_at, has as many classes as the one quotient over all of them;
    # a product of more than FUBINI_MAX elements is left out (over z2 some
    # terms reach 8 million)
    seen = 0
    for ev, term in _shipped_terms(deriv_name, binding):
        profs = [ev.node(part) for part in seq_parts(term)]
        if fold_size(profs) <= FUBINI_MAX:
            assert fubini_count(profs) == _count(ev.node(term)), print_term(term)
            seen += 1
    assert seen
