import importlib.util
import itertools
import json
import operator
import sys
from pathlib import Path

import pytest

from coendcheck.fincat import (CartesianWitness, FinCategory, FixtureError, MonoidalStructure,
                               load_fixture, dump_fixture,
                               compose_functors, from_comm_monoid, from_lattice, join_mors,
                               join_objs, opposite, opposite_monoidal, product, product_monoidal,
                               split_mor, split_obj, terminal_category, validate_category,
                               validate_functor, validate_monoidal, FinFunctor)
from coendcheck.fixtures import (FIXTURE_NAMES, bad_fixture_names,
                                 bad_fixture_path, build, fixture, fixture_path)
from coendcheck import load_fixture_file


@pytest.fixture(scope="module")
def oracles():
    return {name: build(name) for name in FIXTURE_NAMES}


def test_shipped_fixtures_validate(oracles):
    for name, mon in oracles.items():
        assert validate_category(mon.base).ok, name
        assert validate_monoidal(mon).ok, name


def test_loaded_fixtures_match_builders(oracles):
    for name in FIXTURE_NAMES:
        loaded = fixture(name)
        assert dump_fixture(loaded.base, loaded) == dump_fixture(
            oracles[name].base, oracles[name])
        assert validate_category(loaded.base).ok
        assert validate_monoidal(loaded).ok


def test_build_refuses_an_unknown_fixture_name():
    with pytest.raises(KeyError) as info:
        build("no-such-fixture")
    assert info.value.args == ("unknown fixture 'no-such-fixture'",)


def test_a_category_repr_gives_its_name_and_size(oracles):
    assert repr(oracles["z2"].base) == "FinCategory('z2', 1 objects, 2 morphisms)"
    assert repr(oracles["diamond"].base) == "FinCategory('diamond', 4 objects, 9 morphisms)"


def test_fixture_generator_rewrites_the_shipped_files_byte_for_byte(
        tmp_path, monkeypatch, capsys):
    # tools/gen_fixtures.py writes the 6 shipped fixtures and the 5 bad ones
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("gen_fixtures",
                                                  root / "tools" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", str(tmp_path))
    gen.main()
    shipped = Path(fixture_path(FIXTURE_NAMES[0])).parent
    names = sorted(str(p.relative_to(shipped)) for p in shipped.rglob("*.json"))
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.json")) == names
    assert len(names) == 11
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_chain_category_laws():
    mon = build("meet-lattice-2")
    c = mon.base
    assert len(list(c.objects)) == 2
    assert len(list(c.morphisms)) == 3
    assert len(c.hom(c.obj_id("0"), c.obj_id("1"))) == 1
    assert len(c.hom(c.obj_id("1"), c.obj_id("0"))) == 0


def test_z2_category_laws():
    c = build("z2").base
    assert validate_category(c).ok
    one = c.mor_id("1")
    assert c.compose(one, one) == c.mor_id("0")


def test_tampered_identity_reports_violation():
    c = build("z2").base
    # mutate the table in place: 0;1 becomes 0
    c._compose[(c.mor_id("0"), c.mor_id("1"))] = c.mor_id("0")
    rep = validate_category(c)
    assert not rep.ok
    assert any(v.kind == "identity" for v in rep.violations)


def test_every_single_table_mutation_is_caught():
    # any single composition entry swap on z2 breaks the category laws or,
    # failing that, interchange against the untouched tensor table
    base = build("z2").base
    for key in list(base._compose):
        for wrong in base.morphisms:
            if wrong == base._compose[key]:
                continue
            mon = build("z2")
            mon.base._compose[key] = wrong
            ok = validate_category(mon.base).ok and validate_monoidal(mon).ok
            assert not ok, (key, wrong)


def test_monoidal_violations_reported():
    mon = build("z2")
    mon.tensor_mor[(1, 1)] = 1
    rep = validate_monoidal(mon)
    assert not rep.ok
    kinds = {v.kind for v in rep.violations}
    assert "interchange" in kinds or "strictness" in kinds


def test_meet_lattice_monoidal():
    mon = build("meet-lattice-2")
    assert mon.base.obj_name(mon.unit) == "1"
    assert mon.cartesian is not None and mon.cocartesian is None
    assert validate_monoidal(mon).ok


def test_join_lattice_monoidal():
    mon = build("join-lattice-2")
    assert mon.base.obj_name(mon.unit) == "0"
    assert mon.cocartesian is not None and mon.cartesian is None
    assert validate_monoidal(mon).ok


def _drop_copairing(mon, c):
    del mon.cocartesian.pairing[(c.mor_id("id_0"), c.mor_id("id_0"))]


def _mistype_initial(mon, c):
    mon.cocartesian.terminal[c.obj_id("0")] = c.mor_id("id_1")


def _mistype_inj1(mon, c):
    mon.cocartesian.proj1[(c.obj_id("0"), c.obj_id("0"))] = c.mor_id("id_1")


def _drop_braiding(mon, c):
    del mon.braiding[(c.obj_id("0"), c.obj_id("1"))]


@pytest.mark.parametrize("mutate, line", [
    (_drop_copairing, "[malformed] copairing missing for (id_0,id_0)"),
    (_mistype_initial, "[cocartesian] initial point at 0 has wrong type"),
    (_mistype_inj1, "[cocartesian] inj1 at (0,0) has wrong type"),
    (_drop_braiding, "[malformed] braiding missing at (0,1)"),
], ids=["copairing-missing", "initial-mistyped", "inj1-mistyped",
        "braiding-missing"])
def test_cocartesian_oracle_violations_reported(mutate, line):
    mon = build("join-lattice-2")
    mutate(mon, mon.base)
    rep = validate_monoidal(mon)
    assert line in [str(v) for v in rep.violations], str(rep)


def test_z2_monoidal_symmetric_no_witnesses():
    mon = build("z2")
    assert validate_monoidal(mon).ok
    assert mon.braiding is not None
    assert mon.cartesian is None and mon.cocartesian is None


def test_trivial_monoid_is_terminal_oracle():
    mon = from_comm_monoid("triv", ["e"], {("e", "e"): "e"}, "e")
    assert validate_monoidal(mon).ok
    assert len(list(mon.base.morphisms)) == 1


def test_noncommutative_monoid_rejected():
    # S3 via two generators is enough: compose two transpositions both ways
    elems = list(range(6))  # permutations of 3 elements, tabulated

    def perm(i):
        return [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)][i]

    def mul(i, j):
        pi, pj = perm(i), perm(j)
        composite = tuple(pi[pj[k]] for k in range(3))
        return next(k for k in elems if perm(k) == composite)

    op = {(a, b): mul(a, b) for a in elems for b in elems}
    assert op[(1, 2)] != op[(2, 1)]
    with pytest.raises(FixtureError):
        from_comm_monoid("s3", elems, op, 0)


def test_non_lattice_rejected():
    # two incomparable tops: {bot, a, b} with a,b maximal has no join(a,b)... use
    # 4 elements where (a, b) has two minimal upper bounds
    elems = ["a", "b", "t1", "t2"]
    order = {(x, x) for x in elems}
    order |= {("a", "t1"), ("a", "t2"), ("b", "t1"), ("b", "t2")}
    with pytest.raises(FixtureError) as e:
        from_lattice("bad", elems, order, "join")
    assert "join" in str(e.value) or "bottom" in str(e.value)


def test_from_lattice_hom_sizes():
    mon = build("diamond")
    c = mon.base
    for a in c.objects:
        for b in c.objects:
            assert len(c.hom(a, b)) in (0, 1)


def test_opposite_involution(oracles):
    for mon in oracles.values():
        c = mon.base
        assert opposite(opposite(c)) is c
        assert validate_category(opposite(c)).ok


def test_opposite_chain_hom_reversal():
    c = build("meet-lattice-2").base
    oc = opposite(c)
    assert len(oc.hom(oc.obj_id("1"), oc.obj_id("0"))) == 1
    assert len(oc.hom(oc.obj_id("0"), oc.obj_id("1"))) == 0


def test_opposite_z2_isomorphic_to_itself():
    c = build("z2").base
    oc = opposite(c)
    assert oc._compose == {(g, f): h for (f, g), h in c._compose.items()}
    # commutative, so the table coincides with the original
    assert oc._compose == c._compose


def test_opposite_monoidal_swaps_witnesses():
    m = opposite_monoidal(build("meet-lattice-2"))
    assert m.cocartesian is not None and m.cartesian is None
    assert validate_monoidal(m).ok


def _lattice(name, below, mode):
    """The lattice in which each element covers the elements `below` maps
    it to, built afresh (so its products are not shared with other tests)."""
    def down(x):
        return {x}.union(*(down(y) for y in below[x]))
    return from_lattice(name, list(below), {(y, x) for x in below for y in down(x)}, mode)


@pytest.mark.parametrize("make", [
    lambda: build("join-lattice-2"), lambda: build("diamond"),
    lambda: _lattice("pentagon", {"bot": [], "a": ["bot"], "b": ["a"], "c": ["bot"],
                                  "top": ["b", "c"]}, "join")],
                         ids=["join-lattice-2", "diamond", "pentagon-join"])
def test_opposite_monoidal_trades_the_witnesses_themselves(make):
    # a cocartesian structure is kept as the cartesian witness of C^op, so
    # reading C^op moves the one witness object, copying nothing
    m = make()
    op = opposite_monoidal(m)
    assert op.cartesian is m.cocartesian and op.cocartesian is m.cartesian
    assert opposite_monoidal(op).cartesian is m.cartesian
    assert validate_monoidal(op).ok and validate_monoidal(m).ok


def test_product_with_terminal_is_self():
    c = build("meet-lattice-2").base
    t = terminal_category()
    assert len(list(t.objects)) == 1 and len(list(t.morphisms)) == 1
    # the terminal category contributes no factors, so the product collapses
    assert product(c, t) is c
    assert product(t, c) is c


def test_product_hom_sizes_multiply(oracles):
    c = oracles["meet-lattice-2"].base
    d = oracles["z2"].base
    p = product(c, d)
    assert len(list(p.objects)) == 2
    sizes = set()
    for a in p.objects:
        for b in p.objects:
            ta, tb = split_obj(d, a), split_obj(d, b)
            assert len(p.hom(a, b)) == len(c.hom(ta[0], tb[0])) * len(d.hom(ta[1], tb[1]))
            sizes.add(len(p.hom(a, b)))
    assert sizes == {0, 2}
    assert validate_category(p).ok


def test_product_composes_exactly_the_composable_pairs():
    # against composing every pair of morphism tuples factor by factor
    l2, z2, dia = (build(n).base for n in ("meet-lattice-2", "z2", "diamond"))
    for p in (product(l2, z2, opposite(dia)), product(dia, dia)):
        naive = {}
        for f in p.morphisms:
            for g in p.morphisms:
                if p.cod(f) == p.dom(g):
                    naive[(f, g)] = p.pack_mor(tuple(
                        c.compose(a, b)
                        for c, a, b in zip(p.factors, p.mor_tuple(f), p.mor_tuple(g))))
        assert p.composition() == naive
        assert all(p.compose(f, g) == h for (f, g), h in naive.items())


def _diamond6():
    """The meet lattice z < bot < a, b < top < t."""
    return _lattice("diamond6", {"z": [], "bot": ["z"], "a": ["bot"], "b": ["bot"],
                                 "top": ["a", "b"], "t": ["top"]}, "meet")


def test_product_composes_a_pair_when_first_looked_up():
    c = _diamond6().base
    p = product(c, opposite(c), c)
    assert len(p.mor_names) == 20 ** 3 and len(p._compose) == 0
    f = p.pack_mor((c.mor_id("z<bot"), c.mor_id("id_a"), c.mor_id("a<top")))
    g = p.pack_mor((c.mor_id("bot<t"), c.mor_id("z<a"), c.mor_id("id_top")))
    fg = p.compose(f, g)
    assert p.mor_tuple(fg) == (c.mor_id("z<t"), c.mor_id("z<a"), c.mor_id("a<top"))
    assert p.compose(f, g) == fg and len(p._compose) == 1
    with pytest.raises(FixtureError, match=r"no composition entry for .* in \(diamond6"):
        p.compose(g, f)
    assert len(p._compose) == 1


def test_learner_over_a_six_element_lattice_builds_few_composites():
    # learner_reduction.deriv at A=B=bot, U=V=t over the six-element
    # diamond: evaluating its shape builds a 160,000-morphism product
    # with ~6.4 million composable pairs, of which the evaluation composes
    # none
    from coendcheck.demos import load_scripts
    from coendcheck.shapelang import Env, Evaluator
    mon = _diamond6()
    c = mon.base
    sig, _ = load_scripts("learner_reduction.deriv")
    objs = {s: c.obj_id("t" if s in ("U", "V") else "bot") for s in sig.objects}
    node = Evaluator(Env(sig, {"C": mon}, objs=objs)).node(sig.shapes["learner"])
    assert node.fiber(0, 0)
    products = [p for p in _products_over(c) if len(p.mor_names) >= 160_000]
    assert products and sum(len(p._compose) for p in products) <= 1_000


def _products_over(c):
    from coendcheck.fincat import _PRODUCT_CACHE
    return [p for p in _PRODUCT_CACHE.values()
            if p.factors and all(f in (c, opposite(c)) for f in p.factors)]


def _naive_ids(cats, kind):
    """The id table a product of the flat factor list `cats` once stored:
    each tuple of factor ids numbered in itertools.product order."""
    return {t: i for i, t in enumerate(itertools.product(*[getattr(c, kind) for c in cats]))}


def _layout_cases():
    c = build("diamond").base
    co, t = opposite(c), terminal_category()
    return [[c, c], [c, co], [co, c, co], [product(c, c), c], [t], [c, t], [t, c, t, c],
            [build("prod-l2-z2").base, build("z2").base]]


@pytest.mark.parametrize("parts", _layout_cases(), ids=[
    "CxC", "CxCop", "CopxCxCop", "(CxC)xC", "1", "Cx1", "1xCx1xC", "prod-l2-z2xz2"])
def test_product_ids_match_the_naive_tables(parts):
    # joining, splitting, and packing and unpacking a morphism, agree with
    # the enumerated tables, and its dom, cod and identities with the
    # factorwise ones
    p = product(*parts)
    flat = p.factors if p.factors is not None else (p,)
    objs, mors = _naive_ids(flat, "objects"), _naive_ids(flat, "morphisms")
    assert (len(p.objects), len(p.morphisms)) == (len(objs), len(mors))
    for tup, i in objs.items():
        assert join_objs(zip(flat, tup)) == i
    for tup, i in mors.items():
        assert p.pack_mor(tup) == i and p.mor_tuple(i) == tup
        assert join_mors(zip(flat, tup)) == i
    for tup, i in mors.items():
        assert p.dom(i) == objs[tuple(f.dom(m) for f, m in zip(flat, tup))]
        assert p.cod(i) == objs[tuple(f.cod(m) for f, m in zip(flat, tup))]
    for tup, i in objs.items():
        assert p.identity(i) == mors[tuple(f.identity(o) for f, o in zip(flat, tup))]
    for k in range(len(parts) + 1):
        left, right = product(*parts[:k]), product(*parts[k:])
        n = len(left.factors) if left.factors is not None else 1
        for kind, table, split, join in (("objects", objs, split_obj, join_objs),
                                         ("morphisms", mors, split_mor, join_mors)):
            lt, rt = _naive_ids(flat[:n], kind), _naive_ids(flat[n:], kind)
            for tup, i in table.items():
                halves = lt[tup[:n]], rt[tup[n:]]
                assert split(right, i) == halves, (k, kind, tup)
                assert join(zip((left, right), halves)) == i


def test_product_is_interned():
    c = build("z2").base
    assert product(c, c) is product(c, c)
    assert product(product(c, c), c) is product(c, product(c, c))


def test_product_monoidal_validates(oracles):
    mon = product_monoidal(oracles["meet-lattice-2"], oracles["z2"])
    assert validate_monoidal(mon).ok
    assert mon.braiding is not None


def test_functor_validation():
    l2 = build("meet-lattice-2").base
    z2 = build("z2").base
    f = FinFunctor("F", l2, z2,
                   {o: 0 for o in l2.objects},
                   {l2.mor_id("id_0"): z2.mor_id("0"),
                    l2.mor_id("id_1"): z2.mor_id("0"),
                    l2.mor_id("0<1"): z2.mor_id("1")})
    assert validate_functor(f).ok
    bad = FinFunctor("bad", z2, z2, {0: 0},
                     {z2.mor_id("0"): z2.mor_id("1"),
                      z2.mor_id("1"): z2.mor_id("0")})
    rep = validate_functor(bad)
    assert not rep.ok and any(v.kind == "functoriality" for v in rep.violations)


def test_bad_fixture_files_rejected():
    names = bad_fixture_names()
    assert len(names) == 5
    for name in names:
        cat, mon = load_fixture_file(bad_fixture_path(name))
        rep = validate_category(cat)
        if rep.ok:
            rep = validate_monoidal(mon)
        assert not rep.ok, name


def test_fixture_roundtrip(oracles):
    for name, mon in oracles.items():
        data = dump_fixture(mon.base, mon)
        cat2, mon2 = load_fixture(json.dumps(data))
        assert dump_fixture(cat2, mon2) == data


def test_duplicate_names_within_hom_rejected():
    data = {
        "name": "dup", "objects": ["a"],
        "homs": {"a->a": ["f", "f"]},
        "compose": [["f", "f", "f"]],
        "identities": {"a": "f"},
    }
    with pytest.raises(FixtureError):
        load_fixture(json.dumps(data))


def test_opposite_of_a_product_is_the_product_of_opposites(oracles):
    t = terminal_category()
    assert opposite(t) is t
    for mon in oracles.values():
        c = mon.base
        cc = product(c, c)
        assert opposite(cc) is product(opposite(c), opposite(c))
        assert opposite(opposite(cc)) is cc
        mixed = product(c, opposite(c))
        assert opposite(mixed) is product(opposite(c), c)


def _generated(c, gens):
    """Identities and every composite of gens, by fixed-point sweeps."""
    reached = {c.identity(o) for o in c.objects}
    while True:
        more = {c.compose(f, g) for f in reached for g in gens
                if c.cod(f) == c.dom(g)} - reached
        if not more:
            return reached
        reached |= more


def _z(n):
    return from_comm_monoid(f"Z{n}", list(range(n)),
                            {(a, b): (a + b) % n for a in range(n) for b in range(n)}, 0)


def _generator_cases():
    cases = {"1": terminal_category()}
    for name in FIXTURE_NAMES:
        for how, mon in (("json", fixture(name)), ("built", build(name))):
            c = mon.base
            cases.update({f"{name}/{how}": c, f"op {name}/{how}": opposite(c),
                          f"{name}/{how}^2": product(c, c),
                          f"op {name}/{how}^2": opposite(product(c, c))})
    for n in range(1, 7):
        cases[f"Z{n}"] = _z(n).base
    return cases


@pytest.mark.parametrize("c", [pytest.param(c, id=name)
                               for name, c in sorted(_generator_cases().items())])
def test_generators_generate_every_morphism(c):
    gens = c.generators
    assert len(set(gens)) == len(gens)
    assert not set(gens) & {c.identity(o) for o in c.objects}
    assert _generated(c, gens) == set(c.morphisms)
    if c.factors is not None:
        for g in gens:
            parts = zip(c.factors, c.mor_tuple(g))
            assert sum(m != f.identity(f.dom(m)) for f, m in parts) == 1
    else:
        # the greedy pass keeps no generator that the others generate
        for g in gens:
            assert g not in _generated(c, [h for h in gens if h != g])


def test_generator_counts():
    assert len(fixture("diamond").base.generators) == 4          # of 9 morphisms
    assert len(fixture("prod-l2-z2").base.generators) == 3       # of 6
    assert len(build("prod-l2-z2").base.generators) == 3         # factor-wise
    assert len(fixture("z2").base.generators) == 1
    assert terminal_category().generators == ()
    # a cyclic group: every non-identity element is a power of the last one
    assert [len(_z(n).base.generators) for n in range(1, 7)] == [0, 1, 1, 1, 1, 1]


# -- one failing input per fixture validator, builder and loader message --------


def _mutated(name, mutate):
    """The validation report of fixture `name` after `mutate(mon, cat)`."""
    mon = build(name)
    mutate(mon, mon.base)
    return validate_monoidal(mon)


def _set(table, key, value):
    """mutate(mon, cat) setting `table`[key] = value, with morphisms named."""
    def mutate(mon, c):
        ids = [c.mor_id(n) for n in (*key, value)]
        operator.attrgetter(table)(mon)[tuple(ids[:-1])] = ids[-1]
    return mutate


def _loaded(edit):
    """Load meet-lattice-2's fixture data after `edit(data)`."""
    mon = build("meet-lattice-2")
    data = dump_fixture(mon.base, mon)
    edit(data)
    return load_fixture(json.dumps(data))


def _rename_key(table, old, new):
    def edit(data):
        t = data["monoidal"][table] if table != "homs" else data["homs"]
        t[new] = t.pop(old)
    return edit


# two morphisms named f, in hom(a, b) and hom(b, a); the braiding names f
AMBIGUOUS = {"name": "amb", "objects": ["a", "b"],
             "homs": {"a->a": ["ia"], "b->b": ["ib"], "a->b": ["f"], "b->a": ["f"]},
             "compose": [], "identities": {"a": "ia", "b": "ib"},
             "monoidal": {"tensor_obj": {}, "tensor_mor": [], "unit": "a",
                          "braiding": {"a,a": "f"}}}


def _functors():
    l2, z2 = build("meet-lattice-2").base, build("z2").base
    f = FinFunctor("F", l2, z2, {o: 0 for o in l2.objects}, {m: 0 for m in l2.morphisms})
    return compose_functors(f, f)


MESSAGES = [
    # validate_category, on categories built directly
    (lambda: validate_category(FinCategory("c", ["a"], ["f"], [0], [3], {}, [0])),
     "[malformed] morphism f has dangling endpoint"),
    (lambda: validate_category(FinCategory("c", ["a"], ["f"], [0], [0], {(0, 0): 0}, [4])),
     "[malformed] identity of a is a dangling id"),
    (lambda: validate_category(FinCategory("c", ["a", "b"], ["f", "g"], [0, 1], [1, 1],
                                           {(0, 1): 0, (1, 1): 1}, [0, 1])),
     "[malformed] identity of a is not an endomorphism"),
    (lambda: validate_category(FinCategory("c", ["a"], ["f"], [0], [0], {(0, 0): 9}, [0])),
     "[malformed] composite of (0,0) is a dangling id"),
    # validate_monoidal, on one mutated table of a shipped oracle
    (lambda: _mutated("meet-lattice-2", lambda m, c: m.tensor_obj.update({(0, 1): 1})),
     "[strictness] unit law fails on object 0"),
    (lambda: _mutated("diamond", lambda m, c: m.tensor_obj.update({(0, 0): 1})),
     "[strictness] object associativity fails at (bot,bot,b)"),
    (lambda: _mutated("meet-lattice-2", _set("tensor_mor", ("id_0", "id_1"), "0<1")),
     "[strictness] morphism unit law fails at id_0"),
    (lambda: _mutated("meet-lattice-2", _set("tensor_mor", ("id_0", "0<1"), "id_1")),
     "[strictness] morphism associativity fails at (id_0,id_0,0<1)"),
    (lambda: _mutated("meet-lattice-2", _set("tensor_mor", ("id_0", "id_0"), "0<1")),
     "[strictness] tensor of identities is not the identity at (0,0)"),
    (lambda: _mutated("meet-lattice-2", lambda m, c: m.braiding.update({(0, 0): 1})),
     "[braiding] braiding at (0,0) has wrong type"),
    (lambda: _mutated("prod-l2-z2", lambda m, c: m.braiding.update(
        {(0, 1): c.mor_id("(id_0|1)")})),
     "[braiding] symmetry fails at ((0|x),(1|x))"),
    (lambda: _mutated("meet-lattice-2", lambda m, c: m.cartesian.terminal.pop(0)),
     "[malformed] terminal point missing at 0"),
    (lambda: _mutated("meet-lattice-2", _set("cartesian.pairing", ("id_0", "id_0"), "id_1")),
     "[cartesian] pairing of (id_0,id_0) is not the unique mediating morphism"),
    # z2's one object with identity projections: its hom(x, x) has two
    # morphisms, so the unit is no terminal object
    (lambda: _mutated("z2", lambda m, c: setattr(
        m, "cartesian", CartesianWitness({(0, 0): 0}, {(0, 0): 0}, {}, {0: 0}))),
     "[cartesian] unit is not terminal at x"),
    # from_lattice
    (lambda: from_lattice("x", ["a"], {("a", "a")}, "both"),
     "mode must be 'meet' or 'join', got 'both'"),
    (lambda: from_lattice("x", ["a", "b"], {("a", "a"), ("a", "b")}, "meet"),
     "order is not reflexive at b"),
    (lambda: from_lattice("x", ["a", "b"], {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")},
                          "meet"),
     "order is not antisymmetric at (a,b)"),
    (lambda: from_lattice("x", ["a", "b", "c"], {("a", "a"), ("b", "b"), ("c", "c"),
                                                 ("a", "b"), ("b", "c")}, "meet"),
     "order is not transitive at (a,c)"),
    (lambda: from_lattice("x", ["a", "b", "t"], {("a", "a"), ("b", "b"), ("t", "t"),
                                                 ("a", "t"), ("b", "t")}, "meet"),
     "no meet for (a,b)"),
    # from_comm_monoid
    (lambda: from_comm_monoid("x", [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}, 0),
     "operation is not commutative at (0,1)"),
    (lambda: from_comm_monoid("x", [0, 1], {(0, 0): 5, (0, 1): 1, (1, 0): 1, (1, 1): 0}, 0),
     "operation leaves the carrier at (0,0)"),
    # the associativity check at (0,0,1) would read op[(0, 2)]
    (lambda: from_comm_monoid("x", [0, 1], {(0, 0): 0, (0, 1): 2, (1, 0): 2, (1, 1): 1}, 0),
     "operation leaves the carrier at (0,1)"),
    (lambda: from_comm_monoid("x", [0, 1], {(a, b): 0 for a in (0, 1) for b in (0, 1)}, 0),
     "unit law fails at 1"),
    (lambda: from_comm_monoid("x", [0, 1, 2], {
        **{(0, x): x for x in range(3)}, **{(x, 0): x for x in range(3)},
        (1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 1}, 0),
     "operation is not associative at (1,1,2)"),
    # the loader
    (lambda: _loaded(_rename_key("homs", "0->1", "0-1")),
     "bad hom key '0-1', expected 'A->B'"),
    (lambda: _loaded(_rename_key("tensor_obj", "0,1", "01")),
     "bad pair key '01', expected 'A,B'"),
    (lambda: _loaded(lambda data: data["objects"].append("0")),
     "duplicate object name '0'"),
    (lambda: load_fixture(json.dumps(AMBIGUOUS)),
     "ambiguous morphism name 'f' in amb"),
    # compose_functors
    (_functors, "functors F and F are not composable"),
    # MonoidalStructure.braid, of a structure with no braiding
    (lambda: MonoidalStructure(terminal_category(), {(0, 0): 0}, {(0, 0): 0}, 0).braid(0, 0),
     "1 carries no braiding"),
]


@pytest.mark.parametrize("fail, message", MESSAGES, ids=[m for _, m in MESSAGES])
def test_every_fixture_message_has_a_failing_input(fail, message):
    # each validator violation is one line of its report; each builder or
    # loader failure is the FixtureError it raises
    try:
        rep = fail()
    except FixtureError as e:
        assert str(e) == message
    else:
        assert message in [str(v) for v in rep.violations], str(rep)
