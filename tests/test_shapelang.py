import copy
import pickle
import re
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendcheck import rewrite
from coendcheck.demos import DEMOS, demo_dir, load_scripts
from coendcheck.fincat import terminal_category
from coendcheck.fixtures import FIXTURE_NAMES, build
from coendcheck.pointed import OpenDiagram
from coendcheck.profunctor import ConcreteProf
from coendcheck.rewrite import check_derivation
from coendcheck.shapelang import (KINDS, Env, EvalError, Evaluator, Gen, Id, Par, Seq, Wire,
                                  ShapeSyntaxError, ShapeTypeError, Signature,
                                  StructureMissing, boundary, class_count,
                                  eval_closed, is_plain_id, par, parse_shape_script, seq,
                                  parse_term, print_term, read_sexprs, tokenize)


def constant_prof(c):
    """A profunctor 1 -> c with the fiber ("p0", "p1") at every object and
    trivial actions: functorial, but not representable."""
    return ConcreteProf(terminal_category(), c, lambda _, b: ("p0", "p1"), lambda _, g, v: v)


LENS_SCRIPT = """
; the monoidal lens shape and friends
(category C)
(object A C) (object B C) (object X C) (object Y C)
(shape arrow (seq (inport A) (outport B)))
(shape lens
  (seq (inport A) (fork C)
       (par (id C) (outport X))
       (par (id C) (inport Y))
       (junction C) (outport B)))
(shape feedback
  (seq (cap C)
       (par (id (op C) C) (inport X))
       (par (id (op C)) (junction C))
       (par (id (op C)) (fork C))
       (par (id (op C) C) (outport Y))
       (sym (op C) C)
       (cup C)))
"""


@pytest.fixture(scope="module")
def sig():
    return parse_shape_script(LENS_SCRIPT)


def env_for(sig, name, objs=None):
    mon = build(name)
    return Env(sig, {"C": mon}, objs=objs)


def naive_quotient_count(pairs, relations):
    classes = [{p} for p in pairs]
    changed = True
    while changed:
        changed = False
        for (x, y) in relations:
            cx = next(c for c in classes if x in c)
            cy = next(c for c in classes if y in c)
            if cx is not cy:
                cx |= cy
                classes.remove(cy)
                changed = True
    return len(classes)


def lens_count_oracle(mon, a, b, x, y):
    c = mon.base
    pairs = [(m, (g, f)) for m in c.objects
             for g in c.hom(a, mon.tensor(m, x))
             for f in c.hom(mon.tensor(m, y), b)]
    rels = []
    for mo in c.morphisms:
        m1, m2 = c.dom(mo), c.cod(mo)
        for g in c.hom(a, mon.tensor(m1, x)):
            for f in c.hom(mon.tensor(m2, y), b):
                left = (m2, (c.compose(g, mon.tensor_m(mo, c.identity(x))), f))
                right = (m1, (g, c.compose(mon.tensor_m(mo, c.identity(y)), f)))
                rels.append((left, right))
    return naive_quotient_count(pairs, rels)


def feedback_count_oracle(mon, x, y):
    c = mon.base
    pairs = [(m, h) for m in c.objects
             for h in c.hom(mon.tensor(m, x), mon.tensor(m, y))]
    rels = []
    for mo in c.morphisms:
        m1, m2 = c.dom(mo), c.cod(mo)
        for q in c.hom(mon.tensor(m2, x), mon.tensor(m1, y)):
            left = (m1, c.compose(mon.tensor_m(mo, c.identity(x)), q))
            right = (m2, c.compose(q, mon.tensor_m(mo, c.identity(y))))
            rels.append((left, right))
    return naive_quotient_count(pairs, rels)


# -- parsing -------------------------------------------------------------------


def test_parse_simple_closed(sig):
    t = sig.shapes["arrow"]
    assert boundary(t, sig) == ((), ())


def test_parse_roundtrip(sig):
    for name, t in sig.shapes.items():
        text = print_term(t)
        assert parse_term(read_sexprs(text)[0], sig) == t, name


def test_parse_rejects_unknown_generator(sig):
    with pytest.raises(ShapeSyntaxError):
        parse_term(read_sexprs("(wobble C)")[0], sig)


def test_parse_rejects_unknown_symbol(sig):
    with pytest.raises(ShapeSyntaxError):
        parse_term(read_sexprs("(inport Q)")[0], sig)


def test_parse_rejects_bad_arity(sig):
    with pytest.raises(ShapeSyntaxError):
        parse_term(read_sexprs("(inport A B)")[0], sig)


def naive_tokenize(text):
    """The tokenizer as a character loop: the reference for the one-regex
    tokenize."""
    tokens = []
    i, n, line = 0, len(text), 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            tokens.append((ch, line))
            i += 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise ShapeSyntaxError(f"line {line}: unterminated string")
            tokens.append((("str", text[i + 1:j]), line))
            line += text.count("\n", i, j)
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"':
                j += 1
            tokens.append((text[i:j], line))
            i = j
    return tokens


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ShapeSyntaxError as e:
        return str(e)


SHIPPED_SCRIPTS = sorted(p.name for p in demo_dir().iterdir()
                         if p.name.endswith((".shapes", ".deriv")))


@pytest.mark.parametrize("name", SHIPPED_SCRIPTS)
def test_tokenize_matches_the_naive_loop_on_shipped_scripts(name):
    text = (demo_dir() / name).read_text(encoding="utf-8")
    assert tokenize(text) == naive_tokenize(text)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.text(alphabet=st.sampled_from('ab(); "\n\t\r\f\\@'), max_size=40))
def test_tokenize_matches_the_naive_loop_on_generated_texts(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(naive_tokenize, text)


def _lens_env(**objs):
    return Env(parse_shape_script(LENS_SCRIPT), {"C": build("z2")}, objs=objs)


# each parser, normalizer and environment refusal with one input that
# raises it: (thunk, exception type, message)
SHAPE_ERRORS = [
    (lambda: parse_shape_script('(category "C)'), ShapeSyntaxError,
     "line 1: unterminated string"),
    # a string's newlines count towards the lines after it
    (lambda: parse_shape_script('(category C)\n(object "A\n B" C)\n(shape s\n'
                                '  (inport A @g)'), ShapeSyntaxError,
     "line 4: unclosed '('"),
    (lambda: parse_shape_script("(category (C))"), ShapeSyntaxError,
     "expected a name, got ['C']"),
    (lambda: parse_shape_script("(category C) (category D) (object A C) (object B D)"
                                "(shape s (inport (tensor A B)))"), ShapeSyntaxError,
     "tensor of objects from different categories"),
    (lambda: parse_shape_script("(category C) (shape s (seq))"), ShapeSyntaxError,
     "(seq) needs at least one part"),
    (lambda: parse_shape_script("(category C) (shape s (par (id C)))"), ShapeSyntaxError,
     "(par) needs at least two parts"),
    (lambda: parse_shape_script("(category C) shape"), ShapeSyntaxError,
     "bad toplevel form 'shape'"),
    (lambda: parse_shape_script("(category C) (prof K (C))"), ShapeSyntaxError,
     "(prof K (wires) (wires)) expected"),
    (lambda: seq(()), ShapeSyntaxError, "empty seq"),
    (lambda: _lens_env(Q=0), EvalError, "unknown object symbol 'Q'"),
    (lambda: _lens_env().resolve_obj("A"), EvalError, "object symbol 'A' is unassigned"),
    (lambda: _lens_env().resolve_functor("F"), EvalError, "unknown functor symbol 'F'"),
    (lambda: eval_closed(Gen("inport", ("A",)), _lens_env(A=0)), EvalError,
     "shape is not closed"),
]


@pytest.mark.parametrize("fail, error, message", SHAPE_ERRORS,
                         ids=[m for _, _, m in SHAPE_ERRORS])
def test_every_shape_refusal_has_a_failing_input(fail, error, message):
    with pytest.raises(error) as info:
        fail()
    assert str(info.value) == message


@pytest.mark.parametrize("form", ["(prof K CC ())", "(prof K (C) C)"])
def test_a_prof_wire_list_must_be_a_list(form):
    # a bare name is not read one character at a time as a wire list
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shape_script(f"(category C) {form}")
    assert str(info.value) == "(prof K (wires) (wires)) expected"


def test_a_box_of_a_composite_functor_prints_and_reparses():
    sig = parse_shape_script("(category C) (category D) (functor F C D (obj) (mor))"
                             "(functor G D C (obj) (mor))")
    text = "(box (fcomp F G))"
    t = parse_term(read_sexprs(text)[0], sig)
    assert print_term(t) == text and boundary(t, sig) == ((Wire("C"),), (Wire("C"),))


def test_boundary_mismatch_has_path(sig):
    t = Seq((Gen("inport", ("A",)), Gen("inport", ("B",))))
    with pytest.raises(ShapeTypeError) as e:
        boundary(t, sig)
    assert e.value.path == (1,)


def test_fork_junction_boundary(sig):
    t = parse_term(read_sexprs("(seq (fork C) (junction C))")[0], sig)
    from coendcheck.shapelang import Wire
    assert boundary(t, sig) == ((Wire("C"),), (Wire("C"),))


def test_lens_shape_closed(sig):
    assert boundary(sig.shapes["lens"], sig) == ((), ())


def test_feedback_shape_closed(sig):
    assert boundary(sig.shapes["feedback"], sig) == ((), ())


def test_cup_variance_error(sig):
    t = Seq((Gen("fork", ("C",)), Gen("cup", ("C",))))
    with pytest.raises(ShapeTypeError):
        boundary(t, sig)


# -- normalization -------------------------------------------------------------


def test_seq_flattening_and_id_dropping(sig):
    a = sig.shapes["arrow"]
    t1 = parse_term(read_sexprs(
        "(seq (seq (inport A) (id C)) (outport B))")[0], sig)
    assert t1 == a
    t2 = parse_term(read_sexprs(
        "(seq (inport A) (seq (id C) (outport B)))")[0], sig)
    assert t2 == a


def test_labeled_id_is_kept(sig):
    t = parse_term(read_sexprs("(seq (inport A) (id C @h) (outport B))")[0], sig)
    assert isinstance(t, Seq) and len(t.parts) == 3


def test_par_id_merge(sig):
    t = par(Id((), None), Gen("inport", ("A",)))
    assert t == Gen("inport", ("A",))
    t = parse_term(read_sexprs("(par (id C) (id C))")[0], sig)
    assert isinstance(t, Id) and len(t.wires) == 2


# -- evaluation ----------------------------------------------------------------


def test_arrow_counts_on_chain(sig):
    env = env_for(sig, "meet-lattice-2")
    c = env.cats["C"]
    for a in c.objects:
        for b in c.objects:
            e = Env(sig, {"C": env.mons["C"]}, objs={"A": a, "B": b})
            assert class_count(sig.shapes["arrow"], e) == len(c.hom(a, b))


def test_arrow_eval_invariant_under_id_insertion(sig):
    env = env_for(sig, "meet-lattice-2", objs={"A": 0, "B": 1})
    t1 = sig.shapes["arrow"]
    t2 = parse_term(read_sexprs("(seq (inport A) (id C) (id C) (outport B))")[0], sig)
    assert t1 == t2
    assert eval_closed(t1, env) == eval_closed(t2, env)


def test_lens_counts_match_direct_formula(sig):
    # over the join lattice the same shape counts prisms (the dual case)
    for fixture in ("meet-lattice-2", "z2", "prod-l2-z2", "join-lattice-2"):
        mon = build(fixture)
        c = mon.base
        for a in c.objects:
            for b in c.objects:
                for x in c.objects:
                    for y in c.objects:
                        env = Env(sig, {"C": mon},
                                  objs={"A": a, "B": b, "X": x, "Y": y})
                        assert class_count(sig.shapes["lens"], env) == \
                            lens_count_oracle(mon, a, b, x, y), (fixture, a, b, x, y)


def test_lens_over_z2_has_two_classes(sig):
    env = env_for(sig, "z2", objs={"A": 0, "B": 0, "X": 0, "Y": 0})
    assert class_count(sig.shapes["lens"], env) == 2


def test_feedback_counts_match_direct_formula(sig):
    for fixture in ("meet-lattice-2", "z2"):
        mon = build(fixture)
        c = mon.base
        for x in c.objects:
            for y in c.objects:
                env = Env(sig, {"C": mon},
                          objs={"A": 0, "B": 0, "X": x, "Y": y})
                assert class_count(sig.shapes["feedback"], env) == \
                    feedback_count_oracle(mon, x, y), (fixture, x, y)


def test_feedback_over_z2_two_classes(sig):
    env = env_for(sig, "z2", objs={"A": 0, "B": 0, "X": 0, "Y": 0})
    assert class_count(sig.shapes["feedback"], env) == 2


def test_structure_missing_for_junction_without_monoidal(sig):
    mon = build("meet-lattice-2")
    env = Env(sig, {"C": mon.base}, objs={"A": 0, "B": 0, "X": 0, "Y": 0})
    with pytest.raises(StructureMissing):
        eval_closed(sig.shapes["lens"], env)


def test_free_symbol_sweep(sig):
    env = env_for(sig, "meet-lattice-2")
    assert sorted(env.free_objects()) == ["A", "B", "X", "Y"]
    assert sum(1 for _ in env.assignments()) == 16


# -- the boundary memo and the cached term hash --------------------------------


def reference_boundary(t, sig):
    """boundary with no memo: Seq and Par are typed here, each leaf by a
    fresh copy of the signature."""
    if isinstance(t, Seq):
        bnds = [reference_boundary(p, sig) for p in t.parts]
        for (_, right), (left, _) in zip(bnds, bnds[1:]):
            if right != left:
                raise ShapeTypeError("boundary mismatch")
        return bnds[0][0], bnds[-1][1]
    if isinstance(t, Par):
        (l1, r1), (l2, r2) = (reference_boundary(t.top, sig),
                              reference_boundary(t.bottom, sig))
        return l1 + l2, r1 + r2
    return boundary(t, Signature(sig.categories, sig.objects, sig.functors, sig.profs,
                                 sig.shapes))


def derivation_bindings(name, sig):
    """Every category bound to z2 (but adjunctions.shapes' functor names
    objects of meet-lattice-2), then the bindings of the demos of `name`."""
    out = [] if name == "adjunctions.deriv" else [dict.fromkeys(sig.categories, "z2")]
    return out + [b for demo in DEMOS.values() if demo["script"] == name
                  for b in demo["bindings"]]


@pytest.mark.parametrize("name", sorted(p.name for p in demo_dir().iterdir()
                                        if p.name.endswith(".deriv")))
def test_boundary_memo_matches_reference_along_derivations(name):
    # every shape of the script and every term its derivations pass through
    # is memoised with the boundary the reference computes
    sig, script = load_scripts(name)
    passed = []
    real = rewrite.apply_step

    def apply_step(*args, **kwargs):
        out = real(*args, **kwargs)
        passed.append(out[0])
        return out
    with mock.patch.object(rewrite, "apply_step", apply_step):
        for bind in derivation_bindings(name, sig):
            check_derivation(script, sig,
                             Env(sig, {s: build(fx) for s, fx in bind.items()}))
    assert all(term in sig.boundaries for term in passed)
    for term in sig.shapes.values():
        boundary(term, sig)
    for term, bnd in sig.boundaries.items():
        assert bnd == reference_boundary(term, sig), print_term(term)


@pytest.mark.parametrize("name", sorted(p.name for p in demo_dir().iterdir()
                                        if p.name.endswith(".shapes")
                                        and p.name != "bad_syntax.shapes"))
def test_boundary_memo_matches_reference_on_shipped_shapes(name):
    sig = parse_shape_script((demo_dir() / name).read_text(encoding="utf-8"))
    for term in sig.shapes.values():
        assert boundary(term, sig) == reference_boundary(term, sig)
        assert boundary(term, sig) is sig.boundaries[term]


def test_ill_typed_term_is_never_memoised(sig):
    # the error, its text and its path are those of each call
    bad = Seq((Gen("inport", ("A",)), Gen("inport", ("B",))))
    t = Par(Gen("fork", ("C",)), bad)
    errors = []
    for path in [(), (), (2, 1)]:
        with pytest.raises(ShapeTypeError) as e:
            boundary(t, sig, path)
        errors.append((str(e.value), e.value.path))
        assert t not in sig.boundaries and bad not in sig.boundaries
    assert errors[0] == errors[1] == ("at 1.1: boundary mismatch: ...<C> then <>...",
                                      (1, 1))
    assert errors[2] == ("at 2.1.1.1: boundary mismatch: ...<C> then <>...",
                         (2, 1, 1, 1))
    # its well-typed parts are memoised
    assert Gen("fork", ("C",)) in sig.boundaries


def test_terms_are_interned_and_stay_frozen():
    # one object per distinct term: two parses give the same object, and
    # ==, dict lookup and repr agree with it
    lens = parse_shape_script(LENS_SCRIPT).shapes["lens"]
    again = parse_shape_script(LENS_SCRIPT).shapes["lens"]
    assert lens is again and lens == again
    par = lens.parts[2]
    assert isinstance(par, Par) and par is Par(par.top, par.bottom)
    assert {lens: 1}[again] == 1
    for t, attr in [(lens, "parts"), (par, "top")]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(t, attr, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
            delattr(t, attr)
    assert repr(lens) == repr(again) and "_hash" not in repr(lens)
    assert repr(Seq((Gen("inport", ("A",)), Id((Wire("C", True),), "w")))) == (
        "Seq(parts=(Gen(kind='inport', args=('A',), label=None), "
        "Id(wires=(Wire(cat='C', op=True),), label='w')))")


def rebuild(t, rename=None):
    """A structurally fresh copy of `t` through the constructors, with the
    symbols in `rename` renamed: the naive reference that interning must
    return the existing object for."""
    def sym(x):
        return tuple(map(sym, x)) if isinstance(x, tuple) else (rename or {}).get(x, x)
    if isinstance(t, Seq):
        return Seq(tuple(rebuild(p, rename) for p in t.parts))
    if isinstance(t, Par):
        return Par(rebuild(t.top, rename), rebuild(t.bottom, rename))
    if isinstance(t, Id):
        return Id(tuple(Wire(sym(w.cat), w.op) for w in t.wires), t.label)
    return Gen(t.kind, sym(t.args), t.label)


# random terms over few symbols, drawn as plain tuples so that draws often
# coincide: ("seq", parts), ("par", top, bottom), ("id", wires, label) or
# ("gen", kind, args, label)
_labels = st.sampled_from([None, "u"])
_leaves = st.one_of(
    st.tuples(st.just("id"), st.lists(st.tuples(st.sampled_from("CD"), st.booleans()),
                                      max_size=2).map(tuple), _labels),
    st.tuples(st.just("gen"), st.sampled_from(["inport", "outport"]),
              st.sampled_from([("A",), ("B",), (("tensor", "A", "B"),)]), _labels),
    st.tuples(st.just("gen"), st.sampled_from(["fork", "junction"]), st.just(("C",)),
              _labels))
_descs = st.recursive(_leaves, lambda sub: st.one_of(
    st.tuples(st.just("seq"), st.lists(sub, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("par"), sub, sub)), max_leaves=6)


def build_desc(d):
    if d[0] == "seq":
        return Seq(tuple(map(build_desc, d[1])))
    if d[0] == "par":
        return Par(build_desc(d[1]), build_desc(d[2]))
    if d[0] == "id":
        return Id(tuple(Wire(c, op) for c, op in d[1]), d[2])
    return Gen(*d[1:])


def naive_repr(d):
    """The structural repr, Name(field=value, ...), of the term a description
    builds."""
    def tup(items):
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    if d[0] == "seq":
        return f"Seq(parts={tup([naive_repr(p) for p in d[1]])})"
    if d[0] == "par":
        return f"Par(top={naive_repr(d[1])}, bottom={naive_repr(d[2])})"
    if d[0] == "id":
        wires = tup([f"Wire(cat={c!r}, op={op!r})" for c, op in d[1]])
        return f"Id(wires={wires}, label={d[2]!r})"
    return f"Gen(kind={d[1]!r}, args={d[2]!r}, label={d[3]!r})"


@settings(max_examples=300, deadline=None)
@given(_descs, _descs)
def test_interning_agrees_with_structural_repr(da, db):
    a, b = build_desc(da), build_desc(db)
    assert repr(a) == naive_repr(da) and repr(b) == naive_repr(db)
    assert (a is b) == (a == b) == (repr(a) == repr(b)) == (da == db)
    assert ({a: 1}.get(b) == 1) == (da == db)
    assert build_desc(da) is a and rebuild(a) is a


def naive_norm(t):
    """The recursive normalization that `seq` and `par` take one level at
    a time: the reference they are compared with."""
    if isinstance(t, Seq):
        flat = []
        for p in t.parts:
            p = naive_norm(p)
            if isinstance(p, Seq):
                flat.extend(p.parts)
            else:
                flat.append(p)
        kept = [p for p in flat if not is_plain_id(p)]
        if not kept:
            if not flat:
                raise ShapeSyntaxError("empty seq")
            kept = [flat[0]]
        if len(kept) == 1:
            return kept[0]
        return Seq(tuple(kept))
    if isinstance(t, Par):
        top, bottom = naive_norm(t.top), naive_norm(t.bottom)
        if is_plain_id(top) and is_plain_id(bottom):
            return Id(top.wires + bottom.wires)
        if is_plain_id(top) and not top.wires:
            return bottom
        if is_plain_id(bottom) and not bottom.wires:
            return top
        return Par(top, bottom)
    return t


def fold_norm(t):
    """`t` normalized bottom-up, one level at a time."""
    if isinstance(t, Seq):
        return seq(tuple(map(fold_norm, t.parts)))
    if isinstance(t, Par):
        return par(fold_norm(t.top), fold_norm(t.bottom))
    return t


NORM_SIG = parse_shape_script("(category C) (category D) (object A C) (object B C)")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_descs)
def test_seq_and_par_give_the_naive_normal_form(d):
    t = build_desc(d)
    n = naive_norm(t)
    assert fold_norm(t) is n and fold_norm(n) is n
    assert parse_term(read_sexprs(print_term(t))[0], NORM_SIG) is n


def _demo_shapes():
    for spec in DEMOS.values():
        sig, _ = load_scripts(spec["script"])
        for name, term in sig.shapes.items():
            yield name, term, sig


def test_every_demo_shape_reparses_and_copies_to_itself():
    shapes = list(_demo_shapes())
    assert len(shapes) == 56
    for name, t, sig in shapes:
        assert parse_term(read_sexprs(print_term(t))[0], sig) is t, name
        assert rebuild(t) is t, name
        for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert again is t, name
    w = Wire("C", True)
    assert copy.copy(w) is copy.deepcopy(w) is pickle.loads(pickle.dumps(w)) is w


def test_construction_from_threads_interns_each_term_once():
    # 8 threads build the shapes of lens.shapes, half by parsing and half
    # through the constructors, with the category renamed in each round so
    # that they race to create every term: each comes out as one object
    text = (demo_dir() / "lens.shapes").read_text(encoding="utf-8")
    shapes = list(parse_shape_script(text).shapes.values())
    rounds, n = 200, 8
    texts = [re.sub(r"\bC\b", f"K{r}", text) for r in range(rounds)]
    start = threading.Barrier(n, timeout=60)
    built = [[] for _ in range(n)]

    def build(k):
        for r in range(rounds):
            start.wait()
            if k % 2:
                built[k].extend(parse_shape_script(texts[r]).shapes.values())
            else:
                built[k].extend(rebuild(t, {"C": f"K{r}"}) for t in shapes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(n)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(len(out) == rounds * len(shapes) for out in built)
    for column in zip(*built):
        assert all(t is column[0] for t in column)
    by_repr = {}
    for t in built[0]:
        assert by_repr.setdefault(repr(t), t) is t and rebuild(t) is t


# -- each generator kind against the profunctor it denotes ---------------------


# one leaf of each kind, with the arity error that kind gives
LEAVES = {
    "(inport A)": "(inport) takes one object",
    "(outport A)": "(outport) takes one object",
    "(junction C)": "(junction) takes a category symbol",
    "(fork C)": "(fork) takes a category symbol",
    "(unit-in C)": "(unit-in) takes a category symbol",
    "(unit-out C)": "(unit-out) takes a category symbol",
    "(copy C)": "(copy) takes a category symbol",
    "(merge C)": "(merge) takes a category symbol",
    "(discard C)": "(discard) takes a category symbol",
    "(codiscard C)": "(codiscard) takes a category symbol",
    "(sym C (op C))": "(sym) takes two wires",
    "(cup C)": "(cup) takes a category symbol",
    "(cap C)": "(cap) takes a category symbol",
    "(box F)": "(box) takes a functor",
    "(cobox F)": "(cobox) takes a functor",
    "(named K)": "(named) takes a profunctor name",
}


def leaf_signature(mon, other):
    """C with an object A, a named profunctor K: 1 -> C and the functor
    F: C -> D that is constant at the unit of D, over the objects and
    morphisms of `mon` (for C) and `other` (for D)."""
    c, d = mon.base, other.base
    unit, unit_id = d.obj_name(other.unit), d.mor_name(d.identity(other.unit))
    to = lambda names, n: " ".join(f'("{m}" "{n}")' for m in names)  # noqa: E731
    return parse_shape_script(
        f"(category C) (category D) (object A C) (prof K () (C))"
        f"(functor F C D (obj {to(c.obj_names, unit)}) (mor {to(c.mor_names, unit_id)}))")


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_each_generator_kind_types_as_its_profunctor(fixture):
    # a leaf's boundary resolves to the source and target categories of the
    # profunctor it evaluates to, under every value of its object symbol
    mon, other = build(fixture), build("z2" if fixture != "z2" else "diamond")
    sig = leaf_signature(mon, other)
    checked = dict.fromkeys(LEAVES, 0)
    for text in LEAVES:
        leaf = parse_term(read_sexprs(text)[0], sig)
        left, right = boundary(leaf, sig)
        for a in mon.base.objects:
            env = Env(sig, {"C": mon, "D": other}, objs={"A": a},
                      profs={"K": constant_prof(mon.base)})
            prof = Evaluator(env).node(leaf)
            assert env.boundary_cat(left) is prof.source, (text, a)
            assert env.boundary_cat(right) is prof.target, (text, a)
            checked[text] += 1
    assert all(checked.values()), checked


def test_each_generator_kind_prints_parses_and_counts_its_arguments():
    sig = leaf_signature(build("meet-lattice-2"), build("z2"))
    for text, arity_error in LEAVES.items():
        leaf = parse_term(read_sexprs(text)[0], sig)
        assert print_term(leaf) == text
        assert parse_term(read_sexprs(print_term(leaf))[0], sig) == leaf
        labelled = Gen(leaf.kind, leaf.args, "v")
        assert parse_term(read_sexprs(print_term(labelled))[0], sig) == labelled
        head, *args = read_sexprs(text)[0]
        wrong = [[head], [head] + args * 2] if len(args) == 1 else [[head, args[0]]]
        for form in wrong:
            with pytest.raises(ShapeSyntaxError) as e:
                parse_term(form, sig)
            assert str(e.value) == arity_error, form


def test_generator_errors_keep_their_messages_and_types():
    sig = leaf_signature(build("z2"), build("diamond"))
    with pytest.raises(ShapeSyntaxError, match="^unknown generator 'frob'$"):
        parse_term(read_sexprs("(frob C)")[0], sig)
    with pytest.raises(ShapeTypeError, match="^at 1: unknown generator 'frob'$"):
        boundary(Par(Gen("copy", ("C",)), Gen("frob", ("C",))), sig)
    with pytest.raises(ShapeSyntaxError, match="^unknown profunctor name 'L'$"):
        parse_term(read_sexprs("(named L)")[0], sig)
    env = Env(sig, {"C": build("z2"), "D": build("diamond")}, objs={"A": 0})
    with pytest.raises(EvalError, match="^named profunctor 'K' is unbound$"):
        Evaluator(env).node(Gen("named", ("K",)))
    with pytest.raises(ShapeTypeError, match="^at root: unknown generator 'frob'$"):
        OpenDiagram.from_fiber(Evaluator(env), Gen("frob", ("C",)), {}, 0)


def test_readme_names_every_generator_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("**Shape scripts**"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    missing = [kind for kind in KINDS if not re.search(rf"`\({re.escape(kind)}[ `]", paragraph)]
    assert not missing
