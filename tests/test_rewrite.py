import pytest

from coendcheck import rewrite
from coendcheck.fincat import terminal_category
from coendcheck.fixtures import build
from coendcheck.profunctor import ConcreteProf, ProfunctorError
from coendcheck.fixtures import FIXTURE_NAMES
from coendcheck.rewrite import (Derivation, DirectionError, MatchError, Report,
                                RewriteError, Step, apply_step, check_derivation,
                                check_derivation_once, parse_derivation_script,
                                strip_labels)
from coendcheck.shapelang import (Env, Evaluator, Gen, Id, Par, Seq,
                                  StructureMissing, Wire, boundary,
                                  class_count, eval_closed, objects_in,
                                  parse_shape_script)


def constant_prof(c):
    """A profunctor 1 -> c with the fiber ("p0", "p1") at every object and
    trivial actions: functorial, but not representable."""
    return ConcreteProf(terminal_category(), c, lambda _, b: ("p0", "p1"), lambda _, g, v: v)


SCRIPT = """
(category C)
(object A C) (object B C) (object X C) (object Y C)
(prof K () (C))
(shape arrow (seq (inport A) (outport B)))
(shape plugged (seq (inport A) (outport X) (inport X) (outport B)))
(shape inport-only (inport A))
(shape outport-only (outport A))
(shape junction-only (junction C))
(shape fork-only (fork C))
(shape lens
  (seq (inport A) (fork C)
       (par (id C) (outport X))
       (par (id C) (inport Y))
       (junction C) (outport B)))
(shape snake
  (seq (inport X)
       (par (id C) (cap C))
       (par (cup C) (id C))
       (outport Y)))
(shape hom-pair (seq (id C @g) (id C @f)))
(shape hom-second (id C @f))
(shape copy-shape (seq (inport A) (copy C)))
(shape named-copy (seq (named K) (copy C)))
(shape through-unit (seq (discard C) (codiscard C)))
(shape ill-typed (seq (inport A) (inport B)))
(shape ports-then-closed (seq (par (outport A) (outport B)) (inport X) (outport Y)))
"""


@pytest.fixture(scope="module")
def sig():
    return parse_shape_script(SCRIPT)


def env_z2(sig, **objs):
    return Env(sig, {"C": build("z2")},
               objs={k: 0 for k in ("A", "B", "X", "Y")} | objs)


def env_l2(sig, objs=None):
    return Env(sig, {"C": build("meet-lattice-2")}, objs=objs)


def run_derivation(sig, env, shape, steps, obligations=()):
    deriv = Derivation("t", shape, list(steps), list(obligations))
    report = Report()
    ok_envs = 0
    for env_a in env.assignments():
        out = check_derivation_once(deriv, Evaluator(env_a), report)
        assert out is not None, report.text()
        ok_envs += 1
    assert report.ok, report.text()
    return report


# -- directed port composition ------------------------------------------------


def test_eps_port_collapses_plugged(sig):
    env = env_z2(sig)
    t = sig.shapes["plugged"]
    assert class_count(t, env) == 4
    new_t, tr = apply_step(t, Step("R-EPS-A", (1,)), Evaluator(env))[:2]
    assert new_t == sig.shapes["arrow"]
    assert class_count(new_t, env) == 2


def test_eps_port_checked_on_all_fixtures(sig):
    for name in ("meet-lattice-2", "z2", "prod-l2-z2", "diamond"):
        env = Env(sig, {"C": build(name)})
        run_derivation(sig, env, "plugged", [Step("R-EPS-A", (1,))])


def test_backward_directed_rejected(sig):
    env = env_z2(sig)
    with pytest.raises(DirectionError):
        apply_step(sig.shapes["plugged"], Step("R-EPS-A", (1,), backward=True),
                   Evaluator(env))


def test_port_adjunction_triangles(sig):
    # eta then eps composes to the identity on both triangles
    for name in ("meet-lattice-2", "z2", "prod-l2-z2"):
        env = Env(sig, {"C": build(name)})
        run_derivation(sig, env, "inport-only",
                       [Step("R-ETA-A", (0,), inst={"A": "A"}),
                        Step("R-EPS-A", (1,))],
                       obligations=[(1, 2)])
        run_derivation(sig, env, "outport-only",
                       [Step("R-ETA-A", (1,), inst={"A": "A"}),
                        Step("R-EPS-A", (0,))],
                       obligations=[(1, 2)])


def test_tensor_adjunction_triangles(sig):
    for name in ("meet-lattice-2", "z2"):
        env = Env(sig, {"C": build(name)})
        run_derivation(sig, env, "junction-only",
                       [Step("R-ETA-TENSOR", (0,)),
                        Step("R-EPS-TENSOR", (1,))],
                       obligations=[(1, 2)])
        run_derivation(sig, env, "fork-only",
                       [Step("R-ETA-TENSOR", (1,)),
                        Step("R-EPS-TENSOR", (0,))],
                       obligations=[(1, 2)])


# -- yoneda unitors -------------------------------------------------------------


def test_yoneda_on_labeled_homs(sig):
    # composing two embedded morphisms: the class of (g, f) maps to f.g
    for name in ("z2", "prod-l2-z2"):
        env = Env(sig, {"C": build(name)})
        run_derivation(sig, env, "hom-pair", [Step("R-YONEDA-L", (0,))])
        c = env.cats["C"]
        t = sig.shapes["hom-pair"]
        new_t, tr = apply_step(t, Step("R-YONEDA-L", (0,)), Evaluator(env))[:2]
        assert isinstance(new_t, Id) and new_t.label == "f"
        ev = Evaluator(env)
        node = ev.node(t)
        for a in c.objects:
            for b in c.objects:
                for rep in node.fiber(a, b):
                    m, g, f = rep
                    assert tr((a, b), rep) == c.compose(g, f)


def test_yoneda_backward_requires_label(sig):
    env = env_z2(sig)
    t = sig.shapes["arrow"]
    with pytest.raises(Exception) as e:
        apply_step(t, Step("R-YONEDA-L", (1,), backward=True), Evaluator(env))
    assert "label" in str(e.value)
    new_t, tr, inv = apply_step(
        t, Step("R-YONEDA-L", (1,), backward=True, inst={"label": "w"}), Evaluator(env))
    assert new_t.parts[1] == Id((Wire("C"),), "w")


# -- cartesian and cocartesian -----------------------------------------------


def test_cart_fork_iso_on_lens(sig):
    env = env_l2(sig)
    run_derivation(sig, env, "lens", [Step("R-CART-FORK", (1,))])


def test_cart_fork_structure_missing_on_z2(sig):
    env = env_z2(sig)
    report = Report()
    deriv = Derivation("t", "lens", [Step("R-CART-FORK", (1,))])
    out = check_derivation_once(deriv, Evaluator(env), report)
    assert out is None
    assert any("cartesian" in f for f in report.failures)


def test_cocart_junction_iso(sig):
    env = Env(sig, {"C": build("join-lattice-2")})
    run_derivation(sig, env, "lens", [Step("R-COCART-JUNCTION", (4,))])


# -- zig-zags -------------------------------------------------------------------


def test_snake_collapses(sig):
    for name in ("meet-lattice-2", "z2"):
        env = Env(sig, {"C": build(name)})
        run_derivation(sig, env, "snake", [Step("R-ZIGZAG-CUP", (1,))])
        t = sig.shapes["snake"]
        new_t, tr = apply_step(t, Step("R-ZIGZAG-CUP", (1,)), Evaluator(env))[:2]
        assert strip_labels(new_t) == strip_labels(sig.shapes["arrow"]) or \
            new_t == Seq((Gen("inport", ("X",)), Gen("outport", ("Y",))))


def test_snake_insert_then_collapse_identity(sig):
    env = env_z2(sig)
    run_derivation(sig, env, "arrow",
                   [Step("R-ZIGZAG-CUP", (1,), backward=True),
                    Step("R-ZIGZAG-CUP", (1,))],
                   obligations=[(1, 2)])


# -- lax copy -------------------------------------------------------------------


def test_lax_copy_on_representable_is_bijection(sig):
    # representables copy up to iso; the checker only verifies the directed
    # map, so compare image and codomain counts here
    env = env_z2(sig)
    t = sig.shapes["copy-shape"]
    new_t, tr = apply_step(t, Step("R-LAX-COPY", (0,)), Evaluator(env))[:2]
    ev = Evaluator(env)
    src, dst = ev.node(t), ev.node(new_t)
    tgt = src.target
    for b in tgt.objects:
        image = {tr((0, b), v) for v in src.fiber(0, b)}
        assert len(image) == len(src.fiber(0, b))
        assert image == set(dst.fiber(0, b))


def test_lax_copy_on_constant_prof_not_surjective(sig):
    mon = build("z2")
    env = Env(sig, {"C": mon},
              objs={k: 0 for k in ("A", "B", "X", "Y")},
              profs={"K": constant_prof(mon.base)})
    t = sig.shapes["named-copy"]
    run_derivation(sig, env, "named-copy", [Step("R-LAX-COPY", (0,))])
    new_t, tr = apply_step(t, Step("R-LAX-COPY", (0,)), Evaluator(env))[:2]
    ev = Evaluator(env)
    src, dst = ev.node(t), ev.node(new_t)
    b = 0
    image = {tr((0, b), v) for v in src.fiber(0, b)}
    assert len(src.fiber(0, b)) == 4      # (p, f1, f2) mod sliding
    assert len(dst.fiber(0, b)) == 4      # pairs (p1, p2)
    assert len(image) == 2                     # only the diagonal is hit


def test_lax_discard(sig):
    env = env_z2(sig)
    t = Seq((Gen("inport", ("A",)), Gen("discard", ("C",))))
    new_t, tr = apply_step(t, Step("R-LAX-DISCARD", (0,)), Evaluator(env))[:2]
    assert isinstance(new_t, Id) and new_t.wires == ()
    assert tr((0, 0), next(iter(Evaluator(env).node(t).fiber(0, 0)))) == 0


# -- interchange ----------------------------------------------------------------


def test_interchange_roundtrip_on_lens(sig):
    env = env_l2(sig)
    run_derivation(sig, env, "lens",
                   [Step("R-INTERCHANGE", (2,)),
                    Step("R-INTERCHANGE", (2,), backward=True,
                         inst={"cut1": 1, "cut2": 1})],
                   obligations=[(1, 2)])


def test_interchange_cut_to_an_empty_bottom_leg(sig):
    # after lens_reduction's first four steps, part 0 is (par (inport A)
    # (seq (inport A) ...)): cutting the bottom at 0 leaves its first
    # column an empty identity beside the top leg, whose value is the
    # column's value
    script = parse_derivation_script(
        "derive lens\nstep R-CART-FORK at 1\nstep R-LAX-COPY at 0\nstep R-INTERCHANGE at 1\n"
        "step R-INTERCHANGE at 0\nstep R-INTERCHANGE at 0 backward with {cut1 := 1, cut2 := 0}\n",
        sig)
    report = check_derivation(script, sig, env_l2(sig))
    assert report.ok, report.text()
    assert sum(line.startswith("  step 5 R-INTERCHANGE ok: ") for line in report.lines) == 16


def test_interchange_at_a_lone_parallel_part_is_no_match(sig):
    # a slice at a lone parallel part has no second column: the step
    # matches nothing, it does not read past the last part
    with pytest.raises(MatchError, match="empty interchange column"):
        apply_step(sig.shapes["lens"], Step("R-INTERCHANGE", (2, 0)),
                   Evaluator(env_z2(sig)))


def test_assoc_node_rule(sig):
    env = env_z2(sig)
    t = Par(Par(Gen("inport", ("A",)), Gen("inport", ("B",))),
            Gen("inport", ("X",)))
    new_t, tr, inv = apply_step(t, Step("R-ASSOC", ()), Evaluator(env))
    assert new_t == Par(Gen("inport", ("A",)),
                        Par(Gen("inport", ("B",)), Gen("inport", ("X",))))
    ev = Evaluator(env)
    node = ev.node(t)
    tgt = node.target
    for b in tgt.objects:
        for v in node.fiber(0, b):
            (x, y), z = v
            assert tr((0, b), v) == (x, (y, z))


# -- sym -------------------------------------------------------------------------


def test_sym_junction_slide(sig):
    env = env_z2(sig)
    w = Wire("C")
    t = Seq((Par(Gen("inport", ("A",)), Gen("inport", ("B",))),
             Gen("sym", (w, w)), Gen("junction", ("C",)),
             Gen("outport", ("Y",))))
    run_derivation_direct(sig, env, t, [Step("R-SYM", (1,))])


def test_sym_cancel(sig):
    env = env_z2(sig)
    w = Wire("C")
    t = Seq((Par(Gen("inport", ("A",)), Gen("inport", ("B",))),
             Gen("sym", (w, w)), Gen("sym", (w, w)),
             Gen("junction", ("C",)), Gen("outport", ("Y",))))
    run_derivation_direct(sig, env, t, [Step("R-SYM", (1,))])


def run_derivation_direct(sig, env, term, steps, obligations=()):
    name = "__tmp__"
    sig.shapes[name] = term
    try:
        return run_derivation(sig, env, name, steps, obligations)
    finally:
        del sig.shapes[name]


# -- functor boxes ---------------------------------------------------------------


FUNCTOR_SCRIPT = """
(category C) (category D)
(object A C) (object V D)
(functor F C D (obj (0 x) (1 x)) (mor (id_0 0) (id_1 0) (0<1 1)))
(functor G D D (obj (x x)) (mor (0 0) (1 1)))
(shape box-only (box F))
(shape two-boxes (seq (box F) (box G)))
"""


@pytest.fixture(scope="module")
def fsig():
    return parse_shape_script(FUNCTOR_SCRIPT)


def fenv(fsig):
    return Env(fsig, {"C": build("meet-lattice-2"), "D": build("z2")})


def test_functor_fuse(fsig):
    env = fenv(fsig)
    run_derivation(fsig, env, "two-boxes", [Step("R-FUNCTOR-FUSE", (0,))])


def test_functor_adjunction_triangle(fsig):
    env = fenv(fsig)
    run_derivation(fsig, env, "box-only",
                   [Step("R-FUNCTOR-ADJ-ETA", (0,), inst={"F": "F"}),
                    Step("R-FUNCTOR-ADJ-EPS", (1,))],
                   obligations=[(1, 2)])


# -- each counit collapses a conjoint and a companion of one functor only ------


COUNIT_SCRIPT = """
(category C) (category D)
(object A C) (object B C)
(functor F C D (obj (0 x) (1 x)) (mor (id_0 0) (id_1 0) (0<1 1)))
(functor H C D (obj (0 x) (1 x)) (mor (id_0 0) (id_1 0) (0<1 0)))
(shape ports (seq (outport A) (inport B)))
(shape tensors (seq (fork C) (junction D)))
(shape boxes (seq (cobox F) (box H)))
"""


@pytest.mark.parametrize("shape,rule,message", [
    ("ports", "R-EPS-A", "R-EPS-A ports disagree on the object"),
    ("tensors", "R-EPS-TENSOR", "R-EPS-TENSOR expects fork then junction"),
    ("boxes", "R-FUNCTOR-ADJ-EPS",
     "R-FUNCTOR-ADJ-EPS expects cobox then box of one functor"),
])
def test_counit_rejects_two_functors(shape, rule, message):
    sig = parse_shape_script(COUNIT_SCRIPT)
    env = Env(sig, {"C": build("meet-lattice-2"), "D": build("z2")},
              objs={"A": 0, "B": 1})
    with pytest.raises(rewrite.MatchError, match=message):
        apply_step(sig.shapes[shape], Step(rule, (0,)), Evaluator(env))


def test_port_counit_compares_objects_not_symbols():
    sig = parse_shape_script(COUNIT_SCRIPT)
    env = Env(sig, {"C": build("meet-lattice-2"), "D": build("z2")},
              objs={"A": 1, "B": 1})
    new_t = apply_step(sig.shapes["ports"], Step("R-EPS-A", (0,)), Evaluator(env))[0]
    assert new_t == Id((Wire("C"),))


# -- determinism -----------------------------------------------------------------


def test_checker_reports_deterministic(sig):
    env = env_l2(sig)
    r1 = run_derivation(sig, env, "lens", [Step("R-CART-FORK", (1,))])
    r2 = run_derivation(sig, env, "lens", [Step("R-CART-FORK", (1,))])
    assert r1.text() == r2.text()


def test_cart_counit_and_cocart_unit_roundtrip(sig):
    from coendcheck.shapelang import parse_shape_script
    s2 = parse_shape_script("""
    (category C)
    (object A C)
    (shape unit-out-leg (seq (inport A) (outport (unit C))))
    (shape unit-in-leg (seq (inport (unit C)) (outport A)))
    """)
    env = Env(s2, {"C": build("meet-lattice-2")})
    run_derivation(s2, env, "unit-out-leg", [Step("R-CART-COUNIT", (1,))])
    env = Env(s2, {"C": build("join-lattice-2")})
    run_derivation(s2, env, "unit-in-leg", [Step("R-COCART-UNIT", (0,))])


def test_cart_counit_gate(sig):
    from coendcheck.shapelang import parse_shape_script
    s2 = parse_shape_script("""
    (category C)
    (object A C)
    (shape unit-out-leg (seq (inport A) (outport (unit C))))
    """)
    env = Env(s2, {"C": build("z2")})
    with pytest.raises(StructureMissing):
        apply_step(s2.shapes["unit-out-leg"], Step("R-CART-COUNIT", (1,)), Evaluator(env))


def test_named_hole_lens_encoding(sig):
    # the comb encoding of a lens: a named hole between the fork and the
    # junction, bound to the outport;inport profunctor
    from coendcheck.shapelang import (boundary, class_count, eval_closed,
                                      parse_shape_script)
    s2 = parse_shape_script("""
    (category C)
    (object A C) (object B C) (object X C) (object Y C)
    (prof K (C) (C))
    (shape comb-lens
      (seq (inport A) (fork C) (par (id C) (named K)) (junction C)
           (outport B)))
    (shape hole (seq (outport X) (inport Y)))
    (shape lens
      (seq (inport A) (fork C)
           (par (id C) (outport X))
           (par (id C) (inport Y))
           (junction C) (outport B)))
    """)
    assert boundary(s2.shapes["comb-lens"], s2) == ((), ())
    for name in ("z2", "meet-lattice-2"):
        mon = build(name)
        c = mon.base
        for a in c.objects:
            base_env = Env(s2, {"C": mon},
                           objs={"A": a, "B": a, "X": a, "Y": a})
            hole = Evaluator(base_env).node(s2.shapes["hole"])
            env = Env(s2, {"C": mon},
                      objs={"A": a, "B": a, "X": a, "Y": a},
                      profs={"K": hole})
            assert class_count(s2.shapes["comb-lens"], env) == \
                class_count(s2.shapes["lens"], env)


# -- checker rejections ---------------------------------------------------------
# Each fault corrupts the steps of one rule: most corrupt the forward
# transport, the others the inverse application or the new term.  The
# checker must reject the step (or the obligation) with the matching message.


def _transport_fault(corrupt):
    """The fault that corrupts a forward step's transport with
    corrupt(transport, profunctor of the new term)."""
    def fault(real, term, step, ev):
        new_term, transport, inv = real(term, step, ev)
        if not step.backward:
            transport = corrupt(transport, ev.node(new_term))
        return new_term, transport, inv
    return fault


@_transport_fault
def _fault_identity(transport, dst):
    # keeps raw index elements apart, so one class has several images
    return lambda fiber, v: v


@_transport_fault
def _fault_outside(transport, dst):
    return lambda fiber, v: "outside"


def _collapse(transport, dst):
    return lambda fiber, v: dst.fiber(*fiber)[0]


_fault_collapse = _transport_fault(_collapse)


def _swap(transport, dst):
    def swapped(fiber, v):
        out = transport(fiber, v)
        reps = dst.fiber(*fiber)
        if len(reps) > 1 and out in reps[:2]:
            return reps[1] if out == reps[0] else reps[0]
        return out
    return swapped


_fault_swap = _transport_fault(_swap)


@_transport_fault
def _fault_swap_on_repeat(transport, dst):
    # answers correctly the first time an element is transported and
    # swaps the answer when asked again
    seen, swapped = set(), _swap(transport, dst)

    def fault(fiber, v):
        if (fiber, v) in seen:
            return swapped(fiber, v)
        seen.add((fiber, v))
        return transport(fiber, v)
    return fault


@_transport_fault
def _fault_raise(transport, dst):
    def raising(fiber, v):
        raise ProfunctorError("injected")
    return raising


def _fault_inverse_fails(real, term, step, ev):
    # the inverse step finds a structure of the oracle missing
    if step.backward:
        raise StructureMissing("injected")
    return real(term, step, ev)


def _fault_backward_raises(real, term, step, ev):
    # the inverse step's transport fails on every element
    new_term, transport, inv = real(term, step, ev)
    if step.backward:
        def transport(fiber, v):
            raise ProfunctorError("injected backward")
    return new_term, transport, inv


def _fault_through_unit(real, term, step, ev):
    # a new term whose fibers are all inhabited, with every class sent to
    # the one element of its fiber
    new_term, transport, inv = real(term, step, ev)
    new_term = ev.sig.shapes["through-unit"]
    return new_term, _collapse(transport, ev.node(new_term)), inv


ETA_EPS = [Step("R-ETA-A", (0,), inst={"A": "A"}), Step("R-EPS-A", (1,))]
YONEDA = [Step("R-YONEDA-L", (0,))]


@pytest.mark.parametrize("shape, steps, obligations, rule, fault, oracle, message", [
    ("plugged", [Step("R-EPS-A", (1,))], [], "R-EPS-A", _fault_identity, "z2",
     "step 1 R-EPS-A: not well-defined on the class of"),
    ("plugged", [Step("R-EPS-A", (1,))], [], "R-EPS-A", _fault_outside, "z2",
     "step 1 R-EPS-A: image outside the target set at fiber (0, 0)"),
    ("plugged", [Step("R-EPS-A", (1,))], [], "R-EPS-A", _fault_raise, "z2",
     "step 1 R-EPS-A: action failed on a representative at fiber (0, 0): injected"),
    ("hom-pair", YONEDA, [], "R-YONEDA-L", _fault_collapse, "z2",
     "step 1 R-YONEDA-L: not a bijection at fiber (0, 0) (1 of 2 classes hit)"),
    ("hom-pair", YONEDA, [], "R-YONEDA-L", _fault_through_unit, "meet-lattice-2",
     "step 1 R-YONEDA-L: not a bijection at fiber (1, 0) (source side is empty)"),
    ("hom-pair", YONEDA, [], "R-YONEDA-L", _fault_swap, "z2",
     "step 1 R-YONEDA-L: backward(forward) is not the identity on"),
    ("hom-pair", YONEDA, [], "R-YONEDA-L", _fault_swap_on_repeat, "z2",
     "step 1 R-YONEDA-L: forward(backward) is not the identity on"),
    ("hom-pair", YONEDA, [], "R-YONEDA-L", _fault_inverse_fails, "z2",
     "step 1 R-YONEDA-L: inverse application failed: injected"),
    ("inport-only", ETA_EPS, [(1, 2)], "R-EPS-A", _fault_swap, "z2",
     "obligation 1..2: composite moves"),
    ("lens", [Step("R-CART-FORK", (1,))], [], "R-CART-FORK", _fault_backward_raises,
     "meet-lattice-2", "step 1 R-CART-FORK: inverse action failed on a representative "
     "at fiber (0, 0): injected backward"),
], ids=["not-well-defined", "image-outside", "action-failed", "not-a-bijection",
        "source-side-empty", "backward-forward", "forward-backward",
        "inverse-failed", "obligation", "inverse-action-failed"])
def test_checker_rejects_faulty_transport(sig, monkeypatch, shape, steps,
                                          obligations, rule, fault, oracle, message):
    real = rewrite.apply_step

    def faulty_apply_step(term, step, ev):
        if step.rule == rule:
            return fault(real, term, step, ev)
        return real(term, step, ev)

    env = Env(sig, {"C": build(oracle)}, objs={k: 0 for k in ("A", "B", "X", "Y")})
    deriv = Derivation("t", shape, list(steps), list(obligations))
    report = Report()
    check_derivation_once(deriv, Evaluator(env), report)
    assert report.ok, report.text()
    monkeypatch.setattr(rewrite, "apply_step", faulty_apply_step)
    report = Report()
    check_derivation_once(deriv, Evaluator(env), report)
    assert len(report.failures) == 1, report.text()
    assert report.failures[0].startswith(message), report.text()


@pytest.mark.parametrize("shape, step, message", [
    ("plugged", "R-EPS-A at root", "R-EPS-A: rule R-EPS-A needs a slice position"),
    ("plugged", "R-EPS-A at 9.0", "R-EPS-A: no part 9 in sequential composite"),
    ("lens", "R-EPS-A at 2.5.0", "R-EPS-A: par sides are 0 and 1"),
    ("lens", "R-ETA-A at 9 with {A := A}", "R-ETA-A: slice 9..9 out of range"),
    # the second column is a closed run, which span2 asks past the end of
    ("ports-then-closed", "R-INTERCHANGE at 0 with {span2 := 5}",
     "R-INTERCHANGE: slice 0..6 out of range"),
], ids=["root", "no-part", "par-side", "past-the-end", "span-past-the-end"])
def test_a_path_the_term_lacks_fails_the_step(sig, shape, step, message):
    script = parse_derivation_script(f"derive {shape}\nstep {step}\n", sig)
    report = check_derivation(script, sig, env_z2(sig))
    assert report.failures == [f"step 1 {message}"], report.text()


def test_a_rule_that_changes_the_boundary_fails_the_step(sig, monkeypatch):
    # only a faulty rule reaches plan_step's boundary check: this one
    # rewrites hom-pair's two identity wires to a discard
    def match(self, ev, parts, i, inst, backward, gates):
        return rewrite.SliceOutcome(2, (Gen("discard", ("C",)),), None)
    monkeypatch.setattr(rewrite.YonedaL, "match", match)
    script = parse_derivation_script("derive hom-pair\nstep R-YONEDA-L at 0\n", sig)
    report = check_derivation(script, sig, env_z2(sig))
    assert report.failures == ["step 1 R-YONEDA-L: R-YONEDA-L changed the boundary "
                               "from <C> -> <C> to <C> -> <>"], report.text()


# a derivation script that checks, then one malformed line after another
GOOD_SCRIPT = """
derivation t from hom-pair
  step R-YONEDA-L at 0
end
point p hom-pair {g := 0, f := 1}
point q hom-second {f := 1}
assert-equal p q via t
"""


@pytest.mark.parametrize("extra, message", [
    ("derivation u from nope\nend", "unknown shape 'nope'"),
    ("derivation u from ill-typed\nend",
     "shape ill-typed does not typecheck: at 1: boundary mismatch"),
    ("derivation u from plugged\n step R-EPS-A at 1\n obligation identity 1 2\nend",
     "obligation 1..2 out of range"),
    ("derivation u from plugged\n step R-EPS-A at 1\n obligation identity 1 1\nend",
     "obligation 1..1: terms differ, composite cannot be an identity"),
    ("point r hom-second {f := 0}\nassert-equal p r via t",
     "assert-equal p r via t: points differ"),
    ("assert-equal p q via nope", "assert-equal: unknown derivation 'nope'"),
], ids=["unknown-shape", "ill-typed", "obligation-range", "obligation-terms",
        "points-differ", "unknown-derivation"])
def test_checker_rejects_malformed_derivation(sig, extra, message):
    env = env_z2(sig)
    report = check_derivation(parse_derivation_script(GOOD_SCRIPT, sig), sig, env)
    assert report.ok, report.text()
    script = parse_derivation_script(GOOD_SCRIPT + extra, sig)
    report = check_derivation(script, sig, env)
    assert len(report.failures) == 1, report.text()
    assert report.failures[0].startswith(message), report.text()


# -- node-rule gates and wrong-generator messages ----------------------------------

NODE_SCRIPT = """
(category C)
(object A C)
(shape fork-g (fork C)) (shape copy-g (copy C))
(shape junction-g (junction C)) (shape merge-g (merge C))
(shape outport-a (outport A)) (shape outport-i (outport (unit C)))
(shape unit-out-g (unit-out C)) (shape discard-g (discard C))
(shape inport-a (inport A)) (shape inport-i (inport (unit C)))
(shape unit-in-g (unit-in C)) (shape codiscard-g (codiscard C))
"""

NO_CART = "oracle for 'C' has no cartesian witness"
NO_COCART = "oracle for 'C' has no cocartesian witness"


@pytest.mark.parametrize("rule, backward, shape, oracle, a, message", [
    ("R-CART-FORK", False, "copy-g", "meet-lattice-2", "0",
     "R-CART-FORK forward expects a fork"),
    ("R-CART-FORK", True, "fork-g", "meet-lattice-2", "0",
     "R-CART-FORK backward expects a copy"),
    ("R-CART-FORK", False, "fork-g", "z2", "x", NO_CART),
    ("R-CART-FORK", True, "copy-g", "z2", "x", NO_CART),
    ("R-CART-FORK", False, "fork-g", "join-lattice-2", "0", NO_CART),
    ("R-CART-COUNIT", False, "discard-g", "meet-lattice-2", "0",
     "R-CART-COUNIT forward expects a unit outport"),
    ("R-CART-COUNIT", False, "outport-a", "meet-lattice-2", "0",
     "R-CART-COUNIT needs the unit object"),
    ("R-CART-COUNIT", True, "outport-i", "meet-lattice-2", "0",
     "R-CART-COUNIT backward expects a discard"),
    ("R-CART-COUNIT", False, "outport-i", "z2", "x", NO_CART),
    ("R-CART-COUNIT", False, "unit-out-g", "z2", "x", NO_CART),
    ("R-CART-COUNIT", True, "discard-g", "z2", "x", NO_CART),
    ("R-COCART-JUNCTION", False, "merge-g", "join-lattice-2", "0",
     "R-COCART-JUNCTION forward expects a junction"),
    ("R-COCART-JUNCTION", True, "junction-g", "join-lattice-2", "0",
     "R-COCART-JUNCTION backward expects a merge"),
    ("R-COCART-JUNCTION", False, "junction-g", "z2", "x", NO_COCART),
    ("R-COCART-JUNCTION", True, "merge-g", "z2", "x", NO_COCART),
    ("R-COCART-JUNCTION", False, "junction-g", "meet-lattice-2", "0", NO_COCART),
    ("R-COCART-UNIT", False, "codiscard-g", "join-lattice-2", "0",
     "R-COCART-UNIT forward expects a unit inport"),
    ("R-COCART-UNIT", False, "inport-a", "join-lattice-2", "1",
     "R-COCART-UNIT needs the unit object"),
    ("R-COCART-UNIT", True, "inport-i", "join-lattice-2", "0",
     "R-COCART-UNIT backward expects a codiscard"),
    ("R-COCART-UNIT", False, "inport-i", "z2", "x", NO_COCART),
    ("R-COCART-UNIT", False, "unit-in-g", "z2", "x", NO_COCART),
    ("R-COCART-UNIT", True, "codiscard-g", "z2", "x", NO_COCART),
])
def test_node_rule_messages(rule, backward, shape, oracle, a, message):
    s2 = parse_shape_script(NODE_SCRIPT)
    mon = build(oracle)
    env = Env(s2, {"C": mon}, objs={"A": mon.base.obj_id(a)})
    error = StructureMissing if message in (NO_CART, NO_COCART) else rewrite.MatchError
    with pytest.raises(error) as info:
        apply_step(s2.shapes[shape], Step(rule, (), backward), Evaluator(env))
    assert str(info.value) == message


# -- mirror sides no shipped script reaches ---------------------------------------
# R-YONEDA-R, R-SYM's fork configuration and R-LAX-DISCARD's codiscard branch,
# each pinned by its element map and a round trip over five oracles.

MIRROR_SCRIPT = """
(category C)
(object A C)
(shape port (inport A))
(shape port-hom (seq (inport A) (id C @w)))
(shape sym (sym C C))
(shape sym-hom (seq (sym C C) (id C C @w)))
(shape port-fork (seq (inport A) (fork C)))
(shape fork-sym (seq (inport A) (fork C) (sym C C)))
(shape codiscard-port (seq (codiscard C) (outport A)))
"""

MIRROR_ORACLES = ("z2", "meet-lattice-2", "join-lattice-2", "prod-l2-z2", "diamond")


def _mirror_envs():
    sig = parse_shape_script(MIRROR_SCRIPT)
    for name in MIRROR_ORACLES:
        yield sig, name, Env(sig, {"C": build(name)})


def _element_map(sig, env, shape, step):
    """(new term, source profunctor, target profunctor, transport) of one
    step on a shape."""
    t = sig.shapes[shape]
    new_t, tr, _ = apply_step(t, step, Evaluator(env))
    ev = Evaluator(env)
    return new_t, ev.node(t), ev.node(new_t), tr


def _reps(prof):
    for a in prof.source.objects:
        for b in prof.target.objects:
            for rep in prof.fiber(a, b):
                yield (a, b), rep


def test_yoneda_right_element_map():
    # (u, g) at the hom wire maps to u;g
    for sig, name, env in _mirror_envs():
        for env_a in env.assignments():
            c = env_a.cats["C"]
            new_t, src, _, tr = _element_map(sig, env_a, "port-hom",
                                             Step("R-YONEDA-R", (0,)))
            assert new_t == Gen("inport", ("A",))
            for fiber, (m, u, g) in _reps(src):
                assert tr(fiber, (m, u, g)) == c.compose(u, g), name


def test_yoneda_right_round_trips():
    back = Step("R-YONEDA-R", (0,), backward=True, inst={"label": "w"})
    for sig, name, env in _mirror_envs():
        run_derivation(sig, env, "port-hom", [Step("R-YONEDA-R", (0,)), back],
                       obligations=[(1, 2)])
        run_derivation(sig, env, "port", [back, Step("R-YONEDA-R", (0,))],
                       obligations=[(1, 2)])
    with pytest.raises(rewrite.MatchError, match="backward R-YONEDA-R needs a label"):
        apply_step(sig.shapes["port"], Step("R-YONEDA-R", (0,), backward=True),
                   Evaluator(env))


def test_yoneda_right_over_a_braiding():
    # the braiding's element is read through its own profunctor, unswapped:
    # (s, g) at the hom wires maps to s acted on by g
    for sig, name, env in _mirror_envs():
        for env_a in env.assignments():
            _, src, dst, tr = _element_map(sig, env_a, "sym-hom", Step("R-YONEDA-R", (0,)))
            for (a, b), (m, s, g) in _reps(src):
                assert tr((a, b), (m, s, g)) == \
                    dst.act(dst.source.identity(a), g, s), name
    back = Step("R-YONEDA-R", (0,), backward=True, inst={"label": "w"})
    for sig, name, env in _mirror_envs():
        run_derivation(sig, env, "sym-hom", [Step("R-YONEDA-R", (0,)), back],
                       obligations=[(1, 2)])
        run_derivation(sig, env, "sym", [back, Step("R-YONEDA-R", (0,))],
                       obligations=[(1, 2)])


def test_sym_fork_element_map():
    # (h, (u, v)) slides to h ; (u (x) v) ; braid
    for sig, name, env in _mirror_envs():
        for env_a in env.assignments():
            mon = env_a.monoidal("C")
            c = mon.base
            new_t, src, dst, tr = _element_map(sig, env_a, "fork-sym", Step("R-SYM", (1,)))
            assert strip_labels(new_t) == sig.shapes["port-fork"]
            for (a, b), (m2, (m1, i, h), (u, v)) in _reps(src):
                slid = c.compose(h, c.compose(mon.tensor_m(u, v),
                                              mon.braid(c.cod(u), c.cod(v))))
                assert tr((a, b), (m2, (m1, i, h), (u, v))) == \
                    dst.classify(a, b, m1, i, slid), name


def test_sym_fork_round_trips():
    back = Step("R-SYM", (1,), backward=True, inst={"config": "fork"})
    for sig, name, env in _mirror_envs():
        run_derivation(sig, env, "fork-sym", [Step("R-SYM", (1,)), back],
                       obligations=[(1, 2)])
        run_derivation(sig, env, "port-fork", [back, Step("R-SYM", (1,))],
                       obligations=[(1, 2)])
    with pytest.raises(rewrite.MatchError,
                       match=r"backward R-SYM \(fork\) expects a fork"):
        apply_step(sig.shapes["fork-sym"],
                   Step("R-SYM", (0,), backward=True, inst={"config": "fork"}),
                   Evaluator(env))


def test_lax_codiscard():
    # directed, so no backward step: every element goes to the one point
    for sig, name, env in _mirror_envs():
        run_derivation(sig, env, "codiscard-port", [Step("R-LAX-DISCARD", (0,))])
        for env_a in env.assignments():
            new_t, src, _, tr = _element_map(sig, env_a, "codiscard-port",
                                             Step("R-LAX-DISCARD", (0,)))
            assert new_t == Id(())
            assert [tr(f, rep) for f, rep in _reps(src)] == [0], name
    with pytest.raises(rewrite.MatchError, match="R-LAX-DISCARD expects"):
        apply_step(sig.shapes["port-fork"], Step("R-LAX-DISCARD", (0,)), Evaluator(env))


# -- a tensor that is not commutative ------------------------------------------------

BAND_SCRIPT = """
(category C)
(object A C) (object B C) (object Y C)
(shape fuse-in (seq (par (inport A) (inport B)) (junction C) (outport Y)))
(shape fuse-out (seq (inport Y) (fork C) (par (outport A) (outport B))))
(shape sym-junction (seq (par (inport A) (inport B)) (sym C C) (junction C)))
"""


def test_band_tensor_is_not_commutative():
    mon = build("right-zero-band")
    a, b = mon.base.obj_id("a"), mon.base.obj_id("b")
    assert (mon.tensor(a, b), mon.tensor(b, a)) == (b, a)
    assert mon.braiding is None and mon.cartesian is None


@pytest.mark.parametrize("shape, path", [("fuse-in", (0,)), ("fuse-out", (1,))])
def test_port_fuse_keeps_argument_order(shape, path):
    # the fused port is A (x) B; read B (x) A, the images leave their fibers
    sig = parse_shape_script(BAND_SCRIPT)
    env = Env(sig, {"C": build("right-zero-band")})
    report = run_derivation(sig, env, shape, [Step("R-PORT-FUSE", path)])
    assert report.text().count("step 1 R-PORT-FUSE ok") == 27


def test_sym_refuses_an_unbraided_oracle():
    sig = parse_shape_script(BAND_SCRIPT)
    env = Env(sig, {"C": build("right-zero-band")}, objs={"A": 1, "B": 2, "Y": 2})
    for t, step in [("sym-junction", Step("R-SYM", (1,))),
                    ("fuse-in", Step("R-SYM", (1,), backward=True,
                                     inst={"config": "junction"})),
                    ("fuse-out", Step("R-SYM", (1,), backward=True,
                                      inst={"config": "fork"}))]:
        with pytest.raises(StructureMissing, match="'C' has no braiding"):
            apply_step(sig.shapes[t], step, Evaluator(env))


# -- a braiding that is not an identity ------------------------------------------------


def braided_words():
    """Words over {a, b} with aa = bb = z and every longer word z: objects
    1, a, b, p = ab, q = ba and z.  Besides identities there are s: p -> q
    and its inverse t.  A tensor of morphisms is an identity except against
    the unit; the braiding is s at (a, b), t at (b, a) and an identity
    elsewhere, so a braid read with its arguments swapped is ill-typed."""
    from coendcheck.fincat import MonoidalStructure, build_category
    objs = ["1", "a", "b", "p", "q", "z"]
    word = {"1": "", "a": "a", "b": "b", "p": "ab", "q": "ba"}
    homs = {(x, x): [f"id_{x}"] for x in objs}
    homs.update({("p", "q"): ["s"], ("q", "p"): ["t"]})
    compose = {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in objs}
    for f, (x, y) in (("s", ("p", "q")), ("t", ("q", "p"))):
        compose.update({(f"id_{x}", f): f, (f, f"id_{y}"): f})
    compose.update({("s", "t"): "id_p", ("t", "s"): "id_q"})
    cat = build_category("braided-words", objs, homs, compose,
                         {x: f"id_{x}" for x in objs})
    ob, mor = cat.obj_id, cat.mor_id

    def tensor(x, y):
        if "1" in (x, y):
            return y if x == "1" else x
        w = word.get(x, "zz") + word.get(y, "zz")
        return {"ab": "p", "ba": "q"}.get(w, "z")

    tensor_obj = {(ob(x), ob(y)): ob(tensor(x, y)) for x in objs for y in objs}
    unit_id = mor("id_1")
    tensor_mor = {}
    for f in cat.morphisms:
        for g in cat.morphisms:
            if unit_id in (f, g):
                tensor_mor[(f, g)] = g if f == unit_id else f
            else:
                tensor_mor[(f, g)] = cat.identity(tensor_obj[(cat.dom(f), cat.dom(g))])
    braiding = {(x, y): cat.identity(tensor_obj[(x, y)]) for x in cat.objects
                for y in cat.objects}
    braiding.update({(ob("a"), ob("b")): mor("s"), (ob("b"), ob("a")): mor("t")})
    return MonoidalStructure(cat, tensor_obj, tensor_mor, ob("1"), braiding)


BRAID_SCRIPT = """
(category C)
(object A C) (object B C) (object Y C)
(shape sym-junction (seq (par (inport A) (inport B)) (sym C C) (junction C)))
(shape fork-sym (seq (inport Y) (fork C) (sym C C)))
"""


def test_braided_words_is_a_braided_fixture():
    from coendcheck.fincat import validate_category, validate_monoidal
    mon = braided_words()
    c = mon.base
    assert (len(c.objects), len(c.morphisms)) == (6, 8)
    assert validate_category(c).ok and validate_monoidal(mon).ok
    a, b = c.obj_id("a"), c.obj_id("b")
    assert mon.braid(a, b) == c.mor_id("s") != c.identity(mon.tensor(a, b))


@pytest.mark.parametrize("shape", ["sym-junction", "fork-sym"])
def test_sym_slides_a_braiding_that_is_not_an_identity(shape):
    # R-SYM slides the braiding into the junction and, in C^op, out of the
    # fork; with the braiding read as braid(n, m) both sides fail
    sig = parse_shape_script(BRAID_SCRIPT)
    deriv = Derivation("t", shape, [Step("R-SYM", (1,))])
    mon, swapped = braided_words(), braided_words()
    swapped.braiding = {(x, y): s for (y, x), s in mon.braiding.items()}
    for oracle in (mon, swapped):
        report = Report()
        for env_a in Env(sig, {"C": oracle}).assignments(only=objects_in(sig.shapes[shape])):
            check_derivation_once(deriv, Evaluator(env_a), report)
        if oracle is mon:
            assert report.ok, report.text()
            assert report.text().count("step 1 R-SYM ok") == (36 if shape == "sym-junction" else 6)
    assert not report.ok


ROUND_TRIP_SCRIPT = """
(category C)
(object A C) (object B C) (object X C)
(shape par-sym (seq (par (inport A) (inport B)) (sym C C)))
(shape par3 (par (par (inport A) (inport B)) (inport X)))
"""


@pytest.mark.parametrize("oracle", FIXTURE_NAMES)
@pytest.mark.parametrize("shape, steps", [
    ("par-sym", "step R-SYM at 0\nstep R-SYM at 0 backward with {config := par}"),
    ("par3", "step R-ASSOC at root\nstep R-ASSOC at root backward"),
], ids=["sym-par", "assoc"])
def test_par_rewrite_then_its_backward_is_the_identity(oracle, shape, steps):
    # R-SYM swapping a par of sources, then R-SYM (config := par) backward;
    # R-ASSOC forward, then backward: each pair composes to the identity
    sig = parse_shape_script(ROUND_TRIP_SCRIPT)
    script = parse_derivation_script(f"derive {shape}\n{steps}\nobligation identity 1 2\n",
                                     sig)
    text = check_derivation(script, sig, Env(sig, {"C": build(oracle)})).text()
    n = text.count("assignment: ")
    assert n > 0 and text.count("obligation identity 1..2 ok") == n, text
    assert text.endswith("result: ok\n"), text


@pytest.mark.parametrize("line, step", [
    ("step R-YONEDA-L at 0", Step("R-YONEDA-L", (0,))),
    ("step R-YONEDA-L at 0 backward", Step("R-YONEDA-L", (0,), True)),
    ("step R-SYM at 1.0 backward with {config := par}",
     Step("R-SYM", (1, 0), True, {"config": "par"})),
    ('step R-YONEDA-L at 0 backward with {label := "w"}',
     Step("R-YONEDA-L", (0,), True, {"label": "w"})),
    ("step R-ETA-A at 0 with {A := (tensor X Y)}",
     Step("R-ETA-A", (0,), inst={"A": ("tensor", "X", "Y")})),
    ('step R-SYM at 0 with {v := (pair "f" g)}',
     Step("R-SYM", (0,), inst={"v": ("pair", "f", "g")})),
    ("step R-INTERCHANGE at 0 with {span1 := 1, , span2 := 2}",
     Step("R-INTERCHANGE", (0,), inst={"span1": 1, "span2": 2})),
])
def test_step_line_parses(sig, line, step):
    assert parse_derivation_script(f"derive arrow\n{line}\n", sig).main.steps == [step]


@pytest.mark.parametrize("tail", ["0 junk", "0 backward junk", "0 backward backward",
                                  "0 junk backward", "0 backward junk with {config := par}"])
def test_step_line_refuses_trailing_tokens(sig, tail):
    with pytest.raises(RewriteError, match="^unexpected token after path: '0 "):
        parse_derivation_script(f"derive arrow\nstep R-YONEDA-L at {tail}\n", sig)
    with pytest.raises(RewriteError, match="^step needs a path before 'backward'$"):
        parse_derivation_script("derive arrow\nstep R-YONEDA-L at backward\n", sig)


@pytest.mark.parametrize("text, message", [
    ("derive arrow\nderive lens\n", "only one main derivation per script"),
    ("step R-YONEDA-L at 0\nderive arrow\n", "step before any 'derive' or 'derivation'"),
    ("obligation identity 1 1\nderive arrow\n", "obligation before any derivation"),
    ("derive arrow\nstep R-ETA-TENSOR at -2\n", "bad path '-2'"),
    ("derive arrow\nstep R-ETA-TENSOR at 0.-1\n", "bad path '0.-1'"),
], ids=["two-mains", "step-first", "obligation-first", "negative-path",
        "negative-child"])
def test_script_parser_refuses(sig, text, message):
    with pytest.raises(RewriteError) as info:
        parse_derivation_script(text, sig)
    assert str(info.value) == message
