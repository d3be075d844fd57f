"""Per-rule mutation suite: for every rule a shipped derivation applies,
corrupt the element transport of one of its shipped steps and check that
the checker rejects exactly that step with the matching message.

Cases come from the demo registry, so a new shipped derivation brings its
rules in without a test edit.  An iso rule has its transport collapsed to
one class ("not a bijection") at the first shipped step, oracle binding
and object assignment where a target fiber has two or more classes.  A
directed rule, or an iso rule whose every shipped target fiber is a
singleton (a collapse is then a bijection, as on the thin lattice oracles
and on unit legs), returns a value outside the target fiber ("image
outside the target set").
"""

import pytest

from coendcheck import rewrite
from coendcheck.demos import DEMOS, load_scripts
from coendcheck.fixtures import fixture
from coendcheck.rewrite import (RULES, Derivation, Report, Step, check_assignments,
                                check_derivation_once, script_object_symbols)
from coendcheck.shapelang import Env, Evaluator, parse_shape_script

NOT_BIJECTION = "not a bijection"
OUTSIDE = "image outside the target set"
NOT_NATURAL = "not natural"


def _derivations():
    """(sig, script, derivation, bindings) for every shipped derivation."""
    for spec in DEMOS.values():
        sig, script = load_scripts(spec["script"])
        named = list(script.named.values()) + ([script.main] if script.main else [])
        for deriv in named:
            yield sig, script, deriv, spec["bindings"]


DEMO_RULES = sorted({step.rule for _, _, deriv, _ in _derivations()
                     for step in deriv.steps})

UNIT_LEGS = parse_shape_script("""
(category C)
(object A C)
(shape unit-out-leg (seq (inport A) (outport (unit C))))
(shape unit-in-leg (seq (inport (unit C)) (outport A)))
(shape port-hom (seq (inport A) (id C @w)))
(shape hom-triple (seq (id C @u) (id C @v) (id C @w)))
(shape sym-hom (seq (sym C C) (id C C @w)))
(shape fork-sym (seq (inport A) (fork C) (sym C C)))
(shape codiscard-port (seq (codiscard C) (outport A)))
(shape par-sym (seq (par (inport A) (inport A)) (sym C C)))
(shape par3 (par (par (inport A) (inport A)) (inport A)))
(shape snake (par (id C) (seq (par (id C) (cap C)) (par (cup C) (id C)))))
(shape snake-op (par (id (op C)) (seq (par (cap C) (id (op C))) (par (id (op C)) (cup C)))))
""")

SYM_PAR = Step("R-SYM", (0,))
ASSOC = Step("R-ASSOC", ())

# a rule no shipped derivation applies, or a mirror side or configuration
# of one that no shipped step reaches ("RULE:side"): (shape, oracle, steps),
# the last step applying the case's rule; "R-YONEDA-L:whiskered" has its
# window below the last part, where a _twist shows
UNIT_CASES = {
    "R-CART-COUNIT": ("unit-out-leg", "meet-lattice-2", [Step("R-CART-COUNIT", (1,))]),
    "R-COCART-UNIT": ("unit-in-leg", "join-lattice-2", [Step("R-COCART-UNIT", (0,))]),
    "R-YONEDA-L:whiskered": ("hom-triple", "z2", [Step("R-YONEDA-L", (0,))]),
    "R-YONEDA-R": ("port-hom", "z2", [Step("R-YONEDA-R", (0,))]),
    "R-YONEDA-R:sym": ("sym-hom", "z2", [Step("R-YONEDA-R", (0,))]),
    "R-SYM:fork": ("fork-sym", "z2", [Step("R-SYM", (1,))]),
    "R-SYM:par": ("par-sym", "z2", [SYM_PAR]),
    "R-SYM:par-backward": ("par-sym", "z2",
                           [SYM_PAR, Step("R-SYM", (0,), True, {"config": "par"})]),
    "R-LAX-DISCARD:codiscard": ("codiscard-port", "z2", [Step("R-LAX-DISCARD", (0,))]),
    "R-ASSOC": ("par3", "z2", [ASSOC]),
    "R-ASSOC:backward": ("par3", "z2", [ASSOC, Step("R-ASSOC", (), True)]),
}


def _rule(case):
    return case.split(":")[0]


def _runs(case):
    """(sig, derivation, env, step indices applying the case's rule) in
    registry, binding and assignment order."""
    rule = _rule(case)
    if case in UNIT_CASES:
        shape, oracle, steps = UNIT_CASES[case]
        deriv = Derivation("t", shape, list(steps))
        for env in Env(UNIT_LEGS, {"C": fixture(oracle)}).assignments():
            yield UNIT_LEGS, deriv, env, [len(steps)]
        return
    for sig, script, deriv, bindings in _derivations():
        ks = [k for k, step in enumerate(deriv.steps, 1) if step.rule == rule]
        if not ks:
            continue
        for binding in bindings:
            env = Env(sig, {sym: fixture(fx) for sym, fx in binding.items()})
            for env_a in env.assignments(only=script_object_symbols(script, sig)):
                yield sig, deriv, env_a, ks


def _fibers(prof):
    return [prof.fiber(a, b) for a in prof.source.objects for b in prof.target.objects]


def _collapse(dst):
    return lambda fiber, v: dst.fiber(*fiber)[0]


def _outside(dst):
    return lambda fiber, v: "outside"


def _visible(fault, src, dst):
    """Whether the fault can show on this step."""
    if fault is _collapse:
        return any(len(f) >= 2 for f in _fibers(dst))
    return any(_fibers(src))


def _site(case):
    """The first (fault, sig, derivation, env, step index) that can show."""
    faults = (_collapse, _outside) if RULES[_rule(case)].tag == "iso" else (_outside,)
    for fault in faults:
        for sig, deriv, env, ks in _runs(case):
            report = Report()
            ev = Evaluator(env)
            out = check_derivation_once(deriv, ev, report)
            assert out is not None and report.ok, report.text()
            for k in ks:
                if _visible(fault, ev.node(out[0][k - 1]), ev.node(out[0][k])):
                    return fault, sig, deriv, env, k
    pytest.fail(f"no shipped step can show a faulty {case}")


@pytest.mark.parametrize("case", DEMO_RULES + sorted(UNIT_CASES))
def test_rule_rejects_corrupted_transport(case, monkeypatch):
    fault, sig, deriv, env, k = _site(case)
    rule = _rule(case)
    message = NOT_BIJECTION if fault is _collapse else OUTSIDE
    target, real = deriv.steps[k - 1], rewrite.apply_step

    def faulty_apply_step(term, step, ev):
        new_term, transport, inv = real(term, step, ev)
        if step is target:
            transport = fault(ev.node(new_term))
        return new_term, transport, inv

    monkeypatch.setattr(rewrite, "apply_step", faulty_apply_step)
    report = Report()
    assert check_derivation_once(deriv, Evaluator(env), report) is None
    assert len(report.failures) == 1, report.text()
    assert report.failures[0].startswith(f"step {k} {rule}: {message}"), report.text()


def test_cases_cover_the_shipped_rules():
    assert {"R-CART-FORK", "R-COCART-JUNCTION"} <= set(DEMO_RULES)
    assert len(DEMO_RULES) >= 16
    assert set(DEMO_RULES) | set(map(_rule, UNIT_CASES)) <= set(RULES)


# Two faults that keep the transport a bijection on every fiber, so that
# only the inverse round trip can catch them.  Each takes the real
# transport and the target profunctor.

def _swap(transport, dst):
    """The first two classes of each fiber trade places."""
    def swapped(fiber, v):
        out, reps = transport(fiber, v), dst.fiber(*fiber)
        return {reps[0]: reps[1], reps[1]: reps[0]}.get(out, out) if len(reps) > 1 else out
    return swapped


def _moves(dst, fiber):
    """The first action on the fiber by a non-identity endomorphism of one
    of its ends that permutes its classes and moves one, or None."""
    (a, b), reps = fiber, set(dst.fiber(*fiber))
    src, tgt = dst.source, dst.target
    acts = [lambda v, e=e: dst.act(e, tgt.identity(b), v)
            for e in src.hom(a, a) if e != src.identity(a)]
    acts += [lambda v, e=e: dst.act(src.identity(a), e, v)
             for e in tgt.hom(b, b) if e != tgt.identity(b)]
    return next((act for act in acts
                 if set(map(act, reps)) == reps and any(act(r) != r for r in reps)), None)


def _twist(transport, dst):
    """Each image is acted on by a non-identity endomorphism (see _moves)."""
    def twisted(fiber, v):
        out, act = transport(fiber, v), _moves(dst, fiber)
        return act(out) if act else out
    return twisted


def _shows(fault, dst):
    fibers = [(a, b) for a in dst.source.objects for b in dst.target.objects]
    if fault is _swap:
        return any(len(dst.fiber(*f)) >= 2 for f in fibers)
    return any(_moves(dst, f) for f in fibers)


ISO_CASES = [case for case in DEMO_RULES + sorted(UNIT_CASES)
             if RULES[_rule(case)].tag == "iso"]
# iso cases where no shipped step and no unit case can show the fault:
# every target fiber there is a singleton, or has no endomorphism acting
# on it, or the inverse site collapses, so that only bijectivity is checked
HIDDEN = {
    _swap: {"R-COCART-JUNCTION", "R-ZIGZAG-CAP", "R-ZIGZAG-CUP", "R-CART-COUNIT",
            "R-COCART-UNIT"},
    _twist: {"R-CART-FORK", "R-COCART-JUNCTION", "R-INTERCHANGE", "R-PORT-FUSE",
             "R-SYM", "R-ZIGZAG-CAP", "R-ZIGZAG-CUP", "R-CART-COUNIT", "R-COCART-UNIT"},
}


def _bijective_site(case, fault):
    """The first (sig, derivation, env, step index) where the fault can
    show: a checked step whose inverse site did not collapse."""
    for sig, deriv, env, ks in _runs(case):
        report, ev = Report(), Evaluator(env)
        out = check_derivation_once(deriv, ev, report)
        assert out is not None and report.ok, report.text()
        for k in ks:
            line = next(t for t in report.lines if t.startswith(f"  step {k} "))
            if "collapsed" not in line and _shows(fault, ev.node(out[0][k])):
                return sig, deriv, env, k
    return None


@pytest.mark.parametrize("fault", [_swap, _twist], ids=["swap", "twist"])
@pytest.mark.parametrize("case", ISO_CASES)
def test_round_trip_rejects_a_bijective_fault(case, fault, monkeypatch):
    site = _bijective_site(case, fault)
    if case in HIDDEN[fault]:
        assert site is None
        return
    assert site is not None, f"no shipped step can show a {fault.__name__} of {case}"
    sig, deriv, env, k = site
    target, real = deriv.steps[k - 1], rewrite.apply_step

    def faulty_apply_step(term, step, ev):
        new_term, transport, inv = real(term, step, ev)
        if step is target:
            transport = fault(transport, ev.node(new_term))
        return new_term, transport, inv

    monkeypatch.setattr(rewrite, "apply_step", faulty_apply_step)
    report = Report()
    assert check_derivation_once(deriv, Evaluator(env), report) is None
    assert report.failures == [report.failures[0]], report.text()
    assert report.failures[0].startswith(
        f"step {k} {_rule(case)}: backward(forward) is not the identity on"), report.text()


def _whiskered(sig, deriv, env, k):
    """Whether step k transports by whiskering: its window lies below the
    last part of a composite."""
    ev = Evaluator(env)
    terms = check_derivation_once(deriv, ev, Report())[0]
    plan = rewrite.plan_step(terms[k - 1], deriv.steps[k - 1], ev)
    return plan.outcome.transform.__name__ == "whiskered"


@pytest.mark.parametrize("fault", [_swap, _twist], ids=["swap", "twist"])
def test_round_trip_faults_reach_a_whiskered_site(fault):
    # the round trip also catches a fault on a transport that whiskers its
    # window; no shipped step shows a _twist there, R-YONEDA-L:whiskered does
    sites = [_bijective_site(case, fault) for case in ISO_CASES if case not in HIDDEN[fault]]
    assert any(_whiskered(*site) for site in sites)


def test_fault_at_a_later_assignment_of_one_sweep_fails_that_step(monkeypatch):
    # the sweep's evaluator plans each step once, but apply_step hands out
    # a transport at every assignment: one that goes wrong at the last of
    # the 16 assignments fails the step there, and only there
    sig, script = load_scripts("lens_reduction.deriv")
    env = Env(sig, {"C": fixture("meet-lattice-2")})
    target = script.main.steps[5]
    last = list(env.assignments(script_object_symbols(script, sig)))[-1].describe_objs()
    real = rewrite.apply_step

    def faulty_apply_step(term, step, ev):
        new_term, transport, inv = real(term, step, ev)
        if step is target and ev.env.describe_objs() == last:
            transport = _outside(ev.node(new_term))
        return new_term, transport, inv

    monkeypatch.setattr(rewrite, "apply_step", faulty_apply_step)
    report = Report()
    check_assignments(script, sig, env, report)
    fails = [i for i, line in enumerate(report.lines) if line.startswith("FAIL")]
    assert len(fails) == 1
    assert sum(line.startswith("  step 6 R-PORT-FUSE ok") for line in report.lines) == 15
    assert report.lines[fails[0]].startswith(f"FAIL step 6 R-PORT-FUSE: {OUTSIDE}")
    assert max(i for i, line in enumerate(report.lines)
               if line.startswith("assignment: ")) < fails[0]
    assert report.lines[-1] == report.lines[fails[0]]


# Two faults that keep the transport a bijection and pass the round trip,
# so that only naturality can catch them: a swap of the first two classes
# of every fiber at a snake, whose inverse site collapses; and a swap pi
# of the first two classes of one fiber after the forward transport, paired
# with the same pi before the backward transport, which undoes it.

def _pi(dst):
    """The first two classes of the first fiber of dst with two or more
    trade places; every other class stays."""
    fiber = next((a, b) for a in dst.source.objects for b in dst.target.objects
                 if len(dst.fiber(a, b)) >= 2)
    r0, r1 = dst.fiber(*fiber)[:2]
    return lambda f, v: {r0: r1, r1: r0}.get(v, v) if f == fiber else v


# case: (shape, oracle, step, fault); each fault shows at the first assignment
NATURALITY_CASES = {
    "R-ZIGZAG-CUP": ("snake", "z2", Step("R-ZIGZAG-CUP", (1, 0)), _swap),
    "R-ZIGZAG-CAP": ("snake-op", "z2", Step("R-ZIGZAG-CAP", (1, 0)), _swap),
    "R-YONEDA-R": ("port-hom", "prod-l2-z2", Step("R-YONEDA-R", (0,)), _pi),
    "R-YONEDA-R:sym": ("sym-hom", "prod-l2-z2", Step("R-YONEDA-R", (0,)), _pi),
    "R-SYM:fork": ("fork-sym", "prod-l2-z2", Step("R-SYM", (1,)), _pi),
}


@pytest.mark.parametrize("case", sorted(NATURALITY_CASES))
def test_naturality_rejects_a_fault_the_round_trip_misses(case, monkeypatch):
    shape, oracle, target, fault = NATURALITY_CASES[case]
    deriv = Derivation("t", shape, [target])
    env = next(Env(UNIT_LEGS, {"C": fixture(oracle)}).assignments())
    report = Report()
    assert check_derivation_once(deriv, Evaluator(env), report) is not None
    assert ("inverse site collapsed" in report.lines[-1]) == (fault is _swap)
    real = rewrite.apply_step

    def faulty_apply_step(term, step, ev):
        new_term, transport, inv = real(term, step, ev)
        if step is target and fault is _swap:
            transport = _swap(transport, ev.node(new_term))
        elif step is target:
            pi = _pi(ev.node(new_term))
            return new_term, lambda f, v: pi(f, transport(f, v)), inv
        elif fault is _pi:
            pi = _pi(ev.node(term))
            return new_term, lambda f, v: transport(f, pi(f, v)), inv
        return new_term, transport, inv

    monkeypatch.setattr(rewrite, "apply_step", faulty_apply_step)
    report = Report()
    assert check_derivation_once(deriv, Evaluator(env), report) is None
    assert report.failures == [report.failures[0]], report.text()
    assert report.failures[0].startswith(
        f"step 1 {_rule(case)}: {NOT_NATURAL} at fiber"), report.text()
