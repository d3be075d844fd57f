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
from coendcheck.rewrite import (RULES, Derivation, Report, Step,
                                check_derivation_once, script_object_symbols)
from coendcheck.shapelang import Env, Evaluator, parse_shape_script

NOT_BIJECTION = "not a bijection"
OUTSIDE = "image outside the target set"


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
(shape sym-hom (seq (sym C C) (id C C @w)))
(shape fork-sym (seq (inport A) (fork C) (sym C C)))
(shape codiscard-port (seq (codiscard C) (outport A)))
""")

# a rule no shipped derivation applies, or a mirror side of one that no
# shipped step reaches ("RULE:side"): (shape, oracle, path)
UNIT_CASES = {
    "R-CART-COUNIT": ("unit-out-leg", "meet-lattice-2", (1,)),
    "R-COCART-UNIT": ("unit-in-leg", "join-lattice-2", (0,)),
    "R-YONEDA-R": ("port-hom", "z2", (0,)),
    "R-YONEDA-R:sym": ("sym-hom", "z2", (0,)),
    "R-SYM:fork": ("fork-sym", "z2", (1,)),
    "R-LAX-DISCARD:codiscard": ("codiscard-port", "z2", (0,)),
}


def _rule(case):
    return case.split(":")[0]


def _runs(case):
    """(sig, derivation, env, step indices applying the case's rule) in
    registry, binding and assignment order."""
    rule = _rule(case)
    if case in UNIT_CASES:
        shape, oracle, path = UNIT_CASES[case]
        deriv = Derivation("t", shape, [Step(rule, path)])
        for env in Env(UNIT_LEGS, {"C": fixture(oracle)}).assignments():
            yield UNIT_LEGS, deriv, env, [1]
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
                if _visible(fault, ev.node(out[0][k - 1]).prof, ev.node(out[0][k]).prof):
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
            transport = fault(ev.node(new_term).prof)
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
