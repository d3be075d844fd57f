"""One evaluator per sweep: the shared, evicting node cache against a naive
reference that builds a fresh evaluator for every assignment, and the long
sweeps against the report digests the benchmark records."""

import ast
import hashlib
import itertools
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_profunctor import small_oracles

import coendcheck
from coendcheck.cli import main
from coendcheck.demos import DEMOS, demo_dir, load_scripts, run_demo
from coendcheck.fixtures import build, fixture, fixture_path
from coendcheck import pointed, rewrite
from coendcheck.rewrite import (Report, _check_points, _presweep, check_assignments,
                                check_derivation, check_derivation_once,
                                parse_derivation_script, script_object_symbols)
from coendcheck.shapelang import (Env, EvalError, Evaluator, Gen, Id, Par, Seq, Wire, is_plain_id,
                                  objects_in, parse_shape_script, seq, seq_skeleton, strip_labels,
                                  sweep)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


def naive_report(script, sig, env, epilogue=None):
    """check_assignments' report, from a fresh evaluator per assignment, and
    so with every rewrite step planned afresh at every assignment; the
    pre-sweep plans in a fresh evaluator at the first assignment, or at none
    when there is none."""
    report = Report()
    swept = script_object_symbols(script, sig)
    first = next(env.assignments(only=swept), env)
    derivs, points, asserts = _presweep(script, sig, Evaluator(first), report)
    for env_a in env.assignments(only=swept):
        desc = env_a.describe_objs()
        report.line(f"assignment: {desc}" if desc else "assignment: (none)")
        ev = Evaluator(env_a)
        for name, deriv in derivs:
            report.line(f" derivation {name} from {deriv.shape}:")
            out = check_derivation_once(deriv, ev, report)
            if out is not None and name == "main" and epilogue:
                epilogue(report, ev, *out)
        _check_points(points, asserts, ev, report)
    return report.finish().text()


def _fixed(term, env):
    """The object values a node of `term` is built for under `env`."""
    syms = sorted(objects_in(term))
    return dict(zip(syms, (env.objs.get(s) for s in syms)))


class Spy:
    """Counts every node build of every evaluator, and checks after each
    move of a sweep's evaluator that its table of the nodes read at one
    assignment is empty and that the move dropped exactly the kept entries
    that fix a value of a leading free symbol other than the current one.
    `symbols` records what each key was kept under."""

    def __init__(self, monkeypatch):
        self.builds = Counter()
        self.symbols = {}
        self.moves = 0
        self.live_fixing_first = 0  # live entries that fix the first free symbol
        self.images_dropped = 0
        self.images_kept = 0  # over a move that leaves their symbols' values alone
        build, at, keep = Evaluator._build, Evaluator.at, Evaluator.keep

        def counted_build(ev, term):
            key = tuple(sorted(_fixed(term, ev.env).items()))
            self.builds[(id(ev), term, key)] += 1
            return build(ev, term)

        def recorded_keep(ev, key, symbols, *args):
            assert self.symbols.setdefault(key, symbols) == symbols
            return keep(ev, key, symbols, *args)

        def checked_at(ev, env):
            prev, before = ev.env, {entry for bucket in ev._memo for entry in bucket}
            out = at(ev, env)
            self.moves += 1
            assert not ev._nodes
            after = {entry for bucket in ev._memo for entry in bucket}
            assert after <= before
            for key, values in before:
                fixed = dict(zip(self.symbols[key], values))
                lead = list(itertools.takewhile(fixed.__contains__, ev.free))
                live = all(fixed[s] == env.objs[s] for s in lead)
                assert ((key, values) in after) == live, (key, fixed)
                self.live_fixing_first += live and bool(lead)
                if isinstance(key, tuple) and callable(key[0]):
                    alone = all(prev.objs.get(s) == env.objs.get(s) for s in fixed)
                    self.images_kept += live and alone
                    self.images_dropped += not live
            return out
        monkeypatch.setattr(Evaluator, "_build", counted_build)
        monkeypatch.setattr(Evaluator, "keep", recorded_keep)
        monkeypatch.setattr(Evaluator, "at", checked_at)

    def assert_each_built_once(self):
        assert self.builds and max(self.builds.values()) == 1


def _step_key(term, path, rule, backward, inst):
    return term, tuple(path), rule, backward, tuple(sorted(inst.items()))


class PlanSpy:
    """Counts, per evaluator and (term, step), the rule matches (calls of
    rewrite_at from plan_step, not its own descents) and the calls of
    apply_step."""

    def __init__(self, monkeypatch):
        self.matches, self.applies = Counter(), Counter()
        rewrite_at, apply_step = rewrite.rewrite_at, rewrite.apply_step
        depth = [0]

        def counted_rewrite_at(ev, term, path, rule, inst, backward, gates):
            if not depth[0]:
                self.matches[(ev, _step_key(term, path, rule.name, backward, inst))] += 1
            depth[0] += 1
            try:
                return rewrite_at(ev, term, path, rule, inst, backward, gates)
            finally:
                depth[0] -= 1

        def counted_apply_step(term, step, ev):
            key = _step_key(term, step.path, step.rule, step.backward, step.inst)
            self.applies[(ev, key)] += 1
            return apply_step(term, step, ev)
        monkeypatch.setattr(rewrite, "rewrite_at", counted_rewrite_at)
        monkeypatch.setattr(rewrite, "apply_step", counted_apply_step)

    def assert_each_matched_once(self):
        assert not self.matches or max(self.matches.values()) == 1
        assert set(self.applies) <= set(self.matches)


def _shared_report(script, sig, env, epilogue):
    report = Report()
    check_assignments(script, sig, env, report, epilogue)
    return report.finish().text()


DEMO_RUNS = [(name, i) for name in sorted(DEMOS) for i in range(len(DEMOS[name]["bindings"]))]


@pytest.mark.parametrize("name,i", DEMO_RUNS, ids=[f"{n}-{i}" for n, i in DEMO_RUNS])
def test_shared_sweep_matches_naive_reference_on_demos(monkeypatch, name, i):
    spec = DEMOS[name]
    sig, script = load_scripts(spec["script"])
    env = Env(sig, {sym: fixture(fx) for sym, fx in spec["bindings"][i].items()})
    want = naive_report(script, sig, env, spec.get("epilogue"))
    spy, plans = Spy(monkeypatch), PlanSpy(monkeypatch)
    assert _shared_report(script, sig, env, spec.get("epilogue")) == want
    spy.assert_each_built_once()
    plans.assert_each_matched_once()


def naive_strip(t):
    """A label-dropping rebuild of `t`: the reference for the cached
    strip_labels."""
    if isinstance(t, Seq):
        return Seq(tuple(naive_strip(p) for p in t.parts))
    if isinstance(t, Par):
        return Par(naive_strip(t.top), naive_strip(t.bottom))
    if isinstance(t, Id):
        return Id(t.wires)
    return Gen(t.kind, t.args)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_strip_labels_and_plans_over_a_demo(monkeypatch, name):
    # every term a shipped derivation passes through strips as the naive
    # rebuild does, to one object per term; the sweep's keyed table holds
    # a plan under each step key, kept under no object symbols
    terms, evs = set(), {}
    once = rewrite.check_derivation_once

    def spied(deriv, ev, report):
        out = once(deriv, ev, report)
        evs[id(ev)] = ev
        terms.update(out[0] if out else ())
        return out
    monkeypatch.setattr(rewrite, "check_derivation_once", spied)
    assert run_demo(name).ok and terms
    for t in terms:
        assert strip_labels(t) == naive_strip(t)
        assert strip_labels(t) is strip_labels(t)
    kept = [(key, values, v) for ev in evs.values() for bucket in ev._memo
            for (key, values), v in bucket.items()]
    steps = [(values, v) for key, values, v in kept
             if isinstance(key, tuple) and isinstance(key[0], (Seq, Par, Id, Gen))]
    assert steps and all(values == () and isinstance(v, rewrite.Plan) for values, v in steps)
    assert sum(isinstance(v, rewrite.Plan) for _, _, v in kept) == len(steps)


def naive_build_seq_value(ev, items):
    """build_seq_value without its skeleton: every call unfolds the nested
    composites, finds the identity wires and builds the composite left."""
    flat = []
    for (t, v, l, r) in items:
        if isinstance(t, Seq):
            vals, ends = rewrite.unfold(t, (l, r), v)
            flat += zip(t.parts, vals, ends, ends[1:])
        else:
            flat.append((t, v, l, r))
    out = []
    pend = None  # (morphism, left end) of pending identity wires
    for (t, v, l, r) in flat:
        if is_plain_id(t):
            if pend is None:
                pend = [v, l]
            else:
                cat = ev.env.boundary_cat(t.wires)
                pend[0] = cat.compose(pend[0], v)
        else:
            if pend is not None:
                prof = ev.node(t)
                v = prof.act(pend[0], prof.target.identity(r), v)
                l = pend[1]
                pend = None
            out.append([t, v, l, r])
    if pend is not None:
        if not out:
            return pend[0]  # the whole composite is an identity wire
        t, v, l, r = out[-1]
        prof = ev.node(t)
        out[-1][1] = prof.act(prof.source.identity(l), pend[0], v)
        out[-1][3] = None  # right end moves to the fiber end
    if len(out) == 1:
        return out[0][1]
    terms = tuple(it[0] for it in out)
    vals = [it[1] for it in out]
    mids = [it[3] for it in out[:-1]]
    return ev.node(Seq(terms)).refold((items[0][2], items[-1][3]), vals, mids)


def test_seq_values_match_the_naive_assembly_over_the_demos(monkeypatch):
    # every call the 11 demos make, from the rules' transports and from
    # the point builder, gives the value the naive assembly gives
    build, seen = rewrite.build_seq_value, set()

    def compared(ev, items):
        got = build(ev, items)
        assert got == naive_build_seq_value(ev, items), items
        _, nested, kept, trail, _ = seq_skeleton(tuple(it[0] for it in items))
        seen.update(case for case, hit in [
            ("nested", nested), ("wires only", not kept), ("wires after", kept and trail),
            ("wires before", any(ids for _, ids in kept))] if hit)
        return got
    monkeypatch.setattr(rewrite, "build_seq_value", compared)
    monkeypatch.setattr(pointed, "build_seq_value", compared)
    assert all(run_demo(name).ok for name in DEMOS)
    assert seen == {"nested", "wires only", "wires after", "wires before"}


@pytest.mark.parametrize("oracle", ["z2", "meet-lattice-2", "prod-l2-z2"])
def test_seq_values_with_wires_on_both_sides_match_the_naive_assembly(oracle):
    # labelled identities are kept parts, the plain ones between and
    # around them are absorbed: every chain of composable morphisms, with
    # wires before, between and after the kept parts
    sig = parse_shape_script("(category C)")
    ev = Evaluator(Env(sig, {"C": fixture(oracle)}))
    c, wires = ev.env.cats["C"], (Wire("C"),)
    wire, f, g = Id(wires), Id(wires, "f"), Id(wires, "g")

    def value(t, m):
        # m as an element of f ; g: m, then the identity of its codomain
        return (c.cod(m), m, c.identity(c.cod(m))) if isinstance(t, Seq) else m
    for terms in [(wire, f, wire, wire), (wire, f, g, wire), (f, wire, Seq((f, g))), (wire, wire)]:
        for ms in itertools.product(c.morphisms, repeat=len(terms)):
            if all(c.cod(m) == c.dom(m2) for m, m2 in zip(ms, ms[1:])):
                items = [(t, value(t, m), c.dom(m), c.cod(m)) for t, m in zip(terms, ms)]
                assert (rewrite.build_seq_value(ev, items)
                        == naive_build_seq_value(ev, items)), items


def naive_transport(term, i, outcome):
    """_seq_level without whiskering: every call unfolds the term down to
    all of its parts, transforms the window and folds all the new parts
    back."""
    parts = term.parts if isinstance(term, Seq) else (term,)
    j = i + outcome.consumed
    new_parts = parts[:i] + tuple(outcome.parts) + parts[j:]

    def transport(ev, fiber, value):
        vals, ends = rewrite.unfold(term, fiber, value)
        slice_fibers = list(zip(ends[i:j], ends[i + 1:j + 1]))
        vals[i:j], mids = outcome.transform(ev, vals[i:j], slice_fibers, ends[i], ends[j])
        ends[i:j + 1] = [ends[i], *mids, ends[j]]
        return naive_build_seq_value(ev, list(zip(new_parts, vals, ends, ends[1:])))

    return rewrite.NodeOutcome(seq(new_parts), transport, outcome.inverse_inst)


class FlatTransports:
    """Compares, at every call of apply_step, the step's transport with
    the one of the same step matched with naive_transport for each slice,
    on every raw member of every fiber.  `seen` names the kinds of
    outermost transport compared."""

    def __init__(self, monkeypatch):
        real, flat = rewrite.apply_step, {}
        self.seen = set()

        def naive_step(term, step, ev):
            slices = []

            def recorded(term, i, outcome):
                slices.append((term, i, outcome))
                return naive_transport(term, i, outcome)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rewrite, "_seq_level", recorded)
                rule = rewrite.check_instantiation(step, ev.sig)
                out = rewrite.rewrite_at(ev, term, tuple(step.path), rule, step.inst,
                                         step.backward, [])
            return out, slices

        def compared(term, step, ev):
            new_term, transport, inv = real(term, step, ev)
            plan = rewrite.plan_step(term, step, ev)
            if id(plan) not in flat:
                # the plan is kept with its naive twin, so its id is not reused
                flat[id(plan)] = plan, *naive_step(term, step, ev)
            _, naive, slices = flat[id(plan)]
            assert naive.term is new_term
            whiskered = transport.func.__name__ == "whiskered"
            self.seen.add("whiskered" if whiskered else "other")
            # the outermost window ends just before the last part, with a
            # plain identity wire last in its replacement: the whiskered
            # transport absorbs that wire into the prefix, the flat one
            # into the last part
            if whiskered:
                s_term, i, out = slices[-1]
                if (out.parts and is_plain_id(out.parts[-1])
                        and i + out.consumed == len(s_term.parts) - 1):
                    self.seen.add("wire before the last part")
            for fiber, groups in rewrite._fiber_members(ev.node(term)).items():
                for members in groups.values():
                    for m in members:
                        assert (transport(fiber, m)
                                == naive.transform(ev, fiber, m)), (step, fiber, m)
            return new_term, transport, inv
        monkeypatch.setattr(rewrite, "apply_step", compared)


def test_whiskered_transport_matches_the_flat_one_over_the_demos(monkeypatch):
    # every step the 11 demos apply, forward and as an inverse, at every
    # binding and assignment
    spy = FlatTransports(monkeypatch)
    assert all(run_demo(name).ok for name in DEMOS)
    assert spy.seen == {"whiskered", "other", "wire before the last part"}


JUNCTION = """
(category C) (object A C)
(shape join-out (seq (junction C) (outport A)))
"""


def test_whiskered_transport_tells_fibers_apart(monkeypatch):
    # a junction's element at ((m, n), y) is a morphism m + n -> y, the same
    # at every (m, n) with one join; R-COCART-JUNCTION maps it to a pair
    # that depends on m and n, so a prefix image is kept per fiber
    sig = parse_shape_script(JUNCTION)
    script = parse_derivation_script("derive join-out\nstep R-COCART-JUNCTION at 0\n", sig)
    env = Env(sig, {"C": fixture("join-lattice-2")})
    junction = Evaluator(env).node(sig.shapes["join-out"].parts[0])
    values = [v for s in junction.source.objects for v in junction.fiber(s, 1)]
    assert len(set(values)) < len(values)
    spy = FlatTransports(monkeypatch)
    report = Report()
    check_assignments(script, sig, env, report)
    assert report.ok and spy.seen == {"whiskered"}


def _workload(name):
    spec = WORKLOADS[name]
    sig, script = load_scripts(spec["script"])
    return spec, sig, script, Env(sig, {s: fixture(fx) for s, fx in spec["bind"].items()})


@pytest.fixture(scope="module")
def lens_diamond():
    """lens_reduction.deriv over diamond (256 assignments), checked once for
    the tests below, with the spy watching the sweep."""
    spec, sig, script, env = _workload("lens-diamond")
    with pytest.MonkeyPatch.context() as mp:
        spy = Spy(mp)
        text = check_derivation(script, sig, env).text()
    return spec, sig, script, env, text, spy


def test_lens_diamond_matches_naive_reference(lens_diamond):
    _, sig, script, env, text, spy = lens_diamond
    assert text == naive_report(script, sig, env)
    spy.assert_each_built_once()
    # entries fixing A exist, so the eviction check above is not vacuous
    assert spy.live_fixing_first > 0


def test_lens_diamond_plans_each_step_once(monkeypatch):
    # one match per step and per inverse step, each applied at all 256
    # assignments
    spec, sig, script, env = _workload("lens-diamond")
    plans = PlanSpy(monkeypatch)
    check_derivation(script, sig, env)
    plans.assert_each_matched_once()
    assert len(plans.matches) == len(plans.applies) > len(script.main.steps)
    assert set(plans.applies.values()) == {spec["assignments"]} == {256}


def test_at_drops_the_prefix_images_of_the_assignment_it_leaves(monkeypatch):
    # each move drops exactly the kept entries, prefix images among them,
    # that fix a leading free symbol's value it changes (see Spy)
    spec, sig, script, env = _workload("lens-meet")
    spy = Spy(monkeypatch)
    check_derivation(script, sig, env)
    assert spy.moves == spec["assignments"] and spy.images_dropped > 0
    # an image outlives a move that leaves its symbols' values alone, so
    # the check is not vacuous
    assert spy.images_kept > 0


def test_each_prefix_class_is_transported_once_per_step_and_assignment(monkeypatch):
    # the calls of the window transforms of the slices that rewrite_at
    # makes, and of the prefix transports that a whiskered level makes, the
    # latter per evaluator, level, fiber, value and values of the object
    # symbols that the level's old and new prefix mention
    spec, sig, script, env = _workload("lens-meet")
    windows, prefixes = [0], Counter()
    real, depth = rewrite._seq_level, [0]

    def counted(term, i, outcome):
        if not depth[0]:
            window = outcome.transform

            def transform(ev, *args):
                windows[0] += 1
                return window(ev, *args)
            outcome = outcome._replace(transform=transform)
        depth[0] += 1
        try:
            out = real(term, i, outcome)
        finally:
            depth[0] -= 1
        if depth[0]:
            transport, new = out.transform, out.term

            def prefix(ev, fiber, value):
                reads = {**_fixed(term, ev.env), **_fixed(new, ev.env)}
                prefixes[(id(ev), prefix, fiber, value, tuple(sorted(reads.items())))] += 1
                return transport(ev, fiber, value)
            out = out._replace(transform=prefix)
        return out
    monkeypatch.setattr(rewrite, "_seq_level", counted)
    check_derivation(script, sig, env)
    assert prefixes and max(prefixes.values()) == 1
    # 59 window transforms, where a memo kept per assignment makes
    # 126 and the flat transport, which transforms the window at every
    # transport call, makes 206
    assert windows == [59]


GATED = """
(category C) (category D)
(object X C) (object Y C) (object T C) (object S D)
(shape bent (seq (inport X) (outport X) (inport Y) (outport Y)))
(shape port (seq (inport T) (outport T)))
(shape d-port (seq (inport S) (outport S)))
"""
GATED_SCRIPT = """
derivation eps from bent
  step R-EPS-A at 1
end
derivation fuse from port
  step R-PORT-FUSE at 0 backward with {A := X, B := Y}
end
derivation cross from d-port
  step R-PORT-FUSE at 0 backward with {A := X, B := Y}
end
"""


@pytest.mark.parametrize("oracle", ["meet-lattice-2", "diamond"])
def test_gates_read_each_assignment_of_a_shared_sweep(monkeypatch, oracle):
    # R-EPS-A compares the objects of its two ports, and backward
    # R-PORT-FUSE compares its port's object with the tensor of its
    # instantiation: both planned once, their verdicts still follow each
    # assignment, as with a fresh evaluator per assignment
    sig = parse_shape_script(GATED)
    script = parse_derivation_script(GATED_SCRIPT, sig)
    env = Env(sig, {"C": fixture(oracle), "D": fixture("meet-lattice-2")})
    want = naive_report(script, sig, env)
    plans = PlanSpy(monkeypatch)
    assert _shared_report(script, sig, env, None) == want
    plans.assert_each_matched_once()
    lines = want.splitlines()
    for rule, gate in (("R-EPS-A", "R-EPS-A ports disagree on the object"),
                       ("R-PORT-FUSE", "port object is not the tensor of the instantiation")):
        assert any(line.startswith(f"  step 1 {rule} ok") for line in lines)
        assert f"FAIL step 1 {rule}: {gate}" in lines
    # a port of D fused into ports of C changes the boundary under every
    # assignment, but the gate, which compares object ids, comes first
    # where it fails
    cross = [lines[i + 1] for i, line in enumerate(lines) if line == " derivation cross from d-port:"]
    assert set(cross) == {"FAIL step 1 R-PORT-FUSE: port object is not the tensor of the instantiation",
                          "FAIL step 1 R-PORT-FUSE: at 2: boundary mismatch: ...<C> then <D>..."}


UNREACHED = "(category C) (object X C) (shape s (seq (inport X) (outport X)))"
UNREACHED_SCRIPT = """
derive s
step R-ETA-A at 2 with {A := (tensor X X)}
step R-SYM at 0
"""


def test_a_step_that_no_assignment_reaches_is_not_blamed():
    # R-ETA-A resolves the ports of (tensor X X), which meet-lattice-2's
    # category without its monoidal structure cannot: step 1 fails at both
    # assignments, so R-SYM, which the term alone refuses, is never reached
    sig = parse_shape_script(UNREACHED)
    script = parse_derivation_script(UNREACHED_SCRIPT, sig)
    env = Env(sig, {"C": build("meet-lattice-2").base})
    text = _shared_report(script, sig, env, None)
    assert text == naive_report(script, sig, env)
    assert "step 2" not in text
    fail = "FAIL step 1 R-ETA-A: category 'C' carries no monoidal structure"
    assert text.splitlines().count(fail) == text.count("assignment: ") == 2


def test_plans_are_made_at_an_assignment_and_gate_only_on_checks(monkeypatch):
    # over every demo binding, each step is planned where the evaluator
    # stands at an assignment of every swept symbol, and each gate a plan
    # holds is a check that reads an object symbol: with none assigned, it
    # fails on the first it reads
    plan_step, gates = rewrite.plan_step, []

    def planned(term, step, ev):
        assert ev.free and set(ev.free) <= ev.env.objs.keys()
        plan = plan_step(term, step, ev)
        gates.extend(plan.gates)
        return plan
    monkeypatch.setattr(rewrite, "plan_step", planned)
    for name, i in DEMO_RUNS:
        spec = DEMOS[name]
        sig, script = load_scripts(spec["script"])
        env = Env(sig, {sym: fixture(fx) for sym, fx in spec["bindings"][i].items()})
        check_assignments(script, sig, env, Report(), spec.get("epilogue"))
        for gate in gates:
            assert callable(gate)
            with pytest.raises(EvalError, match="is unassigned"):
                gate(Evaluator(env))
        gates.clear()


def test_rewrite_builds_one_evaluator():
    # check_assignments' evaluator serves the pre-sweep as well as the sweep
    tree = ast.parse(Path(rewrite.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "Evaluator" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    (owner,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name == "check_assignments"]
    assert len(calls) == 1 and calls[0] in set(ast.walk(owner))


@pytest.mark.parametrize("oracle", ["meet-lattice-2", "diamond"])
def test_prefix_images_are_kept_under_the_symbols_of_both_prefixes(monkeypatch, oracle):
    # backward R-PORT-FUSE replaces (inport T) with ports of X and Y, which
    # the old prefix does not name: the image of a class of (inport T)
    # differs between assignments that agree on T alone
    sig = parse_shape_script(GATED)
    script = parse_derivation_script(GATED_SCRIPT[:GATED_SCRIPT.index("derivation cross")], sig)
    env = Env(sig, {"C": fixture(oracle), "D": fixture("meet-lattice-2")})
    spy = FlatTransports(monkeypatch)
    report = Report()
    check_assignments(script, sig, env, report)
    assert "whiskered" in spy.seen
    fused, objs, name = Counter(), None, None
    for line in report.lines:
        if line.startswith("assignment: "):
            objs = dict(kv.split("=") for kv in line.split()[1:])
        elif line.startswith(" derivation "):
            name = line.split()[1]
        elif name == "fuse" and line.startswith("  step 1 R-PORT-FUSE ok"):
            fused[objs["T"]] += 1
    # the step maps classes at several assignments that agree on T
    assert max(fused.values()) > 1


STEP_RE = re.compile(r"^  step (\d+) (\S+) ok: classes \d+ -> (\d+)$")


def test_lens_diamond_digest_and_oracle(lens_diamond):
    spec, _, _, _, text, _ = lens_diamond
    assert hashlib.sha1(text.encode("utf-8")).hexdigest() == spec["digest"]
    # the classes after R-PORT-FUSE are |C(A,X)| * |C(A(x)Y,B)|, read
    # straight from the fixture's JSON
    fx = json.loads(Path(fixture_path("diamond")).read_text())
    homs = {k: len(v) for k, v in fx["homs"].items()}
    tensor = fx["monoidal"]["tensor_obj"]
    want = {f"A={a} B={b} X={x} Y={y}":
            homs.get(f"{a}->{x}", 0) * homs.get(f"{tensor[f'{a},{y}']}->{b}", 0)
            for a, b, x, y in itertools.product(fx["objects"], repeat=4)}
    got, current = {}, None
    for line in text.splitlines():
        if line.startswith("assignment: "):
            current = line[len("assignment: "):]
        m = STEP_RE.match(line)
        if m and (m.group(1), m.group(2)) == (str(spec["oracle"]["step"]), spec["oracle"]["rule"]):
            got[current] = int(m.group(3))
    assert len(want) == spec["assignments"] == 256
    assert got == want


def test_optic_prod_digest():
    spec, sig, script, env = _workload("optic-prod")
    text = check_derivation(script, sig, env).text()
    assert text.count("assignment: ") == spec["assignments"]
    assert hashlib.sha1(text.encode("utf-8")).hexdigest() == spec["digest"]


def test_port_is_built_once_per_value_of_its_symbol():
    # the port (inport A) is built once per value of A, not once per
    # assignment of A, B, X and Y
    sig, _ = load_scripts("lens_reduction.deriv")
    env = Env(sig, {"C": fixture("meet-lattice-2")})
    ports = []
    for ev in sweep(env, only=objects_in(sig.shapes["lens"])):
        ports.append(ev.node(sig.shapes["lens"].parts[0]))
    assert ev.free == ("A", "B", "X", "Y") and len(ports) == 16
    assert len({id(p) for p in ports}) == 2


def _small_sweep(name):
    """Whether a demo's derivation binds one category and sweeps at most
    four object symbols."""
    sig, script = load_scripts(DEMOS[name]["script"])
    return list(sig.categories) == ["C"] and len(script_object_symbols(script, sig)) <= 4


SMALL_SWEEPS = [name for name in sorted(DEMOS) if _small_sweep(name)]


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(mon=small_oracles().filter(lambda m: len(m.base.objects) in (2, 3)),
       name=st.sampled_from(SMALL_SWEEPS))
def test_shared_sweep_matches_naive_reference_over_random_oracles(mon, name):
    spec = DEMOS[name]
    sig, script = load_scripts(spec["script"])
    env = Env(sig, {"C": mon})
    epilogue = spec.get("epilogue")
    assert _shared_report(script, sig, env, epilogue) == naive_report(script, sig, env, epilogue)


def test_every_sweep_runs_through_the_evaluators_loop(monkeypatch, capsys):
    # `eval`, through shapelang.sweep, and check_assignments move their
    # evaluator only from Evaluator.sweep
    at, callers = Evaluator.at, Counter()

    def moved(ev, env):
        callers[sys._getframe(1).f_code is Evaluator.sweep.__code__] += 1
        return at(ev, env)
    monkeypatch.setattr(Evaluator, "at", moved)
    sig, script = load_scripts("lens_reduction.deriv")
    bind = f"C={fixture_path('meet-lattice-2')}"
    assert main(["eval", str(demo_dir() / "lens.shapes"), "--shape", "lens", "--bind", bind]) == 0
    assert capsys.readouterr().out.count("assignment: ") == 16
    assert callers == {True: 16}
    check_assignments(script, sig, Env(sig, {"C": fixture("meet-lattice-2")}), Report())
    assert callers == {True: 32}


def test_only_shapelang_reads_the_evaluators_private_fields():
    sig = parse_shape_script("(category C) (object A C)")
    private = {name for name in vars(Evaluator(Env(sig, {"C": fixture("z2")}), ["A"]))
               if name.startswith("_")}
    assert "_nodes" in private
    for path in sorted(Path(coendcheck.__file__).parent.glob("*.py")):
        if path.name != "shapelang.py":
            names = {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)}
            assert not names & private, (path.name, names & private)
