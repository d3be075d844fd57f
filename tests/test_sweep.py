"""One evaluator per sweep: the shared, evicting node cache against a naive
reference that builds a fresh evaluator for every assignment, and the long
sweeps against the report digests the benchmark records."""

import hashlib
import itertools
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from coendcheck.demos import DEMOS, load_scripts, run_demo
from coendcheck.fixtures import fixture, fixture_path
from coendcheck import pointed, rewrite
from coendcheck.rewrite import (Report, _check_points, _presweep, check_assignments,
                                check_derivation, check_derivation_once,
                                parse_derivation_script, script_object_symbols)
from coendcheck.shapelang import (Env, Evaluator, Gen, Id, Par, Seq, Wire, is_plain_id,
                                  objects_in, parse_shape_script, seq_skeleton, strip_labels,
                                  sweep)

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


def naive_report(script, sig, env, epilogue=None):
    """check_assignments' report, from a fresh evaluator per assignment, and
    so with every rewrite step planned afresh at every assignment."""
    report = Report()
    derivs, points, asserts = _presweep(script, sig, Evaluator(env), report)
    for env_a in env.assignments(only=script_object_symbols(script, sig)):
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
    assignment is empty and that no live entry fixes a value of a leading
    free symbol other than the current one."""

    def __init__(self, monkeypatch):
        self.builds = Counter()
        self.live_fixing_first = 0  # live entries that fix the first free symbol
        build, at = Evaluator._build, Evaluator.at

        def counted_build(ev, term):
            key = tuple(sorted(_fixed(term, ev.env).items()))
            self.builds[(id(ev), term, key)] += 1
            return build(ev, term)

        def checked_at(ev, env):
            out = at(ev, env)
            assert not ev._nodes
            for bucket in ev._memo:
                for term, values in bucket:
                    fixed = dict(zip(sorted(objects_in(term)), values))
                    lead = list(itertools.takewhile(fixed.__contains__, ev.free))
                    assert all(fixed[s] == env.objs[s] for s in lead), (term, fixed)
                    self.live_fixing_first += bool(lead)
            return out
        monkeypatch.setattr(Evaluator, "_build", counted_build)
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
    # rebuild does, to one object per term; the sweep's plan memo holds
    # only plans
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
    plans = [p for ev in evs.values() for p in ev.plans.values()]
    assert plans and all(isinstance(p, rewrite.Plan) for p in plans)


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
