"""The catalog of rewrite rules on shape terms and the derivation checker.

Each rule has a syntactic side (replacing a node of the term, a slice of a
sequential composite, or inserting at a boundary point) and an executable
semantic action on evaluated elements.  The checker verifies every applied
step against the oracle: totality, well-definedness on coend classes,
bijectivity for invertible rules, and declared identity obligations.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import NamedTuple

from .fincat import (FixtureError, join_mors, join_objs, opposite_monoidal, split_obj,
                     terminal_category)
from .profunctor import ProfunctorError, dual
from .shapelang import (CheckAborted, Env, EvalError, Evaluator, Gen, Id, Par, Report,
                        Seq, ShapeTypeError, StructureMissing, Wire, _ws, boundary,
                        is_plain_id, leaves, obj_expr_cat, obj_expr_symbols, objects_in, par,
                        functor_expr_sig, parse_shape_script, print_term, seq,
                        seq_skeleton, strip_labels)


class RewriteError(Exception):
    pass


class MatchError(RewriteError):
    pass


class DirectionError(RewriteError):
    pass


class PathError(RewriteError):
    pass


class PointError(Exception):
    """An open diagram's point cannot be built from its assignment."""


# a step the oracle or the instantiation cannot support fails; it is no crash
STEP_ERRORS = (RewriteError, StructureMissing, ShapeTypeError, FixtureError, EvalError)
# nor is a transport, point or assertion that fails with one of these; any
# other exception is an internal error, never a failed proof
CHECK_ERRORS = STEP_ERRORS + (ProfunctorError, PointError)


# the instantiation of a step or an inverse that binds nothing: read-only,
# so the records that default to it share no mutable state
NO_INST = MappingProxyType({})


class Step(NamedTuple):
    rule: str
    path: tuple
    backward: bool = False
    inst: dict = NO_INST


class SliceOutcome(NamedTuple):
    consumed: int
    parts: tuple               # a collapsed window: the plain identity on its wires
    transform: object          # (ev, vals, fibers, lobj, robj) -> (vals, mids)
    inverse_inst: dict = NO_INST


class NodeOutcome(NamedTuple):
    term: object
    transform: object          # (ev, fiber, value) -> value
    inverse_inst: dict = NO_INST


# ---------------------------------------------------------------------------
# value assembly mirroring term normalization


def _wire_value(ev, flat, ids):
    """The composite of the values of the identity wires at positions `ids`."""
    m = flat[ids[0]][1]
    for k in ids[1:]:
        t, v = flat[k][:2]
        m = ev.env.boundary_cat(t.wires).compose(m, v)
    return m


def build_seq_value(ev: Evaluator, items):
    """Value of seq(terms) given per-item values and their fiber ends.

    items: list of (term, value, left_obj, right_obj).  Mirrors the silent
    normalization: nested composites unfold, identity wires are absorbed
    into their neighbours by the profunctor actions.  Which items unfold,
    which parts are identity wires and the composite left are decided once
    per tuple of terms (seq_skeleton); a call moves the values.
    """
    _, nested, kept, trail, out = seq_skeleton(tuple([it[0] for it in items]))
    flat = list(items)
    for k in reversed(nested):
        t, v, l, r = flat[k]
        vals, ends = unfold(t, (l, r), v)
        flat[k:k + 1] = zip(t.parts, vals, ends, ends[1:])
    if not kept:
        return _wire_value(ev, flat, trail)  # the whole composite is an identity wire
    vals, mids = [], []
    for k, ids in kept:
        t, v, l, r = flat[k]
        if ids:
            prof = ev.node(t)
            v = prof.act(_wire_value(ev, flat, ids), prof.target.identity(r), v)
            l = flat[ids[0]][2]
        vals.append(v)
        mids.append(r)
    if trail:
        # the last kept part, t from l, absorbs the wires after it
        prof = ev.node(t)
        vals[-1] = prof.act(prof.source.identity(l), _wire_value(ev, flat, trail), vals[-1])
    if out is None:
        return vals[0]
    return ev.node(out).refold((items[0][2], items[-1][3]), vals, mids[:-1])


def par_value(ev: Evaluator, top_term, v_top, bottom_term, v_bottom):
    """Value of par(top, bottom): the pair, the kept side's value, or the
    merged wires' joined morphism (a unit wire's one morphism is 0, so
    a wire kept beside one keeps its value, which is that join too)."""
    t = par(top_term, bottom_term)
    if isinstance(t, Par):
        return (v_top, v_bottom)
    if t is top_term:
        return v_top
    if t is bottom_term:
        return v_bottom
    cat = ev.env.boundary_cat
    return join_mors([(cat(top_term.wires), v_top), (cat(bottom_term.wires), v_bottom)])


# ---------------------------------------------------------------------------
# term surgery with transport


def _slice_wires(sig, parts, i):
    """The wires at the boundary point before parts[i], or after the last
    part when i is past it."""
    if i < len(parts):
        return boundary(parts[i], sig)[0]
    return boundary(parts[-1], sig)[1]


def unfold(term, fiber, value):
    """The part values of a sequential composite (or of a lone part) and
    the objects at the ends of its parts, peeling each left fold's (m, u,
    w) in turn: the inverse of ComposedProf.refold."""
    if not isinstance(term, Seq):
        return [value], list(fiber)
    n = len(term.parts)
    vals, ends = [None] * n, [fiber[0]] + [None] * (n - 1) + [fiber[1]]
    for k in range(n - 1, 0, -1):
        ends[k], value, vals[k] = value
    vals[0] = value
    return vals, ends


def _seq_level(term, i, outcome: SliceOutcome) -> NodeOutcome:
    """Replace parts[i : i+consumed] of a sequential composite."""
    parts = term.parts if isinstance(term, Seq) else (term,)
    j = i + outcome.consumed
    if j > len(parts):
        raise PathError(f"slice {i}..{j} out of range")
    new_parts = parts[:i] + tuple(outcome.parts) + parts[j:]
    new_term = seq(new_parts)

    def transport(ev, fiber, value):
        vals, ends = unfold(term, fiber, value)
        slice_fibers = list(zip(ends[i:j], ends[i + 1:j + 1]))
        vals[i:j], mids = outcome.transform(ev, vals[i:j], slice_fibers, ends[i], ends[j])
        ends[i:j + 1] = [ends[i], *mids, ends[j]]
        return build_seq_value(ev, list(zip(new_parts, vals, ends, ends[1:])))

    return NodeOutcome(new_term, transport, outcome.inverse_inst)


def rewrite_at(ev: Evaluator, term, path, rule, inst, backward, gates):
    """The rewrite of `term` by `rule` at `path`, as one outcome on the
    whole term; the rule's reads of the assignment are appended to `gates`
    (see Rule)."""
    if rule.site == "node":
        if not path:
            return rule.match(ev, term, inst, backward, gates)
    elif len(path) == 1:
        parts = term.parts if isinstance(term, Seq) else (term,)
        if path[0] > len(parts):
            # refused before the match can add a gate: the term alone decides
            raise PathError(f"slice {path[0]}..{path[0]} out of range")
        return _seq_level(term, path[0],
                          rule.match(ev, parts, path[0], inst, backward, gates))
    if not path:
        raise PathError(f"rule {rule.name} needs a {rule.site} position")
    k, rest = path[0], path[1:]
    if isinstance(term, Seq):
        if not 0 <= k < len(term.parts):
            raise PathError(f"no part {k} in sequential composite")
        child = rewrite_at(ev, term.parts[k], rest, rule, inst, backward, gates)

        # express the child replacement through the splice machinery
        def transform(ev, vals, fibers, lobj, robj):
            return ([child.transform(ev, fibers[0], vals[0])], [])
        return _seq_level(term, k, SliceOutcome(1, (child.term,), transform,
                                                child.inverse_inst))
    if isinstance(term, Par):
        if k not in (0, 1):
            raise PathError("par sides are 0 and 1")
        child = rewrite_at(ev, term.top if k == 0 else term.bottom, rest, rule,
                           inst, backward, gates)
        new_top, new_bottom = ((child.term, term.bottom) if k == 0
                               else (term.top, child.term))

        def transport(ev, fiber, value):
            (f_top, v_top), (f_bot, v_bot) = ev.node(term).split_value(fiber, value)
            if k == 0:
                v_top = child.transform(ev, f_top, v_top)
            else:
                v_bot = child.transform(ev, f_bot, v_bot)
            return par_value(ev, new_top, v_top, new_bottom, v_bot)

        return NodeOutcome(par(new_top, new_bottom), transport, child.inverse_inst)
    raise PathError(f"path descends into a leaf {print_term(term)}")


class Plan(NamedTuple):
    """A step planned on one term, the same at every assignment of a sweep.
    `gates` are the rule's reads of the assignment, as (read, check) pairs in
    their place among its checks; once they pass, the step fails with
    `error`, or else `outcome` holds its new term, transport and inverse
    instantiation.  `check` marks a read that compares, which some
    assignments can fail; a read that only resolves the objects of ports
    passes at every assignment of a sweep or at none."""
    outcome: NodeOutcome
    gates: tuple
    error: Exception


def plan_step(term, step: Step, ev: Evaluator) -> Plan:
    """The plan of `step` on `term`, made once per evaluator: a sweep's
    evaluator keeps one binding.  Plans are keyed by value, since the
    inverse of a step is a new Step at every assignment."""
    key = (term, step.rule, tuple(step.path), step.backward,
           tuple(sorted(step.inst.items())))
    plan = ev.plans.get(key)
    if plan is None:
        gates = []
        try:
            rule = check_instantiation(step, ev.sig)
            out = rewrite_at(ev, term, key[2], rule, step.inst, step.backward, gates)
            (l0, r0), (l1, r1) = boundary(term, ev.sig), boundary(out.term, ev.sig)
            if (l0, r0) != (l1, r1):
                raise RewriteError(f"{rule.name} changed the boundary from {_ws(l0)} -> "
                                   f"{_ws(r0)} to {_ws(l1)} -> {_ws(r1)}")
            plan = Plan(out, tuple(gates), None)
        except STEP_ERRORS as e:
            plan = Plan(None, tuple(gates), e.with_traceback(None))
        ev.plans[key] = plan
    return plan


def apply_step(term, step: Step, ev: Evaluator):
    """Apply one rewrite step under the assignment `ev` evaluates; returns
    (new term, element transport, inverse instantiation).

    The transport maps an element of eval(term) at a fiber to the
    corresponding element of eval(new term); it is total on raw coend index
    elements, not just canonical representatives.  The inverse
    instantiation is the `inst` of the backward step that undoes this one.

    The new term depends only on the term, the step and the signature, so
    the step is planned once per evaluator (plan_step): the rule match, the
    new term, the consumed window, the inverse instantiation, the boundary
    check, or the error the step fails with.  A plan reads only what the
    binding fixes: the signature, the categories, their monoidal structures
    (or that one is missing) and the named functors.  What reads the
    assignment is bound here, at every call: the gates, which compare the
    objects of ports (R-EPS-A, R-CART-COUNIT, backward R-PORT-FUSE) through
    `Env.resolve_obj` and `Env.functor_of`, and the transport, which reads
    the evaluator's nodes and object ids.
    """
    plan = plan_step(term, step, ev)
    for read, _ in plan.gates:
        read(ev)
    if plan.error is not None:
        raise plan.error.with_traceback(None)
    out = plan.outcome
    return out.term, functools.partial(out.transform, ev), out.inverse_inst


def check_instantiation(step: Step, sig, objects=None):
    """The rule of a step, or the RewriteError that the step fails with
    under every assignment: an unknown rule, a directed rule used backward,
    a span or cut that is not an integer, or a name read as an object or
    functor symbol that the signature does not declare.  Given `objects`,
    the object symbols that every assignment assigns, a name read as an
    object symbol, alone or in a (tensor ..), must be one of them."""
    rule = RULES.get(step.rule)
    if rule is None:
        raise RewriteError(f"unknown rule {step.rule!r}")
    if step.backward and rule.tag == "directed":
        raise DirectionError(f"{rule.name} is directed; backward use rejected")
    for key in rule.int_keys[step.backward]:
        if key in step.inst:
            _int_inst(step.inst, key)
    objects = sig.objects if objects is None else objects
    for key in rule.obj_keys[step.backward]:
        for name in obj_expr_symbols(step.inst[key]) if key in step.inst else ():
            if name not in objects:
                raise RewriteError(f"object symbol {name!r} is unassigned")
    for key in rule.functor_keys[step.backward]:
        v = step.inst.get(key)
        # the parser checked the symbols of an (fcomp ..)
        if key in step.inst and not (v[:1] == ("fcomp",) if isinstance(v, tuple)
                                     else v in sig.functors):
            raise RewriteError(f"unknown functor symbol {v!r}")
    return rule


# ---------------------------------------------------------------------------
# rule implementations


class Rule:
    """A rewrite rule.  `match` reads the site and what the binding fixes,
    and returns the outcome or raises MatchError: a slice rule's
    match(ev, parts, i, inst, backward, gates) rewrites a sequential
    composite's parts from offset i, a node rule's match(ev, term, inst,
    backward, gates) the term at the step's path.  A read of the assignment
    goes into `gates` (see Plan), in its place among the checks; a
    transform takes the evaluator of the assignment first."""
    name = "?"
    tag = "iso"       # or "directed": no backward use
    site = "slice"
    # instantiations read forward, backward as integers, object symbols
    # and functor symbols
    int_keys = obj_keys = functor_keys = ((), ())


def _want(cond, msg):
    if not cond:
        raise MatchError(msg)


def _int_inst(inst, key, default=None):
    try:
        return int(inst.get(key, default))
    except (TypeError, ValueError):
        raise MatchError(f"instantiation {key} must be an integer")


def _part(parts, i, msg="rule site"):
    if not 0 <= i < len(parts):
        raise MatchError(f"{msg}: no part at offset {i}")
    return parts[i]


def _monoidal(ev, catsym, op=False, need=None):
    """The oracle's monoidal structure, read in C^op when `op` is set (its
    cartesian witness is then the cocartesian one of C, its braiding the
    transpose); `need` names a structure it must carry."""
    m = ev.env.monoidal(catsym)
    if op:
        m = opposite_monoidal(m)
    if need is not None and getattr(m, need) is None:
        what = "braiding" if need == "braiding" else f"{'co' if op else ''}cartesian witness"
        raise StructureMissing(f"oracle for {catsym!r} has no {what}")
    return m


def _read_at(ev, gates, terms, read, check=False):
    """`read` as a function of the evaluator.  When one of `terms` names an
    object symbol, `read` reads the assignment: it is then a gate, a check
    if `check` is set, and read again where the transform needs it.
    Otherwise it reads only what the binding fixes, once, now."""
    if any(objects_in(t) for t in terms):
        gates.append((read, check))
        return read
    value = read(ev)
    return lambda ev: value


# A mirror-image slice rule is its twin read in C^op: P |-> P^op sends
# Prof(C, D) to Prof(D^op, C^op).  Its body, written once for the direct
# reading, sees the window reversed, each boundary with its ends swapped,
# each profunctor as its dual and each monoidal structure as its opposite,
# and names the twin generators (fork for junction, ...) in that reading;
# _read_back turns what it returns into an outcome on the window itself.


def _window(parts, i, n, op):
    """The n parts from offset i, reversed in the C^op reading."""
    w = tuple(_part(parts, i + k) for k in range(n))
    return w[::-1] if op else w


def _ends(t, sig, op):
    """The (left, right) boundary of t in the reading."""
    lw, rw = boundary(t, sig)
    return (rw, lw) if op else (lw, rw)


def _prof(ev, t, op):
    """The profunctor of t in the reading."""
    p = ev.node(t)
    return dual(p) if op else p


def _read_back(out: SliceOutcome, op):
    """The outcome of a rule body run on the C^op reading of a window, as an
    outcome on the window: parts, values and middle objects reverse and the
    fiber ends swap.  Object and morphism ids are shared with the opposite
    categories, and a profunctor's elements with its dual's, so values carry
    over unchanged."""
    if not op:
        return out
    tf = out.transform

    def transform(ev, vals, fibers, lobj, robj):
        vals, mids = tf(ev, vals[::-1], [f[::-1] for f in fibers[::-1]], robj, lobj)
        return vals[::-1], mids[::-1]

    return SliceOutcome(out.consumed, out.parts[::-1], transform, out.inverse_inst)


class YonedaL(Rule):
    """hom ; P  =>  P  (and back): the left unitor."""
    name = "R-YONEDA-L"
    op = False    # True: read in C^op, where the identity wire comes second

    def match(self, ev, parts, i, inst, backward, gates):
        op = self.op
        if backward:
            t = _part(parts, i)
            lw = _ends(t, ev.sig, op)[0]
            label = inst.get("label")
            _want(label is not None, f"backward {self.name} needs a label" + (
                "" if op else " (an unlabelled identity would normalize away)"))
            cat = ev.env.boundary_cat(lw)

            def tf(ev, vals, fibers, lobj, robj):
                return ([cat.identity(lobj), vals[0]], [lobj])

            return _read_back(SliceOutcome(1, (Id(lw, label), t), tf), op)
        idt, t = _window(parts, i, 2, op)
        _want(isinstance(idt, Id),
              f"{self.name} expects an identity wire {'second' if op else 'first'}")
        _want(_ends(t, ev.sig, op)[0] == idt.wires, "wire mismatch")

        def tf(ev, vals, fibers, lobj, robj):
            f, v = vals
            prof = _prof(ev, t, op)
            return ([prof.act(f, prof.target.identity(robj), v)], [])

        return _read_back(SliceOutcome(2, (t,), tf, inverse_inst={"label": idt.label}), op)


class YonedaR(YonedaL):
    """P ; hom  =>  P  (and back): the right unitor, R-YONEDA-L in C^op."""
    name = "R-YONEDA-R"
    op = True


class Assoc(Rule):
    """Par re-bracketing: ((a|b)|c) <=> (a|(b|c)); elements re-bracket."""
    name = "R-ASSOC"
    site = "node"

    def match(self, ev, term, inst, backward, gates):
        _want(isinstance(term, Par), "R-ASSOC expects a parallel composite")
        if not backward:
            _want(isinstance(term.top, Par), "R-ASSOC forward expects ((a|b)|c)")
            a, b, c = term.top.top, term.top.bottom, term.bottom
            bc = par(b, c)

            def tf(ev, fiber, value):
                (ft, vt), (fc, vc) = ev.node(term).split_value(fiber, value)
                (fa, va), (fb, vb) = ev.node(term.top).split_value(ft, vt)
                return par_value(ev, a, va, bc, par_value(ev, b, vb, c, vc))

            return NodeOutcome(par(a, bc), tf)
        _want(isinstance(term.bottom, Par), "R-ASSOC backward expects (a|(b|c))")
        a, b, c = term.top, term.bottom.top, term.bottom.bottom
        ab = par(a, b)

        def tf(ev, fiber, value):
            (fa, va), (fbc, vbc) = ev.node(term).split_value(fiber, value)
            (fb, vb), (fc, vc) = ev.node(term.bottom).split_value(fbc, vbc)
            return par_value(ev, ab, par_value(ev, a, va, b, vb), c, vc)

        return NodeOutcome(par(ab, c), tf)


def _cut(ev, term, cut):
    """Split a term, viewed as its part list, at a cut position: the two
    pieces, and the split of the term's values into (left piece value, cut
    object, right piece value), where an identity piece carries an
    identity morphism."""
    parts = term.parts if isinstance(term, Seq) else (term,)
    if not 0 <= cut <= len(parts):
        raise MatchError(f"cut {cut} out of range")
    lw = boundary(term, ev.sig)[0]
    bnd_mid = boundary(parts[cut - 1], ev.sig)[1] if cut > 0 else lw
    mid_cat = ev.env.boundary_cat(bnd_mid)

    def piece(ps):
        return seq(ps) if ps else Id(bnd_mid)

    def assemble(ev, ps, vs, es):
        if not ps:
            return mid_cat.identity(es[0])
        return build_seq_value(ev, list(zip(ps, vs, es, es[1:])))

    def split(ev, fiber, value):
        vals, ends = unfold(term, fiber, value)
        return (assemble(ev, parts[:cut], vals[:cut], ends[:cut + 1]), ends[cut],
                assemble(ev, parts[cut:], vals[cut:], ends[cut:]))

    return piece(parts[:cut]), piece(parts[cut:]), split


class Interchange(Rule):
    """Seq of Pars <=> Par of Seqs; elements re-bracket through the middle.

    Forward sites are two columns; a column is normally a parallel
    composite, but span instantiations let a column be a run of parts with
    an empty top leg (the form a unit leg takes after normalization).
    """
    name = "R-INTERCHANGE"
    int_keys = (("span1", "span2"), ("cut1", "cut2"))

    def _column(self, ev, parts, lo, hi):
        """(top leg, bottom leg, the column's values split over its legs)."""
        if not 0 <= lo < len(parts):
            raise MatchError("empty interchange column")
        if hi - lo == 1 and isinstance(parts[lo], Par):
            p = parts[lo]

            def split(ev, vals, fibers):
                return ev.node(p).split_value(fibers[0], vals[0])
            return p.top, p.bottom, split
        run = parts[lo:hi]
        if not run:
            raise MatchError("empty interchange column")
        b = seq(run)
        if boundary(b, ev.sig)[0] != () or boundary(b, ev.sig)[1] != ():
            raise MatchError("a spanned interchange column must be closed")

        def split(ev, vals, fibers):
            # empty top leg: the top value is the unit identity
            items = [(t, v, f[0], f[1]) for t, v, f in zip(run, vals, fibers)]
            vb = build_seq_value(ev, items)
            return ((0, 0), 0), ((fibers[0][0], fibers[-1][1]), vb)
        return Id(()), b, split

    def match(self, ev, parts, i, inst, backward, gates):
        sig = ev.sig
        if not backward:
            n1, n2 = _int_inst(inst, "span1", 1), _int_inst(inst, "span2", 1)
            a, b, split1 = self._column(ev, parts, i, i + n1)
            c, d, split2 = self._column(ev, parts, i + n1, i + n1 + n2)
            ra, lc = boundary(a, sig)[1], boundary(c, sig)[0]
            rb, ld = boundary(b, sig)[1], boundary(d, sig)[0]
            _want(ra == lc and rb == ld,
                  "R-INTERCHANGE legs do not split the middle boundary")
            ac, bd = seq((a, c)), seq((b, d))
            new_par = par(ac, bd)
            _want(not is_plain_id(new_par),
                  "R-INTERCHANGE would collapse to an identity wire")
            cut1 = len(a.parts) if isinstance(a, Seq) else (0 if is_plain_id(a) else 1)
            cut2 = len(b.parts) if isinstance(b, Seq) else (0 if is_plain_id(b) else 1)

            def tf(ev, vals, fibers, lobj, robj):
                (fa, va), (fb, vb) = split1(ev, vals[:n1], fibers[:n1])
                (fc, vc), (fd, vd) = split2(ev, vals[n1:], fibers[n1:])
                v_ac = build_seq_value(ev, [(a, va, *fa), (c, vc, *fc)])
                v_bd = build_seq_value(ev, [(b, vb, *fb), (d, vd, *fd)])
                return ([par_value(ev, ac, v_ac, bd, v_bd)], [])

            return SliceOutcome(n1 + n2, (new_par,), tf,
                                inverse_inst={"cut1": cut1, "cut2": cut2})
        # backward: split one Par node into Seq of two Pars at the given cuts
        p = _part(parts, i)
        _want(isinstance(p, Par), "backward R-INTERCHANGE expects a parallel composite")
        _want("cut1" in inst and "cut2" in inst,
              "backward R-INTERCHANGE needs cut1 and cut2")
        cut1, cut2 = _int_inst(inst, "cut1"), _int_inst(inst, "cut2")
        a, c, split_top = _cut(ev, p.top, cut1)
        b, d, split_bottom = _cut(ev, p.bottom, cut2)
        q1, q2 = par(a, b), par(c, d)
        if is_plain_id(q1) or is_plain_id(q2):
            raise MatchError("backward R-INTERCHANGE cut produces a bare "
                             "identity column")
        span1 = len(q1.parts) if isinstance(q1, Seq) else 1
        span2 = len(q2.parts) if isinstance(q2, Seq) else 1
        wa, wb = boundary(a, sig)[1], boundary(b, sig)[1]
        c_a, c_b = ev.env.boundary_cat(wa), ev.env.boundary_cat(wb)

        def tf(ev, vals, fibers, lobj, robj):
            (ft, vt), (fb_, vb) = ev.node(p).split_value(fibers[0], vals[0])
            va, ma, vc = split_top(ev, ft, vt)
            vb2, mb, vd = split_bottom(ev, fb_, vb)
            mid = join_objs([(c_a, ma), (c_b, mb)])
            return ([par_value(ev, a, va, b, vb2), par_value(ev, c, vc, d, vd)], [mid])

        return SliceOutcome(1, (q1, q2), tf,
                            inverse_inst={"span1": span1, "span2": span2})


class PortFuse(Rule):
    """Two parallel ports into a junction fuse to the port of the tensor
    object; in C^op, two parallel ports out of a fork."""
    name = "R-PORT-FUSE"
    obj_keys = ((), ("A", "B"))
    readings = ((False, ("inport", "junction")), (True, ("outport", "fork")))

    def match(self, ev, parts, i, inst, backward, gates):
        if backward:
            return self._backward(ev, parts, i, inst, gates)
        for op, (port, gen) in self.readings:
            ports, j = _window(parts, i, 2, op)
            if not (isinstance(ports, Par) and isinstance(j, Gen) and j.kind == gen
                    and all(isinstance(p, Gen) and p.kind == port
                            for p in (ports.top, ports.bottom))):
                continue
            ea, eb = ports.top.args[0], ports.bottom.args[0]
            mon = _monoidal(ev, j.args[0], op)

            def tf(ev, vals, fibers, lobj, robj):
                (f, g), h = vals
                return ([mon.base.compose(mon.tensor_m(f, g), h)], [])

            out = SliceOutcome(2, (Gen(port, (("tensor", ea, eb),)),), tf,
                               inverse_inst={"A": ea, "B": eb})
            return _read_back(out, op)
        raise MatchError("R-PORT-FUSE expects parallel ports beside a junction "
                         "or fork")

    def _backward(self, ev, parts, i, inst, gates):
        t = _part(parts, i)
        _want("A" in inst and "B" in inst, "backward R-PORT-FUSE needs A and B")
        ea, eb = inst["A"], inst["B"]
        catsym = obj_expr_cat(ea, ev.sig)
        mon = ev.env.monoidal(catsym)

        def ids(ev):
            return ev.env.resolve_obj(ea), ev.env.resolve_obj(eb)

        gates.append((ids, False))
        _want(isinstance(t, Gen) and t.kind in ("inport", "outport"),
              "backward R-PORT-FUSE expects a port")
        gates.append((lambda ev: _want(ev.env.resolve_obj(t.args[0]) == mon.tensor(*ids(ev)),
                                       "port object is not the tensor of the instantiation"),
                      True))
        op, (port, gen) = self.readings[t.kind == "outport"]
        c = mon.base
        rep = (par(Gen(port, (ea,)), Gen(port, (eb,))), Gen(gen, (catsym,)))

        def tf(ev, vals, fibers, lobj, robj):
            a_id, b_id = ids(ev)
            return ([(c.identity(a_id), c.identity(b_id)), vals[0]],
                    [join_objs([(c, a_id), (c, b_id)])])

        return _read_back(SliceOutcome(1, rep, tf), op)


class AdjunctionUnit(Rule):
    """Insert companion(F); conjoint(F) at a point of F's source wires, with
    identities at F(left): the unit of companion -| conjoint.  `key` names
    the instantiation that gives F; without one, F is the tensor of the
    category of a C,C boundary point."""
    tag = "directed"

    def __init__(self, name, kinds, key=None, needs=None):
        self.name, self.kinds, self.key, self.needs = name, kinds, key, needs
        if key is not None:  # an object symbol for ports, a functor for boxes
            setattr(self, "functor_keys" if kinds[0] == "box" else "obj_keys", ((key,), ()))

    def match(self, ev, parts, i, inst, backward, gates):
        if self.key is None:
            wires = _slice_wires(ev.sig, parts, i)
            _want(len(wires) == 2 and wires[0] == wires[1] and not wires[0].op,
                  f"{self.name} needs a C,C boundary point")
            arg = wires[0].cat
        else:
            _want(self.key in inst, f"{self.name} needs {self.needs}")
            arg = inst[self.key]
        rep = tuple(Gen(kind, (arg,)) for kind in self.kinds)
        fn = _read_at(ev, gates, rep, lambda ev: ev.env.functor_of(rep[0]))

        def tf(ev, vals, fibers, lobj, robj):
            f = fn(ev)
            fx = f.obj(lobj)
            e = f.target.identity(fx)
            return ([e, e], [fx])

        return SliceOutcome(0, rep, tf)


class AdjunctionCounit(Rule):
    """conjoint(F); companion(F) of one functor collapses to the identity
    wire on F's target by composing there: the counit of companion -|
    conjoint."""
    tag = "directed"

    def __init__(self, name, kinds, expects, disagree=None):
        self.name, self.kinds = name, kinds
        self.expects = f"{name} expects {expects}"
        self.disagree = f"{name} {disagree}" if disagree else self.expects

    def match(self, ev, parts, i, inst, backward, gates):
        p1, p2 = _part(parts, i), _part(parts, i + 1)
        _want(isinstance(p1, Gen) and p1.kind == self.kinds[1]
              and isinstance(p2, Gen) and p2.kind == self.kinds[0], self.expects)
        _read_at(ev, gates, (p1, p2), lambda ev: _want(
            ev.env.functor_of(p1) == ev.env.functor_of(p2), self.disagree), check=True)
        (w,) = boundary(p1, ev.sig)[0]
        d = ev.env.wire_cat(w)  # F's target

        def tf(ev, vals, fibers, lobj, robj):
            return ([d.compose(*vals)], [])

        return SliceOutcome(2, (Id((w,)),), tf)


class CartFork(Rule):
    """fork <=> copy over a cartesian oracle (universal property of the
    product, witnessed by projections and pairing)."""
    name = "R-CART-FORK"
    site = "node"
    kinds = ("fork", "copy")
    op = False    # True: read in C^op, where a fiber's two-wire end is its left end

    def match(self, ev, term, inst, backward, gates):
        old, new = self.kinds[::-1] if backward else self.kinds
        _want(isinstance(term, Gen) and term.kind == old,
              f"{self.name} {'backward' if backward else 'forward'} expects a {old}")
        mon = _monoidal(ev, term.args[0], self.op, "cartesian")
        c, w = mon.base, mon.cartesian
        new_term = Gen(new, term.args, term.label)
        if backward:
            return NodeOutcome(new_term, lambda ev, fiber, value: w.pairing[value])
        end = 0 if self.op else 1

        def tf(ev, fiber, value):
            m, n = split_obj(c, fiber[end])
            return (c.compose(value, w.proj1[(m, n)]),
                    c.compose(value, w.proj2[(m, n)]))

        return NodeOutcome(new_term, tf)


class CocartJunction(CartFork):
    """junction <=> merge over a cocartesian oracle: R-CART-FORK in C^op."""
    name = "R-COCART-JUNCTION"
    kinds = ("junction", "merge")
    op = True


class CartCounit(Rule):
    """outport(I) <=> discard over a cartesian oracle (I terminal)."""
    name = "R-CART-COUNIT"
    site = "node"
    kinds = ("outport", "unit-out", "discard")
    op = False    # True: read in C^op, where a fiber's wire end is its right end

    def match(self, ev, term, inst, backward, gates):
        port, unit, gen = self.kinds
        if backward:
            _want(isinstance(term, Gen) and term.kind == gen,
                  f"{self.name} backward expects a {gen}")
            w = _monoidal(ev, term.args[0], self.op, "cartesian").cartesian
            end = 1 if self.op else 0
            return NodeOutcome(Gen(unit, term.args, term.label),
                               lambda ev, fiber, value: w.terminal[fiber[end]])
        _want(isinstance(term, Gen) and term.kind in (port, unit),
              f"{self.name} forward expects a unit {port}")
        catsym = (obj_expr_cat(term.args[0], ev.sig) if term.kind == port
                  else term.args[0])
        mon = _monoidal(ev, catsym, self.op, "cartesian")
        _read_at(ev, gates, (term,), lambda ev: _want(
            ev.env.functor_of(term).obj(0) == mon.unit, f"{self.name} needs the unit object"),
            check=True)
        return NodeOutcome(Gen(gen, (catsym,), term.label), lambda ev, fiber, value: "*")


class CocartUnit(CartCounit):
    """inport(I) <=> codiscard over a cocartesian oracle (I initial):
    R-CART-COUNIT in C^op."""
    name = "R-COCART-UNIT"
    kinds = ("inport", "unit-in", "codiscard")
    op = True


class Sym(Rule):
    """Slide the braiding through junctions, forks and ports; cancel a
    double crossing."""
    name = "R-SYM"

    def match(self, ev, parts, i, inst, backward, gates):
        if backward:
            return self._backward(ev, parts, i, inst)
        for op in (False, True):
            out = self._slide(ev, parts, i, op)
            if out is not None:
                return out
        p1, p2 = _window(parts, i, 2, False)
        # (par of sources ; sym) => par swapped
        if (isinstance(p1, Par) and isinstance(p2, Gen) and p2.kind == "sym"):
            a, b = p1.top, p1.bottom
            _want(boundary(a, ev.sig)[0] == boundary(b, ev.sig)[0] == (),
                  "R-SYM port slide needs source legs")

            def tf(ev, vals, fibers, lobj, robj):
                (fa, va), (fb, vb) = ev.node(p1).split_value(fibers[0], vals[0])
                (u, v) = vals[1]
                pa, pb = ev.node(a), ev.node(b)
                va2 = pa.act(pa.source.identity(fa[0]), u, va)
                vb2 = pb.act(pb.source.identity(fb[0]), v, vb)
                return ([par_value(ev, b, vb2, a, va2)], [])

            return SliceOutcome(2, (par(b, a),), tf, inverse_inst={"config": "par"})
        # (sym ; sym) cancels
        if (isinstance(p1, Gen) and p1.kind == "sym" and isinstance(p2, Gen)
                and p2.kind == "sym"):
            _want(p1.args == (p2.args[1], p2.args[0]),
                  "R-SYM cancellation needs opposite crossings")
            c1, c2 = map(ev.env.wire_cat, p1.args)

            def tf(ev, vals, fibers, lobj, robj):
                (u, v), (v2, u2) = vals
                return ([join_mors([(c1, c1.compose(u, u2)), (c2, c2.compose(v, v2))])], [])

            return SliceOutcome(2, (Id(p1.args),), tf,
                                inverse_inst={"config": "cancel"})
        raise MatchError("R-SYM does not match this site")

    def _slide(self, ev, parts, i, op, backward=False):
        """(sym ; junction) <=> junction, precomposing the braiding; in C^op,
        (fork ; sym) <=> fork, postcomposing it.  None if the site is neither.
        sym(a, b) read in C^op is sym(b, a), so there its value's two
        components swap."""
        gen = "fork" if op else "junction"
        if backward:
            p = _part(parts, i)
            _want(isinstance(p, Gen) and p.kind == gen,
                  f"backward R-SYM ({gen}) expects a {gen}")
        else:
            s, p = _window(parts, i, 2, op)
            if not (isinstance(s, Gen) and s.kind == "sym" and isinstance(p, Gen)
                    and p.kind == gen):
                return None
            _want(s.args[0] == s.args[1] == Wire(p.args[0]),
                  f"R-SYM wires must match the {gen}")
        mon = _monoidal(ev, p.args[0], op, "braiding")
        c, w = mon.base, Wire(p.args[0])
        if backward:
            def tf(ev, vals, fibers, lobj, robj):
                m, n = split_obj(c, lobj)
                e = (c.identity(m), c.identity(n))
                return ([e[::-1] if op else e, c.compose(mon.braid(n, m), vals[0])],
                        [join_objs([(c, n), (c, m)])])

            return _read_back(SliceOutcome(1, (Gen("sym", (w, w)), p), tf), op)

        def tf(ev, vals, fibers, lobj, robj):
            (u, v), j = vals
            u, v = (v, u) if op else (u, v)
            m, n = split_obj(c, fibers[0][0])
            return ([c.compose(mon.braid(m, n), c.compose(mon.tensor_m(v, u), j))], [])

        return _read_back(SliceOutcome(2, (p,), tf, inverse_inst={"config": gen}), op)

    def _backward(self, ev, parts, i, inst):
        config = inst.get("config")
        if config in ("junction", "fork"):
            return self._slide(ev, parts, i, config == "fork", backward=True)
        if config == "par":
            p = _part(parts, i)
            _want(isinstance(p, Par), "backward R-SYM (par) expects a par")
            b, a = p.top, p.bottom
            wa = boundary(a, ev.sig)[1]
            wb = boundary(b, ev.sig)[1]
            _want(len(wa) == 1 and len(wb) == 1, "one output wire per leg")
            ca, cb = ev.env.wire_cat(wa[0]), ev.env.wire_cat(wb[0])

            def tf(ev, vals, fibers, lobj, robj):
                (fb, vb), (fa, va) = ev.node(p).split_value(fibers[0], vals[0])
                mid = join_objs([(ca, fa[1]), (cb, fb[1])])
                return ([par_value(ev, a, va, b, vb),
                         (ca.identity(fa[1]), cb.identity(fb[1]))], [mid])

            return SliceOutcome(1, (par(a, b), Gen("sym", (wa[0], wb[0]))), tf)
        if config == "cancel":
            wires = _slice_wires(ev.sig, parts, i)
            _want(len(wires) == 2, "R-SYM cancellation insertion needs two wires")
            w1, w2 = wires
            c1, c2 = ev.env.wire_cat(w1), ev.env.wire_cat(w2)

            def tf(ev, vals, fibers, lobj, robj):
                x, y = split_obj(c2, lobj)
                mid = join_objs([(c2, y), (c1, x)])
                return ([(c1.identity(x), c2.identity(y)),
                         (c2.identity(y), c1.identity(x))], [mid])

            return SliceOutcome(0, (Gen("sym", (w1, w2)), Gen("sym", (w2, w1))), tf)
        raise MatchError("backward R-SYM needs a config instantiation")


class LaxCopy(Rule):
    """A pointwise source is laxly copied through the canonical copy."""
    name = "R-LAX-COPY"
    tag = "directed"
    kinds = ("copy",)
    op = False    # True: read in C^op, a sink merged through the canonical merge

    def match(self, ev, parts, i, inst, backward, gates):
        op, (gen,) = self.op, self.kinds
        t, g = _window(parts, i, 2, op)
        _want(isinstance(g, Gen) and g.kind == gen,
              f"{self.name} expects a {gen} {'first' if op else 'second'}")
        lb, rb = _ends(t, ev.sig, op)
        _want(lb == () and len(rb) == 1,
              f"{self.name} needs a one-wire {'sink' if op else 'source'} leg")

        def tf(ev, vals, fibers, lobj, robj):
            v, (f1, f2) = vals
            prof = _prof(ev, t, op)
            z = prof.source.identity(0)
            return ([(prof.act(z, f1, v), prof.act(z, f2, v))], [])

        return _read_back(SliceOutcome(2, (par(t, t),), tf), op)


class LaxMerge(LaxCopy):
    """Dual lax structure: a pointwise sink is laxly merged, R-LAX-COPY in
    C^op."""
    name = "R-LAX-MERGE"
    kinds = ("merge",)
    op = True


class LaxDiscard(Rule):
    """A pointwise source is discarded; in C^op, a sink codiscarded."""
    name = "R-LAX-DISCARD"
    tag = "directed"

    def match(self, ev, parts, i, inst, backward, gates):
        for op, gen in ((False, "discard"), (True, "codiscard")):
            t, g = _window(parts, i, 2, op)
            if isinstance(g, Gen) and g.kind == gen and _ends(t, ev.sig, op)[0] == ():
                return SliceOutcome(
                    2, (Id(()),), lambda *_: ([terminal_category().identity(0)], []))
        raise MatchError("R-LAX-DISCARD expects a source into a discard "
                         "or a codiscard into a sink")


class ZigzagCup(Rule):
    """The snake on a forward wire: (id | cap) ; (cup | id) collapses."""
    name = "R-ZIGZAG-CUP"
    kinds = ("cap", "cup")
    op = False    # True: read in C^op, where the snake's wire is a dual one

    def match(self, ev, parts, i, inst, backward, gates):
        op, (k1, k2) = self.op, self.kinds
        if backward:
            wires = _slice_wires(ev.sig, parts, i)
            _want(len(wires) == 1 and wires[0].op == op,
                  f"backward {self.name} needs a single "
                  f"{'dual' if op else 'forward'} wire")
            (w,), catsym = wires, wires[0].cat
            rep = (par(Id((w,)), Gen(k1, (catsym,))),
                   par(Gen(k2, (catsym,)), Id((w,))))
            c = ev.env.cats[catsym]

            def tf(ev, vals, fibers, lobj, robj):
                mid = join_objs([(c, lobj)] * 3)  # on w, its dual, w: each has c's objects
                e = c.identity(lobj)
                return ([(e, e), (e, e)], [mid])

            return _read_back(SliceOutcome(0, rep, tf), op)
        q1, q2 = _window(parts, i, 2, op)

        def column(q, kind, gen_below):
            """q is (id | kind), or (kind | id), on one wire of the reading."""
            if not isinstance(q, Par):
                return False
            idt, g = (q.top, q.bottom) if gen_below else (q.bottom, q.top)
            return (is_plain_id(idt) and len(idt.wires) == 1 and idt.wires[0].op == op
                    and isinstance(g, Gen) and g.kind == kind)

        found = [(column(q1, k1, True), f"(id | {k1})"),
                 (column(q2, k2, False), f"({k2} | id)")]
        for (ok, pattern), place in zip(found[::-1] if op else found,
                                        ("first", "second")):
            _want(ok, f"{self.name} expects {pattern} {place}")
        catsym = q1.bottom.args[0]
        _want(q1.top.wires[0].cat == catsym == q2.top.args[0],
              f"{self.name} wires must agree")
        # in either reading the snake's wire is a forward one, over C
        c = ev.env.cats[catsym]

        def tf(ev, vals, fibers, lobj, robj):
            (f, cel), (uel, v) = vals
            return ([c.compose_chain(f, uel, cel, v)], [])

        # the snake collapses to its own identity wire
        return _read_back(SliceOutcome(2, (q1.top,), tf, inverse_inst={}), op)


class ZigzagCap(ZigzagCup):
    """The snake on a dual wire: (cap | id) ; (id | cup) collapses,
    R-ZIGZAG-CUP in C^op."""
    name = "R-ZIGZAG-CAP"
    kinds = ("cup", "cap")
    op = True


class FunctorFuse(Rule):
    """Consecutive functor boxes fuse to the composite functor."""
    name = "R-FUNCTOR-FUSE"
    functor_keys = ((), ("F", "G"))

    def match(self, ev, parts, i, inst, backward, gates):
        if backward:
            t = _part(parts, i)
            _want(isinstance(t, Gen) and t.kind == "box",
                  "backward R-FUNCTOR-FUSE expects a functor box")
            _want("F" in inst and "G" in inst,
                  "backward R-FUNCTOR-FUSE needs F and G")
            ef, eg = inst["F"], inst["G"]
            fused = ev.env.resolve_functor(("fcomp", ef, eg))
            given = ev.env.resolve_functor(t.args[0])
            _want(fused.obj_map == given.obj_map and fused.mor_map == given.mor_map,
                  "instantiation does not compose to the fused functor")
            fnF = ev.env.resolve_functor(ef)
            d = fnF.target

            def tf(ev, vals, fibers, lobj, robj):
                fx = fnF.obj(fibers[0][0])
                return ([d.identity(fx), vals[0]], [fx])

            return SliceOutcome(1, (Gen("box", (ef,)), Gen("box", (eg,))), tf)
        p1, p2 = _part(parts, i), _part(parts, i + 1)
        _want(isinstance(p1, Gen) and p1.kind == "box"
              and isinstance(p2, Gen) and p2.kind == "box",
              "R-FUNCTOR-FUSE expects two functor boxes")
        _want(functor_expr_sig(p1.args[0], ev.sig)[1]
              == functor_expr_sig(p2.args[0], ev.sig)[0],
              "functor boxes are not composable")
        fnG = ev.env.resolve_functor(p2.args[0])
        e = fnG.target

        def tf(ev, vals, fibers, lobj, robj):
            u, v = vals
            return ([e.compose(fnG.mor(u), v)], [])

        return SliceOutcome(2, (Gen("box", (("fcomp", p1.args[0], p2.args[0]),)),), tf,
                            inverse_inst={"F": p1.args[0], "G": p2.args[0]})


RULES = {r.name: r for r in [
    YonedaL(), YonedaR(), Assoc(), Interchange(), PortFuse(),
    AdjunctionUnit("R-ETA-A", ("inport", "outport"), "A", "an object A"),
    AdjunctionCounit("R-EPS-A", ("inport", "outport"), "outport then inport",
                     "ports disagree on the object"),
    AdjunctionUnit("R-ETA-TENSOR", ("junction", "fork")),
    AdjunctionCounit("R-EPS-TENSOR", ("junction", "fork"), "fork then junction"),
    CartFork(), CartCounit(), CocartJunction(), CocartUnit(),
    Sym(), LaxCopy(), LaxMerge(), LaxDiscard(),
    ZigzagCup(), ZigzagCap(), FunctorFuse(),
    AdjunctionUnit("R-FUNCTOR-ADJ-ETA", ("box", "cobox"), "F", "a functor F"),
    AdjunctionCounit("R-FUNCTOR-ADJ-EPS", ("box", "cobox"),
                     "cobox then box of one functor"),
]}



# ---------------------------------------------------------------------------
# derivations and the checker


class Derivation:
    def __init__(self, name, shape, steps=None, obligations=None):
        self.name = name
        self.shape = shape
        self.steps = [] if steps is None else steps
        # (first, last), 1-based
        self.obligations = [] if obligations is None else obligations


class PointDecl(NamedTuple):
    name: str
    shape: str
    assignment: dict


class AssertDecl(NamedTuple):
    left: str
    right: str
    via: str  # derivation name, or "-" for the empty deformation


class DerivationScript(NamedTuple):
    main: Derivation
    named: dict
    points: list
    asserts: list


def _fiber_members(prof):
    """All raw index elements of an evaluated term, grouped per class and
    per non-empty fiber: {(a, b): {rep: [raw elements]}}."""
    return {(a, b): prof.members(a, b) for a in prof.source.objects for b in prof.support(a)}


def _count(prof):
    return sum(len(prof.fiber(a, b)) for a in prof.source.objects for b in prof.support(a))


def check_step(ev: Evaluator, term, step: Step, report: Report, idx):
    """Apply and semantically verify one step under the assignment `ev`
    evaluates.  Returns (new term, class map {fiber: {src rep: dst rep}})
    or None on failure.  The map holds every non-empty fiber of the source
    and every class of it, in fiber order: obligations and the demos'
    composites read them there."""
    def fail(text):
        report.fail(f"step {idx} {step.rule}: {text}")

    try:
        new_term, transport, inv_inst = apply_step(term, step, ev)
    except STEP_ERRORS as e:
        return fail(e)
    src, dst = ev.node(term), ev.node(new_term)
    fwd = {}
    for fiber, groups in _fiber_members(src).items():
        dst_fiber = set(dst.fiber(*fiber))
        fmap = fwd[fiber] = {}
        for rep, members in groups.items():
            images = set()
            for m in members:
                try:
                    images.add(transport(fiber, m))
                except CHECK_ERRORS as e:
                    return fail(f"action failed on a representative at fiber {fiber}: {e}")
            if len(images) != 1:
                return fail(f"not well-defined on the class of {src.render(rep)} "
                            f"at fiber {fiber}")
            img = fmap[rep] = images.pop()
            if img not in dst_fiber:
                return fail(f"image outside the target set at fiber {fiber} "
                            f"(internal consistency failure)")
    note = ""
    if RULES[step.rule].tag == "iso":
        # the syntactic inverse exists unless the rewrite dissolved the
        # structure enclosing the site (for example a snake whose parallel
        # wrapper merged into an identity); bijectivity is still enforced
        inv_step = Step(step.rule, step.path, not step.backward, inv_inst)
        try:
            back_term, back_tr, _ = apply_step(new_term, inv_step, ev)
            if strip_labels(back_term) is not strip_labels(term):
                back_tr = None
        except (PathError, MatchError):
            back_tr = None
        except STEP_ERRORS as e:
            return fail(f"inverse application failed: {e}")
        if back_tr is None:
            note = " (inverse site collapsed; bijectivity verified)"
        for a in dst.source.objects:
            for b in dst.support(a):
                if (a, b) not in fwd:
                    return fail(f"not a bijection at fiber {(a, b)} (source side is empty)")
        for fiber, fmap in fwd.items():
            dst_reps = list(dst.fiber(*fiber))
            if len(fmap) != len(dst_reps) or set(fmap.values()) != set(dst_reps):
                return fail(f"not a bijection at fiber {fiber} ({len(set(fmap.values()))} "
                            f"of {len(dst_reps)} classes hit)")
            if back_tr is None:
                continue
            try:
                # fmap is a bijection onto dst_reps: every class of the
                # target has its backward image in `back`
                back = {}
                for rep, img in fmap.items():
                    back[img] = back_tr(fiber, img)
                    if back[img] != rep:
                        return fail(f"backward(forward) is not the identity on "
                                    f"{src.render(rep)}")
                for drep in dst_reps:
                    if transport(fiber, back[drep]) != drep:
                        return fail(f"forward(backward) is not the identity on "
                                    f"{dst.render(drep)}")
            except CHECK_ERRORS as e:
                return fail(f"inverse action failed on a representative at fiber {fiber}: {e}")
    # a step is a 2-cell: its class map commutes with the action of each
    # generator into the source end or out of the target end of a fiber
    s_cat, t_cat = src.source, src.target
    for (a, b), fmap in fwd.items():
        ida, idb = s_cat.identity(a), t_cat.identity(b)
        edges = [(s_cat.mor_name(f), f, idb) for f in s_cat.generators if s_cat.cod(f) == a]
        edges += [(t_cat.mor_name(g), ida, g) for g in t_cat.generators if t_cat.dom(g) == b]
        for name, f, g in edges:
            to = fwd[(s_cat.dom(f), t_cat.cod(g))]
            if any(to[src.act(f, g, v)] != dst.act(f, g, w) for v, w in fmap.items()):
                return fail(f"not natural at fiber {(a, b)} along {name}")
    report.line(f"  step {idx} {step.rule} ok: classes {_count(src)} -> "
                f"{_count(dst)}{note}")
    return new_term, fwd


def check_derivation_once(deriv: Derivation, ev: Evaluator, report: Report):
    """Run all steps and obligations of one derivation that the pre-sweep
    pass kept, under the full object assignment that `ev` evaluates.
    Returns (terms, per-step class maps) or None."""
    terms = [ev.sig.shapes[deriv.shape]]
    maps = []
    for idx, step in enumerate(deriv.steps, 1):
        out = check_step(ev, terms[-1], step, report, idx)
        if out is None:
            return None
        terms.append(out[0])
        maps.append(out[1])
    for (first, last) in deriv.obligations:
        t0, t1 = terms[first - 1], terms[last]
        if strip_labels(t0) is not strip_labels(t1):
            return report.fail(f"obligation {first}..{last}: terms differ, composite "
                               f"cannot be an identity")
        moved = next(((fiber, rep) for fiber, fmap in maps[first - 1].items()
                      for rep in fmap
                      if functools.reduce(lambda v, k: maps[k][fiber][v],
                                          range(first - 1, last), rep) != rep), None)
        if moved:
            report.fail(f"obligation {first}..{last}: composite moves "
                        f"{ev.node(t0).render(moved[1])} at fiber {moved[0]}")
        else:
            report.line(f"  obligation identity {first}..{last} ok")
    return terms, maps


def script_object_symbols(script: DerivationScript, sig):
    """Object symbols used by any shape a script touches (others are not
    swept)."""
    decls = list(script.named.values()) + ([script.main] if script.main else []) + script.points
    return set().union(*(objects_in(sig.shapes[d.shape]) for d in decls if d.shape in sig.shapes))


def check_assignments(script: DerivationScript, sig, env: Env, report: Report,
                      epilogue=None):
    """Check every derivation of the script over every assignment of the
    free object symbols, then the point assertions, with one evaluator for
    the sweep.  `epilogue(report, ev, terms, maps)` runs after each main
    derivation that checks, with the evaluator at that assignment."""
    only = script_object_symbols(script, sig)
    # the pre-sweep plans steps in the sweep's evaluator, whose plans every
    # assignment reads
    ev = Evaluator(env, env.free_objects(only))
    derivs, points, asserts = _presweep(script, sig, ev, report)
    if not (derivs or points or asserts):
        return
    for env_a in env.assignments(only=only):
        ev.at(env_a)
        desc = ev.env.describe_objs()
        report.line(f"assignment: {desc}" if desc else "assignment: (none)")
        for name, deriv in derivs:
            report.line(f" derivation {name} from {deriv.shape}:")
            out = check_derivation_once(deriv, ev, report)
            if out is not None and name == "main" and epilogue:
                epilogue(report, ev, *out)
        _check_points(points, asserts, ev, report)


def _presweep(script: DerivationScript, sig, ev: Evaluator, report: Report):
    """Report once, before the sweep, each failure that reads no assignment:
    a derivation's shape, step instantiations (an object symbol among them
    that no assignment assigns included), obligation ranges and the
    first step whose plan the term alone fails, with no check among the
    gates at it or before it (the derivation is reported whole, under its
    header, once the bindings are known to carry its shape), a
    point's shape, labels and names, an assert-equal's points and
    deformation.  `ev` is the sweep's evaluator, at no assignment yet.
    Returns what is left to sweep: the derivations as (name, Derivation),
    the points as (name, shape, resolve_names' output) and the
    assert-equals as (AssertDecl, deformation steps)."""
    derivs, refused = [], set()
    assigned = ev.env.objs.keys() | script_object_symbols(script, sig)
    for name, deriv in (list(script.named.items())
                        + ([("main", script.main)] if script.main else [])):
        fails, shape = [], None
        if deriv.shape not in sig.shapes:
            fails.append(f"unknown shape {deriv.shape!r}")
        else:
            try:
                boundary(sig.shapes[deriv.shape], sig)
                shape = sig.shapes[deriv.shape]
            except ShapeTypeError as e:
                fails.append(f"shape {deriv.shape} does not typecheck: {e}")
        for idx, step in enumerate(deriv.steps, 1):
            try:
                check_instantiation(step, sig, assigned)
            except RewriteError as e:
                fails.append(f"step {idx} {step.rule}: {e}")
        fails += [f"obligation {first}..{last} out of range" for first, last in deriv.obligations
                  if not 1 <= first <= last <= len(deriv.steps)]
        term = None if fails else shape
        for idx, step in enumerate(deriv.steps if term else (), 1):
            # a check reads the assignment and can fail first: from the
            # first plan with one on, a failure is the sweep's to report
            plan = plan_step(term, step, ev)
            if any(check for _, check in plan.gates):
                break
            if plan.error is not None:
                # a binding that cannot carry the step may not carry the
                # shape either, which the sweep refuses as malformed input
                if isinstance(plan.error, (RewriteError, ShapeTypeError)):
                    fails.append(f"step {idx} {step.rule}: {plan.error}")
                break
            term = plan.outcome.term
        if fails:
            if shape is not None:
                _require_bindings(shape, ev)
            refused.add(name)
            report.line(f" derivation {name} from {deriv.shape}:")
            for text in fails:
                report.fail(text)
        else:
            derivs.append((name, deriv))
    points = []
    for decl in script.points:
        try:
            if decl.shape not in sig.shapes:
                raise PointError(f"unknown shape {decl.shape!r}")
            shape = sig.shapes[decl.shape]
            points.append((decl.name, shape,
                           pointed.resolve_names(ev.env, shape, decl.assignment)))
        except CHECK_ERRORS as e:
            report.fail(f"point {decl.name}: {e}")
    asserts = []
    for a in script.asserts:
        if not {a.left, a.right} <= {name for name, _, _ in points}:
            report.fail(f"assert-equal: unknown point {a.left} or {a.right}")
        elif a.via != "-" and a.via not in script.named:
            report.fail(f"assert-equal: unknown derivation {a.via!r}")
        else:
            steps = [] if a.via == "-" else script.named[a.via].steps
            try:
                pointed.check_deformation(steps, sig)
                if a.via in refused:
                    raise RewriteError(f"derivation {a.via!r} is refused")
                asserts.append((a, steps))
            except RewriteError as e:
                report.fail(f"assert-equal {a.left} {a.right}: {e}")
    return derivs, points, asserts


def _require_bindings(term, ev: Evaluator):
    """Raise what the sweep's first evaluation of `term` raises when the
    bindings lack a structure or a named profunctor that one of its leaves
    needs, so that malformed input is refused as such before a step is:
    each generator leaf is built at the sweep's first assignment, by an
    evaluator of its own."""
    first = next(ev.env.assignments(only=ev.free), None)
    if first is not None:
        probe = Evaluator(first)
        for _, leaf in leaves(term):
            if isinstance(leaf, Gen):
                probe.node(leaf)


def check_derivation(script: DerivationScript, sig, env: Env,
                     fail_fast=False) -> Report:
    """The report of check_assignments, ending in the result line."""
    report = Report(fail_fast)
    try:
        check_assignments(script, sig, env, report)
    except CheckAborted:
        pass
    return report.finish()


def _check_points(points, asserts, ev, report):
    """The points and assert-equals that _presweep kept, at ev's assignment."""
    diagrams = {}
    for name, shape, resolved in points:
        try:
            d = pointed.OpenDiagram.from_values(ev, shape,
                                                pointed.read_symbols(ev.env, resolved))
        except CHECK_ERRORS as e:
            report.fail(f"point {name}: {e}")
            continue
        diagrams[name] = d
        report.line(f"  point {name}: {d.describe()}")
    for a, deformation in asserts:
        if a.left not in diagrams or a.right not in diagrams:
            report.fail(f"assert-equal: unknown point {a.left} or {a.right}")
            continue
        try:
            eq = pointed.equal_up_to(diagrams[a.left], diagrams[a.right], deformation, ev)
        except CHECK_ERRORS as e:
            report.fail(f"assert-equal {a.left} {a.right}: {e}")
            continue
        if eq:
            report.line(f"  assert-equal {a.left} {a.right} via {a.via} ok")
        else:
            report.fail(f"assert-equal {a.left} {a.right} via {a.via}: points differ")


# ---------------------------------------------------------------------------
# derivation script parsing


def _parse_path(text):
    """A path is `root` or non-negative child indices joined by dots."""
    if text == "root":
        return ()
    parts = text.split(".")
    if not all(p.isdecimal() for p in parts):
        raise RewriteError(f"bad path {text!r}")
    return tuple(map(int, parts))


def _split_top_commas(body):
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur and "".join(cur).strip():
        parts.append("".join(cur))
    return parts


def _parse_inst_value(text, sig):
    from .shapelang import read_sexprs, _parse_obj_expr, _parse_functor_expr
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if text.startswith("("):
        forms = read_sexprs(text)
        if len(forms) != 1:
            raise RewriteError(f"instantiation {text!r} is not one value")
        (form,) = forms
        if isinstance(form, list) and form and form[0] in ("tensor", "unit"):
            return _parse_obj_expr(form, sig)
        if isinstance(form, list) and form and form[0] == "fcomp":
            return _parse_functor_expr(form, sig)
        return _sexp_tuple(form)
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    return text


def _sexp_tuple(form):
    if isinstance(form, list):
        return tuple(_sexp_tuple(x) for x in form)
    if isinstance(form, tuple) and form[0] == "str":
        return form[1]
    return form


def _parse_bindings(text, sig):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise RewriteError(f"bindings must be braced: {text!r}")
    out = {}
    for item in _split_top_commas(text[1:-1]):
        if not item.strip():
            continue
        if ":=" not in item:
            raise RewriteError(f"binding {item!r} needs ':='")
        k, v = item.split(":=", 1)
        out[k.strip()] = _parse_inst_value(v, sig)
    return out


def _parse_step_line(rest, sig):
    toks = rest.split(None, 2)
    if len(toks) < 3 or toks[1] != "at":
        raise RewriteError(f"malformed step line: step {rest!r}")
    rule, _, tail = toks
    inst = {}
    if tail.endswith("}") and " with " in tail:
        tail, bindings = tail.split(" with ", 1)
        inst = _parse_bindings(bindings, sig)
    words = tail.split()
    if words == ["backward"]:
        raise RewriteError("step needs a path before 'backward'")
    path = _parse_path(words[0])
    backward = words[1:] == ["backward"]
    if len(words) > 1 + backward:
        raise RewriteError(f"unexpected token after path: {tail.strip()!r}")
    return Step(rule, path, backward, inst)


def load_derivation_script(text, read_shapes):
    """Parse a derivation script together with the shape script named on
    its `use` line; read_shapes(name) returns that script's text.  Returns
    (signature, script)."""
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if line.startswith("use "):
            sig = parse_shape_script(read_shapes(line[4:].strip()))
            return sig, parse_derivation_script(text, sig)
    raise RewriteError("derivation script has no 'use' line")


def parse_derivation_script(text, sig) -> DerivationScript:
    main = None
    named = {}
    points = []
    asserts = []
    current = None  # a named derivation being filled
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "use":
            pass  # read by load_derivation_script
        elif head == "derive":
            if main is not None:
                raise RewriteError("only one main derivation per script")
            main = Derivation("main", rest)
            current = main
        elif head == "derivation":
            toks = rest.split()
            if len(toks) != 3 or toks[1] != "from":
                raise RewriteError(f"malformed derivation header: {line!r}")
            current = Derivation(toks[0], toks[2])
            named[toks[0]] = current
        elif head == "end":
            current = main
        elif head == "step":
            if current is None:
                raise RewriteError("step before any 'derive' or 'derivation'")
            current.steps.append(_parse_step_line(rest, sig))
        elif head == "obligation":
            toks = rest.split()
            if len(toks) != 3 or toks[0] != "identity":
                raise RewriteError(f"malformed obligation: {line!r}")
            if current is None:
                raise RewriteError("obligation before any derivation")
            try:
                current.obligations.append((int(toks[1]), int(toks[2])))
            except ValueError:
                raise RewriteError(f"malformed obligation: {line!r}") from None
        elif head == "point":
            name, _, tail = rest.partition(" ")
            shape, _, braced = tail.strip().partition(" ")
            assignment = _parse_bindings(braced.strip(), sig) if braced.strip() else {}
            points.append(PointDecl(name, shape, assignment))
        elif head == "assert-equal":
            toks = rest.split()
            if len(toks) != 4 or toks[2] != "via":
                raise RewriteError(f"malformed assert-equal: {line!r}")
            asserts.append(AssertDecl(toks[0], toks[1], toks[3]))
        else:
            raise RewriteError(f"unknown directive {head!r}")
    if main is None and not named:
        raise RewriteError("script declares no derivation")
    return DerivationScript(main, named, points, asserts)


# pointed builds on this module, and every check reads its points through
# it: imported last, so that loading rewrite loads all that a check runs
from . import pointed  # noqa: E402
