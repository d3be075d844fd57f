"""Open diagrams: shapes carrying a chosen element, tracked through
rewrites.

A point is a canonical coend class of the evaluated shape, built by
assigning elements to the generator leaves and folding.  Lifting a rewrite
step transports the point along the step's semantic action; forgetting the
point commutes with rewriting on shapes.
"""

from __future__ import annotations

from typing import NamedTuple

from .fincat import FixtureError, join_mors, join_objs, split_obj
from .profunctor import companion, conjoint, render_generic
from .rewrite import (PointError, RewriteError, apply_step, build_seq_value,
                      check_instantiation)
from .shapelang import (KINDS, Evaluator, Id, Par, Seq, Wire, boundary,
                        functor_expr_sig, leaves, obj_expr_cat, print_term,
                        relabel, seq, strip_labels)


class OpenDiagram(NamedTuple):
    shape: object
    fiber: tuple      # (source object, target object) of the evaluated shape
    point: object     # canonical class representative

    @staticmethod
    def from_values(ev: Evaluator, shape, assignment):
        """Build from resolved leaf values: {label: value} or
        {label: (value, right objects tuple)}.  A leaf's right object is that
        of the fiber of its profunctor that holds the value; the extra
        objects, one per right wire, pin fibers that the value alone does not
        determine (forks, coboxes, codiscards, named leaves).

        The left fiber object is the one the assigned values pin uniquely
        (the only one when the left boundary is empty)."""
        return _point(ev, shape, assignment)

    @staticmethod
    def from_fiber(ev: Evaluator, shape, assignment, left_obj):
        return _point(ev, shape, assignment, left_obj)

    @staticmethod
    def from_names(ev: Evaluator, shape, named_assignment):
        """Build from script-level value specs (morphism names, (pair ..),
        (split f M N), (mor f X), *)."""
        resolved = resolve_names(ev.env, shape, named_assignment)
        return _point(ev, shape, read_symbols(ev.env, resolved))

    def describe(self):
        a, b = self.fiber
        return f"point {render_generic(self.point)} at fiber ({a},{b})"


def forget(d: OpenDiagram):
    return d.shape


def lift(step, d: OpenDiagram, ev: Evaluator) -> OpenDiagram:
    """Transport the point along one rewrite step."""
    new_shape, transport, _ = apply_step(d.shape, step, ev)
    return OpenDiagram(new_shape, d.fiber, transport(d.fiber, d.point))


def lift_many(steps, d: OpenDiagram, ev: Evaluator) -> OpenDiagram:
    for step in steps:
        d = lift(step, d, ev)
    return d


def equal_up_to(d1: OpenDiagram, d2: OpenDiagram, deformation,
                ev: Evaluator) -> bool:
    """Transport d1's point along an all-iso derivation from d1's shape and
    compare with d2's point.  Equality of open diagrams is only defined
    relative to the supplied deformation."""
    check_deformation(deformation, ev.sig)
    d = lift_many(deformation, d1, ev)
    if strip_labels(d.shape) is not strip_labels(d2.shape):
        raise PointError(
            "deformation does not reach the target shape: "
            f"{print_term(d.shape)} vs {print_term(d2.shape)}")
    if d.fiber != d2.fiber:
        return False
    return d.point == d2.point


def check_deformation(deformation, sig):
    """Raise the RewriteError of a deformation step that is refused or directed."""
    for step in deformation:
        rule = check_instantiation(step, sig)
        if rule.tag != "iso":
            raise RewriteError(
                f"deformations must be invertible; {rule.name} is directed")


def embed(ev: Evaluator, catsym, mor, label="w") -> OpenDiagram:
    """A base-category morphism as the pointed hom diagram."""
    shape = Id((Wire(catsym),), label)
    return _point(ev, shape, {label: mor}, ev.env.cats[catsym].dom(mor))


def compose_open(d1: OpenDiagram, d2: OpenDiagram, ev: Evaluator) -> OpenDiagram:
    """Sequential composition of open diagrams; the point is the class of
    the pair of points."""
    if d1.fiber[1] != d2.fiber[0]:
        raise PointError("open diagrams do not share a middle object")
    s1 = relabel(d1.shape, lambda x: "l:" + x if x else None)
    s2 = relabel(d2.shape, lambda x: "r:" + x if x else None)
    value = build_seq_value(ev, [(s1, d1.point, *d1.fiber), (s2, d2.point, *d2.fiber)])
    return OpenDiagram(seq((s1, s2)), (d1.fiber[0], d2.fiber[1]), value)


# ---------------------------------------------------------------------------
# point construction


def _point(ev, shape, assignment, left=None):
    """The open diagram of `shape` whose leaves carry `assignment`
    (as OpenDiagram.from_values reads it), at the left fiber object
    `left`, or else at the one the assigned values pin uniquely."""
    if left is not None:
        value, right = _walk(ev, shape, assignment, left)
        return OpenDiagram(shape, (left, right), value)
    hits, last_err = [], None
    for left in ev.env.boundary_cat(boundary(shape, ev.sig)[0]).objects:
        try:
            hits.append(_point(ev, shape, assignment, left))
        except PointError as e:
            last_err = e
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise last_err or PointError("no left fiber object fits the assignment")
    raise PointError("left fiber object is ambiguous; use from_fiber")


def _walk(ev, term, assignment, left_obj):
    if isinstance(term, Seq):
        items = []
        cur = left_obj
        for p in term.parts:
            v, r = _walk(ev, p, assignment, cur)
            items.append((p, v, cur, r))
            cur = r
        return build_seq_value(ev, items), cur
    if isinstance(term, Par):
        prof = ev.node(term)  # a TensorProf: its factors split the fiber's objects
        lt, lb = split_obj(prof.p2.source, left_obj)
        vt, rt = _walk(ev, term.top, assignment, lt)
        vb, rb = _walk(ev, term.bottom, assignment, lb)
        return (vt, vb), join_objs([(prof.p1.target, rt), (prof.p2.target, rb)])
    return _leaf_value(ev, term, assignment, left_obj)


# the kinds whose value does not pin the right object (several x share
# F x, or the fiber ignores x): their points name the right objects
_NEEDS_OBJECTS = ("fork", "cobox", "codiscard", "named")


def _leaf_value(ev, term, assignment, left_obj):
    """The leaf's assigned value (its identity element when unassigned) and
    the right object of the fiber of the leaf's profunctor at `left_obj`
    that holds it; given right objects, one per right wire, name it.  A
    pair that no fiber at `left_obj` holds is read as (value, objects)."""
    rw = boundary(term, ev.sig)[1]  # first: a leaf of no known kind is a type error
    env, name = ev.env, term.label or print_term(term)
    prof = ev.node(term)
    if left_obj not in prof.source.objects:
        raise PointError(f"{name} has no left object {left_obj!r}")
    value, objs = assignment.get(term.label), None
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], (tuple, type(None))) \
            and not any(value in prof.fiber(left_obj, b) for b in prof.support(left_obj)):
        value, objs = value
    if value is None:
        value = _identity_value(env, term, left_obj, name)
    if objs is not None:
        if len(objs) != len(rw):
            raise PointError(f"{name} needs {len(rw)} target object(s)")
        cats = [env.wire_cat(w) for w in rw]
        if not all(o in c.objects for c, o in zip(cats, objs)):
            raise PointError(f"target objects {objs!r} of {name} are not its wires' objects")
        targets = [join_objs(zip(cats, objs))]
    elif getattr(term, "kind", None) in _NEEDS_OBJECTS:
        raise PointError(f"{name} needs a value with its target objects")
    else:
        targets = prof.support(left_obj)
    hits = [b for b in targets if value in prof.fiber(left_obj, b)]
    if not hits:
        raise PointError(f"value for {name} is not in a fiber at "
                         f"{prof.source.obj_name(left_obj)}")
    return value, hits[0]


def _identity_value(env, term, left, name):
    """The element of an unassigned leaf: an identity (at F(left) for a
    companion, one per wire for copy, merge and sym) or the point *."""
    if isinstance(term, Id):
        return env.boundary_cat(term.wires).identity(left)
    kind, denotes = term.kind, KINDS[term.kind].denotes
    if denotes is companion:
        fn = env.functor_of(term)
        return fn.target.identity(fn.obj(left))
    if denotes is conjoint:
        return env.functor_of(term).target.identity(left)
    if kind in ("discard", "codiscard"):
        return "*"
    if kind == "copy":
        return (env.cats[term.args[0]].identity(left),) * 2
    if kind in ("cap", "named"):
        raise PointError(f"{name} needs an assigned value")
    # merge, sym and cup: split the left object over the two left wires
    c1, c2 = map(env.wire_cat, boundary(term, env.sig)[0])
    x, y = split_obj(c2, left)
    return c1.identity(x) if kind == "cup" else (c1.identity(x), c2.identity(y))


# ---------------------------------------------------------------------------
# script-level value specs


def _resolve_obj_name(env, name, catsym):
    if name in env.sig.objects:
        return name   # an object symbol: read_symbols reads it per assignment
    try:
        return env.cats[catsym].obj_id(str(name))
    except FixtureError as e:
        raise PointError(str(e)) from None


def _leaf_catsym(sig, term):
    """The category of the leaf's morphism values: a functor box's values
    are morphisms of the functor's target."""
    if isinstance(term, Id):
        return term.wires[0].cat if term.wires else None
    sort = KINDS[term.kind].sort
    if sort == "object":
        return obj_expr_cat(term.args[0], sig)
    if sort == "wires":
        return term.args[0].cat
    if sort == "functor":
        return functor_expr_sig(term.args[0], sig)[1]
    if sort == "profunctor":
        return None   # a named profunctor's values lie in no category
    return term.args[0]


def resolve_names(env, shape, named_assignment):
    """{label: (value, right objects or None)} from script-level value
    specs, with object symbols left as names: it reads no assignment, so
    it fails only on what the bindings decide, whatever the assignment
    (leaf labels, spec forms, morphism names and other object names)."""
    by_label = {leaf.label: leaf for _, leaf in leaves(shape) if getattr(leaf, "label", None)}
    out = {}
    for label, spec in named_assignment.items():
        if label not in by_label:
            raise PointError(f"no leaf labelled {label!r} in the shape")
        out[label] = _resolve_spec(env, by_label[label], spec)
    return out


def read_symbols(env, resolved):
    """resolve_names' output with each object symbol read under `env`'s
    assignment."""
    return {label: (value, objs and tuple(
                env.resolve_obj(o) if isinstance(o, str) else o for o in objs))
            for label, (value, objs) in resolved.items()}


def _resolve_spec(env, leaf, spec):
    catsym = _leaf_catsym(env.sig, leaf)

    def mor(name, cs=None):
        cs = cs or catsym
        if cs is None:
            raise PointError(f"cannot resolve morphism {name!r} without a category")
        return env.cats[cs].mor_id(str(name))

    if spec == "*":
        return ("*", None)
    if isinstance(spec, tuple):
        head = spec[0] if spec else None
        arity = {"pair": len(leaf.wires) if isinstance(leaf, Id) else 2,
                 "split": 3, "mor": 2}.get(head)
        if arity is None:
            raise PointError(f"unknown value spec {spec!r}")
        if len(spec) != arity + 1:
            raise PointError(f"({head} ...) takes {arity} argument(s)")
        if head == "pair":
            if isinstance(leaf, Id):
                return (join_mors([(env.wire_cat(w), mor(n, w.cat))
                                   for n, w in zip(spec[1:], leaf.wires)]), None)
            if leaf.kind == "sym":
                return ((mor(spec[1], leaf.args[0].cat),
                         mor(spec[2], leaf.args[1].cat)), None)
            return ((mor(spec[1]), mor(spec[2])), None)
        # (split f M N) and (mor f X): one right object per right wire,
        # each named in its wire's category
        rw = boundary(leaf, env.sig)[1]
        if len(spec) - 2 != len(rw):
            raise PointError(f"{leaf.label} needs {len(rw)} target object(s)")
        return (mor(spec[1]), tuple(_resolve_obj_name(env, n, w.cat)
                                    for n, w in zip(spec[2:], rw)))
    if isinstance(leaf, Id) and len(leaf.wires) == 1:
        return (mor(spec, leaf.wires[0].cat), None)
    return (mor(spec), None)
