"""Open diagrams: shapes carrying a chosen element, tracked through
rewrites.

A point is a canonical coend class of the evaluated shape, built by
assigning elements to the generator leaves and folding.  Lifting a rewrite
step transports the point along the step's semantic action; forgetting the
point commutes with rewriting on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profunctor import join_mors, join_objs, render_generic, split_obj
from .rewrite import (PointError, RewriteError, apply_step, build_seq_value,
                      check_instantiation, strip_labels)
from .shapelang import (COMPANION_KINDS, CONJOINT_KINDS, Env, Evaluator, Gen,
                        Id, Par, Seq, Wire, boundary, obj_expr_cat, print_term)


@dataclass
class OpenDiagram:
    shape: object
    assignment: dict
    fiber: tuple      # (source object, target object) of the evaluated shape
    point: object     # canonical class representative

    @staticmethod
    def _normalize(assignment):
        out = {}
        for k, v in assignment.items():
            if isinstance(v, tuple) and len(v) == 2 and (
                    v[1] is None or isinstance(v[1], tuple)):
                out[k] = v
            else:
                out[k] = (v, None)
        return out

    @staticmethod
    def _build(sig, env, shape, norm_assign, left_obj, ev=None):
        ev = ev or Evaluator(env)
        value, right = _walk(ev, sig, shape, norm_assign, left_obj)
        return OpenDiagram(shape, dict(norm_assign), (left_obj, right), value)

    @staticmethod
    def _search(sig, env, shape, norm_assign, ev):
        """Build at the left fiber object that the assigned values pin
        uniquely (the only one when the left boundary is empty)."""
        lw, _ = boundary(shape, sig)
        if not lw:
            return OpenDiagram._build(sig, env, shape, norm_assign, 0, ev)
        hits, last_err = [], None
        for left in env.boundary_cat(lw).objects:
            try:
                hits.append(OpenDiagram._build(sig, env, shape, norm_assign,
                                               left, ev))
            except PointError as e:
                last_err = e
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise last_err or PointError("no left fiber object fits the assignment")
        raise PointError("left fiber object is ambiguous; use from_fiber")

    @staticmethod
    def from_values(sig, env: Env, shape, assignment, ev: Evaluator = None):
        """Build from resolved leaf values: {label: value} or
        {label: (value, right objects tuple)} where the extra objects pin
        fibers that the value alone does not determine (forks, caps, ...).

        Shapes with a non-empty left boundary infer their left fiber object
        when the assigned values pin it uniquely."""
        return OpenDiagram._search(sig, env, shape,
                                   OpenDiagram._normalize(assignment), ev)

    @staticmethod
    def from_fiber(sig, env: Env, shape, assignment, left_obj,
                   ev: Evaluator = None):
        return OpenDiagram._build(sig, env, shape,
                                  OpenDiagram._normalize(assignment), left_obj, ev)

    @staticmethod
    def from_names(sig, env: Env, shape, named_assignment, ev: Evaluator = None):
        """Build from script-level value specs (morphism names, (pair ..),
        (split f M N), (mor f X), *)."""
        return OpenDiagram._search(
            sig, env, shape, _resolve_named(sig, env, shape, named_assignment), ev)

    def describe(self):
        a, b = self.fiber
        return f"point {render_generic(self.point)} at fiber ({a},{b})"


def forget(d: OpenDiagram):
    return d.shape


def lift(step, d: OpenDiagram, sig, env, ev: Evaluator = None) -> OpenDiagram:
    """Transport the point along one rewrite step."""
    new_shape, transport, _ = apply_step(d.shape, step, sig, env, ev)
    new_point = transport(d.fiber, d.point)
    return OpenDiagram(new_shape, {}, d.fiber, new_point)


def lift_many(steps, d: OpenDiagram, sig, env, ev: Evaluator = None) -> OpenDiagram:
    ev = ev or Evaluator(env)
    for step in steps:
        d = lift(step, d, sig, env, ev)
    return d


def equal_up_to(d1: OpenDiagram, d2: OpenDiagram, deformation, sig,
                ev: Evaluator) -> bool:
    """Transport d1's point along an all-iso derivation from d1's shape and
    compare with d2's point.  Equality of open diagrams is only defined
    relative to the supplied deformation."""
    for step in deformation:
        rule = check_instantiation(step)
        if rule.tag != "iso":
            raise RewriteError(
                f"deformations must be invertible; {rule.name} is directed")
    d = lift_many(deformation, d1, sig, ev.env, ev)
    if strip_labels(d.shape) != strip_labels(d2.shape):
        raise PointError(
            "deformation does not reach the target shape: "
            f"{print_term(d.shape)} vs {print_term(d2.shape)}")
    if d.fiber != d2.fiber:
        return False
    return d.point == d2.point


def embed(sig, env: Env, catsym, mor, label="w") -> OpenDiagram:
    """A base-category morphism as the pointed hom diagram."""
    c = env.cats[catsym]
    shape = Id((Wire(catsym),), label)
    return OpenDiagram(shape, {label: mor}, (c.dom(mor), c.cod(mor)), mor)


def _relabel(t, prefix):
    if isinstance(t, Seq):
        return Seq(tuple(_relabel(p, prefix) for p in t.parts))
    if isinstance(t, Par):
        return Par(_relabel(t.top, prefix), _relabel(t.bottom, prefix))
    if isinstance(t, Id):
        return Id(t.wires, prefix + t.label if t.label else None)
    return Gen(t.kind, t.args, prefix + t.label if t.label else None)


def compose_open(d1: OpenDiagram, d2: OpenDiagram, sig, env,
                 ev: Evaluator = None) -> OpenDiagram:
    """Sequential composition of open diagrams; the point is the class of
    the pair of points."""
    if d1.fiber[1] != d2.fiber[0]:
        raise PointError("open diagrams do not share a middle object")
    ev = ev or Evaluator(env)
    s1, s2 = _relabel(d1.shape, "l:"), _relabel(d2.shape, "r:")
    shape = Seq((s1, s2))
    value = build_seq_value(ev, [(s1, d1.point, d1.fiber[0], d1.fiber[1]),
                                 (s2, d2.point, d2.fiber[0], d2.fiber[1])],
                            (d1.fiber[0], d2.fiber[1]))
    assignment = {("l:" + k): v for k, v in d1.assignment.items()}
    assignment.update({("r:" + k): v for k, v in d2.assignment.items()})
    return OpenDiagram(shape, assignment, (d1.fiber[0], d2.fiber[1]), value)


# ---------------------------------------------------------------------------
# point construction


def _walk(ev, sig, term, assignment, left_obj):
    env = ev.env
    if isinstance(term, Seq):
        items = []
        cur = left_obj
        for p in term.parts:
            v, r = _walk(ev, sig, p, assignment, cur)
            items.append((p, v, cur, r))
            cur = r
        return build_seq_value(ev, items, (left_obj, cur)), cur
    if isinstance(term, Par):
        (lw_t, rw_t), (lw_b, rw_b) = boundary(term.top, sig), boundary(term.bottom, sig)
        cat = env.boundary_cat
        lt, lb = split_obj(cat(lw_t + lw_b), cat(lw_t), cat(lw_b), left_obj)
        vt, rt = _walk(ev, sig, term.top, assignment, lt)
        vb, rb = _walk(ev, sig, term.bottom, assignment, lb)
        return (vt, vb), join_objs(cat(rw_t + rw_b), [(cat(rw_t), rt), (cat(rw_b), rb)])
    return _leaf_value(ev, sig, term, assignment, left_obj)


def _leaf_value(ev, sig, term, assignment, left_obj):
    env = ev.env
    label = term.label
    assigned = assignment.get(label) if label else None
    if isinstance(term, Id):
        cat = env.boundary_cat(term.wires)
        if assigned is None:
            return cat.identity(left_obj), left_obj
        v, _ = assigned
        if cat.dom(v) != left_obj:
            raise PointError(f"assignment for {label!r} starts at the wrong object")
        return v, cat.cod(v)
    kind, args = term.kind, term.args
    if kind in COMPANION_KINDS:
        # D(F-, -): a morphism out of F(left)
        fn = env.functor_of(term)
        d, fx = fn.target, fn.obj(left_obj)
        v = assigned[0] if assigned else d.identity(fx)
        if d.dom(v) != fx:
            raise PointError(f"{kind} value for {label or kind} must start at "
                             f"{d.obj_name(fx)}")
        return v, d.cod(v)
    if kind in CONJOINT_KINDS:
        # D(-, F-): a morphism from left into F(x); the value names x, one
        # object per right wire, unless the right boundary is empty
        fn = env.functor_of(term)
        d = fn.target
        _, rw = boundary(term, sig)
        objs = (assigned[1] if assigned else None) if rw else ()
        if objs is None or len(objs) != len(rw):
            raise PointError(f"{kind} {label or kind!r} needs a value with its "
                             "target objects")
        x = join_objs(env.boundary_cat(rw), zip(map(env.wire_cat, rw), objs))
        fx = fn.obj(x)
        v = assigned[0] if assigned else d.identity(fx)
        if d.dom(v) != left_obj or d.cod(v) != fx:
            raise PointError(f"{kind} value for {label or kind} must map "
                             f"{d.obj_name(left_obj)} to {d.obj_name(fx)}")
        return v, x
    if kind == "merge":
        c = env.cats[args[0]]
        cc = env.boundary_cat((Wire(args[0]),) * 2)
        m, n = split_obj(cc, c, c, left_obj)
        if assigned:
            (p, q) = assigned[0]
            if c.dom(p) != m or c.dom(q) != n or c.cod(p) != c.cod(q):
                raise PointError(f"merge value for {label or kind} is ill-typed")
            return (p, q), c.cod(p)
        if m != n:
            raise PointError("an unassigned merge needs equal inputs")
        return (c.identity(m), c.identity(n)), m
    if kind == "copy":
        c = env.cats[args[0]]
        cc = env.boundary_cat((Wire(args[0]),) * 2)
        if assigned:
            (p, q) = assigned[0]
            if c.dom(p) != left_obj or c.dom(q) != left_obj:
                raise PointError(f"copy value for {label or kind} is ill-typed")
            return (p, q), join_objs(cc, [(c, c.cod(p)), (c, c.cod(q))])
        e = c.identity(left_obj)
        return (e, e), join_objs(cc, [(c, left_obj), (c, left_obj)])
    if kind == "discard":
        return "*", 0
    if kind == "codiscard":
        if not assigned or assigned[1] is None:
            raise PointError("codiscard needs an assigned target object")
        return "*", assigned[1][0]
    if kind == "sym":
        c1 = env.wire_cat(args[0])
        c2 = env.wire_cat(args[1])
        cc = env.boundary_cat(args)
        ccs = env.boundary_cat((args[1], args[0]))
        a, b = split_obj(cc, c1, c2, left_obj)
        if assigned:
            (u, v) = assigned[0]
            if c1.dom(u) != a or c2.dom(v) != b:
                raise PointError(f"sym value for {label or kind} is ill-typed")
            return (u, v), join_objs(ccs, [(c2, c2.cod(v)), (c1, c1.cod(u))])
        return (c1.identity(a), c2.identity(b)), join_objs(ccs, [(c2, b), (c1, a)])
    if kind == "cup":
        c = env.cats[args[0]]
        w = Wire(args[0])
        cc = env.boundary_cat((w, w.flip()))
        from .fincat import opposite
        x, y = split_obj(cc, c, opposite(c), left_obj)
        if assigned:
            v = assigned[0]
            if c.dom(v) != x or c.cod(v) != y:
                raise PointError(f"cup value for {label or kind} is ill-typed")
            return v, 0
        if x != y:
            raise PointError("an unassigned cup needs equal endpoints")
        return c.identity(x), 0
    if kind == "cap":
        c = env.cats[args[0]]
        w = Wire(args[0])
        cc = env.boundary_cat((w.flip(), w))
        if not assigned:
            raise PointError(f"cap {label or kind!r} needs an assigned value")
        v = assigned[0]
        from .fincat import opposite
        return v, join_objs(cc, [(opposite(c), c.dom(v)), (c, c.cod(v))])
    if kind == "named":
        prof = ev.env.profs.get(args[0])
        if prof is None:
            raise PointError(f"named profunctor {args[0]!r} is unbound")
        if not assigned or assigned[1] is None:
            raise PointError(f"named leaf {label or args[0]!r} needs a value "
                             "with its target object")
        v, (x,) = assigned
        if v not in prof.fiber(left_obj, x):
            raise PointError(f"value for {label or args[0]} is not in the fiber")
        return v, x
    raise PointError(f"cannot assign a value to {print_term(term)}")


# ---------------------------------------------------------------------------
# script-level value specs


def _resolve_obj_name(sig, env, name, catsym):
    if name in sig.objects:
        return env.resolve_obj(name)
    return env.cats[catsym].obj_id(str(name))


def _leaf_catsym(sig, term):
    if isinstance(term, Id):
        return term.wires[0].cat if term.wires else None
    if term.kind in ("inport", "outport"):
        return obj_expr_cat(term.args[0], sig)
    if term.kind == "sym":
        return term.args[0].cat
    if term.kind in ("box", "cobox"):
        return None
    return term.args[0]


def _resolve_named(sig, env, shape, named_assignment):
    from .shapelang import leaves
    by_label = {}
    for path, leaf in leaves(shape):
        if getattr(leaf, "label", None):
            by_label[leaf.label] = leaf
    out = {}
    for label, spec in named_assignment.items():
        if label not in by_label:
            raise PointError(f"no leaf labelled {label!r} in the shape")
        leaf = by_label[label]
        out[label] = _resolve_spec(sig, env, leaf, spec)
    return out


def _resolve_spec(sig, env, leaf, spec):
    catsym = _leaf_catsym(sig, leaf)

    def mor(name, cs=None):
        cs = cs or catsym
        if cs is None:
            raise PointError(f"cannot resolve morphism {name!r} without a category")
        return env.cats[cs].mor_id(str(name))

    if spec == "*":
        return ("*", None)
    if isinstance(spec, tuple):
        head = spec[0]
        if head == "pair":
            if isinstance(leaf, Id):
                cat = env.boundary_cat(leaf.wires)
                pairs = [(env.wire_cat(w), mor(n, w.cat))
                         for n, w in zip(spec[1:], leaf.wires)]
                return (join_mors(cat, pairs), None)
            if leaf.kind == "sym":
                return ((mor(spec[1], leaf.args[0].cat),
                         mor(spec[2], leaf.args[1].cat)), None)
            return ((mor(spec[1]), mor(spec[2])), None)
        if head == "split":
            m = _resolve_obj_name(sig, env, spec[2], catsym)
            n = _resolve_obj_name(sig, env, spec[3], catsym)
            return (mor(spec[1]), (m, n))
        if head == "mor":
            x = _resolve_obj_name(sig, env, spec[2], catsym)
            return (mor(spec[1]), (x,))
        raise PointError(f"unknown value spec {spec!r}")
    if isinstance(leaf, Id) and len(leaf.wires) == 1:
        return (mor(spec, leaf.wires[0].cat), None)
    return (mor(spec), None)
