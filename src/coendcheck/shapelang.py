"""The typed term language for shapes: string diagrams over profunctor
oracles.

Surface syntax is s-expressions.  Sequential composition is evaluated by
composing profunctors, parallel composition by tensoring; a closed shape
evaluates to the coend-quotient set with canonical representatives.
Every command prints a Report, the deterministic line-oriented output
kept here, with the evaluator that each of them loads.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import NamedTuple

from . import profunctor as pf
from .fincat import FinCategory, FinFunctor, MonoidalStructure, opposite, product


class ShapeSyntaxError(Exception):
    pass


class ShapeTypeError(Exception):
    def __init__(self, msg, path=()):
        super().__init__(f"at {'.'.join(map(str, path)) or 'root'}: {msg}")
        self.path = path


class StructureMissing(Exception):
    pass


class EvalError(Exception):
    pass


# ---------------------------------------------------------------------------
# wires and terms


class _Interned:
    """Hash-consing: a term class keeps one object per tuple of field values
    and its constructor returns it, so equal terms are identical and compare
    and hash by identity.  Inserts are atomic (`setdefault`); copies and
    pickles rebuild through `cls`.  A term's fields are its class's
    annotations, in order, and cannot be assigned or deleted."""

    def __init_subclass__(cls):
        cls._table = {}
        cls._fields = tuple(cls.__annotations__)

    @classmethod
    def _make(cls, key):
        t = object.__new__(cls)
        t.__dict__.update(zip(cls._fields, key))
        return cls._table.setdefault(key, t)

    def __reduce__(self):
        return type(self), tuple(self.__dict__[f] for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Wire(_Interned):
    cat: str
    op: bool = False

    def __new__(cls, cat, op=False):
        return cls._table.get((cat, op)) or cls._make((cat, op))

    def __str__(self):
        return f"(op {self.cat})" if self.op else self.cat


class Id(_Interned):
    wires: tuple
    label: str = None

    def __new__(cls, wires, label=None):
        return cls._table.get((wires, label)) or cls._make((wires, label))


class Gen(_Interned):
    kind: str
    args: tuple
    label: str = None

    def __new__(cls, kind, args, label=None):
        return cls._table.get((kind, args, label)) or cls._make((kind, args, label))


class Seq(_Interned):
    parts: tuple

    def __new__(cls, parts):
        return cls._table.get((parts,)) or cls._make((parts,))


class Par(_Interned):
    top: object
    bottom: object

    def __new__(cls, top, bottom):
        return cls._table.get((top, bottom)) or cls._make((top, bottom))


def is_plain_id(t):
    return isinstance(t, Id) and t.label is None


def relabel(t, label):
    """`t` with each leaf's label l replaced by label(l)."""
    if isinstance(t, Seq):
        return Seq(tuple(relabel(p, label) for p in t.parts))
    if isinstance(t, Par):
        return Par(relabel(t.top, label), relabel(t.bottom, label))
    if isinstance(t, Id):
        return Id(t.wires, label(t.label))
    return Gen(t.kind, t.args, label(t.label))


@functools.cache
def strip_labels(t):
    """`t` without its labels.  Terms are interned, so two terms have the
    same shape iff `strip_labels` gives both the same object."""
    return relabel(t, lambda _: None)


@functools.cache
def seq_skeleton(parts):
    """Silent normalization of a composite of normal `parts`, decided once
    per tuple: nested composites flatten and plain identity parts drop.
    Returns the normal form and what rewrite.build_seq_value reads to move
    values onto it: the positions of the nested composites; per kept part
    of the flattened composite, its position and those of the identity
    wires just before it; those of the wires after the last kept part; the
    kept parts' composite, None when fewer than two are kept."""
    if not parts:
        raise ShapeSyntaxError("empty seq")
    nested = tuple(k for k, t in enumerate(parts) if isinstance(t, Seq))
    flat = [p for t in parts for p in (t.parts if isinstance(t, Seq) else (t,))]
    kept, ids = [], []
    for k, t in enumerate(flat):
        if is_plain_id(t):
            ids.append(k)
        else:
            kept.append((k, tuple(ids)))
            ids = []
    out = Seq(tuple(flat[k] for k, _ in kept)) if len(kept) > 1 else None
    return out or flat[kept[0][0] if kept else 0], nested, tuple(kept), tuple(ids), out


def seq(parts):
    """The normal form of Seq(parts), for normal parts."""
    return seq_skeleton(parts)[0]


def par(top, bottom):
    """Par(top, bottom) normalized, for normal top and bottom: plain
    identities merge and empty-boundary units drop (re-association and
    interchange are rewrite rules, never applied here)."""
    if is_plain_id(top):
        if is_plain_id(bottom):
            return Id(top.wires + bottom.wires)
        if not top.wires:
            return bottom
    elif is_plain_id(bottom) and not bottom.wires:
        return top
    return Par(top, bottom)


def obj_expr_symbols(e):
    """The object symbols of an object expression, left to right: none in
    a (unit ..), and any other value is one symbol."""
    if isinstance(e, tuple) and e[:1] == ("tensor",):
        return obj_expr_symbols(e[1]) + obj_expr_symbols(e[2])
    return () if isinstance(e, tuple) and e[:1] == ("unit",) else (e,)


@functools.cache
def objects_in(term):
    """Object symbols referenced by a term's generators, sorted, once per term."""
    out = set()
    for _, leaf in leaves(term):
        row = isinstance(leaf, Gen) and KINDS.get(leaf.kind)
        if row and row.sort == "object":
            out.update(obj_expr_symbols(leaf.args[0]))
    return tuple(sorted(out))


def leaves(t, path=()):
    """Generator leaves (ports, junctions, hom wires, ...) in reading order."""
    if isinstance(t, Seq):
        for i, p in enumerate(t.parts):
            yield from leaves(p, path + (i,))
    elif isinstance(t, Par):
        yield from leaves(t.top, path + (0,))
        yield from leaves(t.bottom, path + (1,))
    else:
        yield path, t


# ---------------------------------------------------------------------------
# s-expression reader


# one token per match: a newline, a run of blanks, a comment, a
# parenthesis or atom, a string, or a quote that no other closes
_TOKEN = re.compile(r'(\n)|[ \t\r]+|;[^\n]*|([()]|[^ \t\r\n();"]+)|("[^"]*")|(")')


def tokenize(text):
    """The tokens of `text` as (token, line) pairs: "(", ")", an atom, or
    ("str", contents) for a string.  A string may span lines: it is on the
    line where it opens, and its newlines count towards the lines after
    it."""
    tokens, line = [], 1
    for newline, atom, string, quote in _TOKEN.findall(text):
        if newline:
            line += 1
        elif atom:
            tokens.append((atom, line))
        elif string:
            tokens.append((("str", string[1:-1]), line))
            line += string.count("\n")
        elif quote:
            raise ShapeSyntaxError(f"line {line}: unterminated string")
    return tokens


def read_sexprs(text):
    tokens = tokenize(text)
    pos = 0

    def read():
        nonlocal pos
        tok, line = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while True:
                if pos >= len(tokens):
                    raise ShapeSyntaxError(f"line {line}: unclosed '('")
                if tokens[pos][0] == ")":
                    pos += 1
                    return items
                items.append(read())
        if tok == ")":
            raise ShapeSyntaxError(f"line {line}: unexpected ')'")
        if isinstance(tok, tuple):
            return tok  # ("str", value)
        return tok

    out = []
    while pos < len(tokens):
        out.append(read())
    return out


def _name_of(x):
    if isinstance(x, tuple) and x[0] == "str":
        return x[1]
    if isinstance(x, str):
        return x
    raise ShapeSyntaxError(f"expected a name, got {x!r}")


# ---------------------------------------------------------------------------
# signatures


class Signature:
    def __init__(self, categories=(), objects=None, functors=None, profs=None, shapes=None):
        self.categories = categories
        # sym -> (cat sym, pinned name or None)
        self.objects = {} if objects is None else objects
        # sym -> (src, dst, {obj: obj}, {mor: mor})
        self.functors = {} if functors is None else functors
        # name -> (left wires, right wires)
        self.profs = {} if profs is None else profs
        # name -> term
        self.shapes = {} if shapes is None else shapes
        # term -> its boundary, filled by boundary() with well-typed terms only;
        # a signature does not change once its terms are typed
        self.boundaries = {}

    def obj_cat(self, sym):
        if sym not in self.objects:
            raise ShapeSyntaxError(f"unknown object symbol {sym!r}")
        return self.objects[sym][0]


def _parse_wire(x, sig):
    if isinstance(x, list):
        if len(x) == 2 and x[0] == "op":
            return Wire(_check_cat(x[1], sig), True)
        raise ShapeSyntaxError(f"bad wire {x!r}")
    return Wire(_check_cat(x, sig), False)


def _check_cat(x, sig):
    x = _name_of(x)
    if x not in sig.categories:
        raise ShapeSyntaxError(f"unknown category symbol {x!r}")
    return x


def _parse_obj_expr(x, sig):
    if isinstance(x, list):
        if len(x) == 3 and x[0] == "tensor":
            e1 = _parse_obj_expr(x[1], sig)
            e2 = _parse_obj_expr(x[2], sig)
            if obj_expr_cat(e1, sig) != obj_expr_cat(e2, sig):
                raise ShapeSyntaxError(f"tensor of objects from different categories")
            return ("tensor", e1, e2)
        if len(x) == 2 and x[0] == "unit":
            return ("unit", _check_cat(x[1], sig))
        raise ShapeSyntaxError(f"bad object expression {x!r}")
    x = _name_of(x)
    sig.obj_cat(x)
    return x


def obj_expr_cat(e, sig):
    if isinstance(e, tuple):
        if e[0] == "tensor":
            return obj_expr_cat(e[1], sig)
        if e[0] == "unit":
            return e[1]
    return sig.obj_cat(e)


def _parse_functor_expr(x, sig):
    if isinstance(x, list):
        if len(x) == 3 and x[0] == "fcomp":
            e = ("fcomp", _parse_functor_expr(x[1], sig), _parse_functor_expr(x[2], sig))
            functor_expr_sig(e, sig)
            return e
        raise ShapeSyntaxError(f"bad functor expression {x!r}")
    x = _name_of(x)
    if x not in sig.functors:
        raise ShapeSyntaxError(f"unknown functor symbol {x!r}")
    return x


def functor_expr_sig(e, sig):
    """(source cat sym, target cat sym) of a functor expression."""
    if isinstance(e, tuple) and e[0] == "fcomp":
        s1, t1 = functor_expr_sig(e[1], sig)
        s2, t2 = functor_expr_sig(e[2], sig)
        if t1 != s2:
            raise ShapeSyntaxError("functor composition mismatch")
        return (s1, t2)
    return sig.functors[e][0], sig.functors[e][1]


def print_obj_expr(e):
    if isinstance(e, tuple):
        if e[0] == "tensor":
            return f"(tensor {print_obj_expr(e[1])} {print_obj_expr(e[2])})"
        if e[0] == "unit":
            return f"(unit {e[1]})"
    return e


def print_functor_expr(e):
    if isinstance(e, tuple) and e[0] == "fcomp":
        return f"(fcomp {print_functor_expr(e[1])} {print_functor_expr(e[2])})"
    return e


def _parse_prof_name(x, sig):
    name = _name_of(x)
    if name not in sig.profs:
        raise ShapeSyntaxError(f"unknown profunctor name {name!r}")
    return name


def _bound_prof(env, args):
    if args[0] not in env.profs:
        raise EvalError(f"named profunctor {args[0]!r} is unbound")
    return (env.profs[args[0]],)


class Sort(NamedTuple):
    """The arguments of a generator kind: how many it takes, what its arity
    error says they are, how each is parsed and printed, the wires its
    boundary patterns name, and what a profunctor builder is applied to."""
    arity: int
    takes: str
    parse: object    # (s-expression, sig) -> argument
    show: object     # argument -> text
    wires: object    # (args, sig) -> {pattern letter: wires}
    resolve: object  # (env, args) -> the builder's arguments


SORTS = {
    "object": Sort(1, "one object", _parse_obj_expr, print_obj_expr,
                   lambda args, sig: {"w": (Wire(obj_expr_cat(args[0], sig)),)}, None),
    "category": Sort(1, "a category symbol", _check_cat, str,
                     lambda args, sig: {"w": (Wire(args[0]),), "W": (Wire(args[0], True),)},
                     lambda env, args: (env.cats[args[0]],)),
    "wires": Sort(2, "two wires", _parse_wire, str,
                  lambda args, sig: {"a": (args[0],), "b": (args[1],)},
                  lambda env, args: map(env.wire_cat, args)),
    "functor": Sort(1, "a functor", _parse_functor_expr, print_functor_expr,
                    lambda args, sig: {k: (Wire(c),) for k, c in
                                       zip("sd", functor_expr_sig(args[0], sig))}, None),
    "profunctor": Sort(1, "a profunctor name", _parse_prof_name, str,
                       lambda args, sig: dict(zip("lr", sig.profs[args[0]])), _bound_prof),
}


class Kind(NamedTuple):
    """A generator kind: the sort of its arguments, its left and right
    boundary as patterns over the sort's wires (W is the dual of w), and
    what it denotes: pf.companion or pf.conjoint of the functor
    Env.functor_of names, or else a builder applied to what the sort
    resolves its arguments to."""
    sort: str
    left: str
    right: str
    denotes: object


KINDS = {
    "inport": Kind("object", "", "w", pf.companion),
    "outport": Kind("object", "w", "", pf.conjoint),
    "junction": Kind("category", "ww", "w", pf.companion),
    "fork": Kind("category", "w", "ww", pf.conjoint),
    "unit-in": Kind("category", "", "w", pf.companion),
    "unit-out": Kind("category", "w", "", pf.conjoint),
    "copy": Kind("category", "w", "ww", pf.copy_prof),
    "merge": Kind("category", "ww", "w", pf.merge_prof),
    "discard": Kind("category", "w", "", pf.discard_prof),
    "codiscard": Kind("category", "", "w", pf.codiscard_prof),
    "sym": Kind("wires", "ab", "ba", pf.swap_prof),
    "cup": Kind("category", "wW", "", pf.cup_prof),
    "cap": Kind("category", "", "Ww", pf.cap_prof),
    "box": Kind("functor", "s", "d", pf.companion),
    "cobox": Kind("functor", "d", "s", pf.conjoint),
    "named": Kind("profunctor", "l", "r", lambda prof: prof),  # the bound profunctor
}


def parse_term(x, sig):
    if not isinstance(x, list) or not x:
        raise ShapeSyntaxError(f"expected a term, got {x!r}")
    head = x[0]
    if isinstance(head, list):
        raise ShapeSyntaxError(f"expected a generator name, got {head!r}")
    args = x[1:]
    label = None
    if args and isinstance(args[-1], str) and args[-1].startswith("@"):
        label = args[-1][1:]
        args = args[:-1]
    if head == "seq":
        if not args:
            raise ShapeSyntaxError("(seq) needs at least one part")
        return seq(tuple(parse_term(a, sig) for a in args))
    if head == "par":
        if len(args) < 2:
            raise ShapeSyntaxError("(par) needs at least two parts")
        t = parse_term(args[0], sig)
        for a in args[1:]:
            t = par(t, parse_term(a, sig))
        return t
    if head == "id":
        return Id(tuple(_parse_wire(a, sig) for a in args), label)
    row = KINDS.get(head)
    if row is None:
        raise ShapeSyntaxError(f"unknown generator {head!r}")
    sort = SORTS[row.sort]
    if len(args) != sort.arity:
        raise ShapeSyntaxError(f"({head}) takes {sort.takes}")
    return Gen(head, tuple(sort.parse(a, sig) for a in args), label)


def parse_shape_script(text) -> Signature:
    sig = Signature()
    cats = []
    for form in read_sexprs(text):
        if not isinstance(form, list) or not form:
            raise ShapeSyntaxError(f"bad toplevel form {form!r}")
        head = form[0]
        if head == "category":
            if len(form) != 2:
                raise ShapeSyntaxError("(category C) expected")
            cats.append(_name_of(form[1]))
            sig.categories = tuple(cats)
        elif head == "object":
            if len(form) not in (3, 4):
                raise ShapeSyntaxError("(object A C [name]) expected")
            sym = _name_of(form[1])
            cat = _check_cat(form[2], sig)
            pin = _name_of(form[3]) if len(form) == 4 else None
            sig.objects[sym] = (cat, pin)
        elif head == "functor":
            if len(form) != 6:
                raise ShapeSyntaxError("(functor F C D (obj ...) (mor ...)) expected")
            name = _name_of(form[1])
            src, dst = _check_cat(form[2], sig), _check_cat(form[3], sig)
            obj_map, mor_map = {}, {}
            for tag, table in ((form[4], obj_map), (form[5], mor_map)):
                if not isinstance(tag, list) or tag[0] not in ("obj", "mor"):
                    raise ShapeSyntaxError("functor maps are (obj (a b)...) (mor (f g)...)")
                for pair in tag[1:]:
                    if not isinstance(pair, list) or len(pair) != 2:
                        raise ShapeSyntaxError(f"bad map entry {pair!r}")
                    table[_name_of(pair[0])] = _name_of(pair[1])
            sig.functors[name] = (src, dst, obj_map, mor_map)
        elif head == "prof":
            if len(form) != 4 or not all(isinstance(ws, list) for ws in form[2:]):
                raise ShapeSyntaxError("(prof K (wires) (wires)) expected")
            name = _name_of(form[1])
            left = tuple(_parse_wire(w, sig) for w in form[2])
            right = tuple(_parse_wire(w, sig) for w in form[3])
            sig.profs[name] = (left, right)
        elif head == "shape":
            if len(form) != 3:
                raise ShapeSyntaxError("(shape name term) expected")
            name = _name_of(form[1])
            sig.shapes[name] = parse_term(form[2], sig)
        else:
            raise ShapeSyntaxError(f"unknown declaration {head!r}")
    return sig


# ---------------------------------------------------------------------------
# printing (round-trips through the parser)


def print_term(t):
    if isinstance(t, Seq):
        return "(seq " + " ".join(print_term(p) for p in t.parts) + ")"
    if isinstance(t, Par):
        return f"(par {print_term(t.top)} {print_term(t.bottom)})"
    lbl = f" @{t.label}" if t.label else ""
    if isinstance(t, Id):
        return f"(id{''.join(' ' + str(w) for w in t.wires)}{lbl})"
    show = SORTS[KINDS[t.kind].sort].show
    return f"({t.kind} {' '.join(map(show, t.args))}{lbl})"


# ---------------------------------------------------------------------------
# typechecking


def boundary(t, sig, path=()):
    """Return (left wires, right wires) or raise ShapeTypeError with the
    offending path.  A well-typed term's boundary is kept in
    sig.boundaries; an ill-typed one is checked again on every call, so
    its error names the path of that call."""
    bnd = sig.boundaries.get(t)
    if bnd is None:
        bnd = sig.boundaries[t] = _boundary(t, sig, path)
    return bnd


def _boundary(t, sig, path):
    if isinstance(t, Id):
        return (t.wires, t.wires)
    if isinstance(t, Seq):
        left, right = boundary(t.parts[0], sig, path + (0,))
        for i, p in enumerate(t.parts[1:], start=1):
            l2, r2 = boundary(p, sig, path + (i,))
            if right != l2:
                raise ShapeTypeError(
                    f"boundary mismatch: ...{_ws(right)} then {_ws(l2)}...",
                    path + (i,))
            right = r2
        return (left, right)
    if isinstance(t, Par):
        l1, r1 = boundary(t.top, sig, path + (0,))
        l2, r2 = boundary(t.bottom, sig, path + (1,))
        return (l1 + l2, r1 + r2)
    row = KINDS.get(t.kind)
    if row is None:
        raise ShapeTypeError(f"unknown generator {t.kind!r}", path)
    wires = SORTS[row.sort].wires(t.args, sig)
    return (sum((wires[c] for c in row.left), ()), sum((wires[c] for c in row.right), ()))


def _ws(wires):
    return "<" + ",".join(str(w) for w in wires) + ">"


# ---------------------------------------------------------------------------
# evaluation environment


class Env:
    """Oracle bindings for one evaluation: category symbols to validated
    monoidal fixtures, object symbols to object ids, plus functors and
    named profunctors."""

    def __init__(self, sig: Signature, bindings: dict, objs: dict = None,
                 profs: dict = None):
        self.sig = sig
        self.mons = {}
        self.cats = {}
        unknown = sorted(bindings.keys() - set(sig.categories))
        if unknown:
            raise EvalError(f"unknown category symbol {unknown[0]!r}")
        for sym in sig.categories:
            if sym not in bindings:
                raise EvalError(f"category symbol {sym!r} is unbound")
            b = bindings[sym]
            if isinstance(b, MonoidalStructure):
                self.mons[sym] = b
                self.cats[sym] = b.base
            else:
                self.mons[sym] = None
                self.cats[sym] = b
        self.objs = {}
        for sym, (catsym, pin) in sig.objects.items():
            if pin is not None:
                self.objs[sym] = self.cats[catsym].obj_id(pin)
        for sym, o in (objs or {}).items():
            if sym not in sig.objects:
                raise EvalError(f"unknown object symbol {sym!r}")
            self.objs[sym] = o
        self.functors = {}
        for name, (src, dst, omap, mmap) in sig.functors.items():
            cs, cd = self.cats[src], self.cats[dst]
            fn = FinFunctor(name, cs, cd,
                            {cs.obj_id(a): cd.obj_id(b) for a, b in omap.items()},
                            {cs.mor_id(f): cd.mor_id(g) for f, g in mmap.items()})
            self.functors[name] = fn
        self.profs = dict(profs or {})

    def free_objects(self, only=None):
        return [sym for sym in self.sig.objects
                if sym not in self.objs and (only is None or sym in only)]

    def assignments(self, only=None):
        """Deterministic sweep over all values of the free object symbols,
        optionally restricted to the symbols a script actually uses.  Each
        assignment shares this env's categories, functors and profunctors
        and replaces only its object values."""
        free = self.free_objects(only)
        ranges = [list(self.cats[self.sig.objects[sym][0]].objects) for sym in free]
        for combo in itertools.product(*ranges):
            # a shallow copy, without loading the copy module at set-up
            env = object.__new__(Env)
            env.__dict__ = {**vars(self), "objs": {**self.objs, **dict(zip(free, combo))}}
            yield env

    def assignment_count(self, only=None):
        return math.prod(len(self.cats[self.sig.objects[sym][0]].objects)
                         for sym in self.free_objects(only))

    def monoidal(self, catsym) -> MonoidalStructure:
        m = self.mons.get(catsym)
        if m is None:
            raise StructureMissing(f"category {catsym!r} carries no monoidal structure")
        return m

    def wire_cat(self, w: Wire) -> FinCategory:
        c = self.cats[w.cat]
        return opposite(c) if w.op else c

    def boundary_cat(self, wires) -> FinCategory:
        return product(*[self.wire_cat(w) for w in wires])

    def resolve_obj(self, expr):
        if isinstance(expr, tuple):
            if expr[0] == "tensor":
                catsym = obj_expr_cat(expr[1], self.sig)
                m = self.monoidal(catsym)
                return m.tensor(self.resolve_obj(expr[1]), self.resolve_obj(expr[2]))
            if expr[0] == "unit":
                return self.monoidal(expr[1]).unit
        if expr not in self.objs:
            raise EvalError(f"object symbol {expr!r} is unassigned")
        return self.objs[expr]

    def resolve_functor(self, expr) -> FinFunctor:
        if isinstance(expr, tuple) and expr[0] == "fcomp":
            from .fincat import compose_functors
            return compose_functors(self.resolve_functor(expr[1]),
                                    self.resolve_functor(expr[2]))
        if expr not in self.functors:
            raise EvalError(f"unknown functor symbol {expr!r}")
        return self.functors[expr]

    def functor_of(self, gen: Gen) -> FinFunctor:
        """The functor F whose companion D(F-, -) or conjoint D(-, F-) the
        generator is: a point for a port, the unit for a unit port, the
        tensor for a junction or fork, the named functor for a box."""
        kind, arg = gen.kind, gen.args[0]
        if kind in ("inport", "outport"):
            a = self.resolve_obj(arg)  # first: an unknown symbol is unassigned
            return pf.point(self.cats[obj_expr_cat(arg, self.sig)], a)
        if kind in ("unit-in", "unit-out"):
            return pf.point(self.cats[arg], self.monoidal(arg).unit)
        if kind in ("junction", "fork"):
            return pf.tensor_functor(self.monoidal(arg))
        return self.resolve_functor(arg)

    def describe_objs(self):
        parts = []
        for sym in sorted(self.sig.objects):
            if sym in self.objs:
                cat = self.cats[self.sig.objects[sym][0]]
                parts.append(f"{sym}={cat.obj_name(self.objs[sym])}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    """The evaluator of one sweep over object assignments.

    It keeps one table: `keep` builds a value once and keeps it under a key
    and the values of the object symbols it reads, shared by every
    assignment that agrees on them.  Nodes are kept under the symbols of
    their term, rewrite.py's step plans under none and its images of prefix
    classes under the symbols of the old prefix and its replacement.
    `free` lists the swept symbols in `itertools.product` order and `at`
    moves to the next assignment.  An entry whose symbols cover the first j
    free symbols is dropped once one of those j values changes: product
    order never brings it back.  In front of the table, `_nodes` holds the
    nodes read at the current assignment, by term alone; `at` empties it.
    """

    def __init__(self, env: Env, free=()):
        self.env = env
        self.sig = env.sig
        self.free = tuple(free)
        self._memo = [{} for _ in range(len(self.free) + 1)]
        self._buckets = {}  # symbols -> the bucket of `_memo` they are kept in
        self._nodes = {}

    def at(self, env: Env) -> Evaluator:
        """Move to the next assignment of the sweep."""
        changed = next((i for i, s in enumerate(self.free)
                        if self.env.objs.get(s) != env.objs.get(s)), len(self.free))
        for bucket in self._memo[changed + 1:]:
            bucket.clear()
        self._nodes.clear()
        self.env = env
        return self

    def sweep(self):
        """Move to each assignment of the free symbols, in `Env.assignments`
        order, yielding the evaluator at each; run before any `at`."""
        for env in self.env.assignments(only=self.free):
            yield self.at(env)

    def keep(self, key, symbols, build, *args):
        """build(*args), made once per `key` and values of the sorted object
        `symbols`.  Keys of different kinds must not be equal."""
        bucket = self._buckets.get(symbols)
        if bucket is None:
            j = next((i for i, s in enumerate(self.free) if s not in symbols), len(self.free))
            bucket = self._buckets[symbols] = self._memo[j]
        key = (key, tuple(map(self.env.objs.get, symbols)))
        value = bucket.get(key)
        if value is None:
            value = bucket[key] = build(*args)
        return value

    def node(self, term) -> pf.ConcreteProf:
        """The profunctor of `term` at the current assignment: a ComposedProf
        for a Seq, a TensorProf for a Par, else the leaf's own."""
        prof = self._nodes.get(term)
        if prof is None:
            prof = self._nodes[term] = self.keep(term, objects_in(term), self._build, term)
        return prof

    def _build(self, term):
        if isinstance(term, Seq):
            # the left fold of parts[:-1] is a node of its own, shared by
            # every composite that starts with those parts
            *init, last = term.parts
            first = self.node(init[0] if len(init) == 1 else Seq(tuple(init)))
            return pf.ComposedProf(first, self.node(last))
        if isinstance(term, Par):
            return pf.TensorProf(self.node(term.top), self.node(term.bottom))
        if isinstance(term, Id):
            return pf.hom_prof(self.env.boundary_cat(term.wires))
        row = KINDS[term.kind]
        if row.denotes in (pf.companion, pf.conjoint):
            return row.denotes(self.env.functor_of(term))
        return row.denotes(*SORTS[row.sort].resolve(self.env, term.args))


def sweep(env: Env, only=None):
    """The evaluator of one sweep, moved to each assignment of the free
    object symbols (those in `only`, when given) in `Env.assignments`
    order."""
    return Evaluator(env, env.free_objects(only)).sweep()


def eval_closed(term, env: Env):
    """Canonical class representatives of a closed shape."""
    if boundary(term, env.sig) != ((), ()):
        raise EvalError("shape is not closed")
    return Evaluator(env).node(term).fiber(0, 0)


def class_count(term, env: Env) -> int:
    return len(eval_closed(term, env))


# ---------------------------------------------------------------------------
# reports


class Report:
    """Accumulates deterministic, line-oriented output."""

    def __init__(self, fail_fast=False):
        self.lines = []
        self.failures = []
        self.fail_fast = fail_fast

    @property
    def ok(self):
        return not self.failures

    def line(self, text):
        self.lines.append(text)

    def fail(self, text):
        self.failures.append(text)
        self.lines.append("FAIL " + text)
        if self.fail_fast:
            raise CheckAborted(text)

    def finish(self):
        """Append the result line; returns the report."""
        self.line(f"result: {'ok' if self.ok else 'FAILURE'}")
        return self

    def text(self):
        return "\n".join(self.lines) + "\n" if self.lines else ""

    def data(self):
        return {"ok": self.ok, "lines": list(self.lines),
                "failures": list(self.failures)}


class CheckAborted(Exception):
    """Raised by a fail-fast report at its first failure."""
