"""Outside-in tracing of the coendcheck package for the traced benchmark run.

The wrappers live here, not in the package: each one replaces a public
function or method at every module or class that binds it, counts calls
and accumulates self time (its duration minus the time of wrapped calls
nested inside it).  The coarse boundaries (check, assignment, derivation,
check_step, apply_step) also record spans with ids and parents; the hot
ones (coends, actions, boundary, evaluator nodes) only aggregate, because
a span per call would be millions of spans.  `uninstall` puts every
original back.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
import types

PACKAGE = "coendcheck"
clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []          # [id, parent, name, start, end]
        self.assignment_s = []   # duration of each swept object assignment
        self.coend_index_elems = 0
        self.coend_classes = 0
        self.coend_at_hits = 0
        self.steps_failed = 0
        self._child = [0.0]      # time of wrapped calls nested in each open call
        self._span = None        # id of the innermost open span
        self._patched = []       # (owner, name, original attribute)

    def stat(self, key):
        if key not in self.stats:
            self.stats[key] = Stat()
        return self.stats[key]

    # -- wrappers ---------------------------------------------------------

    def timed(self, key, fn, after=None):
        """Count calls of `fn` and accumulate its self and total time."""
        st, child = self.stat(key), self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.calls += 1
                st.self_s += dt - child.pop()
                st.total_s += dt
                child[-1] += dt
            return out if after is None else after(args, out)
        return wrapper

    def spanned(self, name, fn, after=None):
        """`timed`, plus one span per call under the innermost open span."""
        inner = self.timed(name, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([sid, self._span, name, clock(), None])
        self._span = sid
        return sid

    def _close(self, sid):
        span = self.spans[sid]
        span[4] = clock()
        if self._span == sid:
            self._span = span[1]
        return span[4] - span[3]

    def assignments(self, fn):
        """Env.assignments is a generator: one span per yielded assignment,
        covering the caller's work on it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for env in fn(*args, **kwargs):
                sid = self._open("assignment")
                try:
                    yield env
                finally:
                    self.assignment_s.append(self._close(sid))
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, fn, wrapper):
        """Replace `fn` in every package module that binds it."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        self._patched.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def install(self):
        from coendcheck import (cli, demos, fincat, optics, pointed,  # noqa: F401
                                profunctor, rewrite, shapelang)

        self._rebind(fincat.load_fixture, self.timed("fincat.load", fincat.load_fixture))
        self._rebind(fincat.product, self.timed("fincat.product", fincat.product))

        self._rebind(shapelang.parse_shape_script,
                     self.timed("shapelang.parse", shapelang.parse_shape_script))
        self._rebind(shapelang.boundary, self.timed("shapelang.boundary", shapelang.boundary))
        self._patch_method(shapelang.Evaluator, "node",
                           lambda f: self.timed("shapelang.node", f))
        self._patch_method(shapelang.Evaluator, "_build",
                           lambda f: self.timed("shapelang.build", f))
        self._patch_method(shapelang.Env, "assignments", self.assignments)

        def coend_after(args, out):
            coend = args[0]
            self.coend_index_elems += len(coend.index)
            self.coend_classes += len(coend.reps)
            return out
        self._patch_method(profunctor.CoendSet, "__init__",
                           lambda f: self.timed("profunctor.coend", f, coend_after))
        built = self.stat("profunctor.coend")

        def coend_at(f):
            inner = self.timed("profunctor.coend_at", f)

            @functools.wraps(f)
            def wrapper(*args):
                before = built.calls
                out = inner(*args)
                if built.calls == before:
                    self.coend_at_hits += 1
                return out
            return wrapper
        self._patch_method(profunctor.ComposedProf, "coend_at", coend_at)
        self._patch_method(profunctor.ComposedProf, "_act",
                           lambda f: self.timed("profunctor.act", f))
        self._patch_method(profunctor.ComposedProf, "classify",
                           lambda f: self.timed("profunctor.classify", f))

        def apply_step_after(args, out):
            # the element transport closure is the per-element rewrite work
            if isinstance(out, tuple) and len(out) > 1 and callable(out[1]):
                out = (out[0], self.timed("rewrite.transport", out[1])) + out[2:]
            return out

        def check_step_after(args, out):
            if out is None:
                self.steps_failed += 1
            return out
        self._rebind(rewrite.parse_derivation_script,
                     self.timed("rewrite.parse", rewrite.parse_derivation_script))
        self._rebind(rewrite.apply_step,
                     self.spanned("apply_step", rewrite.apply_step, apply_step_after))
        self._rebind(rewrite.check_step,
                     self.spanned("check_step", rewrite.check_step, check_step_after))
        self._rebind(rewrite.check_derivation_once,
                     self.spanned("derivation", rewrite.check_derivation_once))
        self._rebind(rewrite.check_derivation,
                     self.spanned("check", rewrite.check_derivation))
        self._rebind(cli.cmd_eval, self.spanned("check", cli.cmd_eval))
        self._rebind(demos.run_demo, self.spanned("check", demos.run_demo))
        self._patch_method(rewrite.Report, "text",
                           lambda f: self.timed("cli.emit", f))

        for attr in ("from_values", "from_fiber", "from_names"):
            self._patch_method(pointed.OpenDiagram, attr,
                               lambda f: self.timed("pointed.build", f))
        self._rebind(pointed.equal_up_to, self.timed("pointed.assert", pointed.equal_up_to))
        for fn in _public_functions(pointed):
            if fn is not pointed.equal_up_to:
                self._rebind(fn, self.timed("pointed.other", fn))
        for fn in _public_functions(optics):
            self._rebind(fn, self.timed("optics", fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)

    def restored(self):
        """True when every patched name is bound to its original again."""
        return all(vars(owner).get(attr) is val for owner, attr, val in self._patched)

    # -- results ----------------------------------------------------------

    def metrics(self):
        s = self.stat
        node, build = s("shapelang.node"), s("shapelang.build")
        coend_at = s("profunctor.coend_at")
        p50, tail, tail_pct = tail_percentiles([1e3 * d for d in self.assignment_s])
        return {
            "fincat.load_s": (s("fincat.load").total_s, "s"),
            "fincat.product_calls": (s("fincat.product").calls, "count"),
            "shapelang.parse_s": (s("shapelang.parse").total_s, "s"),
            "shapelang.boundary_calls": (s("shapelang.boundary").calls, "count"),
            "shapelang.boundary_self_s": (s("shapelang.boundary").self_s, "s"),
            "shapelang.node_calls": (node.calls, "count"),
            "shapelang.node_builds": (build.calls, "count"),
            "shapelang.node_hit_ratio": (_ratio(node.calls - build.calls, node.calls), "ratio"),
            "shapelang.build_self_s": (build.self_s, "s"),
            "shapelang.assignment_ms.p50": (p50, "ms"),
            "shapelang.assignment_ms.tail": (tail, "ms"),
            "shapelang.assignment_ms.tail_pct": (tail_pct, "%"),
            "shapelang.assignment_ms.count": (len(self.assignment_s), "count"),
            "profunctor.coends_built": (s("profunctor.coend").calls, "count"),
            "profunctor.coend_index_elems": (self.coend_index_elems, "count"),
            "profunctor.coend_unions": (self.coend_index_elems - self.coend_classes, "count"),
            "profunctor.coend_self_s": (s("profunctor.coend").self_s, "s"),
            "profunctor.coend_at_hit_ratio": (_ratio(self.coend_at_hits, coend_at.calls), "ratio"),
            "profunctor.act_calls": (s("profunctor.act").calls, "count"),
            "profunctor.act_self_s": (s("profunctor.act").self_s, "s"),
            "profunctor.classify_calls": (s("profunctor.classify").calls, "count"),
            "profunctor.classify_self_s": (s("profunctor.classify").self_s, "s"),
            "rewrite.parse_s": (s("rewrite.parse").total_s, "s"),
            "rewrite.apply_step_calls": (s("apply_step").calls, "count"),
            "rewrite.apply_step_self_s": (s("apply_step").self_s, "s"),
            "rewrite.transport_calls": (s("rewrite.transport").calls, "count"),
            "rewrite.transport_self_s": (s("rewrite.transport").self_s, "s"),
            "rewrite.check_step_calls": (s("check_step").calls, "count"),
            "rewrite.check_step_self_s": (s("check_step").self_s, "s"),
            "rewrite.steps_failed": (self.steps_failed, "count"),
            "pointed.points_built": (s("pointed.build").calls, "count"),
            "pointed.asserts": (s("pointed.assert").calls, "count"),
            "pointed.self_s": (sum(s(k).self_s for k in
                                   ("pointed.build", "pointed.assert", "pointed.other")), "s"),
            "optics.calls": (s("optics").calls, "count"),
            "optics.self_s": (s("optics").self_s, "s"),
            "cli.emit_self_s": (s("cli.emit").self_s, "s"),
        }


def _public_functions(mod):
    return [v for k, v in vars(mod).items()
            if not k.startswith("_") and isinstance(v, types.FunctionType)
            and v.__module__ == mod.__name__]


def _ratio(num, den):
    return num / den if den else 0.0


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail_percentiles(samples):
    """(median, tail value, tail percentile): the tail is the highest of
    TAIL_PERCENTILES with at least ten samples beyond it (nearest rank),
    or the median when there are too few samples for any of them."""
    if not samples:
        return 0.0, 0.0, 0.0
    xs = sorted(samples)
    n = len(xs)

    def rank(p):
        return max(1, math.ceil(p / 100 * n))
    p50 = xs[rank(50) - 1]
    for p in TAIL_PERCENTILES:
        if n - rank(p) >= 10:
            return p50, xs[rank(p) - 1], float(p)
    return p50, p50, 50.0
