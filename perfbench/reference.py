"""A fixed reference kernel that measures how fast the host runs right now.

    python3 perfbench/reference.py     # prints one kernel time in seconds

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes, more than any statistic inside a one-minute run can
absorb.  run.py therefore runs this kernel on the same CPU between the
passes of a workload and reports times scaled to a host on which the
kernel takes REFERENCE_S seconds.  The kernel imports nothing from
coendcheck, so a change to the program leaves it untouched.  It does the
two kinds of work the checker's hot path does, over a working set of a
few MB, so that it slows down with the program when other tenants load
the host: a data-bound quotient (tuple-valued elements, dict action
tables, a union-find) and a call-bound one (a composite's action through
method calls on small category and profunctor objects, as
ComposedProf._act makes them).  Either part alone followed the program's
slowdowns less closely than the two together.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.45    # about the kernel's time on a quiet 2 GHz Xeon core
N_ELEMS = 20000
N_ACTIONS = 6
ROUNDS = 2
CLASSES = 20          # the quotient the data-bound part must arrive at
FIBER = 50
COMPOSITE_CLASSES = 36    # the quotient the call-bound part must arrive at


def _data_bound():
    elems = [((i % 17, i % 5), (i % 13, ("m", i % 7)), i) for i in range(N_ELEMS)]
    index = {e: n for n, e in enumerate(elems)}
    # action tables: each maps an element to another one, as f . - . g
    # would, and keeps its index modulo CLASSES, which fixes the quotient
    actions = [{e: elems[(n + CLASSES * (7 * a + 3)) % N_ELEMS] for n, e in enumerate(elems)}
               for a in range(N_ACTIONS)]
    parent = list(range(N_ELEMS))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for _ in range(ROUNDS):
        for table in actions:
            for e in elems:
                a, b = find(index[e]), find(index[table[e]])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    classes = {}
    for n, e in enumerate(elems):
        classes.setdefault(find(n), []).append(e)
    reps = sorted(min(members, key=lambda e: (e[2], e[0], e[1]))
                  for members in classes.values())
    return len(reps)


class _Cat:
    """Objects 0..n-1 and k arrows (i, j, x) from each i to each j."""

    def __init__(self, n, k):
        self.arrows = [(i, j, x) for i in range(n) for j in range(n) for x in range(k)]
        self._dom = {f: f[0] for f in self.arrows}
        self._cod = {f: f[1] for f in self.arrows}
        self._id = {i: (i, i, 0) for i in range(n)}

    def dom(self, f):
        return self._dom[f]

    def cod(self, f):
        return self._cod[f]

    def identity(self, x):
        return self._id[x]


class _Prof:
    def __init__(self, mult):
        self._act_fn = lambda f, g, v: (v * mult + f[2] + 3 * g[2] + f[0]) % FIBER

    def act(self, f, g, v):
        return self._act_fn(f, g, v)


class _Composite:
    def __init__(self, cat, p, q):
        self.cat, self.p, self.q = cat, p, q
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x in parent and parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def classify(self, a, c, m, u, w):
        return self.find((a, c, m, u, w))

    def act(self, f, g, val):
        m, u, w = val
        cat = self.cat
        u2 = self.p.act(f, cat.identity(m), u)
        w2 = self.q.act(cat.identity(m), g, w)
        return self.classify(cat.dom(f), cat.cod(g), m, u2, w2)

    def union(self, x, y):
        if x != y:
            self.parent[max(x, y)] = min(x, y)


def _call_bound():
    cat = _Cat(3, 2)
    comp = _Composite(cat, _Prof(7), _Prof(11))
    pairs = [(f, g) for f in cat.arrows[::3] for g in cat.arrows[1::4]][:10]
    for m in range(3):
        for u in range(FIBER):
            for w in range(FIBER):
                for f, g in pairs:
                    comp.union(comp.classify(cat.dom(f), cat.cod(g), m, u, w),
                               comp.act(f, g, (m, u, w)))
    return len({comp.find(k) for k in list(comp.parent)})


def reference_kernel():
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    classes = _data_bound(), _call_bound()
    elapsed = time.perf_counter() - t0
    if classes != (CLASSES, COMPOSITE_CLASSES):
        raise RuntimeError(f"reference kernel found {classes} classes, "
                           f"not {(CLASSES, COMPOSITE_CLASSES)}")
    return elapsed


if __name__ == "__main__":
    print(f"{reference_kernel():.4f}")
