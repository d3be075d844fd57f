"""Shipped oracle fixtures.

Six validated universes cover the structure matrix: two thin cartesian
lattices, one thin cocartesian lattice, one non-thin commutative monoid,
a non-thin non-cartesian product, and a discrete category whose tensor is
not commutative and has no braiding.  The JSON files under data/fixtures
are generated from the builders here (tools/gen_fixtures.py) and are the
loadable source of truth for the CLI.
"""

from __future__ import annotations

from importlib import resources

from .fincat import (MonoidalStructure, build_category, from_comm_monoid,
                     from_lattice, load_fixture, product_monoidal)

FIXTURE_NAMES = ("meet-lattice-2", "join-lattice-2", "diamond", "z2", "prod-l2-z2",
                 "right-zero-band")

_CACHE = {}


def build(name) -> MonoidalStructure:
    """Programmatic construction of a shipped fixture."""
    if name == "meet-lattice-2":
        return from_lattice(name, ["0", "1"], {("0", "0"), ("0", "1"), ("1", "1")},
                            "meet")
    if name == "join-lattice-2":
        return from_lattice(name, ["0", "1"], {("0", "0"), ("0", "1"), ("1", "1")},
                            "join")
    if name == "diamond":
        elems = ["bot", "a", "b", "top"]
        order = {(x, x) for x in elems}
        order |= {("bot", "a"), ("bot", "b"), ("bot", "top"),
                  ("a", "top"), ("b", "top")}
        return from_lattice(name, elems, order, "meet")
    if name == "z2":
        ops = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
        return from_comm_monoid(name, [0, 1], ops, 0)
    if name == "prod-l2-z2":
        mon = product_monoidal(build("meet-lattice-2"), build("z2"))
        mon.base.name = name
        return mon
    if name == "right-zero-band":
        # objects 1, a, b with xy = y unless y = 1; the identity of object
        # i is morphism i, so one table tensors objects and morphisms
        ids = {x: f"id_{x}" for x in "1ab"}
        cat = build_category(name, list(ids), {(x, x): [f] for x, f in ids.items()},
                             {(f, f): f for f in ids.values()}, ids)
        xy = {(i, j): j or i for i in range(3) for j in range(3)}
        return MonoidalStructure(cat, xy, dict(xy), 0)
    raise KeyError(f"unknown fixture {name!r}")


def fixture(name) -> MonoidalStructure:
    """Load a shipped fixture from its packaged JSON file (cached)."""
    if name not in _CACHE:
        text = (resources.files("coendcheck") / "data" / "fixtures"
                / f"{name}.json").read_text(encoding="utf-8")
        cat, mon = load_fixture(text)
        if mon is None:
            raise KeyError(f"fixture {name} carries no monoidal block")
        _CACHE[name] = mon
    return _CACHE[name]


def fixture_path(name) -> str:
    return str(resources.files("coendcheck") / "data" / "fixtures" / f"{name}.json")


def bad_fixture_names():
    root = resources.files("coendcheck") / "data" / "fixtures" / "bad"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bad_fixture_path(name) -> str:
    return str(resources.files("coendcheck") / "data" / "fixtures" / "bad"
               / f"{name}.json")
