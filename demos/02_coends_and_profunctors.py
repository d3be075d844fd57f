"""Coends over finite categories, computed as union-find coequalizers.

A profunctor assigns a finite set to each pair of objects plus a
two-sided morphism action; its coend identifies elements along the
sliding relation, and the quotient keeps a canonical least representative
per class.
"""

from coendcheck.fixtures import build
from coendcheck.profunctor import (ComposedProf, coend, companion, conjoint,
                                   hom_prof, point)

z2 = build("z2").base

# the coend of the hom profunctor over Z/2: conjugation is trivial in an
# abelian group, so two classes survive
ce = coend(hom_prof(z2))
print("coend of hom over Z/2:", ce.class_count, "classes")
for rep in ce.reps:
    print("  class of", rep, "with members", ce.members(rep))

# composing two representables collapses by the Yoneda lemma
chain = build("meet-lattice-2").base
lo, hi = chain.obj_id("0"), chain.obj_id("1")
comp = ComposedProf(companion(point(chain, lo)), conjoint(point(chain, hi)))
print("|C(0,-) ; C(-,1)| =", len(comp.fiber(0, 0)), "=|C(0,1)|")
