"""Learners and feedback: coend quotients of stateful maps.

The monoidal learner set and the cartesian triple set are enumerated
independently and related by a verified bijection; the feedback set
counts stateful processes modulo sliding the state morphisms.
"""

from coendcheck.fixtures import build
from coendcheck.optics import (feedback_set, learner_reduce, learner_set,
                               learner_triples, triple_to_learner)

mon = build("meet-lattice-2")
c = mon.base
for a in c.objects:
    for b in c.objects:
        ls = learner_set(mon, a, b)
        ts = learner_triples(mon, a, b)
        print(f"learners ({c.obj_name(a)},{c.obj_name(b)}): "
              f"{ls.class_count} monoidal = {ts.class_count} triples")
        for cls in ls.coend.reps:
            tri = learner_reduce(mon, a, b, cls, ts)
            assert triple_to_learner(mon, a, b, tri, ls) == cls

z2 = build("z2")
print("feedback classes over Z/2:", feedback_set(z2, 0, 0).class_count)
