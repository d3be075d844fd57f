"""Open diagrams carry a chosen element through rewrites.

Plug a concrete morphism into a concrete lens, lift the whole shipped
composition script over the point, and compare with the direct
class-level implementation.
"""

from coendcheck.demos import load_scripts
from coendcheck.fixtures import build
from coendcheck.optics import apply_lens, lens_set
from coendcheck.pointed import OpenDiagram, lift_many
from coendcheck.shapelang import Env, Evaluator

sig, script = load_scripts("lens_apply.deriv")
mon = build("z2")
c = mon.base
env = Env(sig, {"C": mon}, objs={k: 0 for k in "ABXY"})
ev = Evaluator(env)

for lens in lens_set(mon, 0, 0, 0, 0).all():
    for h in c.morphisms:
        d = OpenDiagram.from_values(
            ev, sig.shapes["lens-applied"],
            {"g": lens.fwd, "s": (c.identity(0), (0, 0)),
             "f": lens.bwd, "h1": h})
        out = lift_many(script.main.steps, d, ev)
        m, g, f = out.point
        lifted = c.compose(g, f)
        direct = apply_lens(lens, h, mon)
        print(f"lens (fwd={lens.fwd}, bwd={lens.bwd}) with h={h}: "
              f"lifted {lifted}, direct {direct}")
        assert lifted == direct
