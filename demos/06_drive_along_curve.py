"""Driving the system along a curve of maps, slowly enough to mix.

A path of maps (here: slope interpolating 2.5 -> 3.5) is probed at finitely
many parameters; each probe certifies a neighborhood radius, a positivity
horizon, and a block length.  The safe parameter mesh delta0 guarantees
that every matching block completes inside one probe's neighborhood, no
matter where the drive currently sits, so memory decays at a certified
rate even though the dynamics never stops changing.
"""

import json
import os
import tempfile

from circlemix import slope_curve
from circlemix.bounds import delta0_of_curve
from circlemix.scenarios import Scenario, run_scenario

curve = slope_curve(2.5, 3.5, interval=(0.0, 1.0))
cover = delta0_of_curve(curve, [i / 8 for i in range(9)])

print("probe table:")
for p in cover.probes:
    print(f"  t={p.t:5.3f} eps={p.eps:.4f} alpha={p.alpha:.5f} "
          f"n0={p.covering.n0} tau={p.tau} block={p.n_block} "
          f"kappa={p.kappa:.2e}")
print(f"covered: {cover.covered}; safe mesh delta0 = {cover.delta0:.4e}")

# Run the drive at the certified mesh.  The block planner re-anchors to
# whichever probe window contains the current parameter.
sc = Scenario(name="drive", kind="curve-driven", grid=2 ** 12, n_max="auto",
              seed=3, phi={"preset": "sine"}, psi={"preset": "uniform"},
              curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                     "interval": [0, 1]},
              mesh="auto", probes=9)
out_dir = os.path.join(tempfile.gettempdir(), "drive_demo")
res = run_scenario(sc, out_dir)
led = res.ledger
# the resolved step count and mesh are recorded in the written scenario.json
with open(res.artifacts["scenario"]) as fh:
    resolved = json.load(fh)
print(f"\ndrive: {resolved['n_max']} steps at mesh "
      f"{resolved['curve']['resolved_mesh']:.4e}, exit code {res.exit_code}")
print("anchors used:", sorted({rec.anchor for rec in led.blocks}))
d = led.distances()
marks = [0, 5, 10, 20, 40, 80, len(d) - 1]
print("distance along the drive:")
for n in marks:
    print(f"  n={n:3d}  {d[n]:.3e}")
print(f"certificate passed: {res.certificate.passed}; "
      f"artifacts in {out_dir}")
