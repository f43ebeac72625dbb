"""Variation control: the one-step inequality and the absorption schedule.

One transfer step contracts total variation by 2/inf|f'| and adds at most
the map's coefficient A; iterating drives any rough density into a fixed
variation cone after an explicitly computable number of steps.
"""

import numpy as np

from circlemix import (Density, TransferOperator, analyze, push,
                       two_slope_wrap_map)
from circlemix.bounds import tau_piecewise
from circlemix.scenarios import (draw_two_slope_wrap, run_absorption,
                                 two_slope_wrap_family_bounds)

G = 2 ** 13
m = two_slope_wrap_map()
op = TransferOperator(m, G)
an = analyze(m)
print(f"two-slope wrap: 2/lambda = {2 / an.lambda_min:.4f}, A = {an.A:.4f}")

rng = np.random.Generator(np.random.PCG64(1))
print("\none-step variation bound on rough densities:")
for _ in range(5):
    phi = Density.random_bv(G, 40.0, rng)
    v0 = phi.variation()
    v1 = push(op, phi).variation()
    bound = 2 / an.lambda_min * v0 + an.A
    print(f"  V(phi)={v0:7.2f}  V(P phi)={v1:7.2f}  bound {bound:7.2f}")

# Schedule: how many steps guarantee variation <= 25 starting from 200,
# over the whole random wrap family (inf expansion 2.5, coefficient sup 4)?
fam = two_slope_wrap_family_bounds()
tau = tau_piecewise(200.0, 25.0, fam.lambda0, fam.A0)
print(f"\nfamily bounds: lambda0={fam.lambda0}, A0={fam.A0}")
print(f"scheduled absorption time tau(200 -> 25) = {tau}")

# The scheduled bound is loose in practice: random sequences land far
# inside the cone by step tau.
report = run_absorption({"a": 200.0, "a_star": 25.0, "grid": G,
                         "seeds": 10, "seed": 0})
print(f"worst final variation over 10 seeded runs: "
      f"{report['worst_final_variation']:.3f} (allowed 26.25)")

# A single trajectory of the variation for one random sequence.
rng = np.random.Generator(np.random.PCG64(7))
phi = Density.random_bv(G, 200.0, rng)
track = [phi.variation()]
for _ in range(tau):
    phi = push(TransferOperator(draw_two_slope_wrap({}, rng), G), phi)
    track.append(phi.variation())
print("\nvariation trajectory:", " ".join(f"{v:.1f}" for v in track))
