"""The matching scheme end to end on a fixed map.

Two densities evolve under the same maps; every block the engine verifies
the positivity floor, splits off a matched constant, and renormalizes the
remainder.  The residual mass telescopes, the raw L1 distance stays below
2 * residual, and a log-linear fit extracts the realized per-step rate,
which is far better than the certified one (the certificate is a proof,
the fit is an observation).
"""

import os
import tempfile

import numpy as np

from circlemix import (Density, certify, fit_decay, run_coupled,
                       slope3_two_branch)
from circlemix.scenarios import Scenario, plan_piecewise, read_scenario

G = 2 ** 12
sc = Scenario(name="demo", kind="fixed-map", grid=G, n_max=40, seed=2,
              phi={"preset": "sine"}, psi={"preset": "uniform"},
              family={"map": {"form": "slope3-two-branch"}})
plan = plan_piecewise(read_scenario(sc))
bounds, covering = plan.report, plan.covering

print(f"constants: a*={bounds.a_star:.3f} kappa={bounds.kappa:.5f} "
      f"n0={covering.n0} tau={bounds.tau} block={bounds.block} "
      f"certified rate {bounds.Lambda:.6f}")

rng = np.random.Generator(np.random.PCG64(9))
phi = Density.random_bv(G, 4.0, rng)
psi = Density.uniform(G)
led = run_coupled([slope3_two_branch()] * 40, phi, psi, bounds=bounds)

print(f"\ncone entry at step {led.n_wait}; "
      f"{len(led.blocks)} matching blocks completed")
print("block ledger (end step, kappa, residual, raw distance):")
l1 = led.steps["l1_distance"]
for rec in led.blocks:
    print(f"  end {rec.end:3d}  kappa {rec.kappa_used:.5f}  "
          f"residual {rec.residual_after:.5f}  raw {l1[rec.end]:.3e}")

cert = certify(led)
print(f"\nenvelope certificate: passed={cert.passed} "
      f"tightest raw/envelope ratio {cert.max_ratio:.2e}")

fit = fit_decay(led.distances())
print(f"fitted per-step rate {fit.Lambda_emp:.4f} over "
      f"{fit.n_points} usable points (R^2 = {fit.R2:.4f})")
print(f"certified per-step rate {bounds.Lambda:.6f} "
      "(a guaranteed bound, not an estimate)")

led_path = os.path.join(tempfile.gettempdir(), "matching_demo_ledger.csv")
led.to_csv(led_path)
print(f"\nper-step ledger written to {led_path}")
