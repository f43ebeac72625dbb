"""Covering combinatorics with exact endpoints.

Cylinder partitions, the enveloping time, escape times of fine cylinders,
and the resulting positivity floor: after n0 steps every density from the
variation cone is provably bounded below by an explicit constant.  All
interval arithmetic for affine maps runs over exact rationals, so these
claims never hinge on roundoff.
"""

import numpy as np

from circlemix import (Density, TransferOperator, cylinder_partition,
                       doubling_map, enveloping_time, escape_time,
                       positivity_horizon, push, slope3_two_branch,
                       two_slope_wrap_map, verify_overcover)

g = slope3_two_branch()

print("two-step cylinders of 3x mod 1 (two branches):")
for c in cylinder_partition([g] * 2, 2):
    print(f"  [{c.lo}, {c.hi})  itinerary {c.itinerary}")

print("\nenveloping times:")
print("  3x two-branch:", enveloping_time(g))
print("  two-slope wrap:", enveloping_time(two_slope_wrap_map()))
print("  doubling:", enveloping_time(doubling_map()),
      "(open images always miss the origin)")

# Escape: iterate a cylinder, keeping the longer piece whenever the image
# straddles a partition point, until it covers a full first-level interval.
cyls = cylinder_partition([g] * 4, 4)
s, witness = escape_time(g, cyls[0])
print(f"\nfirst 4-cylinder escapes in {s} steps; witness "
      f"[{witness[0]}, {witness[1]})")

rep = positivity_horizon(g, a_star=10.0, eps=0.01)
print(f"\npositivity horizon at cone level 10: depth n1={rep.n1}, "
      f"worst escape s0={rep.s0}, enveloping N={rep.N}, so n0={rep.n0}")
print(f"floors: kappa0 = {rep.kappa0:.6f} (= 1/162), "
      f"kappa_eps = {rep.kappa_eps:.6f}")

# The floor bites even for a density vanishing on 80% of the circle.
G = 2 ** 13
spike = Density.from_samples(np.where(np.arange(G) / G < 0.2, 5.0, 0.0))
op, cur, mins = TransferOperator(g, G), spike, []
for _ in range(rep.n0):
    cur = push(op, cur)
    mins.append(cur.min_value())
print("\nspike density minima step by step:",
      " ".join(f"{v:.4f}" for v in mins))
print(f"final minimum {mins[-1]:.4f} >= kappa0 = {rep.kappa0:.6f}")

# Overcovering of a shrunk interval under a short map sequence.
print("\novercover of (0.01, 0.49) under one application of 3x:",
      verify_overcover([g], (0.0, 0.5), 0.01))
