"""Pushing densities forward, two ways.

The pullback backend evaluates sum phi(y)/|f'(y)| over preimages at every
grid point; the Ulam backend moves bin masses through a column-stochastic
matrix.  They approximate the same operator with different error models,
so their disagreement should shrink linearly as the bin count grows.
"""

import numpy as np

from circlemix import (Density, TransferOperator, backend_consistency,
                       doubling_map, push, slope25_map, ulam_matrix)

G = 4096

# An operator solves the map's preimages on the grid once; every push
# through it is then a weighted sum of samples.  The uniform density is
# invariant for the doubling map, and the first Fourier mode dies in a
# single step.
doubling = TransferOperator(doubling_map(), G)
u = Density.uniform(G)
wave = Density.sine(G, 1, 0.5)
print("doubling, uniform  -> max deviation:",
      float(np.abs(push(doubling, u).samples - 1).max()))
print("doubling, 1+sin/2  -> L1 from uniform:",
      push(doubling, wave).l1_distance(u))

# 2.5x mod 1 sends the uniform density to a two-level step: three branches
# cover the lower half-circle, two the upper.
step = push(TransferOperator(slope25_map(), G), u)
print("2.5x, uniform -> samples at 0.1 and 0.9:",
      step.samples[G // 10], step.samples[9 * G // 10])

# Iterating reuses the operator; keep every intermediate density.
cur, seq = Density.sine(G, 4, 0.5), []
for _ in range(3):
    cur = push(doubling, cur)
    seq.append(cur)
print("mode-4 cascade L1 to uniform:",
      ["%.2e" % d.l1_distance(u) for d in seq])

# The Ulam matrix of the doubling map at two bins is the 2x2 matrix of
# halves; pushing the uniform mass vector reproduces itself.
U = ulam_matrix(doubling_map(), 2)
print("\nUlam(doubling, B=2):\n", U)
print("uniform masses stay put:", U @ np.array([0.5, 0.5]))

# Cross-backend agreement at growing resolution (first-order in 1/B).
x = np.arange(G * 2) / (G * 2)
phi = Density.from_samples(1 + 0.3 * np.sin(2 * np.pi * x)
                           + 0.2 * np.cos(4 * np.pi * x))
print("\nbackend disagreement for 2.5x mod 1:")
for B in (64, 128, 256, 512, 1024):
    print(f"  B={B:5d}: {backend_consistency(slope25_map(), phi, B):.3e}")
