"""Density evolution under piecewise expanding circle maps.

Two interchangeable backends.  The primary pullback backend evaluates
sum_{y in f^-1 x} phi(y)/|f'(y)| at every grid point.  The preimages and
the weights 1/|f'| depend only on the map and the grid, so a
TransferOperator solves them once per (map, G) and every push is then two
gathers and a weighted sum.  The caller builds the operator and pushes
through it, so it decides how long an operator lives: a run that pushes
several densities through one map, or reuses a map, builds it once.  The
Ulam backend discretizes the same operator as a column-stochastic
bin-to-bin mass-transport matrix and serves as an independent consistency
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import Density
from .maps import PiecewiseMap, TransferError, _solve_lift

# Hard sanity window for the per-step mass renormalization factor; values
# outside it indicate a broken map/density pairing rather than grid error.
FACTOR_WINDOW = (0.5, 2.0)

ULAM_QUAD_POINTS = 64


class TransferOperator:
    """The pullback operator of one map on the grid i/G.

    For each branch and lift offset k, the grid targets j/G + k inside the
    branch image form one contiguous run of j, stored as a slice.  Each
    preimage x of a target contributes the linear interpolant of phi at x
    divided by |f'(x)|: a left sample index i0 and the weights
    (1 - frac)/|f'| and frac/|f'| on samples i0 and i0 + 1.  f' comes with
    the preimages from the solve (the slope, on an affine branch).

    The operator owns its scratch arrays, the periodic extension of the
    samples and two work buffers as long as its longest run, so an apply
    allocates only the array it returns.
    """

    def __init__(self, m: PiecewiseMap, G: int):
        self.m = m
        self.G = G
        ys = np.arange(G) / G
        self._runs = []
        for b in m.branches:
            flo, fhi, offsets = b.image()
            inc = b.increasing
            for k in offsets:
                t = ys + k
                if inc:  # targets in [flo, fhi)
                    j0, j1 = np.searchsorted(t, (flo, fhi), side="left")
                else:    # targets in (fhi, flo]
                    j0, j1 = np.searchsorted(t, (fhi, flo), side="right")
                if j0 >= j1:
                    continue
                xs, deriv = _solve_lift(b, t[j0:j1])
                xs[xs >= 1.0] -= 1.0
                pos = xs * G
                i0 = np.floor(pos)
                # apply gathers with mode="clip", which would silently
                # move an index outside [0, G - 1] onto an edge sample
                if not (i0.min() >= 0.0 and i0.max() <= G - 1):
                    raise TransferError(
                        f"preimage sample index outside [0, {G - 1}] on {b}")
                frac = pos - i0
                inv = 1.0 / np.abs(deriv)  # a scalar on an affine branch
                self._runs.append((slice(int(j0), int(j1)), i0.astype(np.intp),
                                   (1.0 - frac) * inv, frac * inv))
        self._ext = np.empty(G + 1)
        longest = max((i0.size for _, i0, _, _ in self._runs), default=0)
        self._a = np.empty(longest)
        self._b = np.empty(longest)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Raw (unnormalized) pushforward samples of one density."""
        s_ext = self._ext
        s_ext[:-1] = samples
        s_ext[-1] = samples[0]  # periodic right neighbour
        right = s_ext[1:]
        acc = np.zeros(self.G)
        for sl, i0, w0, w1 in self._runs:
            a = self._a[:i0.size]
            b = self._b[:i0.size]
            np.take(s_ext, i0, out=a, mode="clip")
            np.multiply(a, w0, out=a)
            np.take(right, i0, out=b, mode="clip")
            np.multiply(b, w1, out=b)
            np.add(a, b, out=a)
            np.add(acc[sl], a, out=acc[sl])
        return acc


def push_with_factor(op: TransferOperator,
                     phi: Density) -> tuple[Density, float]:
    """One transfer-operator step, plus the mass renormalization factor.

    The raw pullback is exact for the piecewise-linear interpolant up to
    interpolation at preimages; its grid integral drifts from 1 by
    O(variation/G), which is divided out and returned.
    """
    if phi.G != op.G:
        raise ValueError(f"density grid {phi.G} != operator grid {op.G}")
    acc = op.apply(phi.samples)
    raw = float(acc.mean())
    if not FACTOR_WINDOW[0] <= raw <= FACTOR_WINDOW[1]:
        raise TransferError(
            f"pushforward mass {raw} outside {FACTOR_WINDOW}: broken map/density pairing")
    return Density._own(np.divide(acc, raw, out=acc)), 1.0 / raw


def push(op: TransferOperator, phi: Density) -> Density:
    return push_with_factor(op, phi)[0]


def push_sequence(maps, phi: Density) -> list[Density]:
    """Iterates push along f_1, f_2, ..., returning every intermediate.

    A map equal to the one before it reuses its operator.  An empty map
    list returns [] (the identity composition leaves phi as the step-0
    density).
    """
    out = []
    cur = phi
    op = None
    for m in maps:
        if op is None or op.m != m:
            op = None  # drop the old operator before building the next
            op = TransferOperator(m, phi.G)
        cur = push(op, cur)
        out.append(cur)
    return out


@dataclass(frozen=True)
class UlamMatrix:
    """Column-stochastic bin transport matrix; entry (i, j) is the fraction
    of bin j whose image lands in bin i."""

    B: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.B, self.B):
            raise ValueError("entries must be B x B")
        if np.any(e < 0.0):
            raise ValueError("negative Ulam entry")
        colsum = e.sum(axis=0)
        if float(np.abs(colsum - 1.0).max()) > 1e-8:
            raise TransferError("Ulam column sums deviate from 1 beyond 1e-8")
        object.__setattr__(self, "entries", e)


def ulam_matrix(m: PiecewiseMap, B: int) -> UlamMatrix:
    """Bin transport matrix: exact interval arithmetic on affine branches,
    midpoint quadrature (64 points per segment) on sine-perturbed ones."""
    if B < 2:
        raise ValueError("need at least 2 bins")
    M = np.zeros((B, B))
    for b in m.branches:
        sgn = 1.0 if b.increasing else -1.0
        for j in range(B):
            seg_lo = max(b.lo, j / B)
            seg_hi = min(b.hi, (j + 1) / B)
            if seg_hi <= seg_lo:
                continue
            if b.is_affine:
                a_l = float(b.lift(seg_lo))
                b_l = float(b.lift(seg_hi))
                lo, hi = (a_l, b_l) if sgn > 0 else (b_l, a_l)
                # the bin index is carried: floor(((i + 1) / B) * B) can
                # round to i, which would never step past bin i
                s = lo
                i = math.floor(s * B)
                while hi - s > 1e-15:
                    e = min(hi, (i + 1) / B)
                    if e > s:
                        M[i % B, j] += (e - s) / abs(b.slope) * B
                        s = e
                    i += 1
            else:
                n = ULAM_QUAD_POINTS
                xs = seg_lo + (seg_hi - seg_lo) * (np.arange(n) + 0.5) / n
                vals = b.lift(xs)
                vals = vals - np.floor(vals)
                idx = np.minimum((vals * B).astype(np.int64), B - 1)
                w = (seg_hi - seg_lo) * B / n
                np.add.at(M, (idx, j), w)
    return UlamMatrix(B, M)


def ulam_push(U: UlamMatrix, masses: np.ndarray) -> np.ndarray:
    return U.entries @ np.asarray(masses, dtype=float)


def backend_consistency(m: PiecewiseMap, phi: Density, B: int) -> float:
    """L1 distance between the bin-averaged pullback pushforward and the
    Ulam image of the bin-averaged input (B must divide G)."""
    masses_in = phi.bin_masses(B)
    pushed = push(TransferOperator(m, phi.G), phi)
    masses_push = pushed.bin_masses(B)
    masses_ulam = ulam_push(ulam_matrix(m, B), masses_in)
    return float(np.abs(masses_push - masses_ulam).sum())
