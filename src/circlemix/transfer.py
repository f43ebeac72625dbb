"""Density evolution under piecewise expanding circle maps.

The pullback operator, plus an Ulam oracle.  The pullback operator
evaluates sum_{y in f^-1 x} phi(y)/|f'(y)| at every grid point.  Its
preimages and weights 1/|f'| depend only on the map and the grid, so a
TransferOperator solves them once per (map, G) and every push is then a
weighted sum of samples read at them.  Most runs of targets read their
samples by two gathers.  On an affine branch whose slope is a small
rational p/q the preimages of a long run are p arithmetic progressions
with exact, constant fractions, so such a run reads strided views with two
scalar weights per progression instead (PHASE_MIN_LEN gives the rule and
its measurements).  The caller builds the operator and pushes through it,
so it decides how long an operator lives: a run that pushes several
densities through one map, or reuses a map, builds it once.  The Ulam
matrix, exact on affine branches, discretizes the same operator bin to
bin and serves as an independent consistency oracle.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from .density import Density
from .maps import BranchSpec, PiecewiseMap, TransferError, _solve_lift

# Hard sanity window for the per-step mass renormalization factor; values
# outside it indicate a broken map/density pairing rather than grid error.
FACTOR_WINDOW = (0.5, 2.0)

ULAM_QUAD_POINTS = 64

# A run of n targets on an affine branch of slope +-p/q is applied as p
# phases when each phase is at least PHASE_MIN_LEN * q targets long
# (n >= PHASE_MIN_LEN * p * q), and gathered otherwise.  A phase saves the
# gathers but reads every q-th sample and costs four numpy calls, so it
# pays only on long phases, the longer the larger q.  Measured on one run
# of affine_map(s, 0.3) (2-core Xeon, numpy 2.4.6; apply time of the phases
# over the gather's, median of 25 alternating timings), where the ratio
# crosses 1:
#   q = 1 (s = 2, 3, 5, 7):  1.10 at phase length 1638, 1.01 at 2340,
#                            0.75-0.81 at 2048-4096 for s = 2, 3;
#   q = 2 (s = 2.5, 3.5):    1.07 at 3276, 0.93 at 4681, 0.84 at 6553;
#   q = 4 (s = 2.25, 2.75):  1.06 at 2978, 0.95-0.98 at 5957-7281,
#                            0.86-0.91 at 11915-14563;
#   q = 8 (s = 2.125):       1.02 at 3855, 0.95 at 7710.
# At G = 2^16, two-slope-wrap's four runs (q = 1 and 2) all qualify; at
# G <= 2^12 only a slope-2 run over the whole grid does.
PHASE_MIN_LEN = 2048


class TransferOperator:
    """The pullback operator of one map on the grid i/G.

    For each branch and lift offset k, the grid targets j/G + k inside the
    branch image form one contiguous run of j.  Each preimage x of a target
    contributes the linear interpolant of phi at x divided by |f'(x)|: a
    left sample index i0 and the weights (1 - frac)/|f'| and frac/|f'| on
    samples i0 and i0 + 1.

    A run is stored as pieces (targets, sources, w0, w1).  A gather piece
    holds the whole run: a target slice, an array of i0 and weight arrays,
    from the preimage solve (f' is the slope, on an affine branch).  On an
    affine branch of slope +-p/q (the float's exact ratio) target j + p
    lies q samples after target j (before, on a decreasing branch) with the
    same fraction, so a run of at least PHASE_MIN_LEN * p * q targets is
    stored as p phase pieces instead: strided target and source slices and
    two scalar weights, from exact positions (_phases).

    The operator owns its scratch arrays, the periodic extension of the
    samples and two work buffers as long as its longest piece, so an apply
    allocates only the array it returns.
    """

    def __init__(self, m: PiecewiseMap, G: int):
        self.m = m
        self.G = G
        ys = np.arange(G) / G
        self._pieces = []
        for b in m.branches:
            flo, fhi, offsets = b.image()
            inc = b.increasing
            # a run of at least min_run targets is applied as phases
            min_run = (PHASE_MIN_LEN
                       * math.prod(abs(b.slope).as_integer_ratio())
                       if b.is_affine else math.inf)
            for k in offsets:
                t = ys + k
                if inc:  # targets in [flo, fhi)
                    j0, j1 = np.searchsorted(t, (flo, fhi), side="left")
                else:    # targets in (fhi, flo]
                    j0, j1 = np.searchsorted(t, (fhi, flo), side="right")
                if j0 >= j1:
                    continue
                if j1 - j0 >= min_run:
                    self._pieces += _phases(b, G, k, int(j0), int(j1))
                else:
                    self._pieces.append(_gather(b, G, t, int(j0), int(j1)))
        self._ext = np.empty(G + 1)
        sizes = [len(range(G)[tgt]) if isinstance(src, slice) else src.size
                 for tgt, src, _, _ in self._pieces]
        work = np.empty((2, max(sizes, default=0)))
        self._bufs = [(work[0, :n], work[1, :n]) for n in sizes]

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Raw (unnormalized) pushforward samples of one density."""
        s_ext = self._ext
        s_ext[:-1] = samples
        s_ext[-1] = samples[0]  # periodic right neighbour
        right = s_ext[1:]
        acc = np.zeros(self.G)
        for (tgt, src, w0, w1), (a, b) in zip(self._pieces, self._bufs):
            if isinstance(src, slice):  # a phase: strided views
                np.multiply(s_ext[src], w0, out=a)
                np.multiply(right[src], w1, out=b)
            else:
                np.take(s_ext, src, out=a, mode="clip")
                np.multiply(a, w0, out=a)
                np.take(right, src, out=b, mode="clip")
                np.multiply(b, w1, out=b)
            np.add(a, b, out=a)
            dst = acc[tgt]
            np.add(dst, a, out=dst)
        return acc


def _gather(b: BranchSpec, G: int, t: np.ndarray, j0: int, j1: int):
    """The gather piece of the targets t[j0:j1], from the preimage solve."""
    xs, deriv = _solve_lift(b, t[j0:j1])
    xs[xs >= 1.0] -= 1.0  # a float root at the arc's end can reach x = 1
    pos = xs * G
    i0 = np.floor(pos)
    # apply gathers with mode="clip", which would silently move an index
    # outside [0, G - 1] onto an edge sample
    if not (i0.min() >= 0.0 and i0.max() <= G - 1):
        raise TransferError(
            f"preimage sample index outside [0, {G - 1}] on {b}")
    frac = pos - i0
    inv = 1.0 / np.abs(deriv)  # a scalar on an affine branch
    return slice(j0, j1), i0.astype(np.intp), (1.0 - frac) * inv, frac * inv


def _phases(b: BranchSpec, G: int, k: int, j0: int, j1: int) -> list:
    """The phase pieces of the targets j0 <= j < j1 on the affine branch b
    of slope s = +-p/q: one for each of j0, ..., j0 + p - 1, holding every
    p-th target from it on.

    The exact root of the target j/G + k sits at the sample position
    (j + (k - c)*G)/s.  A phase reads the samples i, i + q, ... (i, i - q,
    ... on a decreasing branch), i the floor of its first position, with
    the weights (1 - frac)/|s| and frac/|s|, each rounded once from the
    exact fraction.  G is a power of two, as Density requires, so the
    targets are exact floats, and a float target inside the rounded image
    end round(lift(1)) is inside lift(1) itself; lift(0) = c is exact.  So
    every root lies in [0, 1), a phase needs no wrap, and the index check
    refuses one that would.
    """
    s = Fraction(b.slope)
    p, q = abs(s.numerator), s.denominator
    step = q if s > 0 else -q
    shift = (k - Fraction(b.offset)) * G
    inv = 1 / abs(s)
    pieces = []
    for j in range(j0, min(j0 + p, j1)):
        pos = (j + shift) / s
        i = math.floor(pos)
        n = len(range(j, j1, p))
        last = i + (n - 1) * step
        # a strided view would read an index outside [0, G - 1] from the
        # wrong end of the samples, or fall short of n
        if not (0 <= min(i, last) and max(i, last) <= G - 1):
            raise TransferError(
                f"preimage sample index outside [0, {G - 1}] on {b}")
        frac = pos - i
        stop = last + step
        pieces.append((slice(j, j1, p),
                       slice(i, stop if stop >= 0 else None, step),
                       float((1 - frac) * inv), float(frac * inv)))
    return pieces


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


def ulam_matrix(m: PiecewiseMap, B: int) -> np.ndarray:
    """Ulam's B-bin matrix of the transfer operator: entry (i, j) is the
    fraction of bin j that the map sends into bin i.  On an affine branch,
    in bin units, the arc is [lo*B, hi*B] and u maps to s*u + c*B, so each
    overlap of a segment's image with a bin is a Fraction; a cell sums its
    overlaps / |s| exactly and is rounded once.  A sine branch's entries
    come from midpoint quadrature, ULAM_QUAD_POINTS per segment.  A column
    sum off 1 by more than 1e-8 raises TransferError."""
    if B < 2:
        raise ValueError("need at least 2 bins")
    M = np.zeros((B, B))
    cells = defaultdict(Fraction)
    for b in m.branches:
        if b.is_affine:
            s, cB = Fraction(b.slope), Fraction(b.offset) * B
            lo, hi = Fraction(b.lo) * B, Fraction(b.hi) * B
            for j in range(math.floor(lo), math.ceil(hi)):
                y0, y1 = sorted((s * max(lo, j) + cB, s * min(hi, j + 1) + cB))
                for i in range(math.floor(y0), math.ceil(y1)):
                    cells[i % B, j] += (min(y1, i + 1) - max(y0, i)) / abs(s)
            continue
        n = ULAM_QUAD_POINTS
        for j in range(B):
            seg_lo, seg_hi = max(b.lo, j / B), min(b.hi, (j + 1) / B)
            if seg_hi > seg_lo:
                xs = seg_lo + (seg_hi - seg_lo) * (np.arange(n) + 0.5) / n
                vals = b.lift(xs)
                vals = vals - np.floor(vals)
                idx = np.minimum((vals * B).astype(np.int64), B - 1)
                np.add.at(M, (idx, j), (seg_hi - seg_lo) * B / n)
    for (i, j), mass in cells.items():
        M[i, j] += float(mass)
    if float(np.abs(M.sum(axis=0) - 1.0).max()) > 1e-8:
        raise TransferError("Ulam column sums deviate from 1 beyond 1e-8")
    return M


def backend_consistency(m: PiecewiseMap, phi: Density, B: int) -> float:
    """L1 distance between the bin-averaged pullback pushforward and the
    Ulam image of the bin-averaged input (B must divide G)."""
    masses_push = push(TransferOperator(m, phi.G), phi).bin_masses(B)
    masses_ulam = ulam_matrix(m, B) @ phi.bin_masses(B)
    return float(np.abs(masses_push - masses_ulam).sum())
