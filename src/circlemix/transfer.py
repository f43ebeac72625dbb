"""Density evolution under piecewise expanding circle maps.

The pullback operator, plus an Ulam oracle.  The pullback operator
evaluates sum_{y in f^-1 x} phi(y)/|f'(y)| at every grid point.  Its
preimages and weights 1/|f'| depend only on the map and the grid, so a
TransferOperator solves them once per (map, G) and every push is then a
weighted sum of samples read at them.  A map is solved lift by lift:
adjacent branches with equal slope, offset and amplitude share one lift,
so unless a mirror pairs one of them they are solved as one branch over
their joined arcs, with one run of targets per lift offset (_lifts).  A
run's bounds are counted in integers, as G is a power of two and target j
of offset k is exactly (j + k*G)/G (_runs).  Most runs of targets read
their samples by two gathers; on an affine branch their sample positions
come from the integers j + k*G (_affine_gathers).  On an affine branch
whose slope is a small rational p/q the preimages of a long run are p
arithmetic progressions with exact, constant fractions, so such a run
reads strided views with two scalar weights per progression instead
(PHASE_MIN_LEN gives the rule and its measurements).  An odd sine map
solves half of its preimages: where a branch on [1 - hi, 1 - lo) mirrors
one on [lo, hi), with the same slope and amplitude and f(1 - x) =
C - f(x) for an exact C with C*G an integer, the target (C*G - J)/G takes
1 - x for the root x of the target J/G, and the same f'.  A derived root
passes the checks of a solved one: its residual, from the solve's carried
sine as sin 2 pi (1 - x) = -sin 2 pi x, and its bracket; its gather piece
mirrors that of x, whose sample index passed the index check.  A target
whose mirror was not solved, at an arc end, or whose derived root fails
is solved directly (_mirrors and _mirrored give the rule).  The caller
builds the operator and pushes through it, so it decides how long an
operator lives: a run that pushes several densities through one map, or
reuses a map, builds it once.  The Ulam matrix, exact on affine branches
and refused on sine ones, discretizes the same operator bin to bin and
serves as an independent consistency oracle.  The phase rule's p/q, a
mirror's C and arcs, and the Ulam cells read BranchSpec.exact.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np

from .density import Density, _mean
from .maps import (BranchSpec, PiecewiseMap, TransferError, _passes,
                   _solve_lift)

# Hard sanity window for the per-step mass renormalization factor; values
# outside it indicate a broken map/density pairing rather than grid error.
FACTOR_WINDOW = (0.5, 2.0)

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

    For each lift (_lifts) and lift offset k, the grid targets j/G + k
    inside its image form one contiguous run of j.  Each preimage x of a
    target contributes the linear interpolant of phi at x divided by
    |f'(x)|: a left sample index i0 and the weights (1 - frac)/|f'| and
    frac/|f'| on samples i0 and i0 + 1.

    A run is stored as pieces (targets, sources, w0, w1).  A gather piece
    holds the whole run: a target slice, an array of i0 and weight arrays,
    from the preimage solve, or on a branch that mirrors an earlier one,
    from that branch's roots, or on an affine branch, from integer targets
    (_affine_gathers).  On an affine branch of exact slope +-p/q
    (BranchSpec.exact) target j + p lies q samples after target j (before,
    on a decreasing branch) with the same fraction, so a run of at least
    PHASE_MIN_LEN * p * q targets is stored as p phase pieces instead:
    strided target and source slices and two scalar weights, from exact
    positions (_phases).

    The operator owns its scratch arrays, the periodic extension of the
    samples and two work buffers as long as its longest piece, so an apply
    allocates only the array it returns.
    """

    def __init__(self, m: PiecewiseMap, G: int):
        self.m = m
        self.G = G
        self._pieces = _pieces(m, G)
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
                s_ext.take(src, out=a, mode="clip")
                np.multiply(a, w0, out=a)
                right.take(src, out=b, mode="clip")
                np.multiply(b, w1, out=b)
            np.add(a, b, out=a)
            dst = acc[tgt]
            np.add(dst, a, out=dst)
        return acc


def _pieces(m: PiecewiseMap, G: int) -> list:
    """The pieces of every run, lift by lift (see _lifts)."""
    # the grid targets, which only sine branches solve for
    ys = None if all(b.is_affine for b in m.branches) else np.arange(G) / G
    mirrors = _mirrors(m, G)
    firsts = {i for i, _ in mirrors.values()}
    held = {}  # the solved runs of a branch, until its mirror builds
    pieces = []
    for n, b in _lifts(m, firsts | mirrors.keys()):
        if n in mirrors:
            i, CG = mirrors[n]
            for k, j0, j1 in _runs(b, G):
                pieces.append(_mirrored(b, G, ys[j0:j1] + k, j0, j1,
                                        CG - k * G, held[i]))
            del held[i]
            continue
        # a run of at least min_run targets is applied as phases; as p*q >=
        # |s|, no run of at most G targets is unless PHASE_MIN_LEN*|s| <= G
        min_run = math.inf
        if b.is_affine and PHASE_MIN_LEN * abs(b.slope) <= G:
            s = b.exact[2]
            min_run = PHASE_MIN_LEN * abs(s.numerator) * s.denominator
        gathers = []  # consecutive affine gather runs, built at once
        for k, j0, j1 in _runs(b, G):
            if b.is_affine and j1 - j0 < min_run:
                gathers.append((k, j0, j1))
                continue
            pieces += _affine_gathers(b, G, gathers)
            gathers = []
            if j1 - j0 >= min_run:
                pieces += _phases(b, G, k, j0, j1)
            elif n in firsts:  # no local keeps the run past its mirror
                held.setdefault(n, []).append(
                    _held_run(b, G, k, ys[j0:j1] + k, j0, j1))
                pieces.append(held[n][-1][-1])
            else:
                pieces.append(_gather(b, G, j0, j1,
                                      *_solve_lift(b, ys[j0:j1] + k)))
        pieces += _affine_gathers(b, G, gathers)
    return pieces


def _lifts(m: PiecewiseMap, paired: set):
    """(n, b) for each lift of m.  Adjacent branches with equal (slope,
    offset, amplitude) share one lift, so a chain of them with no branch
    in paired (those that _mirrors pairs) becomes one branch b over their
    joined arcs, n being the index of its first branch.  The joined image
    is the union of theirs, split at the same float lifts of the inner
    marks, so every target keeps its preimages, and the chain builds one
    run per lift offset instead of one per branch and offset."""
    out = []
    for n, b in enumerate(m.branches):
        if out and n not in paired and out[-1][0] not in paired:
            first, prev = out[-1]
            if ((b.slope, b.offset, b.amplitude)
                    == (prev.slope, prev.offset, prev.amplitude)):
                out[-1] = first, replace(prev, hi=b.hi)
                continue
        out.append((n, b))
    return out


def _held_run(b: BranchSpec, G: int, k: int, t: np.ndarray, j0: int,
              j1: int):
    """(first target J0 = k*G + j0, roots, carried sines, gather piece) of
    the run of targets t, j0 <= j < j1, solved for a mirror branch.  Only
    what the mirror reads outlives the call: f' lives on in the piece's
    weights, and each array held through the mirror's build (128 KB at
    2^14) raises the heap that the next build must fault in again."""
    sines = np.empty(j1 - j0)
    xs, deriv = _solve_lift(b, t, sines)
    return k * G + j0, xs, sines, _gather(b, G, j0, j1, xs, deriv)


def _runs(b: BranchSpec, G: int):
    """(k, j0, j1) for each lift offset k whose grid targets j/G + k meet
    the branch image in j0 <= j < j1.  G is a power of two, so target j of
    offset k is exactly J/G with J = j + k*G, and the bounds are counted
    in integers: an increasing branch holds the J in [ceil(flo*G),
    ceil(fhi*G)), a decreasing one those in [floor(fhi*G) + 1,
    floor(flo*G) + 1).  flo - k in floats could round onto a target:
    -0.49999999999999994 + 1 is 0.5."""
    flo, fhi, offsets = b.image()
    if b.increasing:  # targets in [flo, fhi)
        lo, hi = math.ceil(flo * G), math.ceil(fhi * G)
    else:             # targets in (fhi, flo]
        lo, hi = math.floor(fhi * G) + 1, math.floor(flo * G) + 1
    for k in offsets:
        j0 = min(max(lo - k * G, 0), G)
        j1 = min(max(hi - k * G, 0), G)
        if j0 < j1:
            yield k, j0, j1


def _mirrors(m: PiecewiseMap, G: int) -> dict:
    """{p: (i, C*G)} for each sine branch p that mirrors an earlier branch
    i: their arcs are [lo, hi) and [1 - hi, 1 - lo), their slopes s and
    amplitudes agree, and C = s + both offsets makes C*G an integer.  Then
    f_p(1 - x) = C - f_i(x), as sin 2 pi (1 - x) = -sin 2 pi x, so the root
    x of the target J/G on branch i gives the root 1 - x of the target
    (C*G - J)/G on branch p, where f' takes the same value.  Checked
    exactly on BranchSpec.exact: C*G as one rational, and the arcs."""
    bs = m.branches
    # where 1 - hi is exactly a float lo, the float subtraction returns it,
    # so the lookup finds every mirror arc; the exact data refuse a match
    # that only rounding made
    arcs = {(b.lo, b.hi): i for i, b in enumerate(bs)}
    out = {}
    for i, b in enumerate(bs):
        p = arcs.get((1.0 - b.hi, 1.0 - b.lo), i)
        if p <= i or b.is_affine \
                or (bs[p].slope, bs[p].amplitude) != (b.slope, b.amplitude):
            continue
        (lo, hi, s, c), (p_lo, p_hi, _, pc) = b.exact, bs[p].exact
        CG = (s + c + pc) * G
        if CG.denominator == 1 and (1 - hi, 1 - lo) == (p_lo, p_hi):
            out[p] = (i, CG.numerator)
    return out


def _mirrored(b: BranchSpec, G: int, t: np.ndarray, j0: int, j1: int,
              base: int, solved: list):
    """The gather piece of the targets t, j0 <= j < j1, on the sine branch
    b, from the solved runs (first target J0, roots xs, carried sines,
    gather piece) of its mirror branch (see _mirrors); base is C*G - k*G,
    k the targets' lift offset.

    Target j mirrors index i = base - j - J0 of a run that holds it.  Its
    root is 1 - xs[i], checked by maps._passes with sin 2 pi (1 - x) =
    -sines[i]; at the mirrored sample position G - pos the interpolant
    reads samples G - 1 - i0 and G - i0 with the weights w1 and w0 of
    index i swapped, so a sample index in [0, G - 1] stays there.  The
    other targets, at the arc ends where the half-open images differ, and
    any whose derived root fails its check, are solved and gathered
    directly."""
    n = j1 - j0
    i0, w0, w1 = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    solve = np.ones(n, dtype=bool)
    for first, xs, sines, (_, their_i0, their_w0, their_w1) in solved:
        top = base - first  # the run's index of target j is top - j
        v0, v1 = max(j0, top - xs.size + 1), min(j1, top + 1)
        if v0 < v1:
            own = slice(v0 - j0, v1 - j0)
            theirs = slice(top - v1 + 1, top - v0 + 1)
            solve[own] = ~_passes(b, 1.0 - xs[theirs][::-1], t[own],
                                  -sines[theirs][::-1])
            np.subtract(G - 1, their_i0[theirs][::-1], out=i0[own])
            w0[own] = their_w1[theirs][::-1]
            w1[own] = their_w0[theirs][::-1]
    if solve.any():
        _, i0[solve], w0[solve], w1[solve] = _gather(
            b, G, j0, j1, *_solve_lift(b, t[solve]))
    return slice(j0, j1), i0, w0, w1


def _gather(b: BranchSpec, G: int, j0: int, j1: int, xs: np.ndarray, deriv):
    """The gather piece of the targets j0 <= j < j1 on the sine branch b,
    from their roots xs and the array f' there."""
    pos = xs * G
    pos[pos >= G] -= G  # a float root at the arc's end can reach x = 1
    i0 = np.floor(pos)
    # apply gathers with mode="clip", which would silently move an index
    # outside [0, G - 1] onto an edge sample
    if not (i0.min() >= 0.0 and i0.max() <= G - 1):
        raise TransferError(
            f"preimage sample index outside [0, {G - 1}] on {b}")
    frac = pos - i0
    inv = 1.0 / np.abs(deriv)
    return slice(j0, j1), i0.astype(np.intp), (1.0 - frac) * inv, frac * inv


def _positions(b: BranchSpec, G: int, J0: int, n: int) -> np.ndarray:
    """The sample positions (J - c*G)/s of the roots of the targets J/G,
    J0 <= J < J0 + n, on the affine branch b: an array of n floats, in
    one pass per operation from the integers J."""
    pos = np.arange(J0, J0 + n, dtype=float)
    pos -= b.offset * G
    pos /= b.slope
    return pos


def _affine_gathers(b: BranchSpec, G: int, runs: list) -> list:
    """The gather pieces of the runs (k, j0, j1) of the affine branch b,
    consecutive lift offsets whose targets J = j + k*G follow one another,
    equal bit for bit to _gather of the roots _solve_lift gives.  Target
    j/G + k is exactly J/G, and as G is a power of two, scaling by it
    commutes with rounding: the root's position ((J/G - c)/s)*G is the
    float (J - c*G)/s (_positions), unless the root (J/G - c)/s is
    subnormal, where it is rounded more coarsely.  The positions of all
    the runs are computed at once, and each piece holds views of them.
    They are monotone in J, so the wrap check and the index check read
    the two ends; positions that wrap are checked in full."""
    if not runs:
        return []
    J0 = runs[0][0] * G + runs[0][1]
    pos = _positions(b, G, J0, runs[-1][0] * G + runs[-1][2] - J0)
    lo, hi = (pos[0], pos[-1]) if b.slope > 0 else (pos[-1], pos[0])
    if hi >= G:  # a float root at the arc's end can reach x = 1
        pos[pos >= G] -= G
        lo, hi = pos.min(), pos.max()
    # floor(pos) lies in [0, G - 1] when pos does in [0, G); NaN fails
    if not (lo >= 0.0 and hi < G):
        raise TransferError(
            f"preimage sample index outside [0, {G - 1}] on {b}")
    if lo == 0.0:  # 0/s is -0.0 for s < 0; _gather's fraction there is 0.0
        pos[pos == 0.0] = 0.0
    i0 = pos.astype(np.intp)  # the floor, as pos >= 0
    frac = np.subtract(pos, i0, out=pos)
    inv = 1.0 / abs(b.slope)
    w0 = np.subtract(1.0, frac)
    w0 *= inv
    frac *= inv
    pieces = []
    for k, j0, j1 in runs:
        run = slice(k * G + j0 - J0, k * G + j1 - J0)
        pieces.append((slice(j0, j1), i0[run], w0[run], frac[run]))
    return pieces


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
    _, _, s, c = b.exact
    p, q = abs(s.numerator), s.denominator
    step = q if s > 0 else -q
    shift = (k - c) * G
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


def push(op: TransferOperator, phi: Density) -> Density:
    """One transfer-operator step through op, renormalized to unit mass.

    The raw pullback is exact for the piecewise-linear interpolant up to
    interpolation at preimages; its grid integral drifts from 1 by
    O(variation/G), which is divided out.
    """
    if phi.G != op.G:
        raise ValueError(f"density grid {phi.G} != operator grid {op.G}")
    acc = op.apply(phi.samples)
    raw = _mean(acc)
    if not FACTOR_WINDOW[0] <= raw <= FACTOR_WINDOW[1]:
        raise TransferError(
            f"pushforward mass {raw} outside {FACTOR_WINDOW}: broken map/density pairing")
    return Density._own(np.divide(acc, raw, out=acc))


def ulam_matrix(m: PiecewiseMap, B: int) -> np.ndarray:
    """Ulam's B-bin matrix of the transfer operator: entry (i, j) is the
    fraction of bin j that the map sends into bin i.  On an affine branch,
    in bin units, the arc is [lo*B, hi*B] and u maps to s*u + c*B, so each
    overlap of a segment's image with a bin is a Fraction; a cell sums its
    overlaps / |s| exactly and is rounded once.  A sine branch raises
    ValueError: its entries need rigorous enclosures of the branch's
    preimages (ROADMAP direction 6).  A column sum off 1 by more than 1e-8
    raises TransferError."""
    if B < 2:
        raise ValueError("need at least 2 bins")
    if not all(b.is_affine for b in m.branches):
        raise ValueError("Ulam entries are exact on affine branches only; a "
                         "sine branch needs ROADMAP direction 6's enclosures")
    cells = defaultdict(int)  # each sum of Fraction overlaps
    for b in m.branches:
        lo, hi, s, c = b.exact
        lo, hi, cB = lo * B, hi * B, c * B
        for j in range(math.floor(lo), math.ceil(hi)):
            y0, y1 = sorted((s * max(lo, j) + cB, s * min(hi, j + 1) + cB))
            for i in range(math.floor(y0), math.ceil(y1)):
                cells[i % B, j] += (min(y1, i + 1) - max(y0, i)) / abs(s)
    M = np.zeros((B, B))
    for (i, j), mass in cells.items():
        M[i, j] = float(mass)
    if float(np.abs(M.sum(axis=0) - 1.0).max()) > 1e-8:
        raise TransferError("Ulam column sums deviate from 1 beyond 1e-8")
    return M


def backend_consistency(m: PiecewiseMap, phi: Density, B: int) -> float:
    """L1 distance between the bin-averaged pullback pushforward and the
    Ulam image of the bin-averaged input (B must divide G)."""
    masses_push = push(TransferOperator(m, phi.G), phi).bin_masses(B)
    masses_ulam = ulam_matrix(m, B) @ phi.bin_masses(B)
    return float(np.abs(masses_push - masses_ulam).sum())
