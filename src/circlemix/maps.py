"""Piecewise expanding circle maps with explicit branch structure.

A map is a finite list of monotone branches on half-open arcs [u, v) that
tile [0, 1).  Each branch is either affine, x -> s*x + c (mod 1), or
sine-perturbed, x -> s*x + c + a*sin(2*pi*x) (mod 1).  Both forms have
closed-form derivatives and monotone, invertible lifts, so preimages are
exact (affine) or solved by Newton's method, warm-started from the inverse
of the lift's linear interpolant on a table and kept inside a proven bracket
(sine), to a residual of at most 1e-14 * max(1, |t|) for target t; a solve
left above 1e-12 raises.  Convergence is tested at each iterate before it
steps, so from the table start a sine solve takes one Newton step and the
residual that passes is the returned root's own.  The solve returns f' at
each root with it, and a sine solve evaluates one sin/cos pair per target:
a short step carries the pair by angle addition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .config import Field, Format, read

TWO_PI = 2.0 * math.pi

# The most units of image a map's branches span in total, and so the most
# branches affine_map builds from natural marks, one unit each.  A map's
# operator holds about span*G targets, one run per branch and unit.
AFFINE_BRANCH_MAX = 1024

# Circle points closer than this are treated as equal when classifying
# branch junctions as continuous.
CONTINUITY_TOL = 1e-12

# Grid density per interval for the C2 norms in neighborhood_distance, and
# the stride of sine_screen's coarse pass (65 of the 4097 samples).
NEIGHBORHOOD_GRID = 4096
COARSE_STRIDE = 64

# Preimage solves on sine branches stop once every residual
# |lift(x) - t| is at most SOLVE_TOL * max(1, |t|).  The warm-start table
# of a chunk is sized so that one Newton step reaches SOLVE_TOL (see
# _start_spacing), but has at most one node per target; SOLVE_MAX_ITERS
# bisections alone would shrink any bracket below 1e-17, and a residual
# still above SOLVE_GUARD at the cap raises.
SOLVE_TOL = 1e-14
SOLVE_GUARD = 1e-12
SOLVE_MAX_ITERS = 60
# Targets are solved in chunks of at most this many: the solver's
# temporaries stay small and in cache, and a slow point iterates only its
# own chunk.
SOLVE_CHUNK = 4096
# A Newton step that moves the angle 2 pi x by |d| <= ROTATE_MAX carries
# sin and cos to the new iterate by angle addition with cos d ~ 1 - d^2/2
# and sin d ~ d - d^3/6.  The truncation errors, d^4/24 <= 4.2e-18 and
# |d|^5/120 <= 8.4e-23 (relative d^4/120 <= 8.4e-19), are below half an
# ulp of the results, so a carried value differs from np.sin/np.cos of the
# same angle only by the roundoff of the rotation; a longer step calls
# np.sin/np.cos.
ROTATE_MAX = 1e-4


class MapFormError(ValueError):
    """Raised for malformed branch structures (non-tiling, non-expanding)."""


class TransferError(RuntimeError):
    """A preimage solve or a pushforward failed its numerical check."""


def wrap(x):
    """Reduce a point to the fundamental domain [0, 1)."""
    return x - math.floor(x)


def circle_dist(x: float, y: float) -> float:
    """Shortest arc distance between two circle points."""
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _sine_jet(slope, offset, amplitude, x, sin2, cos2):
    """(lift, f', f'') of the sine branch x -> slope*x + offset +
    amplitude*sin(2 pi x) at x, from the tables sin2 and cos2 of 2 pi x.
    The parameters may be (B, 1) columns, giving B rows of values."""
    return (slope * x + offset + amplitude * sin2,
            slope + TWO_PI * amplitude * cos2,
            -(TWO_PI ** 2) * amplitude * sin2)


@dataclass(frozen=True)
class BranchSpec:
    """One monotone branch on the half-open arc [lo, hi).

    The lift s*x + c + a*sin(2*pi*x) must have a derivative of constant
    sign and modulus > 1 on the closed arc.
    """

    lo: float
    hi: float
    slope: float
    offset: float = 0.0
    amplitude: float = 0.0

    @property
    def is_affine(self) -> bool:
        return self.amplitude == 0.0

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @cached_property
    def exact(self) -> tuple[Fraction, ...]:
        """(lo, hi, slope, offset) as the exact rationals that exact
        arithmetic reads: the values of the floats (or ints) held."""
        return tuple(map(Fraction, (self.lo, self.hi, self.slope, self.offset)))

    def lift(self, x):
        """Branch lift (no mod-1 reduction); valid on a neighborhood of [lo, hi]."""
        if self.amplitude == 0.0:
            return self.slope * x + self.offset
        return self.slope * x + self.offset + self.amplitude * np.sin(TWO_PI * x)

    def deriv(self, x):
        if self.amplitude == 0.0:
            return self.slope * np.ones_like(np.asarray(x, dtype=float))
        return self.slope + TWO_PI * self.amplitude * np.cos(TWO_PI * x)

    def deriv2(self, x):
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(x, dtype=float))
        return -(TWO_PI ** 2) * self.amplitude * np.sin(TWO_PI * x)

    def deriv_range(self) -> tuple[float, float]:
        """(min, max) of f' over the closed arc, by extremal calculus on cos
        (the slope, on an affine branch)."""
        if self.amplitude == 0.0:
            s = float(self.slope)  # a config may give an int
            return s, s
        xs = [self.lo, self.hi]
        for c in (0.0, 0.5, 1.0):
            if self.lo < c < self.hi:
                xs.append(c)
        vals = [float(self.deriv(x)) for x in xs]
        return min(vals), max(vals)

    def deriv2_range(self) -> tuple[float, float]:
        """(min, max) of f'' over the closed arc (0 on an affine branch)."""
        if self.amplitude == 0.0:
            return 0.0, 0.0
        xs = [self.lo, self.hi]
        for c in (0.25, 0.75):
            if self.lo < c < self.hi:
                xs.append(c)
        vals = [float(self.deriv2(x)) for x in xs]
        return min(vals), max(vals)

    def image(self) -> tuple[float, float, range]:
        """(lift(lo), lift(hi), the integer shifts k such that {y + k} may
        intersect the branch image)."""
        flo = float(self.lift(self.lo))
        fhi = float(self.lift(self.hi))
        lo, hi = min(flo, fhi), max(flo, fhi)
        return flo, fhi, range(math.floor(lo) - 1, math.ceil(hi) + 1)

    @property
    def increasing(self) -> bool:
        dmin, _ = self.deriv_range()
        return dmin > 0


def _solve_lift(branch: BranchSpec, targets: np.ndarray, sines=None):
    """Solve lift(x) = t on [lo, hi] for each target (vectorized); returns
    the roots and f' at them.  A sine branch also writes sin 2 pi x at each
    root into the array sines, if one is given.

    Affine branches are exact, and f' is the slope, a scalar.  On a sine
    branch the root lies within |a|/|s| of the affine inverse
    x0 = (t - c)/s, because the lift differs from s*x + c by at most |a|.
    Newton keeps a bracket, that interval intersected with [lo, hi] (the
    whole arc if s = 0) and shrunk by the sign of each residual; a step
    that leaves the bracket is replaced by its midpoint.  It starts from
    the inverse of the lift's linear interpolant on a uniform table of the
    chunk's bracket, whose spacing _start_spacing chooses from the
    branch's bound on |f''|/|f'| so that the first step leaves a residual
    of at most SOLVE_TOL/4; the table has at most one node per target,
    plus two.  sin and cos of 2 pi x are evaluated at the start and
    carried along steps of at most ROTATE_MAX in angle by a second-order
    rotation, whose truncation is below half an ulp (a carried value is
    within 2^-52 of np.sin/np.cos), so a full chunk costs one sin/cos pair
    per target besides its table, and f' at the root comes from the
    carried cos, and sin 2 pi x from the carried sin.
    Iteration stops at the first iterate whose residuals are all at most
    SOLVE_TOL * max(1, |t|); if one is still above SOLVE_GUARD after
    SOLVE_MAX_ITERS steps, TransferError names the branch.
    """
    if branch.is_affine:
        return (targets - branch.offset) / branch.slope, branch.slope
    dmin, dmax = branch.deriv_range()
    spacing = _start_spacing(branch, dmin, dmax)
    x = np.empty_like(targets)
    d = np.empty_like(targets)
    for i in range(0, targets.size, SOLVE_CHUNK):
        chunk = slice(i, i + SOLVE_CHUNK)
        x[chunk], d[chunk], sin2 = _newton(branch, targets[chunk], dmin > 0,
                                           spacing)
        if sines is not None:
            sines[chunk] = sin2
    return x, d


def _bracket(branch: BranchSpec, targets: np.ndarray):
    """(lo, hi): the bracket of each target's root on a sine branch of
    slope s, the points of the arc within |a|/|s| of the affine inverse
    (t - c)/s; the whole arc if s = 0."""
    if branch.slope == 0.0:
        return (np.full_like(targets, branch.lo),
                np.full_like(targets, branch.hi))
    x0 = (targets - branch.offset) / branch.slope
    r = abs(branch.amplitude / branch.slope)
    return np.maximum(x0 - r, branch.lo), np.minimum(x0 + r, branch.hi)


def _passes(branch: BranchSpec, x: np.ndarray, targets: np.ndarray,
            sin2: np.ndarray) -> np.ndarray:
    """Whether each x, given sin2 = sin 2 pi x, passes the checks that a
    root of _newton passes for its target on a sine branch: a residual of
    at most SOLVE_TOL * max(1, |t|), computed from sin2 as _newton
    computes it from its carried sine, and a place in its bracket.
    Checked in chunks of SOLVE_CHUNK, as they are solved."""
    s, c, a = branch.slope, branch.offset, branch.amplitude
    ok = np.empty(targets.size, dtype=bool)
    for i in range(0, targets.size, SOLVE_CHUNK):
        chunk = slice(i, i + SOLVE_CHUNK)
        xc, tc = x[chunk], targets[chunk]
        lo, hi = _bracket(branch, tc)
        tol = SOLVE_TOL * np.maximum(1.0, np.abs(tc))
        ok[chunk] = ((np.abs(s * xc + c + a * sin2[chunk] - tc) <= tol)
                     & (lo <= xc) & (xc <= hi))
    return ok


def _start_spacing(branch: BranchSpec, dmin: float, dmax: float) -> float:
    """A table spacing from which one Newton step reaches SOLVE_TOL (0 if
    the branch has no bound on |f''|/|f'|).

    With lam = inf|f'|, M = sup|f'| and K = 4 pi^2 |a| / lam >= |f''|/|f'|
    on the arc, the inverse's linear interpolant on nodes h apart in x
    starts within e0 = (M h / lam)^2 K / 8 of the root; one step leaves an
    error of at most K e0^2 / 2 and a residual of at most M K e0^2 / 2.
    The spacing keeps that residual below SOLVE_TOL / 4."""
    lam, big = sorted((abs(dmin), abs(dmax)))
    if not lam > 0.0:
        return 0.0
    k = TWO_PI ** 2 * abs(branch.amplitude) / lam
    e0 = math.sqrt(SOLVE_TOL / (2.0 * big * k))
    return math.sqrt(8.0 * e0 / k) * lam / big


def _rotate(x, angle, sin2, cos2):
    """(sin 2 pi x, cos 2 pi x, 2 pi x) from the tables sin2, cos2 at the
    earlier angle: rotated by the Taylor polynomials of ROTATE_MAX where
    the angle moved by at most ROTATE_MAX, from np.sin/np.cos elsewhere.
    d is the difference of the two rounded angles, exact while they are
    within a factor 2, so a carried value approximates the same
    sin(2 pi x) that np.sin sees."""
    new = TWO_PI * x
    d = new - angle
    d2 = d * d
    cos_d = 1.0 - 0.5 * d2
    sin_d = d - d * d2 / 6.0
    s = sin2 * cos_d + cos2 * sin_d
    c = cos2 * cos_d - sin2 * sin_d
    far = np.abs(d) > ROTATE_MAX
    if far.any():
        s[far] = np.sin(new[far])
        c[far] = np.cos(new[far])
    return s, c, new


def _newton(branch: BranchSpec, targets: np.ndarray, inc: bool,
            spacing: float):
    """The bracketed Newton solve of _solve_lift on one sine branch, whose
    lift increases if inc, from a table of the given node spacing; returns
    the roots, f' at them and the carried sin 2 pi x."""
    s, c, a = branch.slope, branch.offset, branch.amplitude
    lo, hi = _bracket(branch, targets)
    start, stop = lo.min(), hi.max()
    nodes = targets.size + 2
    span = stop - start  # < 0 for a target outside the branch image
    if 0.0 <= span < (nodes - 2) * spacing:
        nodes = 2 + math.ceil(span / spacing)
    xs = np.linspace(start, stop, nodes)
    ys = branch.lift(xs)
    if not inc:
        xs, ys = xs[::-1], ys[::-1]
    x = np.clip(np.interp(targets, ys, xs), lo, hi)
    # Convergence is tested at the current iterate before it steps, so the
    # residual that passes is the returned root's check.  While some point
    # is above tolerance, a point within it still takes its Newton step
    # unless the step leaves the bracket.  A root at a bracket end (|sin| = 1
    # there) makes every step overshoot; such points fall back to bisection.
    # lift and f' are the expressions of BranchSpec.lift and deriv on the
    # carried tables.
    tol = SOLVE_TOL * np.maximum(1.0, np.abs(targets))
    angle = TWO_PI * x
    sin2, cos2 = np.sin(angle), np.cos(angle)
    for _ in range(SOLVE_MAX_ITERS):
        res = s * x + c + a * sin2 - targets
        done = np.abs(res) <= tol
        if done.all():
            break
        below = (res < 0.0) if inc else (res > 0.0)
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = x - res / (s + TWO_PI * a * cos2)
        inside = (lo <= step) & (step <= hi)
        if inside.all():
            x = step
        else:
            x = np.where(inside, step, np.where(done, x, 0.5 * (lo + hi)))
        sin2, cos2, angle = _rotate(x, angle, sin2, cos2)
    else:  # the last step's point is not checked yet: check it afresh
        angle = TWO_PI * x
        sin2, cos2 = np.sin(angle), np.cos(angle)
        res = s * x + c + a * sin2 - targets
    worst = float(np.abs(res).max())
    if not worst <= SOLVE_GUARD:  # also catches NaN
        raise TransferError(
            f"preimage solve on {branch} left residual {worst:.3g} > "
            f"{SOLVE_GUARD:g} after {SOLVE_MAX_ITERS} iterations")
    return x, s + TWO_PI * a * cos2, sin2


@dataclass(frozen=True)
class PiecewiseMap:
    """Circle map assembled from branches whose domains tile [0, 1)."""

    branches: tuple[BranchSpec, ...]

    def __post_init__(self):
        bs = tuple(self.branches)
        if not bs:
            raise MapFormError("map needs at least one branch")
        if bs[0].lo != 0.0 or bs[-1].hi != 1.0:
            raise MapFormError("branch domains must tile [0, 1)")
        for a, b in zip(bs, bs[1:]):
            if a.hi != b.lo:
                raise MapFormError("branch domains must be contiguous")
        for b in bs:
            if not (b.lo < b.hi):
                raise MapFormError("empty branch domain")
            dmin, dmax = b.deriv_range()
            if dmin > 0:
                lam = dmin
            elif dmax < 0:
                lam = -dmax
            else:
                raise MapFormError("branch derivative changes sign (not monotone)")
            if lam <= 1.0:
                raise MapFormError(f"branch expansion {lam} <= 1")
        span = sum(abs(float(b.lift(b.hi)) - float(b.lift(b.lo))) for b in bs)
        if not span <= AFFINE_BRANCH_MAX:
            raise MapFormError(f"branch images span {span} units, more than "
                               f"{AFFINE_BRANCH_MAX}")
        object.__setattr__(self, "branches", bs)

    @property
    def marked_points(self) -> tuple[float, ...]:
        """Branch domain endpoints, used as correspondence marks."""
        return tuple(b.lo for b in self.branches)

    def branch_index(self, x: float) -> int:
        los = [b.lo for b in self.branches]
        return bisect_right(los, x) - 1

    def branch_of(self, x: float) -> BranchSpec:
        return self.branches[self.branch_index(x)]

    def eval(self, x: float) -> float:
        """f(x) for a single point x in [0, 1)."""
        return wrap(float(self.branch_of(x).lift(x)))

    def is_continuous(self) -> bool:
        return len(discontinuities(self)) == 0

    def inverse_branches(self, y: float) -> list[tuple[int, float, float]]:
        """All preimages of the circle point y.

        Returns (branch id, x, |f'(x)|) per preimage, honoring the
        half-open domain convention: the lift image of [lo, hi) is
        [lift(lo), lift(hi)) for increasing branches.
        """
        out = []
        for i, b in enumerate(self.branches):
            flo, fhi, offsets = b.image()
            inc = b.increasing
            for k in offsets:
                t = y + k
                if inc:
                    ok = flo <= t < fhi
                else:
                    ok = fhi < t <= flo
                if not ok:
                    continue
                x = float(_solve_lift(b, np.array([t]))[0][0])
                if x >= 1.0:
                    x -= 1.0
                out.append((i, x, abs(float(b.deriv(x)))))
        return out


@dataclass(frozen=True)
class MapAnalysis:
    """Global analytic quantities of a piecewise expanding map."""

    lambda_min: float
    M0: float
    A: float
    C1: float
    omega: tuple[float, ...]
    d_omega: float
    sup_d2: float
    branch_data: tuple[tuple[float, float], ...]  # (min |f'|, length) per branch


def discontinuities(m: PiecewiseMap) -> tuple[float, ...]:
    """Branch junctions where the one-sided limits genuinely differ."""
    pts = []
    bs = m.branches
    n = len(bs)
    for i in range(n):
        p = bs[i].lo
        left = bs[i - 1]
        right = bs[i]
        lv = wrap(float(left.lift(p if i > 0 else 1.0)))
        rv = wrap(float(right.lift(p)))
        if circle_dist(lv, rv) > CONTINUITY_TOL:
            pts.append(p)
    return tuple(pts)


def analyze(m: PiecewiseMap) -> MapAnalysis:
    """Expansion bounds, variation-inequality coefficient, and discontinuity data.

    The coefficient is A = sup|f''| / (inf|f'|)^2 + 2 * max over branches of
    (sup 1/|f'|) / |I|; C1 bounds the Lipschitz constant of log|f'| by
    sup|f''| / inf|f'|.
    """
    lam = math.inf
    m0 = 0.0
    sup_d2 = 0.0
    second = 0.0
    branch_data = []
    for b in m.branches:
        dmin, dmax = b.deriv_range()
        bl = min(abs(dmin), abs(dmax))
        bh = max(abs(dmin), abs(dmax))
        lam = min(lam, bl)
        m0 = max(m0, bh)
        lo2, hi2 = b.deriv2_range()
        sup_d2 = max(sup_d2, abs(lo2), abs(hi2))
        second = max(second, (1.0 / bl) / b.length)
        branch_data.append((bl, b.length))
    if lam <= 1.0:
        raise MapFormError(f"map expansion inf|f'| = {lam} <= 1")
    omega = discontinuities(m)
    if not omega:
        d_omega = math.inf
    elif len(omega) == 1:
        d_omega = 1.0
    else:
        gaps = [omega[i + 1] - omega[i] for i in range(len(omega) - 1)]
        gaps.append(1.0 - omega[-1] + omega[0])
        d_omega = min(gaps)
    return MapAnalysis(
        lambda_min=lam,
        M0=m0,
        A=sup_d2 / lam ** 2 + 2.0 * second,
        C1=sup_d2 / lam,
        omega=omega,
        d_omega=d_omega,
        sup_d2=sup_d2,
        branch_data=tuple(branch_data),
    )


def _aligned_shift(marks_f, marks_g) -> tuple[int, float]:
    """Cyclic pairing of marked points minimizing the worst arc distance."""
    k = len(marks_g)
    best_shift, best = 0, math.inf
    for r in range(k):
        d = max(circle_dist(marks_f[(i + r) % k], marks_g[i]) for i in range(k))
        if d < best:
            best, best_shift = d, r
    return best_shift, best


# One slot: a neighborhood draw scores every candidate against one base map
# with the same marks.  An entry holds at most 6 arrays of grid + 1 floats
# per arc.
@lru_cache(maxsize=1)
def _base_samples(g: PiecewiseMap, f_arcs, grid: int):
    """What neighborhood_distance needs of the base map g against the arcs
    f_arcs of f: g's cap (a quarter of d_Omega) and, per arc, (sigma, g's
    lift, g', g'' on the sample points xs, the points ys of f's arc and
    the tables sin(2 pi ys), cos(2 pi ys)).  None of it depends on f's
    slope, offset or amplitude.  The arrays are read-only."""
    arcs = []
    for gb, (f_lo, f_hi) in zip(g.branches, f_arcs):
        len_g = gb.length
        sigma = (f_hi - f_lo) / len_g
        xs = gb.lo + len_g * np.linspace(0.0, 1.0, grid + 1)
        # Anchor xi at the left marks; the last arc of f may be traversed
        # beyond 1.0, where the analytic lift still applies.
        ys = f_lo + sigma * (xs - gb.lo)
        if gb.is_affine:  # its jet (s x + c, s, 0) needs no sin or cos
            jet = gb.lift(xs), gb.deriv(xs), gb.deriv2(xs)
        else:
            jet = _sine_jet(gb.slope, gb.offset, gb.amplitude, xs,
                            np.sin(TWO_PI * xs), np.cos(TWO_PI * xs))
        tables = (*jet, ys, np.sin(TWO_PI * ys), np.cos(TWO_PI * ys))
        for t in tables:
            t.flags.writeable = False
        arcs.append((sigma, *tables))
    return 0.25 * analyze(g).d_omega, tuple(arcs)


def _aligned(marks_f, arcs_f, g: PiecewiseMap):
    """f's arcs paired with g's by _aligned_shift: (the index of f's arc
    paired with each arc of g, the marked-point distance part1, g's cap,
    the _base_samples arcs on NEIGHBORHOOD_GRID)."""
    shift, part1 = _aligned_shift(marks_f, g.marked_points)
    k = len(g.branches)
    order = [(i + shift) % k for i in range(k)]
    cap, arcs = _base_samples(g, tuple(arcs_f[j] for j in order),
                              NEIGHBORHOOD_GRID)
    return order, part1, cap, arcs


def neighborhood_distance(f: PiecewiseMap, g: PiecewiseMap) -> float:
    """Smallest radius eps* with f eps*-near g; math.inf if incomparable.

    eps* is the max of (i) the arc distances between corresponding marked
    points and (ii) the per-interval C2 norms (sup|h| + sup|h'| + sup|h''|)
    of f o xi - g, where xi maps each arc of g affinely onto the matching
    arc of f, taken over NEIGHBORHOOD_GRID + 1 samples per arc.
    Incomparable when branch counts differ or eps* reaches a quarter of
    the minimal gap between g's genuine discontinuities.  sine_screen
    rejects many sine candidates at once on every COARSE_STRIDE-th of
    these samples.
    """
    if len(f.branches) != len(g.branches):
        return math.inf
    order, part1, cap, arcs = _aligned(
        f.marked_points, [(b.lo, b.hi) for b in f.branches], g)
    if part1 >= cap:
        return math.inf
    worst = float(_c2_norms([(b.slope, b.offset, b.amplitude)
                             for b in (f.branches[j] for j in order)],
                            arcs, part1, slice(None)))
    return math.inf if worst >= cap else worst


def sine_screen(slopes, amplitudes, marks, g: PiecewiseMap, bound: float):
    """For each i, whether sine_map(slopes[i], amplitudes[i], 0.0, marks)
    may lie within bound of g, as a boolean array.

    Every row is scored at once on every COARSE_STRIDE-th sample (index 0
    included) of neighborhood_distance's grid, by the same expressions on
    the same floats, and is False when that coarse value exceeds bound or
    reaches g's cap.  A maximum over fewer samples is never larger, so a
    False row has neighborhood_distance > bound; a True row may still be
    rejected by the full pass.
    """
    slopes = np.asarray(slopes, dtype=float)[:, None]
    amplitudes = np.asarray(amplitudes, dtype=float)[:, None]
    if len(marks) != len(g.branches):
        return np.zeros(len(slopes), dtype=bool)
    cuts = (*marks, 1.0)
    _, part1, cap, arcs = _aligned(marks, list(zip(cuts, cuts[1:])), g)
    worst = _c2_norms([(slopes, 0.0, amplitudes)] * len(arcs), arcs, part1,
                      slice(None, None, COARSE_STRIDE))
    return (worst < cap) & (worst <= bound)


def _c2_norms(params, arcs, part1: float, samples: slice):
    """max(part1, the C2 norms of each arc) over the given samples of the
    _base_samples tables arcs, with f's values on arc i from _sine_jet of
    params[i] = (slope, offset, amplitude); an affine branch has amplitude
    0.  Maxima are taken along the last axis, so rows of values give a row
    of norms."""
    worst = part1
    for (slope, offset, amp), (sigma, *tables) in zip(params, arcs):
        gv, gd, gd2, ys, sin_y, cos_y = (t[samples] for t in tables)
        fv, fd, fd2 = _sine_jet(slope, offset, amp, ys, sin_y, cos_y)
        h = fv - gv
        h = np.abs(h - np.round(h[..., :1]))
        h1 = np.abs(sigma * fd - gd)
        h2 = np.abs(sigma ** 2 * fd2 - gd2)
        worst = np.maximum(worst, h.max(axis=-1) + h1.max(axis=-1)
                           + h2.max(axis=-1))
    return worst


# --- Builders for the map families used throughout ---------------------------

MARKS = (0.0, 0.5)  # default marks of sine maps, curves and map families


def affine_map(slope: float, offset: float = 0.0,
               marks: tuple[float, ...] | None = None) -> PiecewiseMap:
    """x -> slope*x + offset (mod 1).

    Default marks are the natural breakpoints {0} plus the interior points
    where the lift crosses an integer, so each branch image stays within
    one unit interval, for either sign of the slope.  Natural marks of a
    slope of modulus <= 1, of a lift whose value at 1 is not finite, or of
    more than AFFINE_BRANCH_MAX branches, raise MapFormError.
    """
    if marks is None:
        if not abs(slope) > 1.0:  # before dividing by it
            raise MapFormError(f"branch expansion {float(abs(slope))} <= 1")
        end = slope + offset  # the lift at 1
        if not math.isfinite(end):  # before its floor overflows
            raise MapFormError(f"natural marks of slope {slope} and offset "
                               f"{offset}: the lift at 1 is {end}")
        pts = {0.0}
        k_lo = math.floor(min(offset, end))
        k_hi = math.ceil(max(offset, end))
        if k_hi - k_lo > AFFINE_BRANCH_MAX:  # the branch count
            raise MapFormError(
                f"natural marks of slope {slope} give {k_hi - k_lo} "
                f"branches, more than {AFFINE_BRANCH_MAX}")
        for k in range(k_lo, k_hi + 1):
            x = (k - offset) / slope
            if 0.0 < x < 1.0:
                pts.add(x)
        marks = tuple(sorted(pts))
    cuts = list(marks) + [1.0]
    return PiecewiseMap(tuple(
        BranchSpec(cuts[i], cuts[i + 1], slope, offset) for i in range(len(marks))
    ))


def sine_map(slope: float, amplitude: float, offset: float = 0.0,
             marks: tuple[float, ...] = MARKS) -> PiecewiseMap:
    """x -> slope*x + offset + amplitude*sin(2 pi x) (mod 1)."""
    cuts = list(marks) + [1.0]
    return PiecewiseMap(tuple(
        BranchSpec(cuts[i], cuts[i + 1], slope, offset, amplitude)
        for i in range(len(marks))
    ))


def doubling_map() -> PiecewiseMap:
    return affine_map(2.0, marks=(0.0, 0.5))


def slope25_map() -> PiecewiseMap:
    """x -> 2.5 x (mod 1) on its three natural branches."""
    return affine_map(2.5)


def slope3_two_branch() -> PiecewiseMap:
    return affine_map(3.0, marks=(0.0, 0.5))


def two_slope_wrap_map() -> PiecewiseMap:
    """3x mod 1 on [0, 1/2), 2.5x + 0.1 mod 1 on [1/2, 1); discontinuous."""
    return PiecewiseMap((
        BranchSpec(0.0, 0.5, 3.0),
        BranchSpec(0.5, 1.0, 2.5, 0.1),
    ))


_NAMED = {"doubling": doubling_map, "slope25": slope25_map,
          "slope3-two-branch": slope3_two_branch,
          "two-slope-wrap": two_slope_wrap_map}

BRANCH = {"lo": float, "hi": float, "slope": float, "offset": 0.0,
          "amplitude": 0.0}

# A map config: explicit branches, or a form (affine when left out).
MAP = Format(
    "form", lambda spec: "branches" if "branches" in spec else "affine",
    "map form", {
        "branches": {"branches": [BRANCH]},
        # natural breakpoints when marks is null
        "affine": {"slope": float, "offset": 0.0, "marks": Field(tuple)},
        "sine": {"slope": float, "amplitude": float, "offset": 0.0,
                 "marks": MARKS},
        **{form: {} for form in _NAMED}})


def map_from_dict(spec: dict) -> PiecewiseMap:
    """Build a map from a config dict (named form or explicit branches)."""
    spec = read(spec, MAP, "map")
    form = spec["form"]
    if form == "branches":
        return PiecewiseMap(tuple(BranchSpec(**{k: b[k] for k in BRANCH})
                                  for b in spec["branches"]))
    if form in _NAMED:
        return _NAMED[form]()
    marks = spec["marks"] and tuple(float(x) for x in spec["marks"])
    if form == "affine":
        return affine_map(spec["slope"], spec["offset"], marks)
    return sine_map(spec["slope"], spec["amplitude"], spec["offset"], marks)
