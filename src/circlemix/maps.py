"""Piecewise expanding circle maps with explicit branch structure.

A map is a finite list of monotone branches on half-open arcs [u, v) that
tile [0, 1).  Each branch is either affine, x -> s*x + c (mod 1), or
sine-perturbed, x -> s*x + c + a*sin(2*pi*x) (mod 1).  Both forms have
closed-form derivatives and monotone, invertible lifts, so preimages are
exact (affine) or solved by Newton's method, warm-started from the inverse
of the lift's linear interpolant on a table and kept inside a proven bracket
(sine), to a residual of at most 1e-14 * max(1, |t|) for target t; a solve
left above 1e-12 raises.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Circle points closer than this are treated as equal when classifying
# branch junctions as continuous.
CONTINUITY_TOL = 1e-12

# Grid density per interval for the C2 norms in neighborhood_distance.
NEIGHBORHOOD_GRID = 4096

# Preimage solves on sine branches stop once every residual
# |lift(x) - t| is at most SOLVE_TOL * max(1, |t|).  From the table warm
# start Newton takes 2 steps per chunk on slope-2 and slope-3 sine maps with
# amplitudes up to 0.15 at grids 2^12 to 2^16, and SOLVE_MAX_ITERS
# bisections alone would shrink any bracket below 1e-17; a residual still
# above SOLVE_GUARD at the cap raises.
SOLVE_TOL = 1e-14
SOLVE_GUARD = 1e-12
SOLVE_MAX_ITERS = 60
# Targets are solved in chunks of at most this many: the solver's
# temporaries stay small and in cache, and a slow point iterates only its
# own chunk.
SOLVE_CHUNK = 4096


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

    def jet(self, x, sin2, cos2):
        """(lift, f', f'') at x from the tables sin2 = sin(2 pi x) and
        cos2 = cos(2 pi x), by the expressions of lift, deriv and deriv2, so
        the values are the same to the bit.  The derivatives of an affine
        branch are returned as scalars."""
        if self.amplitude == 0.0:
            return self.slope * x + self.offset, self.slope, 0.0
        return (self.slope * x + self.offset + self.amplitude * sin2,
                self.slope + TWO_PI * self.amplitude * cos2,
                -(TWO_PI ** 2) * self.amplitude * sin2)

    def deriv_range(self) -> tuple[float, float]:
        """(min, max) of f' over the closed arc, by extremal calculus on cos."""
        xs = [self.lo, self.hi]
        for c in (0.0, 0.5, 1.0):
            if self.lo < c < self.hi:
                xs.append(c)
        vals = [float(self.deriv(x)) for x in xs]
        return min(vals), max(vals)

    def deriv2_range(self) -> tuple[float, float]:
        """(min, max) of f'' over the closed arc."""
        xs = [self.lo, self.hi]
        for c in (0.25, 0.75):
            if self.lo < c < self.hi:
                xs.append(c)
        vals = [float(self.deriv2(x)) for x in xs]
        return min(vals), max(vals)

    @property
    def increasing(self) -> bool:
        dmin, _ = self.deriv_range()
        return dmin > 0


def _solve_lift(branch: BranchSpec, targets: np.ndarray) -> np.ndarray:
    """Solve lift(x) = t on [lo, hi] for each target (vectorized).

    Affine branches are exact.  On a sine branch the root lies within
    |a|/|s| of the affine inverse x0 = (t - c)/s, because the lift differs
    from s*x + c by at most |a|.  Newton keeps a bracket, that interval
    intersected with [lo, hi] and shrunk by the sign of each residual; a
    step that leaves the bracket is replaced by its midpoint.  It starts
    from the inverse of the lift's linear interpolant on a uniform table of
    the chunk's bracket with as many nodes as targets, plus two; its error
    is of the order of the squared node spacing, so on a full chunk the
    first step reaches the tolerance.  (A branch of slope 0 starts at the
    midpoint of its arc.)
    Iteration stops once every residual is at most SOLVE_TOL * max(1, |t|);
    if one is still above SOLVE_GUARD after SOLVE_MAX_ITERS steps,
    TransferError names the branch.
    """
    if branch.is_affine:
        return (targets - branch.offset) / branch.slope
    x = np.empty_like(targets)
    for i in range(0, targets.size, SOLVE_CHUNK):
        x[i:i + SOLVE_CHUNK] = _newton(branch, targets[i:i + SOLVE_CHUNK])
    return x


def _newton(branch: BranchSpec, targets: np.ndarray) -> np.ndarray:
    """The bracketed Newton solve of _solve_lift on one sine branch."""
    inc = branch.increasing
    if branch.slope == 0.0:  # no affine part to bracket by
        lo = np.full_like(targets, branch.lo)
        hi = np.full_like(targets, branch.hi)
        x = 0.5 * (lo + hi)
    else:
        x0 = (targets - branch.offset) / branch.slope
        r = abs(branch.amplitude / branch.slope)
        lo = np.maximum(x0 - r, branch.lo)
        hi = np.minimum(x0 + r, branch.hi)
        xs = np.linspace(lo.min(), hi.max(), targets.size + 2)
        ys = branch.lift(xs)
        if not inc:
            xs, ys = xs[::-1], ys[::-1]
        x = np.clip(np.interp(targets, ys, xs), lo, hi)
    # A point already within tolerance still takes its Newton step unless
    # the step leaves the bracket, so the last step puts every point at
    # roundoff level.  A root at a bracket end (|sin| = 1 there) makes every
    # step overshoot; such points fall back to bisection.
    tol = SOLVE_TOL * np.maximum(1.0, np.abs(targets))
    for _ in range(SOLVE_MAX_ITERS):
        res = branch.lift(x) - targets
        done = np.abs(res) <= tol
        below = (res < 0.0) if inc else (res > 0.0)
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = x - res / branch.deriv(x)
        inside = (lo <= step) & (step <= hi)
        x = np.where(inside, step, np.where(done, x, 0.5 * (lo + hi)))
        if done.all():
            break
    res = float(np.abs(branch.lift(x) - targets).max())
    if not res <= SOLVE_GUARD:  # also catches NaN
        raise TransferError(
            f"preimage solve on {branch} left residual {res:.3g} > "
            f"{SOLVE_GUARD:g} after {SOLVE_MAX_ITERS} iterations")
    return x


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

    def branch_offsets(self, branch: BranchSpec) -> range:
        """Integer shifts k such that {y + k} may intersect the branch image."""
        flo = float(branch.lift(branch.lo))
        fhi = float(branch.lift(branch.hi))
        lo, hi = min(flo, fhi), max(flo, fhi)
        return range(math.floor(lo) - 1, math.ceil(hi) + 1)

    def inverse_branches(self, y: float) -> list[tuple[int, float, float]]:
        """All preimages of the circle point y.

        Returns (branch id, x, |f'(x)|) per preimage, honoring the
        half-open domain convention: the lift image of [lo, hi) is
        [lift(lo), lift(hi)) for increasing branches.
        """
        out = []
        for i, b in enumerate(self.branches):
            flo = float(b.lift(b.lo))
            fhi = float(b.lift(b.hi))
            inc = b.increasing
            for k in self.branch_offsets(b):
                t = y + k
                if inc:
                    ok = flo <= t < fhi
                else:
                    ok = fhi < t <= flo
                if not ok:
                    continue
                x = float(_solve_lift(b, np.array([t]))[0])
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


def discontinuities(m: PiecewiseMap, tol: float = CONTINUITY_TOL) -> tuple[float, ...]:
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
        if circle_dist(lv, rv) > tol:
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
        tables = (*gb.jet(xs, np.sin(TWO_PI * xs), np.cos(TWO_PI * xs)),
                  ys, np.sin(TWO_PI * ys), np.cos(TWO_PI * ys))
        for t in tables:
            if isinstance(t, np.ndarray):
                t.flags.writeable = False
        arcs.append((sigma, *tables))
    return 0.25 * analyze(g).d_omega, tuple(arcs)


def neighborhood_distance(f: PiecewiseMap, g: PiecewiseMap,
                          grid: int = NEIGHBORHOOD_GRID) -> float:
    """Smallest radius eps* with f eps*-near g; math.inf if incomparable.

    eps* is the max of (i) the arc distances between corresponding marked
    points and (ii) the per-interval C2 norms (sup|h| + sup|h'| + sup|h''|)
    of f o xi - g, where xi maps each arc of g affinely onto the matching
    arc of f.  Incomparable when branch counts differ or eps* reaches a
    quarter of the minimal gap between g's genuine discontinuities.
    """
    if len(f.branches) != len(g.branches):
        return math.inf
    shift, part1 = _aligned_shift(f.marked_points, g.marked_points)
    k = len(g.branches)
    fbs = [f.branches[(i + shift) % k] for i in range(k)]
    cap, arcs = _base_samples(g, tuple((fb.lo, fb.hi) for fb in fbs), grid)
    if part1 >= cap:
        return math.inf
    worst = part1
    for fb, (sigma, gv, gd, gd2, ys, sin_y, cos_y) in zip(fbs, arcs):
        fv, fd, fd2 = fb.jet(ys, sin_y, cos_y)
        h = fv - gv
        h = h - round(float(h[0]))
        h = np.abs(h)
        h1 = np.abs(sigma * fd - gd)
        h2 = np.abs(sigma ** 2 * fd2 - gd2)
        worst = max(worst, float(h.max() + h1.max() + h2.max()))
        if worst >= cap:
            return math.inf
    return worst


# --- Builders for the map families used throughout ---------------------------


def affine_map(slope: float, offset: float = 0.0,
               marks: tuple[float, ...] | None = None) -> PiecewiseMap:
    """x -> slope*x + offset (mod 1).

    Default marks are the natural breakpoints {0} plus the interior points
    where the lift crosses an integer, so each branch image stays within
    one unit interval.
    """
    if marks is None:
        pts = {0.0}
        k_lo = math.floor(offset)
        k_hi = math.ceil(slope + offset)
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
             marks: tuple[float, ...] = (0.0, 0.5)) -> PiecewiseMap:
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


def map_from_dict(spec: dict) -> PiecewiseMap:
    """Build a map from a config dict (named form or explicit branches)."""
    if "branches" in spec:
        return PiecewiseMap(tuple(
            BranchSpec(b["lo"], b["hi"], b["slope"],
                       b.get("offset", 0.0), b.get("amplitude", 0.0))
            for b in spec["branches"]
        ))
    form = spec.get("form", "affine")
    marks = spec.get("marks")
    if marks is not None:
        marks = tuple(float(x) for x in marks)
    if form == "affine":
        return affine_map(spec["slope"], spec.get("offset", 0.0), marks)
    if form == "sine":
        return sine_map(spec["slope"], spec["amplitude"], spec.get("offset", 0.0),
                        marks if marks is not None else (0.0, 0.5))
    if form == "doubling":
        return doubling_map()
    if form == "slope25":
        return slope25_map()
    if form == "slope3-two-branch":
        return slope3_two_branch()
    if form == "two-slope-wrap":
        return two_slope_wrap_map()
    raise MapFormError(f"unknown map form {form!r}")
