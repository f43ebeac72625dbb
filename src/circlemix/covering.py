"""Cylinder partitions, enveloping times, escape times, positivity horizons.

One generator, `_depths`, builds the cylinders of a map sequence depth by
depth.  An n-cylinder carries its interval, its branch itinerary and its
image arc under the first n maps; depth n+1 splits it at the next map's
branch breakpoints that lie strictly inside that arc, pulled back through
the cylinder's own itinerary.  Every depth is built once, and its size is
predicted (one piece per cylinder plus the breakpoints inside its arc)
before it is built, so an oversized depth is refused before allocation.

When every branch is affine the arithmetic is exact and in Python
integers: each float parameter is a dyadic rational (`float.as_integer_ratio`),
image arcs are integers over one power-of-two denominator per depth, and
a cylinder is pulled back through its composed affine lift.  Fractions are
built only at the API (`Cylinder.lo`/`hi` and the escape witness), so
covering decisions never hinge on roundoff.  Maps with sine-perturbed
branches run through the same generator in floats; their endpoints are
plain floats with no proved error bound, cuts closer than FLOAT_DEDUPE are
merged, and covering checks then require a FLOAT_MARGIN margin.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import write_json
from .maps import MapFormError, PiecewiseMap, analyze, _solve_lift

PARTITION_CAP = 10 ** 6
FLOAT_MARGIN = 1e-9
FLOAT_DEDUPE = 1e-13
ESCAPE_CAP_FACTOR = 64


class CoveringError(RuntimeError):
    """A covering constant could not be computed for this map."""


class PartitionExplosionError(CoveringError):
    pass


class NotEnvelopingError(CoveringError):
    pass


def _all_affine(maps) -> bool:
    return all(b.is_affine for m in maps for b in m.branches)


@dataclass(frozen=True)
class Cylinder:
    """Maximal interval [lo, hi) with a fixed branch itinerary.

    Endpoints are Fractions in exact mode, floats otherwise; itinerary[k]
    is the branch id applied at step k+1.
    """

    lo: object
    hi: object
    itinerary: tuple[int, ...]

    @property
    def length(self) -> float:
        return float(self.hi - self.lo)


# --- The two arithmetics of the depth generator -------------------------------
#
# A piece is a tuple (a, b, itinerary, pull, ...): its image arc [a, b] with
# 0 <= a < unit, in units of the current depth, its itinerary, and what
# pulls an arc point back to the domain.  `split` maps the sub-arcs
# (u, v, branch id, shift k) of a piece, cut at the next map's breakpoints,
# to the next depth's pieces, in increasing order of their intervals;
# `advance` then moves the unit to the next depth.


class _Ints:
    """Exact arithmetic of all-affine maps in Python integers.

    Q is the largest denominator of the maps' float parameters, all powers
    of two, so each branch has integer left end, slope and offset over Q.
    A traversal starts from [lo, hi] over unit0 = Q * q, q the common
    denominator of lo and hi, and each step multiplies the unit by Q, so
    image arcs are integers.  A piece pulls back through its composed lift
    F, held as the integer pair (P, T) with F(x) * unit = P * unit0 * x + T:
    the arc point C / unit comes from x = (C - T) / (P * unit0).
    """

    margin = 0

    def __init__(self, maps, lo, hi):
        ratios = {}
        for m in maps:
            if id(m) not in ratios:
                ratios[id(m)] = [[float(v).as_integer_ratio()
                                  for v in (b.lo, b.slope, b.offset)]
                                 for b in m.branches]
        self.Q = max(d for rs in ratios.values() for r in rs for _, d in r)
        self._lefts, self._lifts = {}, {}
        for key, rs in ratios.items():
            scaled = [[n * (self.Q // d) for n, d in r] for r in rs]
            self._lefts[key] = [lam for lam, _, _ in scaled]
            self._lifts[key] = [(sig, om) for _, sig, om in scaled]
        lo, hi = Fraction(lo), Fraction(hi)
        self.unit0 = self.unit = self.Q * math.lcm(lo.denominator,
                                                   hi.denominator)
        self.root = (lo.numerator * (self.unit // lo.denominator),
                     hi.numerator * (self.unit // hi.denominator), (), (1, 0))

    def breakpoints(self, m) -> list[int]:
        scale = self.unit // self.Q
        return [lam * scale for lam in self._lefts[id(m)]]

    def split(self, piece, cuts, m) -> list:
        itin, (P, T) = piece[2], piece[3]
        D = self.unit
        D2 = D * self.Q
        lifts = self._lifts[id(m)]
        out = []
        for u, v, j, k in cuts:
            sig, om = lifts[j]
            base = (om - sig * k) * D
            va, vb = sig * u + base, sig * v + base
            if sig < 0:
                va, vb = vb, va
            s = va // D2
            out.append((va - s * D2, vb - s * D2, itin + (j,),
                        (sig * P, sig * T + base - s * D2)))
        if P < 0:
            out.reverse()
        return out

    def advance(self) -> None:
        self.unit *= self.Q

    def pull_back(self, pull, c) -> Fraction:
        P, T = pull
        return Fraction(c - T, P * self.unit0)

    def interval(self, piece) -> tuple[Fraction, Fraction]:
        lo, hi = (self.pull_back(piece[3], c) for c in piece[:2])
        return (lo, hi) if piece[3][0] > 0 else (hi, lo)

    def all_shorter(self, pieces, a_star) -> bool:
        """Is every piece's interval shorter than 1/(2 a*)?"""
        an, ad = Fraction(a_star).as_integer_ratio()
        lim = ad * self.unit0
        return all(2 * an * (b - a) < lim * abs(pull[0])
                   for a, b, _, pull in pieces)


class _Floats:
    """Float arithmetic for maps with sine-perturbed branches.

    The unit is 1.  A piece also carries its interval (lo, hi), and it
    pulls back through its chain of (branch, shift k, shift s) steps, the
    newest first, by `_solve_lift`.  Cuts closer than FLOAT_DEDUPE to the
    previous cut or to the interval's end are merged away.
    """

    margin = FLOAT_MARGIN
    unit = 1.0

    def __init__(self, maps, lo, hi):
        self._signs = {id(m): [1 if b.increasing else -1 for b in m.branches]
                       for m in maps}
        lo, hi = float(lo), float(hi)
        self.root = (lo, hi, (), (1, None), lo, hi)

    def breakpoints(self, m) -> list[float]:
        return [float(b.lo) for b in m.branches]

    def split(self, piece, cuts, m) -> list:
        _, _, itin, pull, lo, hi = piece
        sign = pull[0]
        xs = [self.pull_back(pull, c[0]) for c in cuts[1:]]
        xs = [lo] + xs + [hi] if sign > 0 else [hi] + xs + [lo]
        segs = [cut + (min(x0, x1), max(x0, x1))
                for cut, x0, x1 in zip(cuts, xs, xs[1:])]
        if sign < 0:
            segs.reverse()
        kept = []
        for seg in segs:
            if kept and (seg[4] - kept[-1][4] <= FLOAT_DEDUPE
                         or hi - seg[4] <= FLOAT_DEDUPE):
                prev = kept[-1]
                wide = max(prev, seg, key=lambda s: s[5] - s[4])
                kept[-1] = (min(prev[0], seg[0]), max(prev[1], seg[1]),
                            wide[2], wide[3], prev[4], seg[5])
            else:
                kept.append(seg)
        out = []
        for u, v, j, k, xlo, xhi in kept:
            br = m.branches[j]
            va, vb = float(br.lift(u - k)), float(br.lift(v - k))
            if va > vb:
                va, vb = vb, va
            s = math.floor(va)
            a, b = va - s, vb - s
            if a >= 1.0:  # a tiny negative va rounds up to the unit
                a, b, s = 0.0, b - 1.0, s + 1
            out.append((a, b, itin + (j,),
                        (sign * self._signs[id(m)][j], (pull[1], br, k, s)),
                        xlo, xhi))
        return out

    def advance(self) -> None:
        pass

    def pull_back(self, pull, c) -> float:
        steps = pull[1]
        while steps is not None:
            steps, br, k, s = steps
            c = float(_solve_lift(br, np.array([c + s]))[0][0]) + k
        return c

    def interval(self, piece) -> tuple[float, float]:
        return piece[4], piece[5]

    def all_shorter(self, pieces, a_star) -> bool:
        return max(p[5] - p[4] for p in pieces) < 1.0 / (2.0 * a_star)


def _arith(maps, lo=0, hi=1, exact=None):
    if exact is None:
        exact = _all_affine(maps)
    return (_Ints if exact else _Floats)(maps, lo, hi)


def _cuts(a, b, bps, unit) -> list[tuple]:
    """Sub-arcs (u, v, branch id, shift k) of the arc [a, b], 0 <= a < unit,
    cut at the breakpoints bps[j] + k * unit strictly inside it."""
    m = len(bps)
    j, k = bisect_right(bps, a) - 1, 0
    out = []
    while True:
        nj, nk = (j + 1, k) if j + 1 < m else (0, k + 1)
        c = bps[nj] + nk * unit
        if c >= b:
            out.append((a, b, j, k))
            return out
        out.append((a, c, j, k))
        a, j, k = c, nj, nk


def _inside(a, b, bps, unit):
    """How many breakpoints bps[j] + k * unit lie strictly inside (a, b)."""
    return sum(-((p - b) // unit) - ((a - p) // unit) - 1 for p in bps)


def _depths(maps, ar, cap: int = PARTITION_CAP):
    """Yield the pieces of depth 1, 2, ... of the maps (any iterable), one
    depth per map, over the traversal `ar`; `ar.unit` is the unit of the
    depth just yielded.  A depth predicted to hold more than `cap` pieces
    raises PartitionExplosionError before it is built."""
    level = [ar.root]
    for n, m in enumerate(maps, 1):
        unit, bps = ar.unit, ar.breakpoints(m)
        count = len(level) + sum(_inside(p[0], p[1], bps, unit)
                                 for p in level)
        if count > cap:
            raise PartitionExplosionError(
                f"cylinder count exceeded {cap}: depth {n} would hold "
                f"{count}")
        level = [kid for p in level
                 for kid in ar.split(p, _cuts(p[0], p[1], bps, unit), m)]
        ar.advance()
        yield level


def cylinder_partition(maps, n: int, cap: int = PARTITION_CAP) -> list[Cylinder]:
    """The join over i <= n of the pullbacks of each map's branch partition.

    A single repeated map gives the usual n-cylinders; sequences give the
    time-dependent partition whose elements share a branch itinerary.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    maps = list(maps)[:n]
    if len(maps) < n:
        raise ValueError("map sequence shorter than n")
    ar = _arith(maps)
    for level in _depths(maps, ar, cap):
        pass
    return [Cylinder(*ar.interval(p), p[2]) for p in level]


def _covers_circle(arcs, unit, margin) -> bool:
    """Do the open arcs (start, start+length) jointly cover the circle of
    circumference `unit`?

    The complement of a finite union of open arcs, if nonempty, contains
    an arc endpoint, so it suffices to check that every endpoint (plus the
    origin) sits strictly inside some arc, by `margin` in float mode.
    """
    arcs = list(arcs)
    if not arcs:
        return False
    if any(length > unit + margin for _, length in arcs):
        return True
    candidates = {0}
    for s, length in arcs:
        candidates.add(s)
        candidates.add((s + length) % unit)
    return all(any(margin < (p - s) % unit < length - margin
                   for s, length in arcs)
               for p in candidates)


def enveloping_time(g: PiecewiseMap, N_max: int = 16) -> int | None:
    """Smallest N such that, over every first-level interval, the open
    images of its N-cylinders jointly cover the circle; None if no N <=
    N_max works.

    In exact mode the search also ends (None) once every first-level
    group's set of image arcs repeats: depth N+1's arcs are {g(J & I_b)}
    over depth N's arcs J and the branch intervals I_b, so a repeated set
    never changes again and never comes to cover."""
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    ar = _arith([g])
    exact = isinstance(ar, _Ints)
    prev = None
    for N, level in enumerate(_depths([g] * N_max, ar), 1):
        groups: dict[int, set] = {}
        for a, b, itin, *_ in level:
            groups.setdefault(itin[0], set()).add((a, b - a))
        if all(_covers_circle(arcs, ar.unit, ar.margin)
               for arcs in groups.values()):
            return N
        if exact:
            if groups == prev:
                return None
            # the next depth's unit is Q times this one's
            prev = {i: {(s * ar.Q, w * ar.Q) for s, w in arcs}
                    for i, arcs in groups.items()}
    return None


def refine_until(g: PiecewiseMap, a_star: float, cap: int = PARTITION_CAP) -> int:
    """Smallest n with every n-cylinder shorter than 1/(2 a*)."""
    return _refine(g, a_star, cap)[0]


def _refine(g: PiecewiseMap, a_star: float,
            cap: int = PARTITION_CAP) -> tuple[int, list[Cylinder]]:
    """refine_until's n, with the n-cylinders it built."""
    if a_star <= 0:
        raise ValueError("a_star must be positive")
    ar = _arith([g])
    for n, level in enumerate(_depths(itertools.repeat(g), ar, cap), 1):
        if ar.all_shorter(level, a_star):
            return n, [Cylinder(*ar.interval(p), p[2]) for p in level]


def _holds_branch(a, b, bps, unit) -> bool:
    """Does the closed arc [a, b] contain a whole first-level interval
    [bps[j], bps[j+1]] (mod unit)?"""
    length = b - a
    if length >= unit:
        return True
    ends = bps + [unit]
    return any((lo - a) % unit + (hi - lo) <= length
               for lo, hi in zip(ends, ends[1:]))


def escape_time(g: PiecewiseMap, J: Cylinder, cap_factor: int = ESCAPE_CAP_FACTOR):
    """Nested-interval loop producing (s, witness) with g^s(witness) covering
    a full first-level interval.

    Maintains the current image arc; each step cuts it at the partition
    points inside it by `_cuts`, as the depth generator does, keeps the
    longer piece (ties toward the piece with the smaller start) and maps it
    through its own branch.  The witness is pulled back through the
    composed lift.  Containment of a first-level interval is checked in the
    closed sense.
    """
    ar = _arith([g], J.lo, J.hi,
                exact=_all_affine([g]) and isinstance(J.lo, Fraction))
    piece, ends = ar.root, ar.breakpoints(g)
    if _holds_branch(piece[0], piece[1], ends, ar.unit):
        return 0, (J.lo, J.hi)
    cap = cap_factor * max(1, len(J.itinerary))
    for k in range(1, cap + 1):
        unit = ar.unit
        cuts = _cuts(piece[0], piece[1], ends, unit)
        if len(cuts) > 2:
            raise CoveringError("arc straddles more than one partition point")
        cut = max(cuts, key=lambda c: (c[1] - c[0], -(c[0] % unit)))
        (piece,) = ar.split(piece, [cut], g)
        ar.advance()
        ends = ar.breakpoints(g)
        if _holds_branch(piece[0], piece[1], ends, ar.unit):
            wa, wb = (ar.pull_back(piece[3], c) for c in piece[:2])
            return k, (min(wa, wb), max(wa, wb))
    raise CoveringError(
        f"escape loop exceeded {cap} iterations; expansion likely <= 2")


@dataclass(frozen=True)
class CoveringReport:
    """All covering/positivity constants for one base map."""

    N: int
    n1: int
    s0: int
    n0: int
    kappa0: float
    kappa_eps: float
    eps: float
    M0: float
    a_star: float
    s_table: tuple[tuple[Cylinder, int, tuple], ...]

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "n1": self.n1,
            "s0": self.s0,
            "n0": self.n0,
            "kappa0": self.kappa0,
            "kappa_eps": self.kappa_eps,
            "eps": self.eps,
            "M0": self.M0,
            "a_star": self.a_star,
            "s_table": [
                {
                    "lo": float(c.lo),
                    "hi": float(c.hi),
                    "itinerary": list(c.itinerary),
                    "s": s,
                    "witness": [float(w[0]), float(w[1])],
                }
                for c, s, w in self.s_table
            ],
        }

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())


def positivity_horizon(g: PiecewiseMap, a_star: float, eps: float,
                       N_max: int = 16) -> CoveringReport:
    """Assemble the horizon n0 = s0 + N after which every variation-bounded
    density is pushed above an explicit floor, together with the floors
    kappa0 = M0^-n0 / 2 and kappa_eps = (M0+eps)^-n0 / 2."""
    an = analyze(g)
    if an.lambda_min <= 2.0:
        raise MapFormError("positivity horizon needs expansion > 2")
    if eps < 0:
        raise ValueError("eps must be >= 0")
    N = enveloping_time(g, N_max)
    if N is None:
        raise NotEnvelopingError("map is not enveloping within N_max")
    n1, cyls = _refine(g, a_star)
    table = []
    s0 = 0
    for c in cyls:
        s, witness = escape_time(g, c)
        table.append((c, s, witness))
        s0 = max(s0, s)
    n0 = s0 + N
    return CoveringReport(
        N=N,
        n1=n1,
        s0=s0,
        n0=n0,
        kappa0=0.5 * an.M0 ** (-n0),
        kappa_eps=0.5 * (an.M0 + eps) ** (-n0),
        eps=eps,
        M0=an.M0,
        a_star=a_star,
        s_table=tuple(table),
    )


def verify_overcover(maps, interval, delta: float) -> bool:
    """Do the images of the delta-shrunk interval's cylinders (under the
    full composition) cover the circle?"""
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    alo, ahi = interval
    if not alo < ahi:
        raise ValueError("interval must have positive length")
    if not 2 * delta < ahi - alo:
        raise ValueError("2*delta must be smaller than the interval length")
    exact = _all_affine(maps)
    if exact:
        alo, ahi, delta = Fraction(alo), Fraction(ahi), Fraction(delta)
    # the domain's own depth-N pieces are the cylinders clipped to it
    lo_d, hi_d = max(alo + delta, 0), min(ahi - delta, 1)
    if not lo_d < hi_d:
        return False
    ar = _arith(maps, lo_d, hi_d, exact)
    for level in _depths(maps, ar):
        pass
    return _covers_circle(((p[0], p[1] - p[0]) for p in level), ar.unit,
                          ar.margin)
