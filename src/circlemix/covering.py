"""Cylinder partitions, enveloping times, escape times, positivity horizons.

Combinatorial quantities are computed with exact rational endpoint
arithmetic whenever every branch is affine (float parameters are lifted to
exact Fractions), so covering decisions never hinge on roundoff.  Maps
with sine-perturbed branches fall back to floats; their endpoints carry a
~1e-12 enclosure and covering checks then require a 1e-9 margin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def _lift_pt(branch, x, exact: bool):
    if exact:
        return Fraction(branch.slope) * x + Fraction(branch.offset)
    return float(branch.lift(float(x)))


def _inv_lift_pt(branch, t, exact: bool):
    if branch.is_affine:
        if exact:
            return (t - Fraction(branch.offset)) / Fraction(branch.slope)
        return (t - branch.offset) / branch.slope
    return float(_solve_lift(branch, np.array([float(t)]))[0])


def _point_preimages(m: PiecewiseMap, y, exact: bool) -> list:
    """All x in [0, 1) with f(x) = y (y given as exact or float circle point)."""
    out = []
    for b in m.branches:
        flo = _lift_pt(b, Fraction(b.lo) if exact else b.lo, exact)
        fhi = _lift_pt(b, Fraction(b.hi) if exact else b.hi, exact)
        inc = b.increasing
        lo_l, hi_l = (flo, fhi) if inc else (fhi, flo)
        k = math.floor(lo_l - y)
        while y + k <= hi_l:
            t = y + k
            if lo_l <= t <= hi_l:
                x = _inv_lift_pt(b, t, exact)
                if 0 <= x < 1:
                    out.append(x)
                elif x == 1:
                    out.append(x - x)  # exact zero of matching type
            k += 1
    return out


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

    def midpoint(self):
        return (self.lo + self.hi) / 2


def _branch_index_exact(m: PiecewiseMap, z, exact: bool) -> int:
    los = [Fraction(b.lo) if exact else b.lo for b in m.branches]
    idx = 0
    for i, lo in enumerate(los):
        if z >= lo:
            idx = i
        else:
            break
    return idx


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
    exact = _all_affine(maps)
    pts = set()
    for i in range(1, n + 1):
        ends = [Fraction(b.lo) if exact else b.lo for b in maps[i - 1].branches]
        for m in reversed(maps[: i - 1]):
            nxt = []
            for e in ends:
                nxt.extend(_point_preimages(m, e, exact))
            ends = nxt
            if len(ends) > cap:
                raise PartitionExplosionError(f"breakpoint count exceeded {cap}")
        pts.update(ends)
        if len(pts) > cap:
            raise PartitionExplosionError(f"breakpoint count exceeded {cap}")
    if exact:
        cuts = sorted(pts)
    else:
        cuts = []
        for p in sorted(pts):
            if not cuts or p - cuts[-1] > FLOAT_DEDUPE:
                cuts.append(p)
        if cuts and 1.0 - cuts[-1] <= FLOAT_DEDUPE:
            cuts.pop()
    one = Fraction(1) if exact else 1.0
    cylinders = []
    for q in range(len(cuts)):
        lo = cuts[q]
        hi = cuts[q + 1] if q + 1 < len(cuts) else one
        if hi <= lo:
            continue
        z = (lo + hi) / 2
        itin = []
        for m in maps:
            bi = _branch_index_exact(m, z, exact)
            itin.append(bi)
            val = _lift_pt(m.branches[bi], z, exact)
            val -= math.floor(val)
            z = val
        cylinders.append(Cylinder(lo, hi, tuple(itin)))
    if len(cylinders) > cap:
        raise PartitionExplosionError(f"cylinder count exceeded {cap}")
    return cylinders


def _image_arc(maps, cyl: Cylinder, exact: bool):
    """(start in [0,1), length) of the lift image of the cylinder interior."""
    a, b = cyl.lo, cyl.hi
    for step, bi in enumerate(cyl.itinerary):
        branch = maps[step].branches[bi]
        va = _lift_pt(branch, a, exact)
        vb = _lift_pt(branch, b, exact)
        a, b = (va, vb) if va <= vb else (vb, va)
        if step < len(cyl.itinerary) - 1:
            k = math.floor(a)
            a, b = a - k, b - k
    start = a - math.floor(a)
    return start, b - a


def _covers_circle(arcs, margin) -> bool:
    """Do the open arcs (start, start+length) jointly cover the circle?

    The complement of a finite union of open arcs, if nonempty, contains
    an arc endpoint, so it suffices to check that every endpoint (plus the
    origin) sits strictly inside some arc, by `margin` in float mode.
    """
    arcs = list(arcs)
    if not arcs:
        return False
    for _, length in arcs:
        if length > 1 + margin:
            return True
    candidates = {0 * arcs[0][0]}
    for s, length in arcs:
        candidates.add(s)
        e = s + length
        candidates.add(e - math.floor(e) if e >= 1 else e)
    for p in candidates:
        ok = False
        for s, length in arcs:
            off = p - s
            off -= math.floor(off)
            if margin < off < length - margin:
                ok = True
                break
        if not ok:
            return False
    return True


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
    exact = _all_affine([g])
    margin = 0 if exact else FLOAT_MARGIN
    prev = None
    for N in range(1, N_max + 1):
        maps = [g] * N
        groups: dict[int, set] = {}
        for c in cylinder_partition(maps, N):
            groups.setdefault(c.itinerary[0], set()).add(
                _image_arc(maps, c, exact))
        if all(_covers_circle(arcs, margin) for arcs in groups.values()):
            return N
        if exact and groups == prev:
            return None
        prev = groups
    return None


def refine_until(g: PiecewiseMap, a_star: float, cap: int = PARTITION_CAP) -> int:
    """Smallest n with every n-cylinder shorter than 1/(2 a*)."""
    return _refine(g, a_star, cap)[0]


def _refine(g: PiecewiseMap, a_star: float,
            cap: int = PARTITION_CAP) -> tuple[int, list[Cylinder]]:
    """refine_until's n, with the n-cylinders it built."""
    if a_star <= 0:
        raise ValueError("a_star must be positive")
    exact = _all_affine([g])
    thresh = Fraction(1) / (2 * Fraction(a_star)) if exact else 1.0 / (2.0 * a_star)
    n = 0
    while True:
        n += 1
        cyls = cylinder_partition([g] * n, n, cap=cap)
        if max(c.hi - c.lo for c in cyls) < thresh:
            return n, cyls


def _arc_contains(a, b, ilo, ihi) -> bool:
    """Does the closed arc [a, b] (lift coords, b <= a+len) contain [ilo, ihi]?"""
    length = b - a
    if length >= 1:
        return True
    off = ilo - a
    off -= math.floor(off)
    return off + (ihi - ilo) <= length


def escape_time(g: PiecewiseMap, J: Cylinder, cap_factor: int = ESCAPE_CAP_FACTOR):
    """Nested-interval loop producing (s, witness) with g^s(witness) covering
    a full first-level interval.

    Maintains the current image arc; when it straddles a partition point
    the longer piece is kept (ties toward the piece with the smaller start)
    and the preimage is recovered through the recorded lift chain.
    Containment of a first-level interval is checked in the closed sense.
    """
    exact = _all_affine([g]) and isinstance(J.lo, Fraction)
    one = Fraction(1) if exact else 1.0
    elems = [(Fraction(b.lo) if exact else b.lo,
              Fraction(b.hi) if exact else b.hi) for b in g.branches]
    ends = [lo for lo, _ in elems]

    def contains_elem(a, b) -> bool:
        return any(_arc_contains(a, b, ilo, ihi) for ilo, ihi in elems)

    if contains_elem(J.lo, J.hi):
        return 0, (J.lo, J.hi)
    a, b = J.lo, J.hi
    hist: list[tuple[object, object]] = []  # (branch, shift)
    cap = cap_factor * max(1, len(J.itinerary))
    for k in range(1, cap + 1):
        bi = _branch_index_exact(g, a, exact)
        branch = g.branches[bi]
        va = _lift_pt(branch, a, exact)
        vb = _lift_pt(branch, b, exact)
        lo_l, hi_l = (va, vb) if va <= vb else (vb, va)
        shift = math.floor(lo_l)
        a, b = lo_l - shift, hi_l - shift
        hist.append((branch, shift))
        if contains_elem(a, b):
            wa, wb = a, b
            for br, sh in reversed(hist):
                wa = _inv_lift_pt(br, wa + sh, exact)
                wb = _inv_lift_pt(br, wb + sh, exact)
                if wa > wb:
                    wa, wb = wb, wa
            return k, (wa, wb)
        # interior partition points of the open arc (a, b)
        length = b - a
        inside = []
        for p in ends:
            off = p - a
            off -= math.floor(off)
            if 0 < off < length:
                inside.append((off, p))
        if not inside:
            continue  # arc sits inside one first-level interval
        if len(inside) != 1:
            raise CoveringError("arc straddles more than one partition point")
        off, _ = inside[0]
        low_piece = (a, a + off)
        high_piece = (a + off, a + length)
        if off > length - off:
            a, b = low_piece
        elif off < length - off:
            a, b = high_piece
        else:
            first_start = low_piece[0] - math.floor(low_piece[0])
            second_start = high_piece[0] - math.floor(high_piece[0])
            a, b = low_piece if first_start <= second_start else high_piece
        k0 = math.floor(a)
        a, b = a - k0, b - k0
        if k0:
            branch_last, shift_last = hist[-1]
            hist[-1] = (branch_last, shift_last + k0)
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
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    N = len(maps)
    if N < 1:
        raise ValueError("need at least one map")
    alo, ahi = interval
    if not alo < ahi:
        raise ValueError("interval must have positive length")
    if not 2 * delta < ahi - alo:
        raise ValueError("2*delta must be smaller than the interval length")
    exact = _all_affine(maps)
    margin = 0 if exact else FLOAT_MARGIN
    if exact:
        alo, ahi = Fraction(alo), Fraction(ahi)
        delta = Fraction(delta)
    lo_d, hi_d = alo + delta, ahi - delta
    cyls = cylinder_partition(maps, N)
    arcs = []
    for c in cyls:
        plo = max(c.lo, lo_d)
        phi_ = min(c.hi, hi_d)
        if phi_ <= plo:
            continue
        piece = Cylinder(plo, phi_, c.itinerary)
        arcs.append(_image_arc(maps, piece, exact))
    if not arcs:
        return False
    return _covers_circle(arcs, margin)
