"""Closed-form constants and schedules: absorption times, distortion and
cone parameters, matching rates, the grid slack, and the safe parameter
mesh for driving a curve of maps."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import write_json
from .covering import CoveringReport, positivity_horizon
from .maps import PiecewiseMap, analyze, neighborhood_distance

# Affine-only families have zero distortion; the literal cone rule would
# then demand an infinite absorption time, so the distortion constant is
# floored (affine maps contract the ratio cone every step regardless).
C0_FLOOR = 1e-6
DENSE_SAMPLES = 65  # evenly spaced parameters bounding a curve's family


def tau_piecewise(a: float, a_star: float, lambda0: float, A0: float) -> int:
    """Smallest n >= 0 with (2/lambda0)^n * a + A0/(1-2/lambda0) <= a*,
    i.e. the variation envelope has entered the target cone."""
    if lambda0 <= 2.0:
        raise ValueError("absorption needs lambda0 > 2")
    if a <= 0:
        raise ValueError("initial variation level must be positive")
    gap = a_star - A0 / (1.0 - 2.0 / lambda0)
    if gap <= 0:
        raise ValueError("a_star must exceed A0/(1 - 2/lambda0)")
    rho = 2.0 / lambda0

    def ok(n: int) -> bool:
        return a * rho ** n <= gap

    if ok(0):
        return 0
    n = max(1, math.ceil(math.log(gap / a) / math.log(rho)))
    while not ok(n):
        n += 1
    while n > 0 and ok(n - 1):
        n -= 1
    return n


def tau_smooth(L: float, lambda0: float, C0: float) -> int:
    """Smallest n >= 0 with L * lambda0^-n <= C0."""
    if lambda0 <= 1.0:
        raise ValueError("needs lambda0 > 1")
    if C0 <= 0:
        raise ValueError("needs C0 > 0")
    if L < 0:
        raise ValueError("needs L >= 0")
    n = 0
    val = L
    while val > C0:
        val /= lambda0
        n += 1
        if n > 10 ** 6:
            raise RuntimeError("absorption time failed to converge")
    return n


def distortion_constant(C1: float, lambda0: float) -> float:
    """Telescoped log-derivative distortion bound C1/(lambda0 - 1)."""
    if lambda0 <= 1.0:
        raise ValueError("needs lambda0 > 1")
    if C1 < 0:
        raise ValueError("needs C1 >= 0")
    return C1 / (lambda0 - 1.0)


def cone_parameter(C0: float) -> float:
    """Ratio-cone level 4*C0 that absorbs evolved densities."""
    return 4.0 * C0


def smooth_positivity_floor(L_star: float, eps_loc: float) -> float:
    """Uniform lower bound for unit-mass densities in the ratio cone.

    Some point has value >= 1; chaining the ratio condition along hops of
    size eps_loc/2 across the half-circle gives
    (1 + L* eps_loc/2)^-ceil(1/eps_loc).
    """
    if not 0.0 < eps_loc < 0.25:
        raise ValueError("eps_loc must lie in (0, 1/4)")
    if L_star < 0:
        raise ValueError("needs L_star >= 0")
    hops = math.ceil(1.0 / eps_loc)
    return (1.0 + L_star * eps_loc / 2.0) ** (-hops)


def lambda_local(kappa: float, block: int) -> float:
    """Per-step rate (1-kappa)^(1/block) from matching kappa every block steps."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if block < 1:
        raise ValueError("block must be >= 1")
    return (1.0 - kappa) ** (1.0 / block)


@dataclass(frozen=True)
class FamilyBounds:
    """Uniform analytic bounds over a family of maps (optionally padded by a
    neighborhood radius so nearby maps are covered too)."""

    lambda0: float
    A0: float
    M0: float
    C1: float
    sup_d2: float


def family_bounds(maps, eps_pad: float = 0.0) -> FamilyBounds:
    lam = math.inf
    m0 = 0.0
    sup2 = 0.0
    A0 = 0.0
    for m in maps:
        an = analyze(m)
        lam_m = an.lambda_min - eps_pad
        if lam_m <= 1.0:
            raise ValueError("padded expansion drops to <= 1")
        lam = min(lam, lam_m)
        m0 = max(m0, an.M0 + eps_pad)
        d2 = an.sup_d2 + eps_pad
        sup2 = max(sup2, d2)
        second = max((1.0 / (bl - eps_pad)) / ln for bl, ln in an.branch_data)
        A0 = max(A0, d2 / lam_m ** 2 + 2.0 * second)
    return FamilyBounds(lambda0=lam, A0=A0, M0=m0, C1=sup2 / lam, sup_d2=sup2)


def default_a_star(fam: FamilyBounds) -> float:
    """Reproducible default cone level: 1.25 x the absorption threshold."""
    if fam.lambda0 <= 2.0:
        raise ValueError("absorption needs lambda0 > 2")
    return 1.25 * fam.A0 / (1.0 - 2.0 / fam.lambda0)


@dataclass(frozen=True)
class BoundsReport:
    """Every proof constant for a scenario, JSON-serializable under the
    names used throughout this package."""

    mode: str
    lambda0: float
    A0: float | None
    M0_family: float
    C1: float
    C0: float | None
    L_star: float | None
    a_star: float | None
    tau: int
    kappa: float
    block: int
    Lambda: float
    delta0: float | None = None
    eps: float | None = None
    eps_loc: float | None = None
    fraction: float = 1.0

    def as_dict(self) -> dict:
        """Every field by name; `BoundsReport(**as_dict())` rebuilds it."""
        return asdict(self)

    def grid_slack(self, G: int) -> float:
        """Grid slack 20 a_ref / G of the positivity and envelope checks,
        from the cone level a_ref (L* when smooth, a* otherwise)."""
        a_ref = self.L_star if self.mode == "smooth" else self.a_star
        return 20.0 * a_ref / G

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())


@dataclass(frozen=True)
class ProbeInfo:
    """Per-probe data for the curve mesh: admissible radius, parameter
    radius, covering constants, and the block length they imply."""

    t: float
    eps: float
    alpha: float
    covering: CoveringReport
    tau: int

    @property
    def n_block(self) -> int:
        return self.covering.n0 + self.tau

    @property
    def kappa(self) -> float:
        return self.covering.kappa_eps


@dataclass(frozen=True)
class CurveCover:
    """Result of the mesh computation along a curve of maps."""

    delta0: float | None
    probes: tuple[ProbeInfo, ...]
    selected: tuple[int, ...]
    covered: bool
    uncovered_at: float | None
    family: FamilyBounds
    a_star: float
    interval: tuple[float, float] = field(default=(0.0, 1.0))

    def anchor_for(self, t: float) -> ProbeInfo:
        """Selected probe whose half-radius window contains t (the one
        reaching farthest right, for determinism)."""
        best = None
        for j in self.selected:
            p = self.probes[j]
            if p.t - p.alpha / 2 <= t <= p.t + p.alpha / 2:
                if best is None or p.t + p.alpha / 2 > best.t + best.alpha / 2:
                    best = p
        if best is None:
            raise ValueError(f"parameter {t} not covered by any half-window")
        return best

    def as_dict(self) -> dict:
        return {
            "delta0": self.delta0,
            "covered": self.covered,
            "uncovered_at": self.uncovered_at,
            "a_star": self.a_star,
            "lambda0": self.family.lambda0,
            "A0": self.family.A0,
            "M0": self.family.M0,
            "interval": list(self.interval),
            "selected": list(self.selected),
            "probes": [
                {
                    "t": p.t,
                    "eps": p.eps,
                    "alpha": p.alpha,
                    "n0": p.covering.n0,
                    "tau": p.tau,
                    "n_block": p.n_block,
                    "kappa": p.kappa,
                }
                for p in self.probes
            ],
        }


def default_eps_rule(g: PiecewiseMap) -> float:
    """Largest admissible neighborhood radius: a quarter of the minimal gap
    between genuine discontinuities (capped at 1/4 for continuous maps)."""
    d = analyze(g).d_omega
    return 0.25 * min(d, 1.0) * (1.0 - 1e-9)


def _alpha_radius(curve, t0: float, g: PiecewiseMap, eps: float) -> float:
    """Parameter radius within which the curve stays eps-near g = curve(t0),
    in closed form from the curve's Lipschitz constant L:
    alpha = min(eps, d_omega/4) / L (past d_omega/4 maps are incomparable),
    or the interval length b - a when every parameter of [a, b] lies within
    that radius of t0.  The declared L is checked at the half-window ends;
    a curve that breaks it raises ValueError."""
    a, b = curve.a, curve.b
    if b - a <= 0:
        raise ValueError("degenerate parameter interval")
    L = curve.lipschitz
    reach = min(eps, 0.25 * analyze(g).d_omega)
    if L == 0 or L * max(t0 - a, b - t0) < reach:
        alpha = b - a
    else:
        alpha = reach / L
    for t in (max(a, t0 - alpha / 2), min(b, t0 + alpha / 2)):
        if neighborhood_distance(curve(t), g) > L * abs(t - t0) + 1e-12:
            raise ValueError(
                f"curve {curve.label}: declared lipschitz {L} is too small "
                f"between t={t0} and t={t}")
    return alpha


def _greedy_cover(windows, a: float, b: float):
    """Classic interval-cover sweep; returns chosen indices or the first
    uncovered parameter."""
    chosen = []
    covered_to = a
    # default_eps_rule shrinks radii by a factor (1 - 1e-9), so adjacent
    # windows meant to touch can miss by ~1e-9; bridge that, it is far
    # below any mesh scale.
    fuzz = 1e-8 * max(1.0, abs(b - a))
    while covered_to < b - fuzz:
        best = None
        for j, (lo, hi) in enumerate(windows):
            if lo <= covered_to + fuzz and (best is None or hi > windows[best][1]):
                best = j
        if best is None or windows[best][1] <= covered_to + fuzz:
            return None, covered_to
        chosen.append(best)
        covered_to = windows[best][1]
    return chosen, None


def delta0_of_curve(curve, probe_grid, a_star: float | None = None,
                    eps: float | None = None,
                    known: CurveCover | None = None) -> CurveCover:
    """Safe parameter mesh along a curve of maps (a `MapCurve`).

    For each probe: the admissible radius (`eps`, or `default_eps_rule`
    of the probe map when None), the parameter radius alpha within which
    the curve stays that near the probe map (from the curve's Lipschitz
    constant), the positivity horizon, and the block length n0 + tau.
    Half-radius windows must cover the parameter interval (greedy
    selection).  The mesh is delta0 = min over all probes of
    alpha/(2 * block) -- taking every probe, not just the chosen cover,
    keeps the certified mesh monotone under probe refinement (a superset
    of probes never certifies a larger mesh) at the cost of a slightly
    conservative value.  `known` is the cover of an earlier call on the
    same curve and eps (the previous refinement pass of
    scenarios.plan_curve): when its family bounds and a_star equal this
    call's, a probe at one of its parameters is taken from it, not
    computed again.
    """
    probe_grid = sorted(float(t) for t in probe_grid)
    if not probe_grid:
        raise ValueError("need at least one probe")
    a, b = curve.a, curve.b
    dense = sorted(set(probe_grid) | set(np.linspace(a, b, DENSE_SAMPLES).tolist()))
    fam = family_bounds([curve(t) for t in dense])
    if a_star is None:
        a_star = default_a_star(fam)
    reuse = {}
    if known is not None and (known.family, known.a_star) == (fam, a_star):
        reuse = {p.t: p for p in known.probes}
    probes = []
    for t in probe_grid:
        if t in reuse:
            probes.append(reuse[t])
            continue
        g = curve(t)
        radius = default_eps_rule(g) if eps is None else float(eps)
        cov = positivity_horizon(g, a_star, radius)
        tau = tau_piecewise(a_star / (1.0 - cov.kappa_eps), a_star,
                            fam.lambda0, fam.A0)
        alpha = _alpha_radius(curve, t, g, radius)
        probes.append(ProbeInfo(t=t, eps=radius, alpha=alpha, covering=cov, tau=tau))
    windows = [(p.t - p.alpha / 2, p.t + p.alpha / 2) for p in probes]
    chosen, uncovered = _greedy_cover(windows, a, b)
    if chosen is None:
        return CurveCover(None, tuple(probes), (), False, uncovered, fam,
                          a_star, (a, b))
    delta0 = min(p.alpha / (2.0 * p.n_block) for p in probes)
    return CurveCover(delta0, tuple(probes), tuple(chosen), True, None, fam,
                      a_star, (a, b))
