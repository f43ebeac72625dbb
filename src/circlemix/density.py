"""Probability densities on a uniform circle grid.

A density is a nonnegative piecewise-linear periodic function given by its
samples at x_i = i/G (G a power of two), with unit trapezoidal integral.
On this periodic uniform grid the trapezoid rule reduces to the sample
mean, and the total variation of the interpolant is the exact cyclic sum
of |differences|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INTEGRAL_TOL = 1e-9
EPS = float(np.finfo(float).eps)  # ulp(1) = 2^-52


def _check_grid(G: int) -> None:
    if G < 2 or (G & (G - 1)) != 0:
        raise ValueError(f"grid size {G} must be a power of two >= 2")


def _ratio_kmax(eps_loc: float, G: int) -> int:
    """The largest shift k with k/G < eps_loc."""
    if not 0.0 < eps_loc < 0.25:
        raise ValueError("eps_loc must lie in (0, 1/4)")
    return math.ceil(eps_loc * G) - 1


def _shift_level(s: np.ndarray, k: int, r: np.ndarray) -> float:
    """max over i of max(|q - 1|, |1/q - 1|) / d for the ratios
    q = s[i+k]/s[i] (cyclic) at distance d = k/G, into the buffer r.

    Only the extreme ratios are needed: x -> |x - 1| and x -> |1/x - 1|
    fall then rise about 1, and correctly rounded division and subtraction
    keep that order, so their maxima over i sit at the smallest or the
    largest ratio.
    """
    G = s.shape[0]
    np.divide(s[k:], s[:G - k], out=r[:G - k])
    np.divide(s[:k], s[G - k:], out=r[G - k:])
    ext = np.array([r.min(), r.max()])
    m = max(float(np.abs(ext - 1.0).max()),
            float(np.abs(1.0 / ext - 1.0).max()))
    return m / (k / G)


def _frozen_samples(arr: np.ndarray) -> np.ndarray:
    """arr, checked as the samples of a unit-mass density and made
    read-only; ValueError if it is not one."""
    _check_grid(arr.shape[0] if arr.ndim == 1 else 0)
    # written so that NaN fails both checks
    if not arr.min() >= 0.0:
        raise ValueError("density samples must be nonnegative numbers")
    total = float(arr.mean())
    if not abs(total - 1.0) <= INTEGRAL_TOL:
        raise ValueError(f"density integral {total} is not 1 within {INTEGRAL_TOL}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Density:
    """Unit-mass density sampled on the grid i/G."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_samples(
            np.array(self.samples, dtype=float)))

    @classmethod
    def _own(cls, arr: np.ndarray) -> "Density":
        """The density of a fresh float array that no one else holds: the
        same checks as Density(arr), without the copy."""
        self = object.__new__(cls)
        object.__setattr__(self, "samples", _frozen_samples(arr))
        return self

    # --- construction ---------------------------------------------------

    @classmethod
    def from_samples(cls, samples) -> "Density":
        """Normalize arbitrary nonnegative samples to unit integral."""
        arr = np.asarray(samples, dtype=float)
        total = float(arr.mean())
        if total <= 0.0:
            raise ValueError("cannot normalize: integral <= 0")
        return cls(arr / total)

    @classmethod
    def uniform(cls, G: int) -> "Density":
        return cls(np.ones(G))

    @classmethod
    def sine(cls, G: int, k: int = 1, amplitude: float = 0.5) -> "Density":
        if not abs(amplitude) < 1.0:
            raise ValueError("sine preset needs |amplitude| < 1")
        x = np.arange(G) / G
        return cls(1.0 + amplitude * np.sin(2.0 * math.pi * k * x))

    @classmethod
    def cosine(cls, G: int, k: int = 1, amplitude: float = 0.4) -> "Density":
        if not abs(amplitude) < 1.0:
            raise ValueError("cosine preset needs |amplitude| < 1")
        x = np.arange(G) / G
        return cls(1.0 + amplitude * np.cos(2.0 * math.pi * k * x))

    @classmethod
    def step(cls, G: int, levels) -> "Density":
        """Piecewise-constant levels on equal arcs, normalized."""
        levels = np.asarray(levels, dtype=float)
        if np.any(levels < 0.0):
            raise ValueError("step levels must be nonnegative")
        idx = (np.arange(G) * len(levels)) // G
        return cls.from_samples(levels[idx])

    @classmethod
    def from_function(cls, G: int, fn) -> "Density":
        return cls.from_samples(fn(np.arange(G) / G))

    @classmethod
    def random_bv(cls, G: int, a: float, rng: np.random.Generator) -> "Density":
        """Seeded rough test density with total variation ~0.9*a (<= a).

        Random plateaus (some pinned to zero) plus fine-scale noise give a
        raw profile whose variation exceeds the target; blending toward
        the uniform density scales variation linearly without touching the
        integral or nonnegativity.
        """
        if a <= 0:
            raise ValueError("variation bound must be positive")
        n_plateau = int(rng.integers(4, 10))
        cuts = np.sort(rng.integers(0, G, n_plateau))
        levels = rng.uniform(0.0, 2.0, n_plateau)
        levels[rng.uniform(size=n_plateau) < 0.2] = 0.0
        idx = np.searchsorted(cuts, np.arange(G), side="right") % n_plateau
        raw = levels[idx] + rng.uniform(0.3, 1.0) * rng.uniform(0.0, 1.0, G)
        mean = raw.mean()
        if mean <= 0.0:
            raw = np.ones(G)
            mean = 1.0
        raw = raw / mean
        v = float(np.abs(np.diff(raw, append=raw[:1])).sum())
        theta = min(1.0, 0.9 * a / v) if v > 0 else 0.0
        return cls(1.0 + theta * (raw - 1.0))

    # --- basic quantities -------------------------------------------------

    @property
    def G(self) -> int:
        return self.samples.shape[0]

    def integral(self) -> float:
        """Trapezoidal integral over the circle (= sample mean on this grid)."""
        return float(self.samples.mean())

    def l1_distance(self, other: "Density") -> float:
        if self.G != other.G:
            raise ValueError("mismatched grid sizes")
        d = self.samples - other.samples
        return float(np.abs(d, out=d).mean())

    def variation(self) -> float:
        """Exact total variation of the piecewise-linear interpolant."""
        s = self.samples
        d = np.empty_like(s)
        np.subtract(s[1:], s[:-1], out=d[:-1])
        d[-1] = s[0] - s[-1]
        return float(np.abs(d, out=d).sum())

    def min_value(self) -> float:
        return float(self.samples.min())

    def bin_masses(self, B: int) -> np.ndarray:
        """Exact per-bin integrals of the interpolant over [j/B, (j+1)/B)."""
        G = self.G
        if B < 1 or G % B != 0:
            raise ValueError("B must divide G")
        m = G // B
        s = self.samples
        blocks = s.reshape(B, m)
        right_edges = s[(np.arange(1, B + 1) * m) % G]
        return (blocks.sum(axis=1) - 0.5 * blocks[:, 0] + 0.5 * right_edges) / G

    # --- cone / matching primitives --------------------------------------

    def ratio_class_L(self, eps_loc: float) -> float:
        """Least L with |phi(x)/phi(y) - 1| <= L d(x,y) over grid pairs with
        circular distance < eps_loc.  +inf if any sample vanishes.

        This scans every shift, O(G^2 eps_loc); ratio_class_bracket
        encloses it in O(G).
        """
        kmax = _ratio_kmax(eps_loc, self.G)
        s = self.samples
        if np.any(s <= 0.0):
            return math.inf
        r = np.empty(self.G)
        return max((_shift_level(s, k, r) for k in range(1, kmax + 1)),
                   default=0.0)

    def ratio_class_bracket(self, eps_loc: float) -> tuple[float, float]:
        """(lower, upper) enclosing ratio_class_L(eps_loc) as computed.

        lower is the scan's own term for the shifts 1 and kmax, so it is
        never above the scan.  upper bounds every term of the scan: log of
        the interpolant is Lipschitz with l = G max_i |s[i+1] - s[i]| /
        min(s[i], s[i+1]), so a ratio at distance d <= eps_loc lies within
        expm1(l d) <= d expm1(l eps_loc) / eps_loc of 1; the rounding of
        the ratios adds at most 2 ulp(1) exp(l eps_loc) / d with d >= 1/G,
        and the factor 1 + 1e-12 covers the rounding of l and expm1.
        +inf where exp overflows; (inf, inf) if any sample vanishes, as the
        scan gives inf then.
        """
        kmax = _ratio_kmax(eps_loc, self.G)
        s = self.samples
        if np.any(s <= 0.0):
            return math.inf, math.inf
        if kmax < 1:
            return 0.0, 0.0
        r = np.empty(self.G)
        lower = max(_shift_level(s, 1, r), _shift_level(s, kmax, r))
        nxt = np.roll(s, -1)
        ell = self.G * float((np.abs(nxt - s) / np.minimum(s, nxt)).max())
        x = ell * eps_loc
        try:
            upper = (math.expm1(x) / eps_loc
                     + 2.0 * EPS * self.G * math.exp(x)) * (1.0 + 1e-12)
        except OverflowError:
            upper = math.inf
        return lower, upper

    def match_subtract(self, kappa: float, fraction: float) -> "Density":
        """(phi - fraction*kappa) / (1 - fraction*kappa).

        The subtracted constant must not exceed the minimum, so the result
        stays a nonnegative unit-mass density.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        c = fraction * kappa
        if c <= 0.0:
            raise ValueError("subtracted amount must be positive")
        if c > self.min_value():
            raise ValueError(
                f"subtraction {c} exceeds the density minimum {self.min_value()}")
        if c >= 1.0:
            raise ValueError("subtracted amount must be < 1")
        out = self.samples - c
        return Density._own(np.divide(out, 1.0 - c, out=out))
