"""Parametrized paths through the space of piecewise expanding maps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .config import Format, ScenarioError, read
from .maps import MARKS, PiecewiseMap, affine_map, sine_map


@dataclass(frozen=True)
class MapCurve:
    """Continuous path t -> map over the parameter interval [a, b].

    `lipschitz` is an upper bound L on
    neighborhood_distance(curve(t), curve(t0)) / |t - t0|; the safe
    parameter mesh is computed from it in closed form.
    """

    a: float
    b: float
    factory: Callable[[float], PiecewiseMap]
    lipschitz: float
    label: str = "curve"

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz) and self.lipschitz >= 0):
            raise ValueError(f"curve {self.label}: lipschitz must be a "
                             f"finite number >= 0, got {self.lipschitz}")

    def __call__(self, t: float) -> PiecewiseMap:
        if not self.a - 1e-12 <= t <= self.b + 1e-12:
            raise ValueError(f"parameter {t} outside [{self.a}, {self.b}]")
        return self.factory(min(max(t, self.a), self.b))


def slope_curve(s0: float, s1: float, interval=(0.0, 1.0),
                marks=MARKS) -> MapCurve:
    """Affine family s(t)*x mod 1 with a fixed branch partition; the slope
    interpolates linearly from s0 to s1 across the interval.  Two maps
    differ by h = ds*x, so sup|h| + sup|h'| = 2|ds|."""
    a, b = interval

    def factory(t: float) -> PiecewiseMap:
        s = s0 + (s1 - s0) * (t - a) / (b - a)
        return affine_map(s, 0.0, marks)

    return MapCurve(a, b, factory, 2.0 * abs(s1 - s0) / (b - a),
                    label=f"slope[{s0},{s1}]")


def sine_amplitude_curve(slope: float, a0: float, a1: float,
                         interval=(0.0, 1.0), marks=MARKS) -> MapCurve:
    """Sine-perturbed family with amplitude interpolating from a0 to a1.
    Two maps differ by h = da*sin(2 pi x), so the C2 norm of h is
    (1 + 2 pi + 4 pi^2)|da|."""
    a, b = interval

    def factory(t: float) -> PiecewiseMap:
        amp = a0 + (a1 - a0) * (t - a) / (b - a)
        return sine_map(slope, amp, 0.0, marks)

    c2 = 1.0 + 2.0 * math.pi + 4.0 * math.pi ** 2
    return MapCurve(a, b, factory, c2 * abs(a1 - a0) / (b - a),
                    label=f"sineamp[{a0},{a1}]")


_PATH = {"interval": (0.0, 1.0), "marks": MARKS}
CURVE = Format("family", "slope", "curve family", {
    "slope": {"s0": float, "s1": float, **_PATH},
    "sine-amplitude": {"slope": float, "a0": float, "a1": float, **_PATH}})


def curve_from_dict(spec: dict) -> MapCurve:
    spec = read(spec, CURVE, "curve")
    interval = tuple(spec["interval"])
    if not (len(interval) == 2 and all(map(math.isfinite, interval))
            and interval[0] < interval[1]):
        raise ScenarioError("curve.interval must be two finite numbers "
                            f"a < b, got {spec['interval']!r}")
    marks = tuple(spec["marks"])
    if spec["family"] == "slope":
        return slope_curve(spec["s0"], spec["s1"], interval, marks)
    return sine_amplitude_curve(spec["slope"], spec["a0"], spec["a1"],
                                interval, marks)
