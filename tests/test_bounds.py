import math

import numpy as np
import pytest

from circlemix import (BoundsReport, cone_parameter, delta0_of_curve,
                       distortion_constant, family_bounds, lambda_local,
                       neighborhood_distance, sine_amplitude_curve, sine_map,
                       slope_curve, slope3_two_branch,
                       smooth_positivity_floor, tau_piecewise, tau_smooth)
from circlemix.bounds import default_a_star, default_eps_rule
from circlemix.curves import MapCurve


def tau_piecewise_oracle(a, a_star, lambda0, A0):
    gap = a_star - A0 / (1 - 2 / lambda0)
    n = 0
    while a * (2 / lambda0) ** n > gap:
        n += 1
    return n


def test_tau_piecewise_frozen_values():
    # oracle scan: 200*(0.8)^17 = 4.51 <= 5 while 0.8^16 leaves 5.63
    assert tau_piecewise(200, 25, 2.5, 4.0) == 17
    assert tau_piecewise_oracle(200, 25, 2.5, 4.0) == 17
    # already inside the cone
    assert tau_piecewise(4.9, 25, 2.5, 4.0) == 0
    # 100*(2/3)^10 = 1.73e-2 <= 2 - ... wait gap = 8 - 6 = 2; scan gives 10
    assert tau_piecewise(100, 8, 3.0, 2.0) == 10
    assert tau_piecewise_oracle(100, 8, 3.0, 2.0) == 10


def test_tau_piecewise_minimality_randomized():
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(50):
        lambda0 = float(rng.uniform(2.05, 4.0))
        A0 = float(rng.uniform(0.5, 5.0))
        base = A0 / (1 - 2 / lambda0)
        a_star = base * float(rng.uniform(1.05, 3.0))
        a = float(rng.uniform(0.5, 500.0))
        tau = tau_piecewise(a, a_star, lambda0, A0)
        gap = a_star - base
        rho = 2 / lambda0
        assert a * rho ** tau <= gap * (1 + 1e-12)
        if tau > 0:
            assert a * rho ** (tau - 1) > gap * (1 - 1e-12)


def test_tau_piecewise_rejects():
    with pytest.raises(ValueError):
        tau_piecewise(10, 5, 1.9, 1.0)
    with pytest.raises(ValueError):
        tau_piecewise(10, 4.9, 2.5, 1.0)  # a* below the threshold 5.0... ok
    with pytest.raises(ValueError):
        tau_piecewise(-1, 25, 2.5, 4.0)


def test_tau_smooth():
    assert tau_smooth(100, 2, 5) == 5
    assert tau_smooth(3, 2, 5) == 0
    C0 = 1.7
    assert tau_smooth(8 * C0, 2, C0) == 3  # 8 C0 / 2^3 = C0


def test_distortion_and_cone():
    assert distortion_constant(3.0, 2.0) == 3.0
    assert cone_parameter(3.0) == 12.0
    assert distortion_constant(0.0, 2.0) == 0.0
    C1 = 4 * math.pi ** 2 * 0.05 / (2 - 0.1 * math.pi)
    assert distortion_constant(C1, 2 - 0.1 * math.pi) == pytest.approx(
        C1 / (1 - 0.1 * math.pi), abs=1e-12)


def test_smooth_positivity_floor():
    # phi >= 1 somewhere; ratio-chained lower bound must really floor the
    # cone: check against densities with a computed ratio level
    from circlemix import Density

    kappa = smooth_positivity_floor(6.0, 0.1)
    assert 0 < kappa < 1
    rng = np.random.Generator(np.random.PCG64(15))
    for _ in range(20):
        d = Density.from_samples(0.3 + rng.uniform(0, 1, 512))
        L = d.ratio_class_L(0.1)
        if L <= 6.0:
            assert d.min_value() >= smooth_positivity_floor(6.0, 0.1) - 1e-12


def test_lambda_local():
    assert lambda_local(0.05, 14) == pytest.approx(0.95 ** (1 / 14), abs=1e-15)
    # monotone decreasing in kappa, increasing in block
    assert lambda_local(0.1, 10) < lambda_local(0.05, 10)
    assert lambda_local(0.05, 20) > lambda_local(0.05, 10)
    with pytest.raises(ValueError):
        lambda_local(0.0, 10)


def test_envelope_consistency_with_local_rate():
    # 2(1-rk)^floor(n/b) <= 2 * Lambda_local^(n-b) for n >= b
    kappa_eff = 0.3
    block = 4
    lam = lambda_local(kappa_eff, block)
    for n in range(block, 40):
        lhs = 2.0 * (1.0 - kappa_eff) ** (n // block)
        rhs = 2.0 * lam ** (n - block)
        assert lhs <= rhs * (1 + 1e-12)


def test_family_bounds_padding():
    fam = family_bounds([slope3_two_branch()], eps_pad=0.01)
    assert fam.lambda0 == pytest.approx(2.99)
    assert fam.M0 == pytest.approx(3.01)
    fam_sine = family_bounds([sine_map(2.0, a) for a in (-0.05, 0.0, 0.05)])
    assert fam_sine.lambda0 == pytest.approx(2 - 0.1 * math.pi, abs=1e-12)
    assert fam_sine.sup_d2 == pytest.approx(4 * math.pi ** 2 * 0.05, abs=1e-12)


def test_default_eps_rule():
    # genuine discontinuity gap of 2.5x mod 1 is the full circle (one jump)
    from circlemix import slope25_map

    assert default_eps_rule(slope25_map()) == pytest.approx(0.25, rel=1e-8)


def test_delta0_constant_curve():
    g = slope3_two_branch()
    curve = MapCurve(0.0, 1.0, lambda t: g, lipschitz=0.0, label="const")
    cover = delta0_of_curve(curve, [0.5])
    assert cover.covered
    p = cover.probes[0]
    assert p.alpha == 1.0  # capped at the interval length
    assert cover.delta0 == pytest.approx(1.0 / (2.0 * p.n_block))


def test_delta0_slope_family():
    curve = slope_curve(2.5, 3.5)
    grid = [i / 8 for i in range(9)]
    cover = delta0_of_curve(curve, grid)
    assert cover.covered
    assert cover.delta0 > 0
    # each alpha solves 2|t - z| = eps on the affine family (distance is
    # exactly twice the slope gap)
    for j in cover.selected:
        p = cover.probes[j]
        assert p.alpha == pytest.approx(min(p.eps / 2.0, 1.0), abs=1e-12)
    # refinement with more probes never certifies a larger mesh
    finer = delta0_of_curve(curve, [i / 16 for i in range(17)])
    assert finer.covered
    assert finer.delta0 <= cover.delta0 * 1.000001


@pytest.mark.parametrize("curve, probes", [
    (slope_curve(2.5, 3.5), [i / 8 for i in range(9)]),
    (sine_amplitude_curve(3.0, 0.0, 0.01), [0.0, 0.5, 1.0]),
])
def test_curve_stays_in_every_alpha_window(curve, probes):
    cover = delta0_of_curve(curve, probes)
    assert cover.covered and cover.delta0 > 0
    L = curve.lipschitz
    for p in cover.probes:
        # the full length when the whole interval lies within eps/L of t
        whole = L * max(p.t, 1.0 - p.t) < p.eps
        assert p.alpha == pytest.approx(1.0 if whole else p.eps / L,
                                        rel=1e-12)
        g = curve(p.t)
        lo, hi = max(curve.a, p.t - p.alpha), min(curve.b, p.t + p.alpha)
        for t in np.linspace(lo, hi, 1002)[1:-1]:
            assert neighborhood_distance(curve(float(t)), g) < p.eps


def test_understated_lipschitz_raises():
    true = slope_curve(2.5, 3.5)
    liar = MapCurve(true.a, true.b, true.factory, lipschitz=1.0, label="liar")
    with pytest.raises(ValueError, match="liar"):
        delta0_of_curve(liar, [0.5])


def test_lipschitz_must_be_finite_and_nonnegative():
    g = slope3_two_branch()
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lipschitz"):
            MapCurve(0.0, 1.0, lambda t: g, lipschitz=bad)


def test_delta0_cover_failure_reported():
    curve = slope_curve(2.5, 3.5)
    cover = delta0_of_curve(curve, [0.0])  # single far-left probe
    assert not cover.covered
    assert cover.delta0 is None
    assert cover.uncovered_at is not None and cover.uncovered_at > 0


def test_default_a_star_satisfies_precondition():
    fam = family_bounds([slope3_two_branch()])
    a_star = default_a_star(fam)
    assert a_star > fam.A0 / (1 - 2 / fam.lambda0)


def test_bounds_report_round_trips_and_grid_slack(tmp_path):
    import json

    from circlemix.scenarios import plan_piecewise, plan_smooth, read_scenario

    sc = dict(name="t", kind="smooth", grid=1024, n_max=5, seed=1,
              phi={}, psi={}, family={"slope": 2.0, "amp_max": 0.05})
    fixed = dict(name="t", kind="fixed-map", grid=1024, n_max=5, seed=1,
                 phi={}, psi={},
                 family={"map": {"form": "slope3-two-branch"}})
    piecewise = plan_piecewise(read_scenario(fixed)).report
    smooth = plan_smooth(read_scenario(sc)).report
    keys = {"mode", "lambda0", "A0", "M0_family", "C1", "C0", "L_star",
            "a_star", "tau", "kappa", "block", "Lambda", "delta0", "eps",
            "eps_loc", "fraction"}
    for report in (piecewise, smooth):
        assert set(report.as_dict()) == keys
        assert BoundsReport(**report.as_dict()) == report
        path = tmp_path / f"{report.mode}.json"
        report.to_json(path)
        assert BoundsReport(**json.loads(path.read_text())) == report
    # the slack's cone level: a* for piecewise runs, L* for smooth ones
    assert piecewise.grid_slack(1024) == 20.0 * piecewise.a_star / 1024
    assert smooth.grid_slack(1024) == 20.0 * smooth.L_star / 1024
