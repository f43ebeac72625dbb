import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import Density
from circlemix.bounds import tau_smooth
from circlemix.coupling import CertificateViolation, _smooth_wait


def brute_ratio_class(samples, eps_loc):
    """Quadratic-loop oracle for the least local ratio-oscillation level."""
    G = len(samples)
    best = 0.0
    for i in range(G):
        for k in range(1, G):
            d = min(k, G - k) / G
            if not 0 < d < eps_loc:
                continue
            j = (i + k) % G
            best = max(best, abs(samples[i] / samples[j] - 1.0) / d)
    return best


def test_integral_and_normalize():
    assert Density.uniform(64).samples.mean() == 1.0
    d = Density.from_samples(2.0 * np.ones(64))
    assert np.all(d.samples == 1.0)
    d = Density.sine(4096, 1, 0.5)
    assert abs(d.samples.mean() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        Density.from_samples(np.zeros(64))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Density(np.ones(48))  # not a power of two
    with pytest.raises(ValueError):
        Density(np.full(64, 1.2))  # integral off
    with pytest.raises(ValueError):
        Density(np.concatenate([np.full(32, 2.0), np.full(32, -0.0001)]))
    with pytest.raises(ValueError):
        Density(np.array([math.nan, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Density.step(16, [math.nan, 1.0])
    with pytest.raises(ValueError):
        Density(np.array([math.inf, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("samples", [
    np.ones(48),                                                   # grid
    np.full(64, 1.2),                                              # mass
    np.array([2.5, -0.5, 1.0, 1.0]),                               # sign
    np.array([math.nan, 1.0, 1.0, 1.0]),                           # NaN
    np.array([math.inf, 1.0, 1.0, 1.0]),                           # inf
], ids=["grid", "mass", "negative", "nan", "inf"])
def test_owning_constructor_checks_like_the_constructor(samples):
    with pytest.raises(ValueError):
        Density(samples.copy())
    with pytest.raises(ValueError):
        Density._own(samples.copy())


def test_owning_constructor_keeps_the_array_read_only():
    arr = Density.sine(64, 2, 0.3).samples.copy()
    d = Density._own(arr)
    assert d.samples is arr and not arr.flags.writeable
    assert Density(arr).samples is not arr  # the public constructor copies


def test_l1_distance():
    G = 4096
    u = Density.uniform(G)
    s = Density.sine(G, 1, 0.5)
    assert s.l1_distance(s) == 0.0
    assert s.l1_distance(u) == pytest.approx(1.0 / math.pi, abs=1e-4)
    step = Density.step(G, [2.0, 0.0])
    assert step.l1_distance(u) == pytest.approx(1.0, abs=4.0 / G)
    with pytest.raises(ValueError):
        u.l1_distance(Density.uniform(2 * G))


def test_l1_metric_axioms_random():
    rng = np.random.Generator(np.random.PCG64(4))
    G = 512
    for _ in range(20):
        a = Density.random_bv(G, 8.0, rng)
        b = Density.random_bv(G, 8.0, rng)
        c = Density.random_bv(G, 8.0, rng)
        assert a.l1_distance(b) == b.l1_distance(a)
        assert a.l1_distance(c) <= a.l1_distance(b) + b.l1_distance(c) + 1e-14


def test_variation():
    assert Density.uniform(256).variation() == 0.0
    assert Density.sine(4096, 1, 0.5).variation() == pytest.approx(2.0, abs=1e-3)
    assert Density.step(256, [1.5, 0.5]).variation() == 2.0


def test_variation_rotation_invariant():
    d = Density.sine(512, 3, 0.4)
    for shift in (1, 17, 200):
        rolled = Density(np.roll(d.samples, shift))
        assert rolled.variation() == pytest.approx(d.variation(), abs=1e-14)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(G=st.sampled_from([2, 4, 64, 1024]), seed=st.integers(0, 2 ** 32),
       a=st.floats(0.5, 40.0))
def test_variation_and_l1_match_the_roll_expressions(G, seed, a):
    rng = np.random.Generator(np.random.PCG64(seed))
    d = Density.random_bv(G, a, rng)
    e = Density.random_bv(G, a, rng)
    s = d.samples
    assert d.variation() == float(np.abs(np.roll(s, -1) - s).sum())
    assert d.l1_distance(e) == float(np.abs(s - e.samples).mean())


def test_min_value():
    assert Density.uniform(64).min_value() == 1.0
    assert Density.sine(4096, 1, 0.5).min_value() == pytest.approx(0.5, abs=1e-6)
    assert Density.step(64, [1.2, 0.8]).min_value() == pytest.approx(0.8, abs=1e-15)


def test_ratio_class_constant_and_zero():
    assert Density.uniform(128).ratio_class_L(0.1) == 0.0
    z = Density.from_samples(np.concatenate([np.zeros(8), np.ones(120)]))
    assert z.ratio_class_L(0.1) == math.inf


def test_ratio_class_cosine_bound():
    d = Density.cosine(4096, 1, 0.4)
    L = d.ratio_class_L(0.1)
    assert L <= 0.8 * math.pi / 0.6  # sup|phi'|/min(phi)
    assert L >= 2.5  # near the pointwise |phi'/phi| supremum 2.742


def test_ratio_class_matches_bruteforce():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(3):
        d = Density.from_samples(0.2 + rng.uniform(0.0, 1.0, 64))
        assert d.ratio_class_L(0.2) == pytest.approx(
            brute_ratio_class(d.samples, 0.2), rel=1e-12)


def scan_ratio_class(d, eps_loc):
    """ratio_class_L as it was before it kept only the ratio extremes: the
    full |r - 1| and |1/r - 1| arrays of every shift, through np.roll."""
    s = d.samples
    if np.any(s <= 0.0):
        return math.inf
    G = d.G
    kmax = math.ceil(eps_loc * G) - 1
    best = 0.0
    for k in range(1, kmax + 1):
        r = np.roll(s, -k) / s
        m = max(float(np.abs(r - 1.0).max()), float(np.abs(1.0 / r - 1.0).max()))
        best = max(best, m / (k / G))
    return best


@st.composite
def positive_densities(draw):
    G = 2 ** draw(st.integers(3, 11))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    kind = draw(st.sampled_from(["uniform", "cosine", "random-bv", "wide"]))
    if kind == "uniform":
        return Density.uniform(G)
    if kind == "cosine":
        return Density.cosine(G, draw(st.integers(1, 4)), draw(st.floats(-0.99, 0.99)))
    if kind == "random-bv":
        return Density.from_samples(
            Density.random_bv(G, draw(st.floats(0.5, 40.0)), rng).samples + 1e-3)
    # ratios spanning many orders of magnitude
    return Density.from_samples(10.0 ** rng.uniform(-150.0, 0.0, G))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=positive_densities(), eps_loc=st.sampled_from([0.01, 0.1, 0.2, 0.249]))
def test_ratio_class_matches_full_scan(d, eps_loc):
    assert d.ratio_class_L(eps_loc) == scan_ratio_class(d, eps_loc)


def test_ratio_class_matches_full_scan_on_fine_grids():
    rng = np.random.Generator(np.random.PCG64(3))
    for d in (Density.sine(2 ** 14), Density.cosine(2 ** 13, 5, 0.7),
              Density.random_bv(2 ** 12, 30.0, rng)):
        for eps_loc in (0.01, 0.1):
            assert d.ratio_class_L(eps_loc) == scan_ratio_class(d, eps_loc)


@st.composite
def cone_test_densities(draw):
    G = 2 ** draw(st.integers(3, 12))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    kind = draw(st.sampled_from(["sine", "cosine", "faint", "step", "random-bv"]))
    k = draw(st.integers(1, 5))
    if kind == "sine":
        return Density.sine(G, k, draw(st.floats(-0.99, 0.99)))
    if kind == "cosine":
        return Density.cosine(G, k, draw(st.floats(-0.99, 0.99)))
    if kind == "faint":  # ratios within a few ulps of 1
        return Density.cosine(G, k, 10.0 ** draw(st.floats(-15.0, -6.0)))
    if kind == "step":
        levels = rng.uniform(0.0, 2.0, k + 1)
        levels[0] *= draw(st.sampled_from([0.0, 1.0]))  # a vanishing level
        return Density.step(G, levels)
    return Density.random_bv(G, draw(st.floats(0.5, 40.0)), rng)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(phi=cone_test_densities(), psi=cone_test_densities(),
       eps_loc=st.sampled_from([0.01, 0.1, 0.2, 0.249]),
       lambda0=st.floats(1.01, 4.0), C0=st.floats(1e-3, 100.0))
def test_ratio_class_bracket_encloses_scan(phi, psi, eps_loc, lambda0, C0):
    for d in (phi, psi):
        lower, upper = d.ratio_class_bracket(eps_loc)
        assert lower <= d.ratio_class_L(eps_loc) <= upper
    if psi.G != phi.G:
        return
    L = max(phi.ratio_class_L(eps_loc), psi.ratio_class_L(eps_loc))
    if math.isinf(L):
        with pytest.raises(CertificateViolation):
            _smooth_wait(phi, psi, eps_loc, lambda0, C0)
    else:
        assert _smooth_wait(phi, psi, eps_loc, lambda0, C0) == \
            tau_smooth(L, lambda0, C0)


def test_ratio_class_bracket_edge_cases():
    assert Density.sine(8).ratio_class_bracket(0.1) == (0.0, 0.0)  # kmax 0
    z = Density.from_samples(np.r_[np.zeros(8), np.ones(8)])
    assert z.ratio_class_bracket(0.1) == (math.inf, math.inf)
    assert z.ratio_class_L(0.01) == math.inf  # no shift below 0.01 at G = 16
    assert z.ratio_class_bracket(0.01) == (math.inf, math.inf)
    lower, upper = Density.uniform(2 ** 14).ratio_class_bracket(0.1)
    assert lower == 0.0 and 0.0 <= upper < 1e-10


def count_scans(monkeypatch):
    calls = []
    scan = Density.ratio_class_L

    def counted(self, eps_loc):
        calls.append(self.G)
        return scan(self, eps_loc)

    monkeypatch.setattr(Density, "ratio_class_L", counted)
    return calls


def test_smooth_wait_decided_by_bracket(monkeypatch):
    # lambda0 and C0 of the smooth family of slope 2 and amplitude 0.05
    lambda0, C0, G = 1.686, 1.707, 2 ** 14
    phi, psi = Density.sine(G), Density.uniform(G)
    calls = count_scans(monkeypatch)
    assert _smooth_wait(phi, psi, 0.1, lambda0, C0) == 2
    assert calls == []
    assert tau_smooth(phi.ratio_class_L(0.1), lambda0, C0) == 2


@pytest.mark.parametrize("phi, lower, upper", [
    (Density.sine(2 ** 14, 3, 0.8), 55.0, 113.7),
    (Density.step(2 ** 14, [1.0, 2.0, 3.0, 4.0]), 49152.0, math.inf),
])
def test_smooth_wait_falls_back_to_scan(monkeypatch, phi, lower, upper):
    lambda0, C0 = 1.686, 1.707
    lo, up = phi.ratio_class_bracket(0.1)
    assert lo == pytest.approx(lower, rel=1e-3)
    assert up == pytest.approx(upper, rel=1e-3)
    L = phi.ratio_class_L(0.1)
    calls = count_scans(monkeypatch)
    psi = Density.uniform(2 ** 14)
    assert _smooth_wait(phi, psi, 0.1, lambda0, C0) == tau_smooth(L, lambda0, C0)
    assert calls == [2 ** 14, 2 ** 14]


def test_match_subtract_examples():
    u = Density.uniform(64)
    out = u.match_subtract(0.5, 0.5)
    assert np.all(out.samples == 1.0)
    d = Density.cosine(4096, 1, 0.4)
    out = d.match_subtract(0.6, 0.5)
    assert out.samples[0] == pytest.approx(11.0 / 7.0, abs=1e-14)
    assert abs(out.samples.mean() - 1.0) < 1e-9


def test_match_subtract_validation():
    d = Density.cosine(256, 1, 0.4)  # min 0.6
    with pytest.raises(ValueError):
        d.match_subtract(0.7, 1.0)
    with pytest.raises(ValueError):
        d.match_subtract(0.5, 1.5)
    with pytest.raises(ValueError):
        Density.uniform(64).match_subtract(1.0, 1.0)  # denominator 0


def test_match_subtract_variation_identity():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(10):
        d = Density.from_samples(0.5 + rng.uniform(0.0, 1.0, 256))
        kappa = 0.5 * d.min_value()
        out = d.match_subtract(kappa, 1.0)
        assert out.variation() == pytest.approx(
            d.variation() / (1.0 - kappa), rel=1e-12)


def test_match_subtract_doubles_ratio_level():
    # Subtracting half the floor at most doubles the ratio-cone level.
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        d = Density.from_samples(0.4 + rng.uniform(0.0, 0.6, 256))
        kappa = d.min_value()
        L = d.ratio_class_L(0.1)
        out = d.match_subtract(kappa, 0.5)
        assert out.ratio_class_L(0.1) <= 2.0 * L * (1.0 + 1e-12)


def test_random_bv_respects_bound():
    rng = np.random.Generator(np.random.PCG64(0))
    for a in (5.0, 50.0, 200.0):
        d = Density.random_bv(2 ** 13, a, rng)
        assert 0.5 * a <= d.variation() <= a
        assert abs(d.samples.mean() - 1.0) < 1e-12
        assert d.min_value() >= 0.0


def test_bin_masses_sum_to_integral():
    d = Density.sine(1024, 2, 0.3)
    for B in (4, 32, 256):
        assert abs(d.bin_masses(B).sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        d.bin_masses(3)


def test_mean_helper_is_the_ndarray_mean():
    # the push, the density check and l1_distance sum by np.add.reduce and
    # divide once, as ndarray.mean does
    from circlemix.density import _mean

    rng = np.random.Generator(np.random.PCG64(12))
    for n in (1, 2, 3, 7, 8, 9, 127, 128, 129, 4095, 4096, 12345, 2 ** 16):
        for scale in (1.0, 1e-9, 1e9):
            x = scale * rng.uniform(0.0, 2.0, n)
            assert _mean(x) == float(x.mean())
            assert type(_mean(x)) is float
