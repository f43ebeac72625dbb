import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circlemix import (MapFormError, PiecewiseMap, BranchSpec, affine_map,
                       analyze, circle_dist, doubling_map,
                       neighborhood_distance, sine_map, slope25_map,
                       slope3_two_branch, two_slope_wrap_map)
from circlemix import maps, transfer
from circlemix.maps import SOLVE_TOL, TransferError, _solve_lift

ALL_MAPS = {
    "doubling": doubling_map(),
    "slope25": slope25_map(),
    "slope3": slope3_two_branch(),
    "wrap": two_slope_wrap_map(),
    "sine": sine_map(2.0, 0.05),
}


def eval_many(m, xs):
    """f at every point of xs, each from the branch that owns it."""
    xs = np.asarray(xs, dtype=float)
    idx = np.searchsorted([b.lo for b in m.branches], xs, side="right") - 1
    out = np.empty_like(xs)
    for i, b in enumerate(m.branches):
        own = idx == i
        out[own] = b.lift(xs[own])
    return out - np.floor(out)


def derivs(m, x):
    """(f'(x), f''(x)) from the branch owning x (one-sided at junctions)."""
    b = m.branch_of(x)
    return float(b.deriv(x)), float(b.deriv2(x))


def fd_derivs(m, x, h=1e-6):
    """Finite-difference oracle for (f', f'') using the owning branch lift."""
    b = m.branch_of(x)
    f = lambda t: float(b.lift(t))  # noqa: E731
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    return d1, d2


def brute_preimages(m, y, n=200001):
    """Oracle: scan each branch for sign changes of the circular residual.

    The reduced residual also flips sign when the lift crosses a
    half-integer; genuine roots are the flips where the residual is small
    on both sides.
    """
    hits = []
    for i, b in enumerate(m.branches):
        xs = np.linspace(b.lo, b.hi, n, endpoint=False)
        res = np.asarray(b.lift(xs), dtype=float) - y
        res -= np.round(res)
        sign = np.sign(res)
        flips = np.nonzero(np.abs(np.diff(sign)) == 2)[0]
        for j in flips:
            if abs(res[j]) < 0.25 and abs(res[j + 1]) < 0.25:
                hits.append((i, 0.5 * (xs[j] + xs[j + 1])))
        for j in np.nonzero(res == 0.0)[0]:
            hits.append((i, float(xs[j])))
    return hits


def test_eval_examples():
    assert doubling_map().eval(0.3) == pytest.approx(0.6, abs=1e-15)
    assert slope25_map().eval(0.5) == pytest.approx(0.25, abs=1e-15)
    assert sine_map(2.0, 0.05).eval(0.0) == 0.0


def test_eval_matches_eval_many():
    xs = np.linspace(0.0, 1.0, 257, endpoint=False)
    for m in ALL_MAPS.values():
        vec = eval_many(m, xs)
        scal = np.array([m.eval(float(x)) for x in xs])
        assert np.max(np.abs(vec - scal)) < 1e-14


def test_derivs_examples():
    assert derivs(doubling_map(), 0.37) == (2.0, 0.0)
    s = sine_map(2.0, 0.05)
    d1, d2 = derivs(s, 0.0)
    assert d1 == pytest.approx(2.0 + 0.1 * math.pi, abs=1e-14)
    assert d2 == pytest.approx(0.0, abs=1e-14)
    d1, d2 = derivs(s, 0.25)
    assert d1 == pytest.approx(2.0, abs=1e-14)
    assert d2 == pytest.approx(-4.0 * math.pi ** 2 * 0.05, abs=1e-12)


@pytest.mark.parametrize("name", sorted(ALL_MAPS))
def test_derivs_match_finite_differences(name):
    m = ALL_MAPS[name]
    for x in (0.11, 0.33, 0.61, 0.93):
        d1, d2 = derivs(m, x)
        o1, o2 = fd_derivs(m, x)
        assert d1 == pytest.approx(o1, abs=1e-7)
        assert d2 == pytest.approx(o2, abs=1e-3)


def test_inverse_branches_doubling():
    inv = doubling_map().inverse_branches(0.5)
    assert inv == [(0, 0.25, 2.0), (1, 0.75, 2.0)]


def test_inverse_branches_slope25():
    inv = slope25_map().inverse_branches(0.25)
    assert [(b, round(x, 12)) for b, x, _ in inv] == [(0, 0.1), (1, 0.5), (2, 0.9)]
    assert all(d == 2.5 for _, _, d in inv)
    inv = slope25_map().inverse_branches(0.75)
    assert sorted(round(x, 12) for _, x, _ in inv) == [0.3, 0.7]


@pytest.mark.parametrize("name", sorted(ALL_MAPS))
def test_inverse_branches_against_scan_oracle(name):
    m = ALL_MAPS[name]
    for y in (0.0, 0.17, 0.5, 0.66, 0.99):
        got = m.inverse_branches(y)
        want = brute_preimages(m, y)
        assert len(got) == len(want)
        for (bi, x, d), (oi, ox) in zip(
                sorted(got), sorted(want, key=lambda t: (t[0], t[1]))):
            assert bi == oi
            assert circle_dist(x, ox) < 1e-4
            assert d == pytest.approx(abs(derivs(m, x)[0]), abs=1e-12)


@pytest.mark.parametrize("name", sorted(ALL_MAPS))
def test_inverse_roundtrip(name):
    m = ALL_MAPS[name]
    for y in np.linspace(0.0, 1.0, 101, endpoint=False):
        for _, x, _ in m.inverse_branches(float(y)):
            assert circle_dist(m.eval(x), float(y)) <= 1e-12


@pytest.mark.parametrize("name", sorted(ALL_MAPS))
def test_preimage_jacobian_sums_to_one(name):
    # Change of variables: integrating sum 1/|f'| over preimages gives 1.
    m = ALL_MAPS[name]
    G = 4096
    vals = []
    for y in np.arange(G) / G:
        vals.append(sum(1.0 / d for _, _, d in m.inverse_branches(float(y))))
    assert abs(np.mean(vals) - 1.0) <= 2.0 / G


def test_analyze_doubling_exact():
    an = analyze(doubling_map())
    assert (an.lambda_min, an.M0, an.A, an.C1) == (2.0, 2.0, 2.0, 0.0)
    assert an.omega == ()
    assert an.d_omega == math.inf


def test_analyze_slope25():
    an = analyze(slope25_map())
    assert an.A == pytest.approx(4.0, abs=1e-12)
    assert an.omega == (0.0,)
    assert an.d_omega == 1.0


def test_analyze_sine():
    an = analyze(sine_map(2.0, 0.05))
    assert an.lambda_min == pytest.approx(2.0 - 0.1 * math.pi, abs=1e-14)
    assert an.M0 == pytest.approx(2.0 + 0.1 * math.pi, abs=1e-14)
    assert an.C1 == pytest.approx(
        4.0 * math.pi ** 2 * 0.05 / (2.0 - 0.1 * math.pi), abs=1e-12)


def test_analyze_refinement_never_decreases_A():
    base = analyze(affine_map(3.0, marks=(0.0, 0.5))).A
    refined = analyze(affine_map(3.0, marks=(0.0, 0.25, 0.5, 0.75))).A
    finer = analyze(affine_map(3.0, marks=(0.0, 0.25, 0.5, 0.75, 0.9))).A
    assert refined >= base
    assert finer >= refined


def test_rejects_non_expanding():
    with pytest.raises(MapFormError):
        PiecewiseMap((BranchSpec(0.0, 1.0, 0.9),))
    with pytest.raises(MapFormError):
        # derivative 1.5 - pi cos(2 pi x) changes sign
        PiecewiseMap((BranchSpec(0.0, 1.0, 1.5, 0.0, 0.5),))
    with pytest.raises(MapFormError, match="branch expansion 0.0 <= 1"):
        affine_map(0.0, 0.3)  # natural marks would divide by the slope


@pytest.mark.parametrize("slope,offset", [
    (-1e308, -1e308), (1e308, 1e308), (3.0, math.nan)])
def test_affine_natural_marks_refuse_a_lift_that_is_not_finite_at_1(
        slope, offset):
    # floor(slope + offset) would raise OverflowError (ValueError for NaN)
    with pytest.raises(MapFormError, match="the lift at 1 is"):
        affine_map(slope, offset)


def test_affine_natural_marks_give_one_unit_per_branch():
    # a decreasing lift crosses the integers -1, -2 on [0, 1), as an
    # increasing one of the same modulus crosses 1, 2
    for slope, offset, marks in ((2.5, 0.0, (0.0, 0.4, 0.8)),
                                 (-2.5, 0.0, (0.0, 0.4, 0.8)),
                                 (-3.0, 0.5, (0.0, 1 / 6, 0.5, 5 / 6))):
        m = affine_map(slope, offset)
        assert m.marked_points == pytest.approx(marks)
        for b in m.branches:
            flo, fhi, _ = b.image()
            assert abs(fhi - flo) <= 1.0 + 1e-15


def test_branch_images_span_at_most_affine_branch_max_units():
    # the rule natural marks obey, one unit per branch: 1024 branches of
    # slope 1024 build, and so do 1024 units from explicit branches, on
    # one branch, on two, or on a sine branch
    assert len(affine_map(1024.0).branches) == 1024
    PiecewiseMap((BranchSpec(0.0, 1.0, 1024.0),))
    PiecewiseMap((BranchSpec(0.0, 0.5, 1024.0),
                  BranchSpec(0.5, 1.0, -1024.0, 0.3)))
    sine_map(1024.0, 0.05, 0.0, (0.0,))
    for steep in ((BranchSpec(0.0, 1.0, 1024.5),),
                  (BranchSpec(0.0, 0.5, 3.0), BranchSpec(0.5, 1.0, -2046.0)),
                  (BranchSpec(0.0, 1.0, 1025.0, 0.0, 0.05),)):
        with pytest.raises(MapFormError, match="more than 1024"):
            PiecewiseMap(steep)


def test_rejects_bad_tiling():
    with pytest.raises(MapFormError):
        PiecewiseMap((BranchSpec(0.0, 0.5, 3.0), BranchSpec(0.6, 1.0, 3.0)))


def test_decreasing_branch_support():
    # reflected doubling: x -> -2x mod 1, one decreasing branch, continuous
    m = PiecewiseMap((BranchSpec(0.0, 1.0, -2.0),))
    assert m.eval(0.3) == pytest.approx(0.4, abs=1e-15)
    inv = m.inverse_branches(0.5)
    assert sorted(round(x, 12) for _, x, _ in inv) == [0.25, 0.75]
    assert all(d == 2.0 for _, _, d in inv)
    an = analyze(m)
    assert an.lambda_min == 2.0 and an.omega == ()
    # oracle cross-checks on the decreasing paths
    for y in (0.0, 0.2, 0.77):
        got = sorted(x for _, x, _ in m.inverse_branches(y))
        want = sorted(x for _, x in brute_preimages(m, y))
        assert len(got) == len(want)
        for g_, w_ in zip(got, want):
            assert circle_dist(g_, w_) < 1e-4


def test_neighborhood_distance_identity():
    for m in ALL_MAPS.values():
        assert neighborhood_distance(m, m) == 0.0


def test_neighborhood_distance_sine_perturbation():
    g = slope3_two_branch()
    f = sine_map(3.0, 0.001)
    d = neighborhood_distance(f, g)
    bound = 0.001 * (1.0 + 2.0 * math.pi + 4.0 * math.pi ** 2)
    assert 0.0 < d <= bound + 1e-12
    assert d == pytest.approx(bound, rel=1e-6)  # grid hits the extrema


def test_neighborhood_distance_offset_affine():
    # Marks of f solve 2.5x + 0.01 in Z: {0.396, 0.796}, shifted 0.004 from
    # g's {0.4, 0.8}.  The reparametrized difference is piecewise affine with
    # per-arc norms 0.035, 0, 0.06; the cross-check below recomputes 0.06.
    g = slope25_map()
    f = affine_map(2.5, 0.01)
    d = neighborhood_distance(f, g)
    sup_h = 0.01
    sup_h1 = 2.5 * abs(0.204 / 0.2 - 1.0)
    assert d == pytest.approx(sup_h + sup_h1, abs=1e-9)


def test_neighborhood_distance_incomparable():
    # branch counts differ
    assert neighborhood_distance(slope25_map(), doubling_map()) == math.inf
    # eps* beyond a quarter of the discontinuity gap
    g = two_slope_wrap_map()  # d_omega = 0.5, cap 0.125
    f = PiecewiseMap((BranchSpec(0.0, 0.5, 3.0),
                      BranchSpec(0.5, 1.0, 2.5, 0.4)))
    assert neighborhood_distance(f, g) == math.inf


# --- neighborhood_distance against the per-call evaluation it replaced --------


def oracle_neighborhood_distance(f, g, grid=maps.NEIGHBORHOOD_GRID):
    """neighborhood_distance as it was before its samples were cached:
    analyze(g) and every sin/cos evaluated again on each call."""
    if len(f.branches) != len(g.branches):
        return math.inf
    cap = 0.25 * analyze(g).d_omega
    marks_g = g.marked_points
    marks_f = f.marked_points
    shift, part1 = maps._aligned_shift(marks_f, marks_g)
    if part1 >= cap:
        return math.inf
    k = len(marks_g)
    worst = part1
    for i in range(k):
        gb = g.branches[i]
        fb = f.branches[(i + shift) % k]
        len_g = gb.length
        len_f = fb.length
        sigma = len_f / len_g
        xs = gb.lo + len_g * np.linspace(0.0, 1.0, grid + 1)
        y0 = fb.lo
        ys = y0 + sigma * (xs - gb.lo)
        gv = gb.lift(xs)
        fv = fb.lift(ys)
        h = fv - gv
        h = h - round(float(h[0]))
        h = np.abs(h)
        h1 = np.abs(sigma * fb.deriv(ys) - gb.deriv(xs))
        h2 = np.abs(sigma ** 2 * fb.deriv2(ys) - gb.deriv2(xs))
        worst = max(worst, float(h.max() + h1.max() + h2.max()))
        if worst >= cap:
            return math.inf
    return worst


@st.composite
def branch_marks(draw, k):
    """k marks 0 = m0 < m1 < ... in [0, 1), each arc at least 0.1 long."""
    marks = [0.0]
    for i in range(1, k):
        room = 1.0 - 0.1 * (k - i)
        marks.append(draw(st.floats(marks[-1] + 0.1, room)))
    return tuple(marks)


def map_with(slope, amp, offset, marks):
    return sine_map(slope, amp, offset, marks) if amp else \
        affine_map(slope, offset, marks)


SIZES = st.sampled_from([0.0, 1e-6, 1e-3, 0.03, 0.3])


@st.composite
def map_pairs(draw):
    """(f, g): g affine or sine with 1-3 branches and an offset; f is g with
    its slope, amplitude, offset and interior marks moved by drawn amounts
    (moved marks make sigma != 1), or an unrelated map, maybe with another
    branch count."""
    k = draw(st.integers(1, 3))
    sign = draw(st.sampled_from([1.0, -1.0]))
    slope = sign * draw(st.floats(1.6, 4.0))
    amp = draw(st.sampled_from([0.0, 1.0])) * draw(st.floats(-0.08, 0.08))
    offset = draw(st.floats(0.0, 1.0))
    marks = draw(branch_marks(k))
    g = map_with(slope, amp, offset, marks)
    if draw(st.booleans()):
        kf = draw(st.integers(1, 3))
        f_marks = draw(branch_marks(kf))
        f = map_with(slope, draw(st.floats(-0.08, 0.08)), draw(st.floats(0.0, 1.0)),
                     f_marks)
        return f, g
    d_mark = draw(SIZES) * 0.1
    f_marks = (0.0,) + tuple(m + d_mark for m in marks[1:])
    try:
        f = map_with(slope + draw(SIZES), amp + draw(SIZES) * 0.1,
                     offset + draw(SIZES), f_marks)
    except MapFormError:  # the moves took f's expansion down to 1
        assume(False)
    return f, g


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=map_pairs(), grid=st.sampled_from([16, 256, maps.NEIGHBORHOOD_GRID]))
def test_neighborhood_distance_matches_oracle(pair, grid):
    f, g = pair
    want = oracle_neighborhood_distance(f, g, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "NEIGHBORHOOD_GRID", grid)
        assert neighborhood_distance(f, g) == want
        # and again from the samples cached by the first call
        assert neighborhood_distance(f, g) == want
        assert neighborhood_distance(g, f) == \
            oracle_neighborhood_distance(g, f, grid)


def test_neighborhood_distance_oracle_cases_are_mixed():
    # the hand-made pairs cover each exit of the oracle: finite, capped at
    # the marks, capped on an arc, and mismatched branch counts
    g = two_slope_wrap_map()
    pairs = [
        (sine_map(3.0, 0.001), slope3_two_branch()),
        (affine_map(2.5, 0.01), slope25_map()),
        (PiecewiseMap((BranchSpec(0.0, 0.65, 3.0), BranchSpec(0.65, 1.0, 2.5, 0.1))), g),
        (PiecewiseMap((BranchSpec(0.0, 0.5, 3.0), BranchSpec(0.5, 1.0, 2.5, 0.4))), g),
        (slope25_map(), doubling_map()),
        (sine_map(3.0, 0.002, 0.0, (0.0, 0.52)), slope3_two_branch()),
    ]
    got = [neighborhood_distance(f, g_) for f, g_ in pairs]
    assert got == [oracle_neighborhood_distance(f, g_) for f, g_ in pairs]
    assert [math.isinf(d) for d in got] == [False, False, True, True, True, False]


# an affine base, a sine base, one whose jump at 1/2 caps the distance at
# 0.125, and one that x -> 3x reparametrized from the marks (0, 0.52)
# matches exactly, so that only the marks' distance 0.02 separates them
SCREEN_BASES = [slope3_two_branch(), sine_map(3.0, 0.001),
                PiecewiseMap((BranchSpec(0.0, 0.5, 3.0),
                              BranchSpec(0.5, 1.0, 3.0, 0.1))),
                PiecewiseMap((BranchSpec(0.0, 0.5, 3.12),
                              BranchSpec(0.5, 1.0, 2.88, 0.12)))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.floats(-0.004, 0.004),
                               st.one_of(st.just(0.0),
                                         st.floats(-0.004, 0.004))),
                     min_size=1, max_size=40),
       bound=st.one_of(st.floats(0.002, 0.03), st.just(1.0)),
       base=st.sampled_from(SCREEN_BASES),
       mark=st.sampled_from([0.5, 0.52, 0.6]))
def test_sine_screen_rejects_only_above_the_bound(rows, bound, base, mark):
    # AC5-family candidates: each row is decided as the coarse pass of the
    # one-at-a-time draw decided it, by the distance over every
    # COARSE_STRIDE-th sample, which are the samples of the coarser grid
    # (inf at the cap); so a rejected row is above the bound or the cap
    marks = (0.0, mark)
    slopes = [3.0 + jitter for jitter, _ in rows]
    amps = [amp for _, amp in rows]
    passed = maps.sine_screen(slopes, amps, marks, base, bound)
    coarse = maps.NEIGHBORHOOD_GRID // maps.COARSE_STRIDE
    for s, a, ok in zip(slopes, amps, passed.tolist()):
        f = sine_map(s, a, 0.0, marks)
        assert ok == (oracle_neighborhood_distance(f, base, coarse) <= bound)
        assert ok or neighborhood_distance(f, base) > bound


def test_sine_screen_rejects_a_far_row_on_65_samples(monkeypatch):
    # both rows are scored on the 65 coarse samples of each arc; only the
    # near one reaches the full pass.  g's tables, which also come from
    # _sine_jet, are built before counting starts.
    g = slope3_two_branch()
    maps._base_samples(g, ((0.0, 0.5), (0.5, 1.0)), maps.NEIGHBORHOOD_GRID)
    shapes = []
    jet = maps._sine_jet

    def counted(*args):
        values = jet(*args)
        shapes.append(values[0].shape)
        return values

    monkeypatch.setattr(maps, "_sine_jet", counted)
    passed = maps.sine_screen([3.0, 3.0], [0.003, 0.0002], (0.0, 0.5), g, 0.01)
    assert passed.tolist() == [False, True]
    assert shapes == [(2, 65), (2, 65)]
    assert 0.01 < neighborhood_distance(sine_map(3.0, 0.003), g) < 0.2
    shapes.clear()
    near = sine_map(3.0, 0.0002)
    assert neighborhood_distance(near, g) == \
        oracle_neighborhood_distance(near, g) < 0.01
    assert shapes == [(4097,), (4097,)]


def test_neighborhood_samples_are_read_only():
    g = sine_map(2.0, 0.05)
    _, arcs = maps._base_samples(g, ((0.0, 0.5), (0.5, 1.0)), 64)
    for arrays in arcs:
        for a in arrays:
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable


def bisection_oracle(b, targets):
    """Plain bisection on [lo, hi], run until the bracket stops shrinking."""
    lo = np.full_like(targets, b.lo)
    hi = np.full_like(targets, b.hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = b.lift(mid)
        below = (val < targets) if b.increasing else (val > targets)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def random_sine_branch(rng, margin):
    """A sine branch on a random arc with |s| - 2 pi |a| = margin."""
    s = rng.uniform(1.5, 4.0) * rng.choice([-1.0, 1.0])
    margin = min(margin, abs(s) - 0.01)
    a = (abs(s) - margin) / (2.0 * math.pi) * rng.choice([-1.0, 1.0])
    lo = rng.uniform(0.0, 0.7)
    hi = rng.uniform(lo + 0.05, 1.0)
    return BranchSpec(lo, hi, s, rng.uniform(-1.0, 1.0), a)


def test_solve_lift_matches_bisection_oracle():
    rng = np.random.Generator(np.random.PCG64(17))
    left_bracket = 0
    for i in range(300):
        near_critical = i % 2 == 0
        margin = rng.uniform(1.0, 1.05) if near_critical else rng.uniform(1.05, 3.0)
        b = random_sine_branch(rng, margin)
        ends = np.array([float(b.lift(b.lo)), float(b.lift(b.hi))])
        t = np.concatenate([ends, rng.uniform(ends.min(), ends.max(), 200)])
        x, _ = _solve_lift(b, t)
        scale = np.maximum(1.0, np.abs(t))
        assert np.all(np.abs(b.lift(x) - t) <= SOLVE_TOL * scale)
        assert np.all(np.abs(x - bisection_oracle(b, t)) <= 1e-13 * scale)
        if near_critical:
            # plain Newton from the affine inverse leaves the bracket
            # |x - x0| <= |a|/|s| here, so the bisection fallback is needed
            x0 = (t - b.offset) / b.slope
            step = (b.lift(x0) - t) / b.deriv(x0)
            left_bracket += int(np.any(np.abs(step) > abs(b.amplitude / b.slope)))
    assert left_bracket >= 100


def test_solve_lift_without_affine_part():
    # slope 0: the bracket, and so the start table, is the whole arc
    b = BranchSpec(0.0, 0.1, 0.0, 0.0, 1.0)
    t = np.linspace(0.0, float(b.lift(b.hi)), 101)
    x, _ = _solve_lift(b, t)
    assert np.abs(b.lift(x) - t).max() <= SOLVE_TOL
    assert np.abs(x - bisection_oracle(b, t)).max() <= 1e-13


def test_solve_lift_residual_guard(monkeypatch):
    b = BranchSpec(0.0, 0.5, 2.0, 0.0, 0.05)
    t = np.linspace(float(b.lift(b.lo)), float(b.lift(b.hi)), 64)
    assert np.abs(b.lift(_solve_lift(b, t)[0]) - t).max() <= SOLVE_TOL
    monkeypatch.setattr(maps, "SOLVE_MAX_ITERS", 1)
    with pytest.raises(TransferError, match="amplitude=0.05"):
        _solve_lift(b, t)


def test_solve_lift_warm_start_converges_in_three_steps(monkeypatch):
    # from the table warm start the first Newton step reaches the tolerance
    b = BranchSpec(0.0, 0.5, 2.0, 0.0, 0.05)
    G = 2 ** 14
    t = float(b.lift(b.lo)) + np.arange(G) / G
    monkeypatch.setattr(maps, "SOLVE_MAX_ITERS", 3)
    x, _ = _solve_lift(b, t)
    assert np.all(np.abs(b.lift(x) - t) <= SOLVE_TOL * np.maximum(1.0, np.abs(t)))


def test_solve_lift_guard_checks_the_last_step(monkeypatch):
    # with one step allowed the loop ends without a passing test; the guard
    # must judge the stepped point x1, not the table start x0
    b = BranchSpec(0.0, 0.5, 2.0, 0.0, 0.05)
    G = 2 ** 14
    t = float(b.lift(b.lo)) + np.arange(G) / G
    monkeypatch.setattr(maps, "SOLVE_MAX_ITERS", 1)
    x, _ = _solve_lift(b, t)
    assert np.all(np.abs(b.lift(x) - t) <= SOLVE_TOL * np.maximum(1.0, np.abs(t)))


def count_trig(monkeypatch):
    """{"sin": [calls, elements], "cos": [calls, elements]}, counting the
    np.sin and np.cos evaluations from here on."""
    counts = {}
    for name in ("sin", "cos"):
        row = counts[name] = [0, 0]

        def counted(x, *args, _f=getattr(np, name), _row=row, **kwargs):
            _row[0] += 1
            _row[1] += np.size(x)
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return counts


SOLVE_RANGES = dict(
    slope=st.sampled_from([-3.0, -2.0, 2.0, 3.0]),
    amplitude=st.floats(-0.15, 0.15), offset=st.floats(-1.0, 1.0),
    lo=st.floats(0.0, 0.9), width=st.floats(0.05, 1.0),
    log2_grid=st.integers(12, 16))


def bracket_targets(b, G):
    """Every grid target of the branch image, plus the targets whose roots
    sit at x = 1/4 or 3/4, where |sin| = 1 puts them at a bracket end."""
    flo, fhi, _ = b.image()
    js = np.arange(math.ceil(min(flo, fhi) * G), math.floor(max(flo, fhi) * G) + 1)
    ends = np.array([x for x in (0.25, 0.75) if b.lo <= x <= b.hi])
    return np.concatenate([js / G, b.lift(ends)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**SOLVE_RANGES)
def test_solve_lift_roots_lie_in_their_brackets(slope, amplitude, offset, lo,
                                                width, log2_grid):
    b = BranchSpec(lo, min(1.0, lo + width), slope, offset, amplitude)
    t = bracket_targets(b, 2 ** log2_grid)
    x, _ = _solve_lift(b, t)
    x0 = (t - offset) / slope
    r = abs(amplitude / slope)
    assert np.all(np.maximum(x0 - r, b.lo) <= x)
    assert np.all(x <= np.minimum(x0 + r, b.hi))
    assert np.all(np.abs(b.lift(x) - t) <= SOLVE_TOL * np.maximum(1.0, np.abs(t)))


# --- the sine solve against the per-iterate evaluation it replaced ------------


def oracle_newton(b, targets):
    """The bracketed Newton solve as it was before sin and cos were carried
    along its steps: a table of one node per target, and lift and deriv
    evaluated afresh at every iterate.  Returns the roots and f' there."""
    inc = b.increasing
    x0 = (targets - b.offset) / b.slope
    r = abs(b.amplitude / b.slope)
    lo = np.maximum(x0 - r, b.lo)
    hi = np.minimum(x0 + r, b.hi)
    xs = np.linspace(lo.min(), hi.max(), targets.size + 2)
    ys = b.lift(xs)
    if not inc:
        xs, ys = xs[::-1], ys[::-1]
    x = np.clip(np.interp(targets, ys, xs), lo, hi)
    tol = SOLVE_TOL * np.maximum(1.0, np.abs(targets))
    for _ in range(maps.SOLVE_MAX_ITERS):
        res = b.lift(x) - targets
        done = np.abs(res) <= tol
        if done.all():
            break
        below = (res < 0.0) if inc else (res > 0.0)
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = x - res / b.deriv(x)
        inside = (lo <= step) & (step <= hi)
        x = np.where(inside, step, np.where(done, x, 0.5 * (lo + hi)))
    else:
        res = b.lift(x) - targets
    assert float(np.abs(res).max()) <= maps.SOLVE_GUARD
    return x, b.deriv(x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**SOLVE_RANGES)
def test_solve_lift_matches_per_iterate_oracle(slope, amplitude, offset, lo,
                                               width, log2_grid):
    b = BranchSpec(lo, min(1.0, lo + width), slope, offset, amplitude)
    if b.is_affine:
        return
    t = bracket_targets(b, 2 ** log2_grid)
    x, d = _solve_lift(b, t)
    want_x = np.empty_like(t)
    want_d = np.empty_like(t)
    for i in range(0, t.size, maps.SOLVE_CHUNK):
        chunk = slice(i, i + maps.SOLVE_CHUNK)
        want_x[chunk], want_d[chunk] = oracle_newton(b, t[chunk])
    scale = 1e-13 * np.maximum(1.0, np.abs(t))
    assert np.all(np.abs(x - want_x) <= scale)
    assert np.all(np.abs(d - want_d) <= scale)


def test_solve_lift_affine_slope_is_a_scalar():
    b = BranchSpec(0.0, 0.5, -2.5, 0.3)
    t = np.array([0.1, -0.2])
    x, d = _solve_lift(b, t)
    assert d == -2.5 and isinstance(d, float)
    assert np.array_equal(x, (t - 0.3) / -2.5)


def test_carried_sin_cos_match_numpy():
    # angles over a few turns, moved by up to the rotation guard
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = rng.uniform(-1.0, 2.0, 200_000)
    x1 = x0 + rng.uniform(-1.0, 1.0, x0.size) * maps.ROTATE_MAX / maps.TWO_PI
    a0 = maps.TWO_PI * x0
    sin1, cos1, a1 = maps._rotate(x1, a0, np.sin(a0), np.cos(a0))
    assert np.array_equal(a1, maps.TWO_PI * x1)
    assert np.abs(a1 - a0).max() > 0.99 * maps.ROTATE_MAX
    assert np.abs(sin1 - np.sin(a1)).max() <= 2.0 ** -52
    assert np.abs(cos1 - np.cos(a1)).max() <= 2.0 ** -52
    # a longer step is evaluated afresh
    far = x0 + 2.0 * maps.ROTATE_MAX / maps.TWO_PI
    sin2, cos2, a2 = maps._rotate(far, a0, np.sin(a0), np.cos(a0))
    assert np.array_equal(sin2, np.sin(a2)) and np.array_equal(cos2, np.cos(a2))


@pytest.mark.parametrize("slope,jitter,amp_max,G,table_max", [
    (2.0, 0.0, 0.05, 2 ** 14, 0.11), (3.0, 0.002, 0.003, 2 ** 13, 0.008)],
    ids=["smooth-sine", "neighborhood-sine"])
def test_operator_build_evaluates_one_sin_cos_pair_per_preimage(
        monkeypatch, slope, jitter, amp_max, G, table_max):
    # each arc lifts its image ends (2 sines) and reads its direction
    # (from deriv_range: 2 cosines, 3 on an arc holding 1/2 inside), and
    # each run reads it again; a chunk evaluates its table (1 sine call)
    # and one pair at its start, and its one Newton step is carried, also
    # on a nearly affine branch.  The tables add at most table_max sines
    # per preimage (measured: up to 0.101 and 0.0072).
    # A smooth-sine map is odd, so only its first branch's run (G targets)
    # counts so: the second branch mirrors it, solves at most the one
    # arc-end target its mirror lacks, and checks each derived root with
    # the sine its mirror's solve carried, evaluating none.  The
    # neighborhood maps have no mirror, so their two equal branches join
    # into one arc [0, 1), solved as one run per lift offset.
    trig = count_trig(monkeypatch)
    solves, checks = [], []

    def logged(name, log):
        # (targets, sine calls, sines, cosine calls, cosines) of each call
        f = getattr(transfer, name)

        def call(*args):
            before = trig["sin"] + trig["cos"]
            out = f(*args)
            log.append((args[-1].size,
                        *np.subtract(trig["sin"] + trig["cos"], before)))
            return out

        monkeypatch.setattr(transfer, name, call)

    if not jitter:
        logged("_solve_lift", solves)
        logged("_passes", checks)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(12):
        m = sine_map(slope + rng.uniform(-jitter, jitter),
                     rng.uniform(-amp_max, amp_max))
        for row in trig.values():
            row[:] = 0, 0
        solves.clear()
        checks.clear()
        op = transfer.TransferOperator(m, G)
        ends = 2 * len(m.branches)
        if not jitter:
            runs = [row for row in solves if row[0] == G]
            for n, sin_calls, sines, cos_calls, cosines in runs:
                chunks = n // maps.SOLVE_CHUNK
                assert sin_calls == 2 * chunks
                assert (cos_calls, cosines) == (2 + chunks, 2 + n)
                assert 2 * chunks <= sines - n <= table_max * n
            assert all(row[1:] == (0, 0, 0, 0) for row in checks)
            solved = sum(row[0] for row in solves)
            assert len(runs) == 1 and solved <= G + 1
            assert solved + sum(row[0] for row in checks) == 2 * G
            assert trig["sin"] == [ends + sum(row[1] for row in solves),
                                   ends + sum(row[2] for row in solves)]
            assert trig["cos"] == [ends + sum(row[3] for row in solves),
                                   ends + sum(row[4] for row in solves)]
            continue
        b = m.branches[0]
        assert [arc for _, arc in transfer._lifts(m, set())] == [
            BranchSpec(0.0, 1.0, b.slope, b.offset, b.amplitude)]
        runs = len(op._pieces)  # a sine branch gathers every run
        chunks = sum(-(-i0.size // maps.SOLVE_CHUNK)
                     for _, i0, _, _ in op._pieces)
        targets = sum(i0.size for _, i0, _, _ in op._pieces)
        assert trig["sin"][0] == 2 + 2 * chunks
        assert trig["cos"] == [3 + 3 * runs + chunks,
                               3 + 3 * runs + targets]
        table = trig["sin"][1] - ends - targets
        assert 2 * chunks <= table <= table_max * targets


@pytest.mark.parametrize("slope,amplitude", [
    (2.0, 0.15), (2.0, -0.15), (-2.0, 0.15), (-3.0, -0.15), (3.0, 0.1)])
def test_root_at_bracket_end_converges_by_bisection(monkeypatch, slope,
                                                    amplitude):
    # lift(1/4) has its root at an end of the bracket |x - x0| <= |a|/|s|;
    # on a coarse table every Newton step toward it overshoots, and the
    # bisection's long steps evaluate sin and cos afresh, where one step
    # from the table start takes 2 sine calls (the table and the start)
    b = BranchSpec(0.0, 0.5, slope, 0.1, amplitude)
    t = np.concatenate([b.lift(np.array([0.25])),
                        np.linspace(float(b.lift(0.1)), float(b.lift(0.4)), 16)])
    trig = count_trig(monkeypatch)
    x, d = _solve_lift(b, t)
    assert trig["sin"][0] > 2
    assert abs(x[0] - 0.25) <= 1e-15
    assert np.all(np.abs(b.lift(x) - t) <= SOLVE_TOL * np.maximum(1.0, np.abs(t)))
    assert np.abs(d - b.deriv(x)).max() <= 1e-14


def test_transfer_error_shared_with_transfer():
    assert transfer.TransferError is TransferError
    assert issubclass(TransferError, RuntimeError)
