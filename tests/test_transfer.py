import contextlib
import json
import math
import signal
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlemix import (BranchSpec, Density, PiecewiseMap, affine_map, analyze,
                       backend_consistency, doubling_map, push, sine_map,
                       slope25_map, slope3_two_branch, two_slope_wrap_map,
                       ulam_matrix)
from circlemix import transfer
from circlemix.maps import SOLVE_TOL
from circlemix.scenarios import (PLANS, build_density, build_sequence,
                                 read_scenario)
from circlemix.transfer import TransferError, TransferOperator
from test_maps import eval_many

BUILTINS = [doubling_map(), slope25_map(), slope3_two_branch(),
            two_slope_wrap_map()]


def push_along(maps, phi):
    """The densities of phi pushed along maps, step by step."""
    out, op = [phi], None
    for m in maps:  # equal maps in a row share one operator
        op = op if op is not None and op.m == m else TransferOperator(m, phi.G)
        out.append(push(op, out[-1]))
    return out[1:]


def test_doubling_uniform_invariant():
    out = push(TransferOperator(doubling_map(), 4096), Density.uniform(4096))
    assert float(np.abs(out.samples - 1.0).max()) < 1e-14


def test_doubling_kills_first_mode():
    out = push(TransferOperator(doubling_map(), 4096),
               Density.sine(4096, 1, 0.5))
    assert out.l1_distance(Density.uniform(4096)) <= 1e-4


def test_slope25_step_profile():
    G = 4096
    out = push(TransferOperator(slope25_map(), G), Density.uniform(G))
    xs = np.arange(G) / G
    away = (np.abs(xs - 0.5) > 2.0 / G) & (xs > 2.0 / G) & (xs < 1.0 - 2.0 / G)
    expected = np.where(xs < 0.5, 1.2, 0.8)
    assert float(np.abs(out.samples[away] - expected[away]).max()) < 1e-9


def test_push_factor_recorded_and_tight():
    rng = np.random.Generator(np.random.PCG64(5))
    G = 2 ** 13
    for m in BUILTINS:
        phi = Density.random_bv(G, 30.0, rng)
        op = TransferOperator(m, G)
        out, factor = push(op, phi), 1.0 / op.apply(phi.samples).mean()
        assert abs(factor - 1.0) <= 5.0 * phi.variation() / G
        assert abs(out.samples.mean() - 1.0) < 1e-12


def test_push_sequence_mode_cascade():
    G = 4096
    seq = push_along([doubling_map()] * 2, Density.sine(G, 2, 0.5))
    assert seq[0].l1_distance(Density.sine(G, 1, 0.5)) <= 1e-4
    assert seq[1].l1_distance(Density.uniform(G)) <= 1e-4


def test_ulam_doubling_b2():
    U = ulam_matrix(doubling_map(), 2)
    assert np.array_equal(U, np.full((2, 2), 0.5))


def test_ulam_slope3_b3():
    U = ulam_matrix(slope3_two_branch(), 3)
    assert float(np.abs(U - 1.0 / 3.0).max()) < 1e-12


@pytest.mark.parametrize("B", [8, 64])
def test_ulam_column_stochastic_all_builtins(B):
    for m in BUILTINS:
        U = ulam_matrix(m, B)
        assert float(np.abs(U.sum(axis=0) - 1.0).max()) < 1e-10
        masses = np.full(B, 1.0 / B)
        assert abs((U @ masses).sum() - 1.0) < 1e-12
    # a sine branch has no exact entries; it is refused, not approximated
    for m in (sine_map(2.0, 0.05), sine_map(3.0, 0.001)):
        with pytest.raises(ValueError, match="affine branches only"):
            ulam_matrix(m, B)


@contextlib.contextmanager
def time_limit(seconds=10.0):
    """Raises TimeoutError in a body that runs too long, which would
    otherwise hang the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"exceeded {seconds:g} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def test_ulam_affine_walk_steps_past_a_rounded_edge():
    # floor((15 / 22) * 22) is 14: a walk that took the bin from the edge
    # it just reached stayed in bin 14 forever
    assert math.floor((15 / 22) * 22) == 14
    with time_limit():
        U = ulam_matrix(doubling_map(), 22)
    assert float(np.abs(U.sum(axis=0) - 1.0).max()) <= 1e-8
    # the doubling map sends bin j onto bins 2j and 2j + 1 (mod 22)
    want = np.zeros((22, 22))
    for j in range(22):
        want[2 * j % 22, j] = want[(2 * j + 1) % 22, j] = 0.5
    assert np.allclose(U, want, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(B=st.integers(2, 200), m=st.sampled_from(BUILTINS))
def test_ulam_affine_walk_ends_for_every_bin_count(B, m):
    with time_limit():
        U = ulam_matrix(m, B)
    assert float(np.abs(U.sum(axis=0) - 1.0).max()) <= 1e-8


@st.composite
def affine_branch_maps(draw):
    """An affine map of 1-3 branches, each with its own orientation, slope
    modulus in [2.05, 5] and offset."""
    n = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.floats(0.05, 0.95), min_size=n - 1,
                         max_size=n - 1, unique=True))
    ends = [0.0, *sorted(cuts), 1.0]
    sign = st.sampled_from([1.0, -1.0])
    return PiecewiseMap(tuple(
        BranchSpec(lo, hi, draw(sign) * draw(st.floats(2.05, 5.0)),
                   draw(st.floats(-1.0, 1.0)))
        for lo, hi in zip(ends, ends[1:])))


def exact_ulam_cells(m, B):
    """The Ulam matrix of an affine map as exact cells {(i, j): entry}: B
    times the length of the points of bin j whose image lies in bin i,
    from the preimages of every lift [i/B, (i+1)/B) + k of bin i."""
    cells = {}
    for b in m.branches:
        s, c = Fraction(b.slope), Fraction(b.offset)
        lo, hi = Fraction(b.lo), Fraction(b.hi)
        y0, y1 = sorted((s * lo + c, s * hi + c))
        for k in range(math.floor(y0), math.ceil(y1)):
            for i in range(B):
                x0, x1 = sorted(((Fraction(i, B) + k - c) / s,
                                 (Fraction(i + 1, B) + k - c) / s))
                x0, x1 = max(x0, lo), min(x1, hi)
                if x1 <= x0:
                    continue
                for j in range(math.floor(x0 * B), math.ceil(x1 * B)):
                    part = min(x1, Fraction(j + 1, B)) - max(x0, Fraction(j, B))
                    cells[i, j] = cells.get((i, j), 0) + part * B
    return cells


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=affine_branch_maps(), B=st.integers(2, 64))
def test_ulam_affine_entries_are_the_exact_cells_rounded(m, B):
    U = ulam_matrix(m, B)
    assert isinstance(U, np.ndarray) and U.shape == (B, B)
    want = np.zeros((B, B))
    for (i, j), cell in exact_ulam_cells(m, B).items():
        want[i, j] = float(cell)
    assert np.all(np.abs(U - want) <= 2.0 * np.spacing(want))
    assert float(np.abs(U.sum(axis=0) - 1.0).max()) <= B * 2.0 ** -52


def test_backend_consistency_uniform_doubling():
    phi = Density.uniform(8192)
    for B in (16, 128, 512):
        assert backend_consistency(doubling_map(), phi, B) < 1e-10


LIPSCHITZ = lambda x: (1.0 + 0.25 * np.sin(2 * np.pi * x)  # noqa: E731
                       + 0.25 * np.cos(4 * np.pi * x)
                       + 0.1 * np.sin(6 * np.pi * x + 1.0))


@pytest.mark.parametrize("m", BUILTINS, ids=["doubling", "s25", "s3", "wrap"])
def test_backend_consistency_bound_and_refinement(m):
    G = 8192
    phi = Density.from_samples(LIPSCHITZ(np.arange(G) / G))
    d1 = backend_consistency(m, phi, 512)
    d2 = backend_consistency(m, phi, 1024)
    assert d1 <= 4.0 / 512
    if d1 > 1e-12:
        assert d2 <= 0.75 * d1


def test_decreasing_branch_push_and_ulam():
    from circlemix import BranchSpec, PiecewiseMap

    m = PiecewiseMap((BranchSpec(0.0, 1.0, -2.0),))  # -2x mod 1
    out = push(TransferOperator(m, 1024), Density.uniform(1024))
    assert float(np.abs(out.samples - 1.0).max()) < 1e-14
    U = ulam_matrix(m, 4)
    assert float(np.abs(U.sum(axis=0) - 1.0).max()) < 1e-12
    phi = Density.sine(2048, 1, 0.4)
    assert backend_consistency(m, phi, 64) <= 4.0 / 64


def test_mass_and_column_guards():
    # branches that leave half the circle unmapped: half the columns sum to 0
    half = types.SimpleNamespace(branches=(BranchSpec(0.0, 0.5, 2.0),))
    with pytest.raises(TransferError, match="column sums"):
        ulam_matrix(half, 4)
    rng = np.random.Generator(np.random.PCG64(9))
    push(TransferOperator(two_slope_wrap_map(), 1024),
         Density.random_bv(1024, 10.0, rng))  # no trip


def test_duality_change_of_variables():
    # integral of h against the pushforward equals integral of h(f(x)) phi(x)
    rng = np.random.Generator(np.random.PCG64(13))
    G = 2 ** 13
    for m in BUILTINS:
        phi = Density.random_bv(G, 20.0, rng)
        xs = np.arange(G) / G
        h = np.cos(2 * np.pi * xs)
        lhs = float((h * push(TransferOperator(m, G), phi).samples).mean())
        rhs = float((np.cos(2 * np.pi * eval_many(m, xs)) * phi.samples).mean())
        assert abs(lhs - rhs) <= 10.0 * phi.variation() / G


def test_variation_inequality_all_builtins():
    rng = np.random.Generator(np.random.PCG64(2))
    G = 2 ** 14
    ops = [TransferOperator(m, G) for m in BUILTINS]
    for _ in range(10):
        phi = Density.random_bv(G, 50.0, rng)
        v0 = phi.variation()
        for op in ops:
            an = analyze(op.m)
            bound = 2.0 / an.lambda_min * v0 + an.A + 0.02 * (1.0 + v0)
            assert push(op, phi).variation() <= bound


def test_iterated_variation_envelope():
    # random sequences from the wrap family stay under the geometric envelope
    from circlemix.scenarios import draw_two_slope_wrap, two_slope_wrap_family_bounds

    fam = two_slope_wrap_family_bounds()
    rng = np.random.Generator(np.random.PCG64(6))
    G = 2 ** 13
    slack = 0.02
    for _ in range(5):
        phi = Density.random_bv(G, 40.0, rng)
        v0 = phi.variation()
        maps = [draw_two_slope_wrap({}, rng) for _ in range(8)]
        for n, cur in enumerate(push_along(maps, phi), start=1):
            env = ((2.0 / fam.lambda0) ** n * v0
                   + fam.A0 / (1.0 - 2.0 / fam.lambda0))
            assert cur.variation() <= env * (1.0 + slack) + slack


# --- the operator against the per-density push it replaced -------------------


def bisect_lift(b, targets):
    """Preimage solve of the per-density push: 30 bisection steps, then 4
    clipped Newton steps."""
    if b.is_affine:
        return (targets - b.offset) / b.slope
    lo = np.full_like(targets, b.lo)
    hi = np.full_like(targets, b.hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        val = b.lift(mid)
        below = (val < targets) if b.increasing else (val > targets)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(4):
        x = np.clip(x - (b.lift(x) - targets) / b.deriv(x), b.lo, b.hi)
    return x


def per_density_push(m, phi):
    """Reference push that solves every preimage again for each density and
    interpolates phi there directly."""
    G = phi.G
    s = phi.samples
    ys = np.arange(G) / G
    acc = np.zeros(G)
    for b in m.branches:
        flo, fhi, offsets = b.image()
        for k in offsets:
            t = ys + k
            if b.increasing:
                mask = (t >= flo) & (t < fhi)
            else:
                mask = (t > fhi) & (t <= flo)
            if not mask.any():
                continue
            xs = bisect_lift(b, t[mask])
            xs = np.where(xs >= 1.0, xs - 1.0, xs)
            pos = xs * G
            i0 = np.floor(pos).astype(np.int64) % G
            frac = pos - np.floor(pos)
            vals = s[i0] * (1.0 - frac) + s[(i0 + 1) % G] * frac
            acc[mask] += vals / np.abs(b.deriv(xs))
    return acc / acc.mean()


ORACLE_MAPS = BUILTINS + [
    sine_map(2.0, 0.05), sine_map(3.0, 0.003, 0.01),
    sine_map(-2.5, 0.2, 0.3, marks=(0.0, 0.3, 0.7)),
    sine_map(2.0, 0.98 / (2.0 * math.pi)),  # |s| - 2 pi |a| = 1.02
    PiecewiseMap((BranchSpec(0.0, 1.0, -2.0),)),
]


@pytest.mark.parametrize("G", [2 ** 10, 2 ** 13])
def test_push_matches_per_density_push(G):
    rng = np.random.Generator(np.random.PCG64(21))
    for m in ORACLE_MAPS:
        op = TransferOperator(m, G)
        for phi in (Density.random_bv(G, 20.0, rng), Density.sine(G, 3, 0.9)):
            got = push(op, phi).samples
            assert float(np.abs(got - per_density_push(m, phi)).max()) <= 1e-13


def test_equal_maps_give_byte_identical_pushes(monkeypatch):
    # run_coupled builds an operator only when the step's map differs (==,
    # not identity) from the last one, and its ledger is byte-identical to
    # pushing every step through a fresh operator
    from circlemix import run_coupled
    from test_coupling import slope3_setup

    G = 2 ** 12
    rep, _ = slope3_setup(G)
    phi = Density.random_bv(G, 10.0, np.random.Generator(np.random.PCG64(4)))
    psi = Density.uniform(G)
    a = sine_map(2.0, 0.05, 0.1)
    b = sine_map(2.0, 0.05, 0.1)
    assert a == b and a is not b
    maps = [a, b, a, doubling_map(), b, b, a]
    built = []
    init = TransferOperator.__init__

    def counting_init(self, m, G):
        built.append(m)
        init(self, m, G)

    monkeypatch.setattr(TransferOperator, "__init__", counting_init)
    led = run_coupled(maps, phi, psi, bounds=rep)
    assert built == [a, doubling_map(), b]
    want = [phi.l1_distance(psi)]
    for f in maps:
        op = TransferOperator(f, G)
        phi, psi = push(op, phi), push(op, psi)
        want.append(phi.l1_distance(psi))
    assert led.steps["l1_distance"] == want


# --- operator invariants over random maps and densities ----------------------

MARKS = [(0.0,), (0.0, 0.5), (0.0, 0.25), (0.0, 0.3, 0.7)]


@st.composite
def circle_maps(draw):
    sign = draw(st.sampled_from([1.0, -1.0]))
    slope = sign * draw(st.floats(1.3, 4.0))
    offset = draw(st.floats(0.0, 1.0))
    marks = draw(st.sampled_from(MARKS))
    if draw(st.booleans()):
        return affine_map(slope, offset, marks)
    margin = draw(st.floats(1.05, abs(slope)))
    amp = sign * draw(st.sampled_from([1.0, -1.0])) * (abs(slope) - margin) / (2.0 * math.pi)
    return sine_map(slope, amp, offset, marks)


@st.composite
def densities(draw, G):
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    return Density.random_bv(G, draw(st.floats(0.5, 40.0)), rng)


GRIDS = st.sampled_from([2 ** 8, 2 ** 10, 2 ** 12])
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(m=circle_maps(), G=GRIDS, data=st.data())
def test_push_unit_mass_and_nonnegative(m, G, data):
    op, phi = TransferOperator(m, G), data.draw(densities(G))
    out, factor = push(op, phi), 1.0 / op.apply(phi.samples).mean()
    assert abs(out.samples.mean() - 1.0) <= 1e-12
    assert float(out.samples.min()) >= 0.0
    assert 0.5 <= factor <= 2.0


@PROPERTY
@given(m=circle_maps(), G=GRIDS, w=st.sampled_from([1.0, 0.3, 0.01, 1e-4]),
       data=st.data())
def test_push_l1_non_expansive(m, G, w, data):
    # psi mixes phi with a second density, so that |phi - psi| runs from
    # O(1) down to roundoff
    phi = data.draw(densities(G))
    psi = Density((1.0 - w) * phi.samples + w * data.draw(densities(G)).samples)
    h = phi.samples - psi.samples
    var_h = float(np.abs(np.roll(h, -1) - h).sum())
    d = phi.l1_distance(psi)
    # grid error of the pullback of phi - psi, plus roundoff
    slack = (2.0 * var_h + analyze(m).A * d) / G + 1e-14
    op = TransferOperator(m, G)
    assert push(op, phi).l1_distance(push(op, psi)) <= d + slack


@PROPERTY
@given(m=circle_maps(), G=GRIDS, q=st.integers(1, 3),
       theta=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_push_duality(m, G, q, theta, data):
    # mean(h * P phi) = mean((h o f) * phi) up to the grid error
    phi = data.draw(densities(G))
    xs = np.arange(G) / G
    h = lambda x: np.cos(2.0 * math.pi * q * x + theta)  # noqa: E731
    lhs = float((h(xs) * push(TransferOperator(m, G), phi).samples).mean())
    rhs = float((h(eval_many(m, xs)) * phi.samples).mean())
    M0 = analyze(m).M0
    slack = 2.0 * (1.0 + phi.variation()) * (1.0 + q * M0) / G
    assert abs(lhs - rhs) <= slack


# --- mirrored sine branches ---------------------------------------------------

@st.composite
def odd_sine_maps(draw):
    """x -> s x + c + a sin 2 pi x with f(1 - x) = C - f(x) branch by
    branch: integer slope, offset 0 or 1/2, marks symmetric about 1/2, and
    an amplitude up to the expanding limit (|s| - 1)/(2 pi)."""
    slope = draw(st.sampled_from([-3.0, -2.0, 2.0, 3.0]))
    amp = (draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.01, 0.99))
           * (abs(slope) - 1.0) / (2.0 * math.pi))
    return sine_map(slope, amp, draw(st.sampled_from([0.0, 0.5])),
                    draw(st.sampled_from([(0.0, 0.5), (0.0, 0.25, 0.5, 0.75)])))


def logged(mp, name, log):
    """Patch transfer.<name> to append (args, result) of each call to log."""
    f = getattr(transfer, name)

    def call(*args):
        out = f(*args)
        log.append((args, out))
        return out

    mp.setattr(transfer, name, call)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(m=odd_sine_maps(), G=st.sampled_from([2 ** k for k in range(10, 15)]))
def test_mirrored_roots_pass_the_checks_of_solved_roots(m, G):
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        logged(mp, "_mirrored", calls)
        op = TransferOperator(m, G)
    # every branch of the right half mirrors one of the left half
    half = len(m.branches) // 2
    assert {args[0] for args, _ in calls} == set(m.branches[half:])
    solved = dict.fromkeys(m.branches, 0)
    for (b, _, t, j0, j1, base, runs), (_, i0, w0, w1) in calls:
        assert i0.min() >= 0 and i0.max() <= G - 1
        x0, r = (t - b.offset) / b.slope, abs(b.amplitude / b.slope)
        derived = np.zeros(t.size, dtype=bool)
        for first, xs, _, _ in runs:
            # each derived root, 1 - x of its mirror target's root x,
            # passes the checks of a solved root, evaluated afresh
            i = base - first - np.arange(j0, j1)
            own = (i >= 0) & (i < xs.size)
            y, tj = 1.0 - xs[i[own]], t[own]
            assert np.all(np.abs(b.lift(y) - tj)
                          <= SOLVE_TOL * np.maximum(1.0, np.abs(tj)))
            assert np.all((np.maximum(x0[own] - r, b.lo) <= y)
                          & (y <= np.minimum(x0[own] + r, b.hi)))
            # and its weights sum to 1/|f'| there
            np.testing.assert_allclose(w0[own] + w1[own],
                                       1.0 / np.abs(b.deriv(y)), rtol=1e-13)
            derived |= own
        solved[b] += int((~derived).sum())
    # only the arc ends, where the half-open images differ, are solved
    assert max(solved.values()) <= 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_mirrors", lambda m, G: {})
        unpaired = TransferOperator(m, G)
    # the roots agree to the solve's tolerance, so a smooth density's pushes
    # agree to roundoff
    phi = Density.sine(G, 1, 0.5).samples
    assert (np.abs(op.apply(phi) - unpaired.apply(phi)).max()
            <= 1e-14 * phi.max())


def solved_and_mirrored(m, G):
    """The number of targets TransferOperator(m, G) solves, the calls it
    makes of _mirrored, and its number of preimages."""
    solves, mirrored = [], []
    with pytest.MonkeyPatch.context() as mp:
        logged(mp, "_solve_lift", solves)
        logged(mp, "_mirrored", mirrored)
        op = TransferOperator(m, G)
    return (sum(args[1].size for args, _ in solves), mirrored,
            sum(len(range(G)[tgt]) for tgt, _, _, _ in op._pieces))


@pytest.mark.parametrize("m", [
    sine_map(2.3, 0.05), sine_map(2.0, 0.05, 0.1),
    sine_map(2.0, 0.05, 0.0, (0.0, 0.3)), sine_map(2.0, 0.05, 0.0, (0.0,))],
    ids=["slope-2.3", "offset-0.1", "marks-0-0.3", "one-branch"])
def test_maps_without_a_mirror_solve_every_run(m):
    assert transfer._mirrors(m, 4096) == {}
    solved, mirrored, preimages = solved_and_mirrored(m, 4096)
    assert not mirrored and solved == preimages


def test_workload_sine_maps_solve_half_or_every_preimage():
    # each smooth-sine map solves its first branch's G targets plus at most
    # one arc-end target of the second, where it solved 2G; no
    # neighborhood-sine map mirrors a branch
    maps, G = workload_maps("smooth-sine")
    for m in maps:
        solved, mirrored, preimages = solved_and_mirrored(m, G)
        assert G <= solved <= G + 1 and preimages == 2 * G == 32768
        assert [args[0] for args, _ in mirrored] == [m.branches[1]]
    maps, G = workload_maps("neighborhood-sine")
    for m in maps:
        solved, mirrored, preimages = solved_and_mirrored(m, G)
        assert not mirrored and solved == preimages


# --- one arc per lift, run bounds counted in integers -------------------------


def searchsorted_runs(b, G):
    """_runs as it was: every offset's targets ys + k as floats, cut at the
    image ends by searchsorted."""
    ys = np.arange(G) / G
    flo, fhi, offsets = b.image()
    out = []
    for k in offsets:
        t = ys + k
        if b.increasing:
            j0, j1 = np.searchsorted(t, (flo, fhi), side="left")
        else:
            j0, j1 = np.searchsorted(t, (fhi, flo), side="right")
        if j0 < j1:
            out.append((k, int(j0), int(j1)))
    return out


def ulps(x, n):
    """x moved by n ulps."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def run_branches(draw):
    """(b, G): an affine or sine branch of either orientation on a grid of
    2 to 2^16 points, its offset arbitrary, -0.49999999999999994, or a grid
    target moved by up to one ulp, so that lift(lo) = offset (lo = 0) sits
    on or next to a seam between targets."""
    G = 2 ** draw(st.integers(1, 16))
    slope = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1.1, 4.0))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.0, 0.3),
                                   (0.5, 1.0), (0.25, 0.75)]))
    offset = draw(st.one_of(
        st.floats(-2.0, 2.0), st.just(-0.49999999999999994),
        st.builds(lambda J, n: ulps(J / G, n), st.integers(-2 * G, 2 * G),
                  st.integers(-1, 1))))
    amp = 0.0
    if draw(st.booleans()):
        amp = draw(st.floats(-0.9, 0.9)) * (abs(slope) - 1.05) / (2 * math.pi)
    return BranchSpec(lo, hi, slope, offset, amp), G


@settings(PROPERTY, max_examples=300)
@given(case=run_branches())
def test_runs_match_the_searchsorted_runs(case):
    b, G = case
    assert list(transfer._runs(b, G)) == searchsorted_runs(b, G)


@pytest.mark.parametrize("slope", [2.5, -2.5, 3.0])
@pytest.mark.parametrize("G", [4, 2 ** 10, 2 ** 16])
def test_runs_count_a_target_just_past_the_image_end(slope, G):
    # -0.49999999999999994 + 1 rounds to 0.5 in floats: a float bound
    # flo - k would let the target 1/2 of offset -1 into [flo, fhi)
    b = BranchSpec(0.0, 0.5, slope, -0.49999999999999994)
    runs = list(transfer._runs(b, G))
    assert runs == searchsorted_runs(b, G)
    if slope > 0:
        assert runs[0] == (-1, G // 2 + 1, G)


def per_arc(m, G):
    """TransferOperator(m, G) with every branch its own arc."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_lifts", lambda m, paired: list(
            enumerate(m.branches)))
        return TransferOperator(m, G)


@PROPERTY
@given(slope=st.floats(1.3, 4.0), sign=st.sampled_from([1.0, -1.0]),
       offset=st.floats(-1.0, 1.0),
       marks=st.sampled_from([(0.0, 0.5), (0.0, 0.3, 0.7), (0.0, 0.25)]),
       G=st.sampled_from([2 ** k for k in range(4, 13)]), data=st.data())
def test_merged_affine_arcs_apply_as_the_arcs_apart(slope, sign, offset,
                                                    marks, G, data):
    # the marks split one lift, whose arcs join into [0, 1); each target
    # keeps its roots, computed alike.  An increasing map sums a target's
    # preimages in the same order, left to right, so the apply is
    # bit-identical; on a decreasing one the joined runs sum them in
    # another order
    m = affine_map(sign * slope, offset, marks)
    assert [b for _, b in transfer._lifts(m, set())] == [
        BranchSpec(0.0, 1.0, sign * slope, offset)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "PHASE_MIN_LEN", math.inf)
        op, apart = TransferOperator(m, G), per_arc(m, G)
    assert len(op._pieces) <= len(apart._pieces)
    phi = data.draw(densities(G)).samples
    if sign > 0:
        assert np.array_equal(op.apply(phi), apart.apply(phi))
    else:
        assert (np.abs(op.apply(phi) - apart.apply(phi)).max()
                <= 1e-14 * phi.max())


@PROPERTY
@given(m=circle_maps().filter(lambda m: not m.branches[0].is_affine),
       G=GRIDS)
def test_merged_sine_arcs_apply_as_the_arcs_apart(m, G):
    # a merged sine arc solves its roots on one bracket and table, so they
    # agree with the arcs' to the solve's tolerance, and a smooth density's
    # pushes agree to roundoff
    phi = Density.sine(G, 1, 0.5).samples
    op, apart = TransferOperator(m, G), per_arc(m, G)
    assert (np.abs(op.apply(phi) - apart.apply(phi)).max()
            <= 1e-14 * phi.max())


@PROPERTY
@given(m=odd_sine_maps())
def test_mirror_paired_branches_never_merge(m):
    mirrors = transfer._mirrors(m, 4096)
    paired = mirrors.keys() | {i for i, _ in mirrors.values()}
    assert paired == set(range(len(m.branches)))
    assert transfer._lifts(m, paired) == list(enumerate(m.branches))


def test_unpaired_branches_merge_between_paired_ones():
    # [0, 1/4) and [3/4, 1) mirror each other; the three branches between
    # pair nothing, so they join into one arc
    m = sine_map(2.0, 0.05, 0.0, (0.0, 0.25, 0.5, 0.6, 0.75))
    mirrors = transfer._mirrors(m, 4096)
    assert mirrors == {4: (0, 2 * 4096)}
    assert [(n, b.lo, b.hi) for n, b in transfer._lifts(m, {0, 4})] == [
        (0, 0.0, 0.25), (1, 0.25, 0.75), (4, 0.75, 1.0)]
    phi = Density.sine(4096, 1, 0.5).samples
    assert (np.abs(TransferOperator(m, 4096).apply(phi)
                   - per_arc(m, 4096).apply(phi)).max() <= 1e-14 * phi.max())


# slope 3 on [0, 3/8) and [5/8, 1), and between them a mirror pair of
# slope 0 and amplitude 0.6, decreasing with |f'| >= 2 pi 0.6 cos(pi/4)
FLAT_PAIR = {"branches": [
    {"lo": 0.0, "hi": 0.375, "slope": 3.0},
    {"lo": 0.375, "hi": 0.5, "slope": 0.0, "amplitude": 0.6},
    {"lo": 0.5, "hi": 0.625, "slope": 0.0, "amplitude": 0.6},
    {"lo": 0.625, "hi": 1.0, "slope": 3.0}]}


def test_mirror_pair_of_slope_0_builds(tmp_path):
    # the mirror checks bracket a slope-0 root by the whole arc, as the
    # solve does, instead of dividing by the slope
    from circlemix.cli import main
    from circlemix.maps import map_from_dict

    m = map_from_dict(FLAT_PAIR)
    for G in (1024, 4096, 16384):
        assert transfer._mirrors(m, G) == {2: (1, 0)}
        op = TransferOperator(m, G)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_mirrors", lambda m, G: {})
            unpaired = TransferOperator(m, G)
        phi = Density.sine(G, 1, 0.5).samples
        assert (np.abs(op.apply(phi) - unpaired.apply(phi)).max()
                <= 1e-14 * phi.max())
    ly, run = tmp_path / "ly.json", tmp_path / "run.json"
    ly.write_text(json.dumps({"maps": [FLAT_PAIR], "count": 3}))
    run.write_text(json.dumps({
        "schema": 1, "name": "flat", "kind": "fixed-map", "grid": 4096,
        "n_max": 20, "seed": 1, "phi": {"preset": "sine"},
        "psi": {"preset": "uniform"}, "family": {"map": FLAT_PAIR}}))
    assert main(["verify-ly", "--config", str(ly)]) == 0
    assert main(["couple", "--config", str(run),
                 "--out", str(tmp_path / "out")]) == 0


def test_mirror_rule_needs_an_integral_c_times_g():
    # C = s + 2c = 2 + 2^-13, so C*G is 8192.5 at 2^12, where the two
    # branches are solved apart, and an integer from 2^13 on
    m = sine_map(2.0, 0.05, 2 ** -14)
    assert transfer._mirrors(m, 2 ** 12) == {}
    assert transfer._mirrors(m, 2 ** 13) == {1: (0, 16385)}
    assert transfer._mirrors(m, 2 ** 14) == {1: (0, 32770)}
    assert solved_and_mirrored(m, 2 ** 12)[::2] == (8192, 8192)
    solved, mirrored, preimages = solved_and_mirrored(m, 2 ** 13)
    assert (solved, len(mirrored), preimages) == (8192, 2, 16384)
    G = 2 ** 13
    op = TransferOperator(m, G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_mirrors", lambda m, G: {})
        unpaired = TransferOperator(m, G)
    phi = Density.sine(G, 1, 0.5).samples
    assert (np.abs(op.apply(phi) - unpaired.apply(phi)).max()
            <= 1e-14 * phi.max())


def test_curve_slope_maps_build_one_run_per_lift_offset():
    # affine_map(s, 0, (0, 1/2)) joins into one arc with image [0, s): 3
    # runs for s <= 3 and 4 above, where its two arcs built 4 and 5
    maps, G = workload_maps("curve-slope")
    for m in {m: None for m in maps}:
        s = m.branches[0].slope
        assert len(TransferOperator(m, G)._pieces) == math.ceil(s)
        assert len(per_arc(m, G)._pieces) == math.ceil(s) + 1


# --- the buffered apply against the allocating apply it replaced -------------


def allocating_apply(op, samples):
    """TransferOperator.apply as it was before it read into the operator's
    own buffers: indexing (fancy for a gather piece, strided for a phase)
    and fresh temporaries."""
    s_ext = np.append(samples, samples[0])  # periodic right neighbour
    right = s_ext[1:]
    acc = np.zeros(op.G)
    for tgt, src, w0, w1 in op._pieces:
        acc[tgt] += s_ext[src] * w0 + right[src] * w1
    return acc


@PROPERTY
@given(m=st.one_of(circle_maps(), st.sampled_from(BUILTINS)),
       G=st.sampled_from([2 ** k for k in range(4, 13)]),
       min_len=st.sampled_from([transfer.PHASE_MIN_LEN, 1]), data=st.data())
def test_apply_bit_identical_to_allocating_apply(m, G, min_len, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "PHASE_MIN_LEN", min_len)
        op = TransferOperator(m, G)
    phi = data.draw(densities(G))
    assert np.array_equal(op.apply(phi.samples),
                          allocating_apply(op, phi.samples))


def test_one_operator_serves_densities_in_turn():
    # the buffers carry nothing from one apply to the next
    G = 2 ** 10
    rng = np.random.Generator(np.random.PCG64(8))
    phis = [Density.random_bv(G, 20.0, rng), Density.uniform(G),
            Density.sine(G, 3, 0.9), Density.random_bv(G, 2.0, rng)]
    for m in ORACLE_MAPS:
        op = TransferOperator(m, G)
        got = [op.apply(phi.samples) for phi in phis]
        for phi, out in zip(phis, got):
            fresh = TransferOperator(m, G)
            assert np.array_equal(out, fresh.apply(phi.samples))


def test_pushed_density_is_read_only_and_kept():
    G = 2 ** 12
    rng = np.random.Generator(np.random.PCG64(13))
    op = TransferOperator(two_slope_wrap_map(), G)
    out = push(op, Density.random_bv(G, 10.0, rng))
    kept = out.samples.copy()
    assert not out.samples.flags.writeable
    assert out.samples.base is None  # owns its memory, no operator buffer
    with pytest.raises(ValueError):
        out.samples[0] = 0.0
    push(op, Density.random_bv(G, 30.0, rng))
    push(op, out)
    push(op, Density.uniform(G))
    assert np.array_equal(out.samples, kept)


def test_push_refuses_a_density_on_another_grid():
    op = TransferOperator(doubling_map(), 64)
    with pytest.raises(ValueError, match="density grid 128 != operator grid 64"):
        push(op, Density.uniform(128))


@pytest.mark.parametrize("xs", [-0.5, math.nan, 2.5],
                         ids=["negative", "nan", "past-G"])
def test_out_of_range_preimage_index_refused(monkeypatch, xs):
    # doubling at G = 64 gathers, so the affine positions reach the check;
    # a position of 2.5*G stays past G after the wrap at x = 1
    monkeypatch.setattr(transfer, "_positions",
                        lambda b, G, J0, n: np.full(n, xs * G))
    with pytest.raises(TransferError, match="outside"):
        TransferOperator(doubling_map(), 64)


@pytest.mark.parametrize("below,above", [(0.5, 0.0), (0.0, 0.5)],
                         ids=["negative", "past-G"])
def test_out_of_range_phase_index_refused(monkeypatch, below, above):
    # an image widened by half a unit holds targets whose roots lie in
    # [-1/4, 0) or [1, 5/4), so a phase would start or end outside the
    # samples
    image = BranchSpec.image

    def widened(self):
        flo, fhi, offsets = image(self)
        return flo - below, fhi + above, offsets

    monkeypatch.setattr(BranchSpec, "image", widened)
    monkeypatch.setattr(transfer, "PHASE_MIN_LEN", 1)
    with pytest.raises(TransferError, match=r"outside \[0, 63\]"):
        TransferOperator(doubling_map(), 64)


# --- affine gathers from integer positions ----------------------------------


@st.composite
def affine_branches(draw):
    """(b, G): an affine branch of either orientation on [lo, hi), hi often
    1, on a grid G = 2 .. 2^16.  Its offset is arbitrary, or puts lift(hi)
    on a grid target and moves it by a few ulps, so that a root can round
    onto x = 1.  Offsets are 0 or of modulus at least 1e-300: below that,
    _solve_lift's root (t - c)/s is subnormal and rounded more coarsely
    than the position (J - c*G)/s."""
    G = 2 ** draw(st.integers(1, 16))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.5, 1.0), (0.25, 1.0),
                                   (0.0, 0.5), (0.3, 0.7)]))
    slope = draw(st.sampled_from([1.0, -1.0])) * draw(
        st.floats(1.01, 12.0) | st.sampled_from([2.0, 2.25, 2.5, 3.0, 5.0]))
    if draw(st.booleans()):
        offset = draw(st.floats(-4.0, 4.0).filter(
            lambda c: c == 0.0 or abs(c) >= 1e-300))
    else:
        offset = draw(st.integers(-4 * G, 4 * G)) / G - slope * hi
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            offset = math.nextafter(offset, math.copysign(math.inf, ulps))
    return BranchSpec(lo, hi, slope, offset), G


# roots that round onto x = 1, one per orientation
WRAPS = [(BranchSpec(0.5, 1.0, 2.25, -1.9999999999999998), 256),
         (BranchSpec(0.5, 1.0, -5.0, 2.9999999999999996), 2 ** 15)]


def test_wrap_cases_wrap():
    for b, G in WRAPS:
        assert any((transfer._positions(b, G, j0 + k * G, j1 - j0) >= G).any()
                   for k, j0, j1 in transfer._runs(b, G))


def _assert_same_pieces(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[0] == w[0]
        for x, y in zip(g[1:], w[1:]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(PROPERTY, max_examples=150)
@given(case=affine_branches())
@example(case=WRAPS[0])
@example(case=WRAPS[1])
def test_affine_gathers_match_the_solved_gather(case):
    # the pieces from integer positions, against _gather of the roots
    # _solve_lift gives, bit for bit (or the same refusal): run by run,
    # and for all the runs at once
    b, G = case
    ys = np.arange(G) / G
    runs = list(transfer._runs(b, G))
    want = []
    for k, j0, j1 in runs:
        try:
            want.append(transfer._gather(
                b, G, j0, j1, *transfer._solve_lift(b, ys[j0:j1] + k)))
        except TransferError:
            want.append(None)
            with pytest.raises(TransferError, match="outside"):
                transfer._affine_gathers(b, G, [(k, j0, j1)])
            continue
        _assert_same_pieces(transfer._affine_gathers(b, G, [(k, j0, j1)]),
                            want[-1:])
    if None in want:
        with pytest.raises(TransferError, match="outside"):
            transfer._affine_gathers(b, G, runs)
    else:
        _assert_same_pieces(transfer._affine_gathers(b, G, runs), want)


def test_out_of_range_sine_root_index_refused(monkeypatch):
    # a single sine branch mirrors no other, so its roots are gathered
    monkeypatch.setattr(transfer, "_solve_lift",
                        lambda b, t: (np.full_like(t, -0.5), b.slope))
    with pytest.raises(TransferError, match="outside"):
        TransferOperator(sine_map(3.0, 0.05, 0.0, (0.0,)), 64)


# --- exact phases on affine branches of slope +-p/q -------------------------


@st.composite
def rational_slope_maps(draw):
    """(m, p, q, G): an affine map of slope +-p/q, q a power of two and p at
    most 12, on a grid G; its offset is arbitrary, or puts lift(1) on a grid
    target and then moves it by up to two ulps, so that a rounded image end
    meets a target."""
    q = 2 ** draw(st.integers(0, 2))
    p = draw(st.integers(q + 1, 12).filter(lambda p: math.gcd(p, q) == 1))
    slope = draw(st.sampled_from([1.0, -1.0])) * p / q
    G = draw(st.sampled_from([2 ** 10, 2 ** 11, 2 ** 12]))
    if draw(st.booleans()):
        offset = draw(st.floats(-1.0, 1.0))
    else:
        offset = draw(st.integers(-G, 2 * G)) / G - slope
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            offset = math.nextafter(offset, math.copysign(math.inf, ulps))
    marks = draw(st.sampled_from([None] + MARKS))
    return affine_map(slope, offset, marks), p, q, G


def exact_root(m, G, j, i):
    """The exact root, in samples, of the one target j/G + k whose root
    has its left sample at i."""
    s, c = Fraction(m.branches[0].slope), Fraction(m.branches[0].offset)
    roots = [pos for k in range(-16, 17)
             if math.floor(pos := (Fraction(j, G) + k - c) / s * G) == i]
    assert len(roots) == 1
    return roots[0]


@settings(PROPERTY, max_examples=100)
@given(case=rational_slope_maps(), data=st.data())
def test_phases_match_the_gathered_operator(case, data):
    m, p, q, G = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "PHASE_MIN_LEN", 1)
        op = TransferOperator(m, G)
        mp.setattr(transfer, "PHASE_MIN_LEN", math.inf)
        gathered = TransferOperator(m, G)
    # the same runs, each of at least p * q targets split into p phases
    want = []
    for run, _, _, _ in gathered._pieces:
        n = run.stop - run.start
        want += ([slice(run.start + r, run.stop, p) for r in range(p)]
                 if n >= p * q else [run])
    assert [tgt for tgt, _, _, _ in op._pieces] == want
    phases = [piece for piece in op._pieces if isinstance(piece[1], slice)]
    assert phases
    phi = data.draw(densities(G))
    assert (np.abs(op.apply(phi.samples) - gathered.apply(phi.samples)).max()
            <= 1e-13)
    # each phase's first and last index and its weights, exactly
    inv = Fraction(q, p)
    for tgt, src, w0, w1 in phases:
        assert src.step == math.copysign(q, m.branches[0].slope)
        n = len(range(G)[tgt])
        first = exact_root(m, G, tgt.start, src.start)
        last = exact_root(m, G, tgt.start + (n - 1) * p,
                                  src.start + (n - 1) * src.step)
        frac = first - src.start
        assert last - math.floor(last) == frac
        assert (w0, w1) == (float((1 - frac) * inv), float(frac * inv))
        assert len(range(G + 1)[src]) == n


def workload_maps(name):
    """The maps and grid of a benchmark workload's reference call, drawn as
    run_scenario draws them."""
    from test_config import WORKLOADS

    seed = WORKLOADS.REFERENCE_SEEDS[name]
    cfg = read_scenario(WORKLOADS.scenario(name, seed))
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    for key in ("phi", "psi"):
        build_density(cfg[key], cfg["grid"], rng)
    return build_sequence(PLANS[cfg["kind"]](cfg), rng), cfg["grid"]


def test_workload_operators_take_their_paths():
    # fixed-wrap's map applies phases only; the other three workloads
    # gather every run, as they did before phases existed
    op = TransferOperator(two_slope_wrap_map(), 2 ** 16)
    assert [src.step for _, src, _, _ in op._pieces] == [1] * 6 + [2] * 10
    for name in ("curve-slope", "neighborhood-sine", "smooth-sine"):
        maps, G = workload_maps(name)
        assert len(maps) > 1
        for m in {m: None for m in maps}:
            pieces = TransferOperator(m, G)._pieces
            assert not any(isinstance(src, slice) for _, src, _, _ in pieces)
