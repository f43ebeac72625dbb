import contextlib
import math
import signal
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import (BranchSpec, Density, PiecewiseMap, affine_map, analyze,
                       backend_consistency, doubling_map, push, push_sequence,
                       push_with_factor, sine_map, slope25_map,
                       slope3_two_branch, two_slope_wrap_map, ulam_matrix)
from circlemix import transfer
from circlemix.scenarios import (PLANS, build_density, build_sequence,
                                 read_scenario)
from circlemix.transfer import TransferError, TransferOperator
from test_maps import eval_many

BUILTINS = [doubling_map(), slope25_map(), slope3_two_branch(),
            two_slope_wrap_map()]


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
        out, factor = push_with_factor(TransferOperator(m, G), phi)
        assert abs(factor - 1.0) <= 5.0 * phi.variation() / G
        assert abs(out.integral() - 1.0) < 1e-12


def test_push_sequence_mode_cascade():
    G = 4096
    seq = push_sequence([doubling_map()] * 2, Density.sine(G, 2, 0.5))
    assert seq[0].l1_distance(Density.sine(G, 1, 0.5)) <= 1e-4
    assert seq[1].l1_distance(Density.uniform(G)) <= 1e-4


def test_push_sequence_empty_is_identity():
    phi = Density.sine(256, 1, 0.3)
    assert push_sequence([], phi) == []
    assert float(np.abs(phi.samples - Density.sine(256, 1, 0.3).samples).max()) == 0.0


def test_push_sequence_composes_single_pushes():
    phi = Density.uniform(2048)
    m = slope25_map()
    seq = push_sequence([m, m], phi)
    op = TransferOperator(m, 2048)
    again = push(op, push(op, phi))
    assert float(np.abs(seq[1].samples - again.samples).max()) == 0.0


def test_ulam_doubling_b2():
    U = ulam_matrix(doubling_map(), 2)
    assert np.array_equal(U, np.full((2, 2), 0.5))


def test_ulam_slope3_b3():
    U = ulam_matrix(slope3_two_branch(), 3)
    assert float(np.abs(U - 1.0 / 3.0).max()) < 1e-12


@pytest.mark.parametrize("B", [8, 64])
def test_ulam_column_stochastic_all_builtins(B):
    for m in BUILTINS + [sine_map(2.0, 0.05), sine_map(3.0, 0.001)]:
        U = ulam_matrix(m, B)
        assert float(np.abs(U.sum(axis=0) - 1.0).max()) < 1e-10
        masses = np.full(B, 1.0 / B)
        assert abs((U @ masses).sum() - 1.0) < 1e-12


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
    phi = Density.from_function(G, LIPSCHITZ)
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
        for n, cur in enumerate(push_sequence(maps, phi), start=1):
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
    out, factor = push_with_factor(TransferOperator(m, G),
                                   data.draw(densities(G)))
    assert abs(out.integral() - 1.0) <= 1e-12
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


@pytest.mark.parametrize("xs", [-0.5, math.nan], ids=["negative", "nan"])
def test_out_of_range_preimage_index_refused(monkeypatch, xs):
    # doubling at G = 64 gathers, so the solve's roots reach the check
    monkeypatch.setattr(transfer, "_solve_lift",
                        lambda b, t: (np.full_like(t, xs), b.slope))
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
