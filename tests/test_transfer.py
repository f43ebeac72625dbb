import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import (BranchSpec, Density, PiecewiseMap, affine_map, analyze,
                       backend_consistency, doubling_map, push, push_sequence,
                       push_with_factor, sine_map, slope25_map,
                       slope3_two_branch, two_slope_wrap_map, ulam_matrix,
                       ulam_push)
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
    assert np.array_equal(U.entries, np.full((2, 2), 0.5))


def test_ulam_slope3_b3():
    U = ulam_matrix(slope3_two_branch(), 3)
    assert float(np.abs(U.entries - 1.0 / 3.0).max()) < 1e-12


@pytest.mark.parametrize("B", [8, 64])
def test_ulam_column_stochastic_all_builtins(B):
    for m in BUILTINS + [sine_map(2.0, 0.05), sine_map(3.0, 0.001)]:
        U = ulam_matrix(m, B)
        assert float(np.abs(U.entries.sum(axis=0) - 1.0).max()) < 1e-10
        masses = np.full(B, 1.0 / B)
        assert abs(ulam_push(U, masses).sum() - 1.0) < 1e-12


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
    assert float(np.abs(U.entries.sum(axis=0) - 1.0).max()) < 1e-12
    phi = Density.sine(2048, 1, 0.4)
    assert backend_consistency(m, phi, 64) <= 4.0 / 64


def test_mass_and_column_guards():
    from circlemix.transfer import UlamMatrix

    bad = np.full((4, 4), 0.3)  # columns sum to 1.2
    with pytest.raises(TransferError):
        UlamMatrix(4, bad)
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
    led = run_coupled(maps, phi, psi, "piecewise", bounds=rep)
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
    """TransferOperator.apply as it was before it gathered into the
    operator's own buffers: fancy indexing and fresh temporaries."""
    s_ext = np.append(samples, samples[0])  # periodic right neighbour
    right = s_ext[1:]
    acc = np.zeros(op.G)
    for sl, i0, w0, w1 in op._runs:
        acc[sl] += s_ext[i0] * w0 + right[i0] * w1
    return acc


@PROPERTY
@given(m=circle_maps(), G=st.sampled_from([2 ** k for k in range(4, 13)]),
       data=st.data())
def test_apply_bit_identical_to_allocating_apply(m, G, data):
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
    from circlemix import transfer

    monkeypatch.setattr(transfer, "_solve_lift",
                        lambda b, t: np.full_like(t, xs))
    with pytest.raises(TransferError, match="outside"):
        TransferOperator(doubling_map(), 64)
