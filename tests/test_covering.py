from fractions import Fraction

import numpy as np
import pytest

from circlemix import (Density, NotEnvelopingError, cylinder_partition,
                       doubling_map, enveloping_time, escape_time,
                       positivity_horizon, push_sequence, refine_until,
                       sine_map, slope3_two_branch, slope25_map,
                       two_slope_wrap_map, verify_overcover)
from circlemix.covering import PartitionExplosionError
from circlemix.maps import MapFormError


def test_doubling_two_cylinders():
    cyls = cylinder_partition([doubling_map()] * 2, 2)
    assert [(c.lo, c.hi, c.itinerary) for c in cyls] == [
        (Fraction(0), Fraction(1, 4), (0, 0)),
        (Fraction(1, 4), Fraction(1, 2), (0, 1)),
        (Fraction(1, 2), Fraction(3, 4), (1, 0)),
        (Fraction(3, 4), Fraction(1), (1, 1)),
    ]


def test_slope3_two_step_partition():
    cyls = cylinder_partition([slope3_two_branch()] * 2, 2)
    assert len(cyls) == 6
    assert all(c.hi - c.lo == Fraction(1, 6) for c in cyls)


def test_slope25_first_level():
    cyls = cylinder_partition([slope25_map()], 1)
    assert [(float(c.lo), float(c.hi), c.itinerary) for c in cyls] == [
        (0.0, 0.4, (0,)), (0.4, 0.8, (1,)), (0.8, 1.0, (2,))]


def test_partition_tiles_circle_and_nests():
    g = two_slope_wrap_map()
    for n in (1, 2, 3):
        cyls = cylinder_partition([g] * n, n)
        total = sum(c.hi - c.lo for c in cyls)
        assert abs(float(total) - 1.0) < 1e-9
    coarse = cylinder_partition([g] * 2, 2)
    fine = cylinder_partition([g] * 3, 3)
    for c in fine:
        parents = [p for p in coarse if p.lo <= c.lo and c.hi <= p.hi]
        assert len(parents) == 1
        assert parents[0].itinerary == c.itinerary[:2]


def test_partition_explosion_cap():
    with pytest.raises(PartitionExplosionError):
        cylinder_partition([slope3_two_branch()] * 12, 12, cap=100)


def test_enveloping_times():
    assert enveloping_time(slope3_two_branch()) == 1
    assert enveloping_time(doubling_map(), 8) is None
    assert enveloping_time(two_slope_wrap_map()) == 1


def test_decreasing_branch_partition_and_enveloping():
    from circlemix import BranchSpec, PiecewiseMap

    m = PiecewiseMap((BranchSpec(0.0, 1.0, -2.0),))  # single wrapping branch
    cyls = cylinder_partition([m] * 2, 2)
    assert abs(float(sum(c.hi - c.lo for c in cyls)) - 1.0) < 1e-12
    # the open image of the full circle has length 2, so one step envelopes
    assert enveloping_time(m) == 1


def test_enveloping_time_matches_brute_force():
    # Oracle: sample the union of open images on a fine grid of points.
    g = two_slope_wrap_map()
    N = enveloping_time(g)
    cyls = cylinder_partition([g] * N, N)
    pts = np.linspace(0.0, 1.0, 4097, endpoint=False)[1:]
    for first in range(len(g.branches)):
        group = [c for c in cyls if c.itinerary[0] == first]
        covered = np.zeros(len(pts), dtype=bool)
        for c in group:
            mids = np.linspace(float(c.lo), float(c.hi), 2000, endpoint=False)[1:]
            vals = mids.copy()
            for k in range(N):
                vals = g.eval_many(vals)
            for v in vals:
                covered |= np.abs((pts - v + 0.5) % 1.0 - 0.5) < 2e-3
        assert covered.all()


def test_refine_until():
    # slope-3 cylinder lengths halve by 3 each level: 1/2, 1/6, 1/18, 1/54.
    # 1/18 = 0.0556 is not below 1/20, so four levels are needed at a*=10.
    assert refine_until(slope3_two_branch(), 10.0) == 4
    assert refine_until(doubling_map(), 1.0) == 2
    assert refine_until(slope3_two_branch(), 2.0) == 2


def test_refine_until_minimality():
    g = slope3_two_branch()
    for a_star in (2.0, 5.0, 10.0):
        n1 = refine_until(g, a_star)
        below = max(c.length for c in cylinder_partition([g] * n1, n1))
        assert below < 1.0 / (2.0 * a_star)
        if n1 > 1:
            above = max(c.length for c in cylinder_partition([g] * (n1 - 1), n1 - 1))
            assert above >= 1.0 / (2.0 * a_star)


def test_escape_time_examples():
    g = slope3_two_branch()
    cyls2 = cylinder_partition([g] * 2, 2)
    J = next(c for c in cyls2 if c.lo == 0)
    s, witness = escape_time(g, J)
    assert s == 1
    assert witness == (Fraction(0), Fraction(1, 6))
    # degenerate start: an interval already containing a first-level element
    from circlemix.covering import Cylinder
    big = Cylinder(Fraction(0), Fraction(3, 5), ())
    assert escape_time(g, big)[0] == 0


def test_escape_witness_recheck():
    # the witness must map onto a full first-level element after s steps
    g = two_slope_wrap_map()
    n1 = refine_until(g, 8.0)
    for J in cylinder_partition([g] * n1, n1):
        s, (wa, wb) = escape_time(g, J)
        assert J.lo <= wa < wb <= J.hi
        if s == 0:
            continue
        mids = np.linspace(float(wa), float(wb), 3001, endpoint=False)[1:]
        vals = mids.copy()
        for _ in range(s):
            vals = g.eval_many(vals)
        # image spans at least one branch domain (grid check with slack)
        for blo, bhi in ((0.0, 0.5), (0.5, 1.0)):
            probes = np.linspace(blo + 1e-3, bhi - 1e-3, 101)
            hit = all(np.min(np.abs((vals - p + 0.5) % 1.0 - 0.5)) < 2e-3
                      for p in probes)
            if hit:
                break
        else:
            raise AssertionError("no branch domain covered by witness image")


def test_escape_bounded_on_fine_partition():
    g = slope3_two_branch()
    n1 = refine_until(g, 10.0)
    table = [escape_time(g, J)[0] for J in cylinder_partition([g] * n1, n1)]
    assert max(table) == 3  # every 4-cylinder maps onto an element in 3 steps
    assert min(table) == 3


def test_positivity_horizon_slope3():
    rep = positivity_horizon(slope3_two_branch(), 10.0, 0.01)
    assert (rep.N, rep.n1, rep.s0, rep.n0) == (1, 4, 3, 4)
    assert rep.kappa0 == pytest.approx(0.5 * 3.0 ** -4, abs=1e-18)
    assert rep.kappa_eps == pytest.approx(0.5 * 3.01 ** -4, abs=1e-18)
    assert rep.kappa_eps <= rep.kappa0


def test_positivity_horizon_formula_table():
    # n0 = s0 + N by definition; kappa formulas at M0=3, n0=4
    rep = positivity_horizon(slope3_two_branch(), 10.0, 0.1)
    assert rep.n0 == rep.s0 + rep.N
    assert rep.kappa_eps == pytest.approx(0.5 * 3.1 ** -4, rel=1e-12)


def test_positivity_horizon_rejects():
    from circlemix.maps import affine_map

    # slope-4 on exact quarters: every cylinder image is (0, 1), so the
    # origin is never interior and the map is not enveloping at any depth
    assert enveloping_time(affine_map(4.0), 5) is None
    with pytest.raises(NotEnvelopingError):
        positivity_horizon(affine_map(4.0), 6.0, 0.0, N_max=5)
    with pytest.raises(MapFormError):
        positivity_horizon(doubling_map(), 4.0, 0.0)  # expansion not > 2


def count_partitions(monkeypatch):
    from circlemix import covering

    calls = []
    real = covering.cylinder_partition

    def counted(maps, n, *args, **kwargs):
        calls.append(n)
        return real(maps, n, *args, **kwargs)

    monkeypatch.setattr(covering, "cylinder_partition", counted)
    return calls


def test_enveloping_time_stops_when_image_arcs_repeat(monkeypatch):
    from circlemix.maps import affine_map

    calls = count_partitions(monkeypatch)
    for g in (affine_map(4.0), doubling_map()):
        calls.clear()
        assert enveloping_time(g) is None  # N_max = 16
        assert calls == [1, 2]
    # maps that do envelope keep their N
    for g, N in ((slope3_two_branch(), 1), (two_slope_wrap_map(), 1),
                 (slope25_map(), 3), (affine_map(3.0), 2),
                 (affine_map(2.5), 3)):
        calls.clear()
        assert enveloping_time(g) == N
        assert calls == list(range(1, N + 1))


def test_positivity_certified_numerically():
    # pushed rough densities respect the floor kappa0 (grid slack 10/G)
    g = slope3_two_branch()
    a_star = 10.0
    rep = positivity_horizon(g, a_star, 0.0)
    G = 2 ** 13
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(20):
        phi = Density.random_bv(G, a_star, rng)
        out = push_sequence([g] * rep.n0, phi)[-1]
        assert out.min_value() >= rep.kappa0 * (1.0 - 10.0 / G)


def test_verify_overcover():
    g3 = slope3_two_branch()
    assert verify_overcover([g3], (0.0, 0.5), 0.0) is True
    assert verify_overcover([doubling_map()], (0.0, 0.5), 0.0) is False
    with pytest.raises(ValueError):
        verify_overcover([g3], (0.0, 0.5), 0.25)


def test_verify_overcover_shrink_and_sequences():
    g3 = slope3_two_branch()
    # image of (delta, 1/2-delta) has length 1.5 - 6 delta > 1 for small delta
    assert verify_overcover([g3], (0.0, 0.5), 0.01) is True
    # perturbed sequences keep the overcovering (float path with margin)
    maps = [sine_map(3.0, 0.0002), sine_map(3.0, -0.0001)]
    assert verify_overcover(maps, (0.0, 0.5), 0.001) is True
