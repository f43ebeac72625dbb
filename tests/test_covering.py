import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import (Density, NotEnvelopingError, cylinder_partition,
                       doubling_map, enveloping_time, escape_time,
                       positivity_horizon, refine_until,
                       sine_map, slope3_two_branch, slope25_map,
                       two_slope_wrap_map, verify_overcover)
from circlemix.covering import CoveringError, PartitionExplosionError
from circlemix.curves import sine_amplitude_curve
from circlemix.maps import MapFormError, TransferError, map_from_dict
from test_maps import eval_many
from test_transfer import push_along


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


def test_partition_explosion_cap(monkeypatch):
    from circlemix import covering

    monkeypatch.setattr(covering, "PARTITION_CAP", 100)
    with pytest.raises(PartitionExplosionError):
        cylinder_partition([slope3_two_branch()] * 12, 12)


def test_enveloping_times(monkeypatch):
    from circlemix import covering

    assert enveloping_time(slope3_two_branch()) == 1
    with monkeypatch.context() as mp:
        mp.setattr(covering, "ENVELOPING_MAX", 8)
        assert enveloping_time(doubling_map()) is None
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
                vals = eval_many(g, vals)
            for v in vals:
                covered |= np.abs((pts - v + 0.5) % 1.0 - 0.5) < 2e-3
        assert covered.all()


def test_refine_until():
    # slope-3 cylinder lengths halve by 3 each level: 1/2, 1/6, 1/18, 1/54.
    # 1/18 = 0.0556 is not below 1/20, so four levels are needed at a*=10.
    assert refine_until(slope3_two_branch(), 10.0)[0] == 4
    assert refine_until(doubling_map(), 1.0)[0] == 2
    assert refine_until(slope3_two_branch(), 2.0)[0] == 2


def test_refine_until_minimality():
    g = slope3_two_branch()
    for a_star in (2.0, 5.0, 10.0):
        n1, cyls = refine_until(g, a_star)
        assert cyls == cylinder_partition([g] * n1, n1)
        below = max(c.length for c in cyls)
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


def test_escape_tie_keeps_piece_with_smaller_start():
    # 3x maps [7/12, 3/4] onto the arc [3/4, 5/4], split in half by the
    # point 1 = 0: the pieces start at 3/4 and at 0, so [1, 5/4] is kept,
    # and its image [0, 3/4] holds [0, 1/2] one step later
    from circlemix.covering import Cylinder

    g = slope3_two_branch()
    J = Cylinder(Fraction(7, 12), Fraction(3, 4), (1,))
    assert escape_time(g, J) == (2, (Fraction(2, 3), Fraction(3, 4)))
    assert escape_time(g, J) == oracle_escape_time(g, J)


def test_escape_witness_recheck():
    # the witness must map onto a full first-level element after s steps
    g = two_slope_wrap_map()
    for J in refine_until(g, 8.0)[1]:
        s, (wa, wb) = escape_time(g, J)
        assert J.lo <= wa < wb <= J.hi
        if s == 0:
            continue
        mids = np.linspace(float(wa), float(wb), 3001, endpoint=False)[1:]
        vals = mids.copy()
        for _ in range(s):
            vals = eval_many(g, vals)
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
    table = [escape_time(g, J)[0] for J in refine_until(g, 10.0)[1]]
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


@pytest.mark.parametrize("g, a_star", [
    (slope3_two_branch(), 10.0), (slope25_map(), 10.0),
    (two_slope_wrap_map(), 8.0), (sine_map(3.0, 0.05), 10.0)])
def test_positivity_horizon_table_is_escape_time_of_each_cylinder(g, a_star):
    # the table shares one arithmetic's tables of g across its cylinders;
    # escape_time builds fresh tables per cylinder
    rep = positivity_horizon(g, a_star, 0.0)
    cyls = refine_until(g, a_star)[1]
    assert rep.s_table == tuple((c, *escape_time(g, c)) for c in cyls)
    # Fractions in exact arithmetic, floats on a sine map
    assert all(isinstance(x, type(c.lo)) for c, _, w in rep.s_table
               for x in w)


def test_positivity_horizon_rejects(monkeypatch):
    from circlemix import covering
    from circlemix.maps import affine_map

    # slope-4 on exact quarters: every cylinder image is (0, 1), so the
    # origin is never interior and the map is not enveloping at any depth
    with monkeypatch.context() as mp:
        mp.setattr(covering, "ENVELOPING_MAX", 5)
        assert enveloping_time(affine_map(4.0)) is None
    with pytest.raises(NotEnvelopingError):
        positivity_horizon(affine_map(4.0), 6.0, 0.0)
    with pytest.raises(MapFormError):
        positivity_horizon(doubling_map(), 4.0, 0.0)  # expansion not > 2


def count_depths(monkeypatch):
    """Record the depth of each level the cylinder generator yields."""
    from circlemix import covering

    depths = []
    real = covering._depths

    def counted(*args, **kwargs):
        for n, (unit, level) in enumerate(real(*args, **kwargs), 1):
            depths.append(n)
            yield unit, level

    monkeypatch.setattr(covering, "_depths", counted)
    return depths


def test_enveloping_time_stops_when_image_arcs_repeat(monkeypatch):
    from circlemix.maps import affine_map

    depths = count_depths(monkeypatch)
    for g in (affine_map(4.0), doubling_map()):
        depths.clear()
        assert enveloping_time(g) is None  # ENVELOPING_MAX = 16
        assert depths == [1, 2]
    # maps that do envelope keep their N
    for g, N in ((slope3_two_branch(), 1), (two_slope_wrap_map(), 1),
                 (slope25_map(), 3), (affine_map(3.0), 2),
                 (affine_map(2.5), 3)):
        depths.clear()
        assert enveloping_time(g) == N
        assert depths == list(range(1, N + 1))


def test_oversized_depth_refused_before_it_is_built(monkeypatch):
    # slope-3 depths hold 2, 6, 18, 54 and 162 cylinders: the count of
    # depth 5 is predicted from depth 4's arcs and refused
    from circlemix import covering

    depths = count_depths(monkeypatch)
    monkeypatch.setattr(covering, "PARTITION_CAP", 100)
    with pytest.raises(PartitionExplosionError,
                       match="exceeded 100: depth 5 would hold 162"):
        refine_until(slope3_two_branch(), 1e7)
    assert depths == [1, 2, 3, 4]
    depths.clear()
    monkeypatch.setattr(covering, "PARTITION_CAP", 1)
    with pytest.raises(PartitionExplosionError, match="depth 1 would hold 2"):
        cylinder_partition([slope3_two_branch()] * 3, 3)
    assert depths == []


def test_cli_covering_refuses_oversized_partition(tmp_path, monkeypatch,
                                                  capsys):
    from circlemix import covering
    from circlemix.cli import main

    monkeypatch.setattr(covering, "PARTITION_CAP", 100)
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"map": {"form": "slope3-two-branch"},
                               "a_star": 1e7}))
    assert main(["covering", "--config", str(cov)]) == 2
    assert "covering error: cylinder count exceeded 100" in \
        capsys.readouterr().err


def test_positivity_certified_numerically():
    # pushed rough densities respect the floor kappa0 (grid slack 10/G)
    g = slope3_two_branch()
    a_star = 10.0
    rep = positivity_horizon(g, a_star, 0.0)
    G = 2 ** 13
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(20):
        phi = Density.random_bv(G, a_star, rng)
        out = push_along([g] * rep.n0, phi)[-1]
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


# --- the former from-scratch engine in Fraction arithmetic, kept as oracle ---
#
# Each depth is rebuilt by pulling every breakpoint back through all earlier
# maps; itineraries come from iterating each cylinder's midpoint.


def _oracle_all_affine(maps):
    return all(b.is_affine for m in maps for b in m.branches)


def _oracle_lift(branch, x, exact):
    if exact:
        return Fraction(branch.slope) * x + Fraction(branch.offset)
    return float(branch.lift(float(x)))


def _oracle_inv_lift(branch, t, exact):
    if branch.is_affine:
        if exact:
            return (t - Fraction(branch.offset)) / Fraction(branch.slope)
        return (t - branch.offset) / branch.slope
    from circlemix.maps import _solve_lift
    return float(_solve_lift(branch, np.array([float(t)]))[0][0])


def _oracle_preimages(m, y, exact):
    out = []
    for b in m.branches:
        flo = _oracle_lift(b, Fraction(b.lo) if exact else b.lo, exact)
        fhi = _oracle_lift(b, Fraction(b.hi) if exact else b.hi, exact)
        lo_l, hi_l = (flo, fhi) if b.increasing else (fhi, flo)
        k = math.floor(lo_l - y)
        while y + k <= hi_l:
            t = y + k
            if lo_l <= t <= hi_l:
                x = _oracle_inv_lift(b, t, exact)
                if 0 <= x < 1:
                    out.append(x)
                elif x == 1:
                    out.append(x - x)
            k += 1
    return out


def _oracle_branch_index(m, z, exact):
    idx = 0
    for i, b in enumerate(m.branches):
        if z >= (Fraction(b.lo) if exact else b.lo):
            idx = i
        else:
            break
    return idx


def oracle_cylinder_partition(maps, n):
    from circlemix.covering import FLOAT_DEDUPE, Cylinder

    maps = list(maps)[:n]
    exact = _oracle_all_affine(maps)
    pts = set()
    for i in range(1, n + 1):
        ends = [Fraction(b.lo) if exact else b.lo for b in maps[i - 1].branches]
        for m in reversed(maps[: i - 1]):
            ends = [x for e in ends for x in _oracle_preimages(m, e, exact)]
        pts.update(ends)
    if exact:
        cuts = sorted(pts)
    else:
        cuts = []
        for p in sorted(pts):
            if not cuts or p - cuts[-1] > FLOAT_DEDUPE:
                cuts.append(p)
        if cuts and 1.0 - cuts[-1] <= FLOAT_DEDUPE:
            cuts.pop()
    one = Fraction(1) if exact else 1.0
    cylinders = []
    for q in range(len(cuts)):
        lo = cuts[q]
        hi = cuts[q + 1] if q + 1 < len(cuts) else one
        z = (lo + hi) / 2
        itin = []
        for m in maps:
            bi = _oracle_branch_index(m, z, exact)
            itin.append(bi)
            z = _oracle_lift(m.branches[bi], z, exact)
            z -= math.floor(z)
        cylinders.append(Cylinder(lo, hi, tuple(itin)))
    return cylinders


def _oracle_image_arc(maps, cyl, exact):
    a, b = cyl.lo, cyl.hi
    for step, bi in enumerate(cyl.itinerary):
        branch = maps[step].branches[bi]
        va = _oracle_lift(branch, a, exact)
        vb = _oracle_lift(branch, b, exact)
        a, b = (va, vb) if va <= vb else (vb, va)
        if step < len(cyl.itinerary) - 1:
            k = math.floor(a)
            a, b = a - k, b - k
    return a - math.floor(a), b - a


def _oracle_covers_circle(arcs, margin):
    arcs = list(arcs)
    if not arcs:
        return False
    if any(length > 1 + margin for _, length in arcs):
        return True
    candidates = {0 * arcs[0][0]}
    for s, length in arcs:
        candidates.add(s)
        e = s + length
        candidates.add(e - math.floor(e) if e >= 1 else e)
    for p in candidates:
        for s, length in arcs:
            off = p - s
            off -= math.floor(off)
            if margin < off < length - margin:
                break
        else:
            return False
    return True


def oracle_enveloping_time(g, N_max):
    exact = _oracle_all_affine([g])
    margin = 0 if exact else 1e-9
    for N in range(1, N_max + 1):
        maps = [g] * N
        groups = {}
        for c in oracle_cylinder_partition(maps, N):
            groups.setdefault(c.itinerary[0], set()).add(
                _oracle_image_arc(maps, c, exact))
        if all(_oracle_covers_circle(arcs, margin) for arcs in groups.values()):
            return N
    return None


def oracle_verify_overcover(maps, interval, delta):
    from circlemix.covering import Cylinder

    maps = list(maps)
    exact = _oracle_all_affine(maps)
    alo, ahi = interval
    if exact:
        alo, ahi, delta = Fraction(alo), Fraction(ahi), Fraction(delta)
    lo_d, hi_d = alo + delta, ahi - delta
    arcs = []
    for c in oracle_cylinder_partition(maps, len(maps)):
        plo, phi_ = max(c.lo, lo_d), min(c.hi, hi_d)
        if plo < phi_:
            arcs.append(_oracle_image_arc(
                maps, Cylinder(plo, phi_, c.itinerary), exact))
    return _oracle_covers_circle(arcs, 0 if exact else 1e-9)


def oracle_escape_time(g, J):
    from circlemix.covering import CoveringError

    exact = _oracle_all_affine([g]) and isinstance(J.lo, Fraction)
    elems = [(Fraction(b.lo) if exact else b.lo,
              Fraction(b.hi) if exact else b.hi) for b in g.branches]
    ends = [lo for lo, _ in elems]

    def contains_elem(a, b):
        length = b - a
        if length >= 1:
            return True
        for ilo, ihi in elems:
            off = ilo - a
            off -= math.floor(off)
            if off + (ihi - ilo) <= length:
                return True
        return False

    if contains_elem(J.lo, J.hi):
        return 0, (J.lo, J.hi)
    a, b = J.lo, J.hi
    hist = []
    cap = 64 * max(1, len(J.itinerary))
    for k in range(1, cap + 1):
        branch = g.branches[_oracle_branch_index(g, a, exact)]
        va = _oracle_lift(branch, a, exact)
        vb = _oracle_lift(branch, b, exact)
        lo_l, hi_l = (va, vb) if va <= vb else (vb, va)
        shift = math.floor(lo_l)
        a, b = lo_l - shift, hi_l - shift
        hist.append((branch, shift))
        if contains_elem(a, b):
            wa, wb = a, b
            for br, sh in reversed(hist):
                wa = _oracle_inv_lift(br, wa + sh, exact)
                wb = _oracle_inv_lift(br, wb + sh, exact)
                if wa > wb:
                    wa, wb = wb, wa
            return k, (wa, wb)
        length = b - a
        inside = []
        for p in ends:
            off = p - a
            off -= math.floor(off)
            if 0 < off < length:
                inside.append(off)
        if not inside:
            continue
        if len(inside) != 1:
            raise CoveringError("arc straddles more than one partition point")
        off = inside[0]
        low_piece, high_piece = (a, a + off), (a + off, a + length)
        if off > length - off:
            a, b = low_piece
        elif off < length - off:
            a, b = high_piece
        else:
            first = low_piece[0] - math.floor(low_piece[0])
            second = high_piece[0] - math.floor(high_piece[0])
            a, b = low_piece if first <= second else high_piece
        k0 = math.floor(a)
        a, b = a - k0, b - k0
        if k0:
            hist[-1] = (hist[-1][0], hist[-1][1] + k0)
    raise CoveringError(f"escape loop exceeded {cap} iterations")


def _escape_or_error(g, J):
    from circlemix.covering import CoveringError
    from circlemix.maps import TransferError

    try:
        return escape_time(g, J)
    except (CoveringError, TransferError) as exc:
        return type(exc)


def _oracle_escape_or_error(g, J):
    from circlemix.covering import CoveringError
    from circlemix.maps import TransferError

    try:
        return oracle_escape_time(g, J)
    except (CoveringError, TransferError) as exc:
        return type(exc)


@st.composite
def random_maps(draw, sine=False, slopes=(2.05, 3.5), amp=0.1,
                offsets=st.floats(-1.0, 1.0)):
    """1-3 branches over random cut points, each with a random orientation,
    slope modulus in `slopes` and offset from `offsets` (and, for sine maps,
    amplitude up to `amp`)."""
    from circlemix import BranchSpec, PiecewiseMap

    nb = draw(st.integers(1, 3))
    cuts = sorted(set(draw(st.lists(st.floats(0.05, 0.95), min_size=nb - 1,
                                    max_size=nb - 1))))
    ends = [0.0] + cuts + [1.0]
    branches = []
    for lo, hi in zip(ends, ends[1:]):
        slope = draw(st.floats(*slopes)) * draw(st.sampled_from((1, -1)))
        offset = draw(offsets)
        amp_i = draw(st.floats(-amp, amp)) if sine else 0.0
        branches.append(BranchSpec(lo, hi, slope, offset, amp_i))
    return PiecewiseMap(tuple(branches))


ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                           database=None)


# --- the exact view of map data ----------------------------------------------

def fields_as_fractions(b):
    return tuple(Fraction(v) for v in (b.lo, b.hi, b.slope, b.offset))


@ORACLE_SETTINGS
@given(maps=st.lists(random_maps(), min_size=1, max_size=3))
def test_exact_view_holds_the_fields_own_values(maps):
    from circlemix.covering import _Ints

    for m in maps:
        for b in m.branches:
            assert b.exact == fields_as_fractions(b)
    # the lcm of powers of two is the largest of them
    assert _Ints(maps).Q == max(v.denominator for m in maps
                                for b in m.branches
                                for v in fields_as_fractions(b))


def assert_same_pieces(got, want):
    assert len(got) == len(want)
    for piece, other in zip(got, want):
        for x, y in zip(piece, other):
            assert type(x) is type(y)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            else:
                assert x == y


@pytest.mark.parametrize("branch", [
    {"lo": 0, "hi": 1, "slope": 3},
    {"lo": 0, "hi": 1, "slope": -3, "offset": 1},
    {"lo": 0, "hi": 1, "slope": 5, "offset": 2}])
def test_int_and_float_spellings_give_the_same_results(branch):
    from circlemix.transfer import TransferOperator

    ints = map_from_dict({"branches": [branch]})
    floats = map_from_dict({"branches": [
        {k: float(v) for k, v in branch.items()}]})
    assert ints.branches[0].exact == floats.branches[0].exact
    assert (positivity_horizon(ints, 10.0, 0.01).as_dict()
            == positivity_horizon(floats, 10.0, 0.01).as_dict())
    # at 2^13 a slope-3 run of G targets is applied as phases
    for G in (2 ** 12, 2 ** 13):
        assert_same_pieces(TransferOperator(ints, G)._pieces,
                           TransferOperator(floats, G)._pieces)


def _assert_same_partition(got, want, tol=0.0):
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c.itinerary == w.itinerary
        if tol:
            assert abs(c.lo - w.lo) <= tol and abs(c.hi - w.hi) <= tol
        else:
            assert (c.lo, c.hi) == (w.lo, w.hi)
            assert isinstance(c.lo, Fraction) and isinstance(c.hi, Fraction)


@ORACLE_SETTINGS
@given(g=random_maps(), n=st.integers(1, 6))
def test_partition_and_escape_match_oracle_on_affine_maps(g, n):
    want = oracle_cylinder_partition([g] * n, n)
    got = cylinder_partition([g] * n, n)
    _assert_same_partition(got, want)
    # escape times and witnesses, exactly, on up to 16 of the cylinders
    for J in want[:: max(1, len(want) // 16)]:
        assert _escape_or_error(g, J) == _oracle_escape_or_error(g, J)


@ORACLE_SETTINGS
@given(maps=st.lists(random_maps(), min_size=1, max_size=6),
       lo=st.floats(0.0, 0.9), width=st.floats(0.02, 1.0),
       delta=st.floats(0.0, 0.01))
def test_partition_and_overcover_match_oracle_on_affine_sequences(
        maps, lo, width, delta):
    n = len(maps)
    _assert_same_partition(cylinder_partition(maps, n),
                           oracle_cylinder_partition(maps, n))
    hi = lo + width
    if 2 * delta < hi - lo:
        assert verify_overcover(maps, (lo, hi), delta) == \
            oracle_verify_overcover(maps, (lo, hi), delta)


@ORACLE_SETTINGS
@given(g=random_maps(), N_max=st.integers(1, 4))
def test_enveloping_time_matches_oracle(g, N_max):
    from circlemix import covering

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "ENVELOPING_MAX", N_max)
        assert enveloping_time(g) == oracle_enveloping_time(g, N_max)


@ORACLE_SETTINGS
@given(g=random_maps(sine=True), n=st.integers(1, 3))
def test_partition_and_escape_match_oracle_on_sine_maps(g, n):
    want = oracle_cylinder_partition([g] * n, n)
    _assert_same_partition(cylinder_partition([g] * n, n), want, tol=1e-12)
    for J in want[:: max(1, len(want) // 8)]:
        got, ref = _escape_or_error(g, J), _oracle_escape_or_error(g, J)
        if ref is TransferError:
            # the oracle mapped an arc starting at 1.0 by the last branch,
            # and its witness left that branch's image; ours must escape
            assert witness_escapes(g, *got, tol=1e-9)
        elif isinstance(ref, tuple) and not witness_escapes(g, *ref, tol=1e-9):
            # the same misstep without a failed solve: ours must escape, or
            # exceed the step cap of a map with expansion <= 2
            assert got is CoveringError or witness_escapes(g, *got, tol=1e-9)
        elif isinstance(ref, tuple):
            assert got[0] == ref[0]
            assert got[1] == pytest.approx(ref[1], abs=1e-12)
        else:
            assert got is ref


def test_sine_partition_merges_cuts_closer_than_float_dedupe():
    # with offset 1/2 + 2^-51 the image of [0, 1/2) ends 2^-51 past the
    # breakpoint 2 = 0, so that breakpoint pulls back to within 1e-15 of
    # 1/2; the sliver it would cut off is merged, and 6 and 18 cylinders
    # remain, not 8 and 26
    g = sine_map(3.0, 0.01, 0.5 + 2 ** -51)
    for n, count in ((2, 6), (3, 18)):
        got = cylinder_partition([g] * n, n)
        assert len(got) == count
        _assert_same_partition(got, oracle_cylinder_partition([g] * n, n),
                               tol=1e-12)


# --- an independent check of escape witnesses, by forward iteration ---


def witness_escapes(g, s, witness, tol=0.0):
    """Does the arc `witness` lie in one closed branch arc of g (mod 1)
    under g^k for every k < s, and does g^s(witness) contain a closed
    first-level interval mod 1?  Exact for a Fraction witness of an affine
    map; otherwise in floats, every comparison loosened by tol."""
    exact = isinstance(witness[0], Fraction)
    a, b = witness
    for _ in range(s):
        home = [(br, m) for m in range(math.floor(a - tol),
                                       math.floor(a + tol) + 1)
                for br in g.branches
                if br.lo - tol <= a - m and b - m <= br.hi + tol]
        if not home:
            return False
        br, m = home[0]
        va = _oracle_lift(br, a - m, exact)
        vb = _oracle_lift(br, b - m, exact)
        a, b = min(va, vb), max(va, vb)
    if b - a >= 1 - tol:
        return True
    for br in g.branches:
        lo, hi = (Fraction(br.lo), Fraction(br.hi)) if exact else (br.lo,
                                                                    br.hi)
        m = math.ceil(a - lo - tol)
        if hi + m <= b + tol:
            return True
    return False


def _assert_witnesses_escape(g, n, tol):
    """Every witness escape_time returns for an n-cylinder of g escapes (a
    sliver cylinder may exceed the step cap instead)."""
    for J in cylinder_partition([g] * n, n):
        try:
            s, (wa, wb) = escape_time(g, J)
        except CoveringError:
            continue
        assert J.lo - tol <= wa < wb <= J.hi + tol
        assert witness_escapes(g, s, (wa, wb), tol)


@ORACLE_SETTINGS
@given(g=random_maps(), n=st.integers(1, 5))
def test_escape_witnesses_pass_forward_check_on_affine_maps(g, n):
    _assert_witnesses_escape(g, n, 0)


@ORACLE_SETTINGS
@given(g=random_maps(sine=True, slopes=(2.3, 3.5), amp=1 / 32,
                     offsets=st.one_of(st.floats(-1.0, 1.0),
                                       st.floats(-1.0, -1.0 + 1e-3))),
       n=st.integers(1, 3))
def test_escape_witnesses_pass_forward_check_on_sine_maps(g, n):
    # expansion >= 2.3 - 2 pi / 32 > 2; offsets often near -1
    _assert_witnesses_escape(g, n, 1e-9)


def test_float_pieces_start_below_the_unit(monkeypatch):
    # an escape step of this map gave the image arc (1.0, 1.99...) when
    # va - floor(va) rounded a tiny negative va up to the unit, and _cuts
    # then cut a zero-length sub-arc off its start
    from circlemix import covering

    g = map_from_dict({"branches": [{"lo": 0.0, "hi": 1.0, "slope": 2.5,
                                     "offset": -1.0, "amplitude": 1 / 32}]})
    pieces = []
    split = covering._Floats.split

    def recorded(self, piece, cuts, m, unit):
        out = split(self, piece, cuts, m, unit)
        pieces.extend(out)
        return out

    monkeypatch.setattr(covering._Floats, "split", recorded)
    for n in (1, 2, 3):
        for J in cylinder_partition([g] * n, n):
            s, witness = escape_time(g, J)
            assert witness_escapes(g, s, witness, 1e-9)
    assert pieces and all(0.0 <= p[0] < 1.0 for p in pieces)
    assert all(u < v for p in pieces
               for u, v, _, _ in covering._cuts(p[0], p[1], [0.0], 1.0))


GOLDEN = Path(__file__).with_name("covering_golden.json")


def test_covering_reports_match_recorded_json():
    # as_dict() of the shipped affine forms with expansion > 2 and of the
    # nine curve-slope probe maps, recorded with the Fraction engine
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 16
    for case in cases:
        rep = positivity_horizon(map_from_dict(case["map"]), case["a_star"],
                                 case["eps"])
        assert json.loads(json.dumps(rep.as_dict())) == case["report"], \
            case["label"]


SINE_GOLDEN = Path(__file__).with_name("covering_sine_golden.json")
SINE_CASES = {
    "CI sine map": lambda: map_from_dict({"branches": [
        {"lo": 0.0, "hi": 1.0, "slope": 2.5, "offset": -1.0,
         "amplitude": 0.03125}]}),
    "sine_map(3.0, 0.01)": lambda: sine_map(3.0, 0.01),
    "affine/sine two-branch": lambda: map_from_dict({"branches": [
        {"lo": 0.0, "hi": 0.5, "slope": 3.0},
        {"lo": 0.5, "hi": 1.0, "slope": 3.0, "amplitude": 0.02}]}),
    "sine_amplitude_curve(3.0, 0.0, 0.01)(0.5)":
        lambda: sine_amplitude_curve(3.0, 0.0, 0.01)(0.5),
}


def assert_close(got, want, path="report"):
    """Integers, itineraries and keys exactly; floats to rel 1e-12."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


def test_float_covering_reports_match_recorded_json():
    # as_dict() of maps with sine-perturbed branches, which the float
    # engine serves; floats may differ by an ulp of libm
    cases = json.loads(SINE_GOLDEN.read_text())
    assert [c["label"] for c in cases] == list(SINE_CASES)
    for case in cases:
        rep = positivity_horizon(SINE_CASES[case["label"]](), case["a_star"],
                                 case["eps"])
        assert_close(json.loads(json.dumps(rep.as_dict())), case["report"],
                     case["label"])
