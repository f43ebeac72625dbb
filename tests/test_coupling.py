import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import (CertificateViolation, Density, certify, doubling_map,
                       fit_decay, push, push_sequence, run_coupled, sine_map,
                       slope3_two_branch)
from circlemix.coupling import (ENVELOPE_START, BlockPlan, CertifyReport,
                                CouplingLedger)
from circlemix.scenarios import (plan_piecewise, plan_smooth, read_scenario,
                                 run_scenario)


def slope3_setup(G=4096, n=30):
    sc = dict(name="t", kind="fixed-map", grid=G, n_max=n, seed=1,
              phi={"preset": "sine"}, psi={"preset": "uniform"},
              family={"map": {"form": "slope3-two-branch"}})
    plan = plan_piecewise(read_scenario(sc))
    return plan.report, plan.covering


def smooth_setup(eps_loc=0.1):
    sc = dict(name="t", kind="smooth", grid=4096, n_max=40, seed=1,
              phi={"preset": "sine"}, psi={"preset": "uniform"},
              family={"slope": 2.0, "amp_max": 0.05}, eps_loc=eps_loc)
    return plan_smooth(read_scenario(sc)).report


def test_identical_densities_trivial_ledger():
    rep, _ = slope3_setup()
    phi = Density.sine(4096, 1, 0.5)
    led = run_coupled([slope3_two_branch()] * 12, phi, phi, bounds=rep)
    assert float(np.max(led.distances())) == 0.0
    assert len(led.blocks) >= 1  # matching proceeds vacuously
    rep_cert = certify(led)
    assert rep_cert.passed and rep_cert.max_ratio == 0.0


def test_smooth_doubling_fourier_annihilation():
    rep = smooth_setup()
    G = 4096
    phi = Density.sine(G, 1, 0.5)
    psi = Density.uniform(G)
    led = run_coupled([doubling_map()] * 10, phi, psi, bounds=rep)
    d = led.distances()
    assert d[0] == pytest.approx(1 / math.pi, abs=1e-4)
    assert np.all(d[1:] <= 1e-4)


def test_piecewise_residual_telescopes():
    rep, _ = slope3_setup()
    phi = Density.sine(4096, 1, 0.5)
    psi = Density.uniform(4096)
    led = run_coupled([slope3_two_branch()] * 30, phi, psi, bounds=rep)
    residual = 1.0
    for rec in led.blocks:
        residual *= 1.0 - rec.fraction * rec.kappa_used
        assert rec.residual_after == pytest.approx(residual, abs=1e-9)
    # per-spec identity with the constant-kappa power form
    k = len(led.blocks)
    assert led.blocks[-1].residual_after == pytest.approx(
        (1.0 - rep.kappa) ** k, abs=1e-9)


def test_raw_distances_independent_of_matching():
    # the decomposition is bookkeeping: raw pair evolves identically
    rep, _ = slope3_setup()
    G = 4096
    phi = Density.sine(G, 1, 0.5)
    psi = Density.step(G, [1.3, 0.7])
    maps = [slope3_two_branch()] * 15
    led = run_coupled(maps, phi, psi, bounds=rep)
    seq_phi = [phi] + push_sequence(maps, phi)
    seq_psi = [psi] + push_sequence(maps, psi)
    raw = [a.l1_distance(b) for a, b in zip(seq_phi, seq_psi)]
    assert np.array_equal(led.distances(), np.array(raw))


def test_shared_densities_pushed_once(monkeypatch):
    # until the first subtraction the unmatched pair is the raw pair, and
    # each density is pushed once per step; after it all four are pushed
    from circlemix import coupling

    rep, _ = slope3_setup()
    G = 4096
    phi = Density.sine(G, 1, 0.5)
    psi = Density.step(G, [1.3, 0.7])
    maps = [slope3_two_branch() for _ in range(20)]  # equal, not identical
    pushes = []
    monkeypatch.setattr(coupling, "push",
                        lambda op, d: pushes.append(op) or push(op, d))
    before = []  # pushes made before each step reads its map

    def stepping():
        for f in maps:
            before.append(len(pushes))
            yield f

    led = run_coupled(stepping(), phi, psi, bounds=rep)
    first = led.blocks[0].sub_step
    assert 1 <= first < len(maps)
    per_step = np.diff(before + [len(pushes)]).tolist()
    assert per_step == [2] * first + [4] * (len(maps) - first)
    assert all(op is pushes[0] for op in pushes)  # one operator serves all
    raw_phi = [phi] + push_sequence(maps[:first], phi)
    assert led.steps["variation_phi"][:first] == [
        d.variation() for d in raw_phi[:first]]


def test_ledger_envelope_and_distance_bound():
    rep, _ = slope3_setup()
    G = 4096
    rng = np.random.Generator(np.random.PCG64(3))
    phi = Density.random_bv(G, 4.0, rng)
    psi = Density.uniform(G)
    led = run_coupled([slope3_two_branch()] * 40, phi, psi, bounds=rep)
    l1 = led.steps["l1_distance"]
    res = led.steps["residual_mass"]
    for rec in led.blocks:
        assert l1[rec.end] <= 2.0 * res[rec.end] + led.slack
    assert certify(led).passed


def test_positivity_failure_aborts_with_block():
    # the step density pushes to min 2.5/3 < 0.9 - slack: floor 0.9 must trip
    rep, _ = slope3_setup()
    phi = Density.sine(4096, 1, 0.5)
    psi = Density.step(4096, [1.5, 0.5])
    bad_plan = lambda n: BlockPlan(kappa=0.9, n0=1, tau=2)  # noqa: E731
    with pytest.raises(CertificateViolation) as err:
        run_coupled([slope3_two_branch()] * 10, phi, psi,
                    bounds=rep, plan=bad_plan)
    assert err.value.block == 1


def test_smooth_cone_and_subtraction_levels():
    rep = smooth_setup()
    G = 4096
    phi = Density.sine(G, 1, 0.5)
    psi = Density.uniform(G)
    rng = np.random.Generator(np.random.PCG64(10))
    maps = [sine_map(2.0, float(a)) for a in rng.uniform(-0.05, 0.05, 40)]
    led = run_coupled(maps, phi, psi, bounds=rep, record_snapshots=True)
    assert led.n_wait >= 0
    for snap in led.snapshots[:4]:
        pre_phi, pre_psi = snap["pre"]
        post_phi, post_psi = snap["post"]
        for d in (pre_phi, pre_psi):
            assert d.ratio_class_L(rep.eps_loc) <= rep.L_star * (1 + 1e-9)
        for d in (post_phi, post_psi):
            assert d.ratio_class_L(rep.eps_loc) <= 2 * rep.L_star * (1 + 1e-9)
    assert certify(led).passed


def test_piecewise_variation_levels_in_blocks():
    # at block starts the unmatched densities are inside the variation cone;
    # right after subtracting they are within a*(1-kappa)^-1
    rep, cov = slope3_setup()
    G = 4096
    rng = np.random.Generator(np.random.PCG64(12))
    phi = Density.random_bv(G, 40.0, rng)
    psi = Density.uniform(G)
    led = run_coupled([slope3_two_branch()] * 40, phi, psi,
                      bounds=rep, record_snapshots=True)
    vphi = led.steps["variation_phi"]
    assert vphi[led.n_wait] <= rep.a_star
    for snap in led.snapshots:
        post_phi, post_psi = snap["post"]
        bound = rep.a_star / (1.0 - rep.kappa)
        # the pre-subtraction density developed positivity for n0 steps and
        # its variation envelope is (2/lam)^n0 a* + A0; subtraction divides
        # by (1 - kappa)
        env = ((2.0 / rep.lambda0) ** (cov.n0) * rep.a_star
               + rep.A0 / (1 - 2.0 / rep.lambda0)) / (1.0 - rep.kappa)
        assert post_phi.variation() <= max(bound, env) * 1.02
        assert post_psi.variation() <= max(bound, env) * 1.02


def test_fit_decay_exact_geometric():
    fit = fit_decay([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert fit.Lambda_emp == pytest.approx(0.5, rel=1e-12)
    assert fit.R2 == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_unavailable():
    assert fit_decay([1e-13] * 10) is None
    assert fit_decay([1.0, 0.5, 0.25]) is None


def test_fit_decay_fourier_cascade():
    # dyadic mode mixture with geometrically shrinking coefficients: each
    # doubling kills the lowest mode and shifts the rest down, so the raw
    # distance halves per step until exact annihilation
    G = 4096
    xs = np.arange(G) / G
    samples = 1.0 + sum(0.4 * 2.0 ** -k * np.sin(2 * np.pi * 2 ** k * xs)
                        for k in range(7))
    phi = Density.from_samples(samples)
    psi = Density.uniform(G)
    seq = push_sequence([doubling_map()] * 10, phi)
    d = [phi.l1_distance(psi)] + [p.l1_distance(psi) for p in seq]
    fit = fit_decay(d)
    assert fit is not None
    assert fit.n_points >= 5
    assert fit.Lambda_emp <= 0.51


def test_affine_smooth_family_floors_distortion():
    # zero second derivative gives zero distortion; the cone machinery then
    # runs on the floored constant and the scheme still certifies
    sc = dict(name="aff", kind="smooth", grid=1024, n_max=30, seed=4,
              phi={"preset": "sine"}, psi={"preset": "uniform"},
              family={"slope": 2.0, "amp_max": 0.0}, eps_loc=0.1)
    rep = plan_smooth(read_scenario(sc)).report
    assert rep.C0 == 1e-6
    assert rep.L_star == 4e-6
    phi = Density.sine(1024, 1, 0.5)
    psi = Density.uniform(1024)
    led = run_coupled([doubling_map()] * 30, phi, psi, bounds=rep)
    assert led.n_wait > 0  # a genuine waiting period before the tiny cone
    assert len(led.blocks) >= 1
    assert certify(led).passed


def test_certify_fails_on_synthetic_violation():
    rep, _ = slope3_setup()
    phi = Density.sine(4096, 1, 0.5)
    psi = Density.uniform(4096)
    led = run_coupled([slope3_two_branch()] * 20, phi, psi, bounds=rep)
    led.steps["l1_distance"][led.blocks[0].end] = 3.0  # impossible distance
    assert not certify(led).passed


def certify_from_blocks(ledger):
    """Oracle: certify by walking the per-block records, with the envelope
    2 * residual_after at each block end inside the run."""
    l1 = ledger.steps["l1_distance"]
    n_steps = len(l1) - 1
    max_ratio = 0.0
    failures = []
    checks = 0
    for rec in ledger.blocks:
        if rec.end > n_steps:
            break
        env = ENVELOPE_START * rec.residual_after
        raw = l1[rec.end]
        checks += 1
        max_ratio = max(max_ratio, raw / env)
        if raw > env + ledger.slack:
            failures.append((rec.end, raw, env))
    return CertifyReport(passed=not failures, max_ratio=max_ratio,
                         checks=checks, failures=tuple(failures))


def oracle_ledgers(tmp_path):
    """(label, ledger, bounds) for a piecewise, a smooth and a curve-plan
    run, each with at least two completed blocks."""
    rep, _ = slope3_setup()
    G = 4096
    rng = np.random.Generator(np.random.PCG64(3))
    phi = Density.random_bv(G, 4.0, rng)
    psi = Density.uniform(G)
    yield "piecewise", run_coupled([slope3_two_branch()] * 40, phi, psi,
                                   bounds=rep), rep
    smooth = smooth_setup()
    rng = np.random.Generator(np.random.PCG64(10))
    maps = [sine_map(2.0, float(a)) for a in rng.uniform(-0.05, 0.05, 40)]
    yield "smooth", run_coupled(maps, Density.sine(G, 1, 0.5), psi,
                                bounds=smooth), smooth
    sc = dict(name="curve", kind="curve-driven", grid=1024, n_max="auto",
              seed=5, phi={"preset": "sine"}, psi={"preset": "uniform"},
              curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                     "interval": [0, 1]}, mesh="auto", probes=9)
    res = run_scenario(sc, tmp_path / "curve")
    assert res.exit_code == 0, res.message
    yield "curve-plan", res.ledger, res.bounds


def test_certify_matches_block_record_oracle(tmp_path):
    for label, led, _ in oracle_ledgers(tmp_path):
        ends = [r.end for r in led.blocks if r.end < len(led.distances())]
        assert len(ends) >= 2, label
        want = certify_from_blocks(led)
        assert want.checks == len(ends), label
        assert certify(led) == want, label
        # a violation at the last completed block end is seen by both
        led.steps["l1_distance"][ends[-1]] = 3.0
        want = certify_from_blocks(led)
        assert want.failures[-1][0] == ends[-1], label
        assert certify(led) == want, label


def test_ledger_csv_round_trip(tmp_path):
    for label, led, _ in oracle_ledgers(tmp_path):
        path = tmp_path / f"{label}.csv"
        led.to_csv(path)
        back = CouplingLedger.from_csv(path, led.slack)
        assert back.steps == led.steps, label
        assert (back.slack, back.n_wait) == (led.slack, led.n_wait), label
        assert certify(back) == certify(led), label
    text = path.read_text().splitlines()

    def with_last(col, value):
        row = text[-1].split(",")
        row[CouplingLedger.COLUMNS.index(col)] = value
        return text[:-1] + [",".join(row)]

    for bad, match in ((["n,l1_distance"] + text[1:], "header"),
                       (text + ["1,2,3"], "fields"),
                       (with_last("l1_distance", "nan"), "bad l1_distance"),
                       (with_last("envelope_value", "0"), "bad envelope"),
                       (with_last("block_index", "1.5"), "invalid literal"),
                       (text[:1], "rows"),  # the header alone
                       (text[:2] + text[3:], "rows")):  # step 1 deleted
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=match):
            CouplingLedger.from_csv(path, led.slack)


@functools.cache
def schedule_reports():
    """A piecewise and a smooth report whose constants the schedule test
    replaces, with the maps each runs on."""
    return {"piecewise": (slope3_setup(G=1024)[0], slope3_two_branch()),
            "smooth": (smooth_setup(), doubling_map())}


block_plans = st.builds(BlockPlan, kappa=st.floats(1e-6, 0.01),
                        n0=st.integers(0, 4), tau=st.integers(1, 5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mode=st.sampled_from(["piecewise", "smooth"]),
       plans=st.lists(block_plans, min_size=1, max_size=4),
       constant=st.booleans(), n_maps=st.integers(0, 40))
def test_block_schedule(mode, plans, constant, n_maps):
    # block k starting at step s runs on plan(s): it subtracts at s + n0
    # and ends at s + n0 + tau, the start of block k + 1
    rep, f = schedule_reports()[mode]
    if constant:
        p = plans[0] if mode == "piecewise" else replace(plans[0], n0=0)
        rep = replace(rep, kappa=p.kappa, tau=p.tau, block=p.length)
        plan, expect = None, (lambda s: p)
    else:
        plan = expect = (lambda s: plans[s % len(plans)])
    G = 1024
    led = run_coupled([f] * n_maps, Density.sine(G, 1, 0.5),
                      Density.step(G, [1.3, 0.7]), bounds=rep, plan=plan)
    steps = led.steps
    assert steps["n"] == list(range(n_maps + 1))

    schedule = []  # (index, start, plan) of every block the run reaches
    s = led.n_wait
    while s <= n_maps:
        schedule.append((len(schedule) + 1, s, expect(s)))
        s += schedule[-1][2].length
    for n in range(led.n_wait):
        assert (steps["block_index"][n], steps["kappa_used"][n]) == (-1, 0.0)
    for k, start, p in schedule:
        for n in range(start, min(start + p.length, n_maps + 1)):
            assert steps["block_index"][n] == k
            assert steps["kappa_used"][n] == p.kappa
    assert [(r.index, r.start, r.sub_step, r.end, r.kappa_used)
            for r in led.blocks] == [
        (k, s, s + p.n0, s + p.length, p.kappa) for k, s, p in schedule
        if s + p.n0 <= n_maps]
    for prev, rec in zip(led.blocks, led.blocks[1:]):
        assert rec.start == prev.end

    residual = 1.0
    for rec in led.blocks:
        assert rec.fraction == rep.fraction
        residual *= 1.0 - rec.fraction * rec.kappa_used
        assert rec.residual_after == residual
        assert steps["residual_mass"][rec.sub_step] == residual
    ended = [rec for rec in led.blocks if rec.end <= n_maps]
    for rec in ended:
        assert steps["envelope_value"][rec.end] == 2.0 * rec.residual_after
    assert certify(led).checks == len(ended)
