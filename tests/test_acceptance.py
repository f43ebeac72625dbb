"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The frozen constants in criterion 4 follow from the defining rules:
for the slope-3 two-branch map at cone level 10 the depth-3 cylinders have
length 1/18 > 1/20, so the refinement depth is 4, every 4-cylinder escapes
in 3 steps, and the positivity floor is kappa0 = (1/2) * 3^-4 = 1/162.
"""

import json
import math
import time

import numpy as np
import pytest

from circlemix import (Density, TransferOperator, analyze,
                       backend_consistency, certify, doubling_map,
                       neighborhood_distance, push, push_sequence, run_coupled,
                       sine_map, slope3_two_branch, slope25_map,
                       two_slope_wrap_map)
from circlemix.bounds import tau_piecewise
from circlemix.cli import main as cli_main
from circlemix.covering import positivity_horizon
from circlemix.scenarios import (EXIT_CONFIG, EXIT_OK, run_absorption,
                                 run_scenario, two_slope_wrap_family_bounds)


def report(num, ok, detail):
    print(f"AC{num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"AC{num} failed: {detail}"


def test_ac1_transfer_oracles():
    t0 = time.monotonic()
    G = 4096
    out = push(TransferOperator(doubling_map(), G), Density.sine(G, 1, 0.5))
    err_doubling = out.l1_distance(Density.uniform(G))
    step = push(TransferOperator(slope25_map(), G), Density.uniform(G))
    target = Density(np.where(np.arange(G) / G < 0.5, 1.2, 0.8))
    err_step = step.l1_distance(target)
    elapsed = time.monotonic() - t0
    ok = err_doubling <= 1e-4 and err_step <= 4.0 / G and elapsed < 1.0
    report(1, ok, f"doubling err {err_doubling:.2e} <= 1e-4, "
                  f"step err {err_step:.2e} <= {4.0 / G:.2e}, "
                  f"{elapsed:.2f}s < 1s")


def test_ac2_variation_inequality_suite():
    G = 2 ** 14
    maps = [doubling_map(), slope25_map(), slope3_two_branch(),
            two_slope_wrap_map()]
    analyses = [analyze(m) for m in maps]
    ops = [TransferOperator(m, G) for m in maps]
    violations = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        phi = Density.random_bv(G, 50.0, rng)
        v0 = phi.variation()
        for op, an in zip(ops, analyses):
            bound = 2.0 / an.lambda_min * v0 + an.A + 0.02 * (1.0 + v0)
            if push(op, phi).variation() > bound:
                violations += 1
    report(2, violations == 0,
           f"{violations} violations over 100 densities x 4 maps at G=2^14")


def test_ac3_absorption_schedule():
    fam = two_slope_wrap_family_bounds()
    ok_consts = fam.lambda0 == 2.5 and fam.A0 == pytest.approx(4.0)
    tau = tau_piecewise(200.0, 25.0, fam.lambda0, fam.A0)
    rep = run_absorption({"a": 200.0, "a_star": 25.0, "grid": 2 ** 13,
                          "seeds": 20, "seed": 0, "headroom": 0.05})
    ok = (ok_consts and tau == 17 and rep["tau"] == 17 and rep["passed"]
          and rep["worst_final_variation"] <= 25.0 * 1.05)
    report(3, ok, f"lambda0={fam.lambda0}, A0={fam.A0}, tau={tau} (=17), "
                  f"worst final variation {rep['worst_final_variation']:.3f} "
                  f"<= 26.25 over 20 seeds")


def test_ac4_positivity_horizon():
    g = slope3_two_branch()
    a_star = 10.0
    eps = 0.01
    cov = positivity_horizon(g, a_star, eps)
    # depth 4 is forced: 1/18 is not below 1/(2*10), 1/54 is
    ok_struct = (cov.N, cov.n1, cov.s0, cov.n0) == (1, 4, 3, 4)
    ok_kappa = (cov.kappa0 == pytest.approx(0.5 * 3.0 ** -4)
                and cov.kappa_eps == pytest.approx(0.5 * 3.01 ** -4))
    G = 2 ** 13
    floor0 = cov.kappa0 * (1.0 - 10.0 / G)
    floor_eps = cov.kappa_eps * (1.0 - 10.0 / G)
    # extremal cone member: all mass on one arc, zero elsewhere, variation 10
    spike = Density.from_samples(np.where(np.arange(G) / G < 0.2, 5.0, 0.0))
    spike_min = push_sequence([g] * cov.n0, spike)[-1].min_value()
    worst_single = worst_seq = spike_min
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        phi = Density.random_bv(G, a_star, rng)
        single = push_sequence([g] * cov.n0, phi)[-1]
        worst_single = min(worst_single, single.min_value())
        maps = []
        while len(maps) < cov.n0:
            amp = float(rng.uniform(-2.1e-4, 2.1e-4))
            cand = sine_map(3.0, amp)
            if neighborhood_distance(cand, g) <= eps:
                maps.append(cand)
        seq = push_sequence(maps, phi)[-1]
        worst_seq = min(worst_seq, seq.min_value())
    ok = (ok_struct and ok_kappa and worst_single >= floor0
          and worst_seq >= floor_eps)
    report(4, ok, f"N=1 n1=4 s0=3 n0=4, kappa0=1/162; "
                  f"min single {worst_single:.5f} >= {floor0:.5f}, "
                  f"min sequence {worst_seq:.5f} >= {floor_eps:.5f}")


def test_ac5_neighborhood_decay(tmp_path):
    t0 = time.monotonic()
    sc = dict(name="thB", kind="neighborhood", grid=2 ** 13, n_max=40,
              seed=101,
              phi={"preset": "sine-step", "k": 1, "amplitude": 0.5,
                   "step_amp": 0.3, "pieces": 8},
              psi={"preset": "uniform"},
              family={"base": {"form": "slope3-two-branch"},
                      "slope": 3.0, "amp_max": 0.003,
                      "slope_jitter": 0.002},
              eps=0.01)
    res = run_scenario(sc, tmp_path / "thB")
    fit = res.fit
    elapsed = time.monotonic() - t0
    ok = (res.exit_code == EXIT_OK and fit is not None and fit.R2 >= 0.98
          and fit.Lambda_emp < 1.0 and res.certificate.passed
          and elapsed < 30.0)
    report(5, ok, f"R2={fit.R2:.4f} >= 0.98, Lambda={fit.Lambda_emp:.4f} < 1, "
                  f"envelope certified ({res.certificate.checks} blocks), "
                  f"{elapsed:.1f}s < 30s")


def test_ac6_curve_drive(tmp_path):
    curve_cfg = {"family": "slope", "s0": 2.5, "s1": 3.5, "interval": [0, 1]}
    sc = dict(name="thC", kind="curve-driven", grid=2 ** 12, n_max="auto",
              seed=5, phi={"preset": "sine"}, psi={"preset": "uniform"},
              curve=dict(curve_cfg), mesh="auto", probes=9)
    res = run_scenario(sc, tmp_path / "thC")
    delta0 = res.bounds.delta0
    final = res.ledger.distances()[-1]
    with open(res.artifacts["scenario"]) as fh:
        n_used = json.load(fh)["n_max"]
    ok_run = (res.exit_code == EXIT_OK and res.certificate.passed
              and final <= 1e-6 and n_used == min(math.ceil(1.0 / delta0), 10 ** 4))
    # doubling the mesh without the override flag must exit with code 2
    cfg = {"schema": 1, "name": "thC2", "kind": "curve-driven",
           "grid": 2 ** 12, "n_max": "auto", "seed": 5,
           "phi": {"preset": "sine"}, "psi": {"preset": "uniform"},
           "curve": dict(curve_cfg), "mesh": 2.0 * delta0, "probes": 9}
    cfg_path = tmp_path / "thC2.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["couple", "--config", str(cfg_path),
                     "--out", str(tmp_path / "thC2")])
    ok = ok_run and code == EXIT_CONFIG
    report(6, ok, f"delta0={delta0:.3e}, {n_used} steps, final distance "
                  f"{final:.2e} <= 1e-6, 2*delta0 exits {code} (=2)")


def test_ac7_smooth_matching(tmp_path):
    from circlemix.scenarios import plan_smooth, read_scenario

    sc = dict(name="thA", kind="smooth", grid=2 ** 12, n_max=1, seed=33,
              phi={"preset": "sine"}, psi={"preset": "uniform"},
              family={"slope": 2.0, "amp_max": 0.05}, eps_loc=0.1)
    rep = plan_smooth(read_scenario(sc)).report
    lam0 = 2.0 - 0.1 * math.pi
    C1 = 4 * math.pi ** 2 * 0.05 / lam0
    ok_consts = (rep.lambda0 == pytest.approx(lam0, abs=1e-12)
                 and rep.L_star == pytest.approx(4 * C1 / (lam0 - 1), rel=1e-9))
    n_max = 30 * rep.block + 20
    rng = np.random.Generator(np.random.PCG64(sc["seed"]))
    phi = Density.sine(sc["grid"], 1, 0.5)
    psi = Density.uniform(sc["grid"])
    maps = [sine_map(2.0, float(a))
            for a in rng.uniform(-0.05, 0.05, n_max)]
    led = run_coupled(maps, phi, psi, bounds=rep, record_snapshots=True)
    blocks_done = sum(1 for b in led.blocks if b.end <= n_max)
    ok_blocks = blocks_done >= 30
    ok_ratio = True
    for snap in led.snapshots[:31]:
        pre_phi, pre_psi = snap["pre"]
        post_phi, post_psi = snap["post"]
        for d in (pre_phi, pre_psi):
            ok_ratio &= d.ratio_class_L(sc["eps_loc"]) <= rep.L_star * (1 + 1e-9)
        for d in (post_phi, post_psi):
            ok_ratio &= d.ratio_class_L(sc["eps_loc"]) <= 2 * rep.L_star * (1 + 1e-9)
    cert = certify(led)
    ok = ok_consts and ok_blocks and ok_ratio and cert.passed
    report(7, ok, f"L*={rep.L_star:.3f}, wait={led.n_wait}, cone level held "
                  f"at {blocks_done} subtractions (<=L* pre, <=2L* post), "
                  f"envelope certified over {cert.checks} blocks")


def test_ac8_backend_equivalence():
    G = 8192
    xs = np.arange(G) / G
    phi = Density.from_samples(1.0 + 0.25 * np.sin(2 * np.pi * xs)
                               + 0.25 * np.cos(4 * np.pi * xs)
                               + 0.1 * np.sin(6 * np.pi * xs + 1.0))
    ok = True
    details = []
    for m, name in ((doubling_map(), "doubling"), (slope25_map(), "s2.5"),
                    (slope3_two_branch(), "s3"),
                    (two_slope_wrap_map(), "wrap")):
        d1 = backend_consistency(m, phi, 512)
        d2 = backend_consistency(m, phi, 1024)
        ok &= d1 <= 4.0 / 512
        if d1 > 1e-12:
            ok &= d2 <= 0.75 * d1
        details.append(f"{name}: {d1:.2e}->{d2:.2e}")
    report(8, ok, "B=512 within 4/B and halving: " + "; ".join(details))


def test_ac9_determinism(tmp_path):
    cfgs = [
        dict(name="det1", kind="fixed-map", grid=1024, n_max=10, seed=42,
             phi={"preset": "random-bv", "a": 8.0},
             psi={"preset": "uniform"},
             family={"map": {"form": "two-slope-wrap"}}),
        dict(name="det2", kind="neighborhood", grid=1024, n_max=8,
             seed=101, eps=0.01,
             phi={"preset": "sine"}, psi={"preset": "uniform"},
             family={"base": {"form": "slope3-two-branch"}, "slope": 3.0,
                     "amp_max": 0.003, "slope_jitter": 0.002}),
    ]
    ok = True
    for sc in cfgs:
        a = run_scenario(dict(sc), tmp_path / (sc["name"] + "_a"))
        b = run_scenario(dict(sc), tmp_path / (sc["name"] + "_b"))
        ok &= a.exit_code == EXIT_OK and b.exit_code == EXIT_OK
        la = open(a.artifacts["ledger"], "rb").read()
        lb = open(b.artifacts["ledger"], "rb").read()
        ok &= la == lb
    report(9, ok, "reruns with identical config+seed give byte-identical CSVs")
