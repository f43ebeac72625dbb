import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlemix import (map_from_dict, neighborhood_distance, sine_map,
                       slope3_two_branch)
from circlemix.cli import main
from circlemix.scenarios import (EXIT_CONFIG, EXIT_OK, PLANS, REDRAW_LIMIT,
                                 RunPlan, ScenarioError,
                                 build_sequence, load_config, read_scenario,
                                 run_scenario)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def base_scenario(**over):
    """A fixed-map scenario, or with a curve in `over` a curve-driven one
    (which carries no family)."""
    body = dict(name="t", kind="fixed-map", grid=1024, n_max=10, seed=3,
                phi={"preset": "sine"}, psi={"preset": "uniform"})
    if "curve" not in over:
        body["family"] = {"map": {"form": "slope3-two-branch"}}
    body.update(over)
    return body


def plan_for(sc):
    cfg = read_scenario(sc)
    return PLANS[cfg["kind"]](cfg)


def test_fixed_sequence():
    sc = base_scenario(n_max=3, family={"map": {"form": "doubling"}})
    # the doubling map has no piecewise constants (lambda0 = 2), and a
    # fixed-map draw reads only the config
    maps = build_sequence(RunPlan(read_scenario(sc), None), rng_for(sc["seed"]))
    assert len(maps) == 3
    assert all(m is maps[0] for m in maps)
    assert maps[0].eval(0.3) == 0.6


def test_curve_sequence_grid():
    sc = base_scenario(kind="curve-driven", n_max=5,
                       curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                              "interval": [0, 1]},
                       mesh=0.25, mesh_override=True)
    maps = build_sequence(plan_for(sc), rng_for(0))
    slopes = [m.branches[0].slope for m in maps]
    assert slopes == pytest.approx([2.75, 3.0, 3.25, 3.5, 3.5])


def test_neighborhood_draws_verified():
    g = slope3_two_branch()
    sc = base_scenario(kind="neighborhood", n_max=15, eps=0.01,
                       family={"base": {"form": "slope3-two-branch"},
                               "slope": 3.0, "amp_max": 0.003,
                               "slope_jitter": 0.002})
    maps = build_sequence(plan_for(sc), rng_for(101))
    assert len(maps) == 15
    for m in maps:
        assert neighborhood_distance(m, g) <= 0.01


def test_sequence_deterministic():
    sc = base_scenario(kind="smooth", n_max=8,
                       family={"slope": 2.0, "amp_max": 0.05})
    a = build_sequence(plan_for(sc), rng_for(42))
    b = build_sequence(plan_for(sc), rng_for(42))
    assert [m.branches[0].amplitude for m in a] == \
           [m.branches[0].amplitude for m in b]


def test_scenario_validation(tmp_path):
    body = {"schema": 1, "name": "x", "kind": "fixed-map", "grid": 64,
            "n_max": 1, "seed": 0, "phi": {}, "psi": {}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(body, schema=2)))
    with pytest.raises(ScenarioError, match="config schema must be 1"):
        load_config(path)
    with pytest.raises(ScenarioError):
        read_scenario(dict(body, kind="bogus"))
    with pytest.raises(ScenarioError):
        read_scenario(dict(body, grid=100))


CONFIG_BODY = {"schema": 1, "name": "typed", "kind": "fixed-map",
               "grid": 512, "n_max": 4, "seed": 1,
               "phi": {"preset": "uniform"}, "psi": {"preset": "uniform"},
               "family": {"map": {"form": "slope3-two-branch"}}}


@pytest.mark.parametrize("key,value", [
    ("grid", "1024"), ("grid", 1024.0), ("grid", True),
    ("n_max", "4"), ("n_max", 4.0), ("n_max", True),
    ("seed", "1"), ("seed", 1.5), ("seed", False), ("seed", None),
    ("eps", "0.01"), ("eps", True), ("eps", float("nan")),
    ("eps_loc", None), ("eps_loc", "0.1"), ("a_star", "ten"),
    ("a_star", [10.0])])
def test_scenario_field_types_exit_2(tmp_path, capsys, key, value):
    cfg = dict(CONFIG_BODY, **{key: value})
    with pytest.raises(ScenarioError, match=key):
        read_scenario(cfg)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["couple", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


SINE_BODIES = {
    "neighborhood": dict(CONFIG_BODY, kind="neighborhood", eps=0.01,
                         family={"base": {"form": "slope3-two-branch"}}),
    "smooth": dict(CONFIG_BODY, kind="smooth", family={}),
}


@pytest.mark.parametrize("kind,key,value", [
    ("neighborhood", "slope", "x"), ("smooth", "slope", "x"),
    ("smooth", "amp_max", "x"), ("neighborhood", "slope_jitter", None),
    ("smooth", "amp_max", float("inf")), ("neighborhood", "amp_max", True)])
def test_sine_family_field_types_exit_2(tmp_path, capsys, kind, key, value):
    body = SINE_BODIES[kind]
    cfg = dict(body, family=dict(body["family"], **{key: value}))
    with pytest.raises(ScenarioError, match=f"family.{key} must be a number"):
        read_scenario(cfg)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["couple", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"family.{key} must be a number" in capsys.readouterr().err


def test_sine_family_must_be_an_object():
    with pytest.raises(ScenarioError, match="family must be an object"):
        read_scenario(dict(SINE_BODIES["smooth"], family=[2.0]))


def test_sine_family_numbers_accepted():
    for body in SINE_BODIES.values():
        family = dict(body["family"], slope=3, amp_max=0.002, slope_jitter=0)
        read_scenario(dict(body, family=family))


def test_scenario_numbers_accepted():
    cfg = read_scenario(dict(CONFIG_BODY, eps=1, a_star=12))
    assert [cfg[k] for k in ("grid", "n_max", "seed", "eps", "a_star")] == \
        [512, 4, 1, 1, 12]
    assert read_scenario(dict(SINE_BODIES["smooth"], eps_loc=1))["eps_loc"] == 1


def test_run_scenario_writes_artifacts(tmp_path):
    sc = base_scenario()
    res = run_scenario(sc, tmp_path / "run")
    assert res.exit_code == EXIT_OK
    for key in ("ledger", "bounds", "covering", "decay", "certificate",
                "scenario"):
        assert os.path.exists(res.artifacts[key])
    with open(res.artifacts["bounds"]) as fh:
        b = json.load(fh)
    for key in ("lambda0", "A0", "M0_family", "C1", "a_star", "tau", "kappa",
                "block", "Lambda"):
        assert key in b


def test_identical_initial_densities_exit_0(tmp_path):
    sc = base_scenario(phi={"preset": "sine"}, psi={"preset": "sine"})
    res = run_scenario(sc, tmp_path / "same")
    assert res.exit_code == EXIT_OK
    assert float(np.max(res.ledger.distances())) == 0.0


def test_run_reruns_byte_identical(tmp_path):
    sc1 = base_scenario(seed=77)
    sc2 = base_scenario(seed=77)
    r1 = run_scenario(sc1, tmp_path / "a")
    r2 = run_scenario(sc2, tmp_path / "b")
    led1 = open(r1.artifacts["ledger"], "rb").read()
    led2 = open(r2.artifacts["ledger"], "rb").read()
    assert led1 == led2


def test_curve_run_leaves_scenario_unchanged(tmp_path):
    curve = {"family": "slope", "s0": 2.5, "s1": 3.5, "interval": [0, 1]}
    sc = base_scenario(kind="curve-driven", grid=512, n_max="auto",
                       curve=dict(curve), mesh="auto", probes=9)
    outputs = []
    for run in ("a", "b"):
        res = run_scenario(sc, tmp_path / run)
        assert res.exit_code == EXIT_OK
        outputs.append([open(res.artifacts[k], "rb").read()
                        for k in ("ledger", "scenario")])
    assert outputs[0] == outputs[1]
    assert sc["n_max"] == "auto" and sc["curve"] == curve
    written = json.loads(outputs[0][1])
    assert written["n_max"] == len(outputs[0][0].splitlines()) - 2
    assert written["curve"]["resolved_mesh"] > 0


def test_kappa_mode_is_an_unknown_field(tmp_path):
    cfg = {"schema": 1, "name": "km", "kind": "fixed-map", "grid": 512,
           "n_max": 4, "seed": 1, "phi": {"preset": "uniform"},
           "psi": {"preset": "uniform"},
           "family": {"map": {"form": "slope3-two-branch"}},
           "kappa_mode": "empirical"}
    with pytest.raises(ScenarioError, match="kappa_mode"):
        read_scenario(cfg)
    cfg_path = tmp_path / "km.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["couple", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_mesh_gate_exit_2(tmp_path):
    sc = base_scenario(kind="curve-driven", n_max="auto",
                       curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                              "interval": [0, 1]},
                       mesh=0.5, probes=9)
    res = run_scenario(sc, tmp_path / "gate")
    assert res.exit_code == EXIT_CONFIG
    sc_ok = base_scenario(kind="curve-driven", n_max="auto",
                          curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                                 "interval": [0, 1]},
                          mesh=0.5, mesh_override=True, probes=9)
    res2 = run_scenario(sc_ok, tmp_path / "gate2")
    assert res2.exit_code == EXIT_OK  # override acknowledges the void guarantee


def test_cli_couple_and_envelope_check(tmp_path):
    cfg = {"schema": 1, "name": "clirun", "kind": "fixed-map", "grid": 1024,
           "n_max": 8, "seed": 9, "phi": {"preset": "sine"},
           "psi": {"preset": "uniform"},
           "family": {"map": {"form": "slope3-two-branch"}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["couple", "--config", str(cfg_path), "--out", str(out)]) == 0
    run_dir = out / "clirun"
    assert (run_dir / "ledger.csv").exists()
    assert main(["envelope-check", "--out", str(run_dir)]) == 0


def test_cli_decay_is_no_longer_a_command(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(base_scenario(), schema=1)))
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'decay'" in capsys.readouterr().err


def test_transfer_error_exits_2_with_message(tmp_path, monkeypatch):
    from circlemix import transfer

    monkeypatch.setattr(transfer, "FACTOR_WINDOW", (2.0, 3.0))
    res = run_scenario(base_scenario(), tmp_path / "mass")
    assert res.exit_code == EXIT_CONFIG
    assert "pushforward mass" in res.message
    assert "outside (2.0, 3.0)" in res.message


def test_cli_grid_seed_overrides(tmp_path):
    cfg = {"schema": 1, "name": "ov", "kind": "fixed-map", "grid": 1024,
           "n_max": 5, "seed": 9, "phi": {"preset": "sine"},
           "psi": {"preset": "uniform"},
           "family": {"map": {"form": "slope3-two-branch"}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o1"
    assert main(["couple", "--config", str(cfg_path), "--out", str(out),
                 "--grid", "512", "--seed", "4"]) == 0
    with open(out / "ov" / "scenario.json") as fh:
        sc = json.load(fh)
    assert sc["grid"] == 512 and sc["seed"] == 4


@pytest.mark.parametrize("command,cfg,message", [
    ("couple", {"schema": 1, "name": "g0", "kind": "fixed-map", "grid": 1024,
                "n_max": 5, "seed": 9, "phi": {"preset": "sine"},
                "psi": {"preset": "uniform"},
                "family": {"map": {"form": "slope3-two-branch"}}},
     "g0: exit 2 (grid must be a power of two)"),
    ("absorb", {"a": 8.0, "a_star": 25.0},
     "absorb error: grid must be an integer >= 2, got 0"),
    ("verify-ly", None, "verify-ly error: grid must be an integer >= 2, got 0"),
])
def test_cli_grid_zero_exits_2(tmp_path, capsys, command, cfg, message):
    # --grid 0 is an override like any other, refused where the config's
    # grid would be, not dropped for the config's
    args = [command, "--grid", "0", "--out", str(tmp_path / "out")]
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def _couple(tmp_path, cfg):
    """Run one scenario config through the CLI; return its run directory."""
    cfg_path = tmp_path / f"{cfg['name']}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["couple", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out / cfg["name"]


def test_envelope_check_exit_1_on_tampered_ledger(tmp_path, capsys):
    cfg = {"schema": 1, "name": "tamper", "kind": "fixed-map", "grid": 1024,
           "n_max": 10, "seed": 9, "phi": {"preset": "sine"},
           "psi": {"preset": "uniform"},
           "family": {"map": {"form": "slope3-two-branch"}}}
    run_dir = _couple(tmp_path, cfg)
    led = run_dir / "ledger.csv"
    lines = led.read_text().splitlines()
    cols = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    blocks = [int(r[cols.index("block_index")]) for r in rows]
    # the last block end: the step where block_index steps up from a block
    end = max(n for n in range(1, len(blocks))
              if 1 <= blocks[n - 1] < blocks[n])
    rows[end][cols.index("l1_distance")] = "5.0"  # impossible raw distance
    led.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert main(["envelope-check", "--out", str(run_dir)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [f[0] for f in report["failures"]] == [end]


ENVELOPE_CHECK_RUNS = [
    {"name": "fixed", "kind": "fixed-map", "grid": 1024, "n_max": 30,
     "phi": {"preset": "random-bv", "a": 8.0},
     "family": {"map": {"form": "two-slope-wrap"}}},
    {"name": "nbhd", "kind": "neighborhood", "grid": 1024, "n_max": 20,
     "eps": 0.01, "phi": {"preset": "sine"},
     "family": {"base": {"form": "slope3-two-branch"}, "slope": 3.0,
                "amp_max": 0.003, "slope_jitter": 0.002}},
    {"name": "curve", "kind": "curve-driven", "grid": 1024, "n_max": "auto",
     "phi": {"preset": "sine"}, "mesh": "auto", "probes": 9,
     "curve": {"family": "slope", "s0": 2.5, "s1": 3.5, "interval": [0, 1]}},
    {"name": "smooth", "kind": "smooth", "grid": 1024, "n_max": 20,
     "phi": {"preset": "sine"}, "eps_loc": 0.1,
     "family": {"slope": 2.0, "amp_max": 0.05}},
]


@pytest.mark.parametrize("body", ENVELOPE_CHECK_RUNS,
                         ids=[b["name"] for b in ENVELOPE_CHECK_RUNS])
def test_envelope_check_reprints_certificate(tmp_path, capsys, body):
    cfg = {"schema": 1, "seed": 7, "psi": {"preset": "uniform"}, **body}
    run_dir = _couple(tmp_path, cfg)
    cert = (run_dir / "certificate.json").read_text()
    assert json.loads(cert)["checks"] >= 2
    capsys.readouterr()
    assert main(["envelope-check", "--out", str(run_dir)]) == EXIT_OK
    assert capsys.readouterr().out == cert


def _drop(name):
    return lambda run_dir: os.remove(run_dir / name)


def _write(name, text):
    return lambda run_dir: (run_dir / name).write_text(text)


def _bounds_without(key):
    def edit(run_dir):
        bounds = json.loads((run_dir / "bounds.json").read_text())
        del bounds[key]
        (run_dir / "bounds.json").write_text(json.dumps(bounds))
    return edit


def _ledger_header(run_dir):
    led = run_dir / "ledger.csv"
    led.write_text(led.read_text().replace("l1_distance", "l1", 1))


def _ledger_header_only(run_dir):
    led = run_dir / "ledger.csv"
    led.write_text(led.read_text().splitlines(keepends=True)[0])


@pytest.mark.parametrize("damage,message", [
    (_drop("scenario.json"), "scenario.json"),
    (_drop("bounds.json"), "bounds.json"),
    (_drop("ledger.csv"), "ledger.csv"),
    (_write("bounds.json", "{not json"), "Expecting"),
    (_write("bounds.json", "[1, 2]"), "mapping"),
    (_bounds_without("a_star"), "a_star"),
    (_write("scenario.json", "[]"), "schema"),
    (_ledger_header, "ledger header"),
    (_ledger_header_only, "ledger rows"),
], ids=["no-scenario", "no-bounds", "no-ledger", "bounds-not-json",
        "bounds-not-object", "bounds-missing-key", "scenario-not-object",
        "ledger-header", "ledger-no-rows"])
def test_envelope_check_exit_2_on_damaged_run_dir(tmp_path, capsys, damage,
                                                  message):
    cfg = {"schema": 1, "name": "dmg", "kind": "fixed-map", "grid": 1024,
           "n_max": 10, "seed": 9, "phi": {"preset": "sine"},
           "psi": {"preset": "uniform"},
           "family": {"map": {"form": "slope3-two-branch"}}}
    run_dir = _couple(tmp_path, cfg)
    damage(run_dir)
    capsys.readouterr()
    assert main(["envelope-check", "--out", str(run_dir)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("envelope-check: ")
    assert message in captured.err


def test_not_enveloping_map_exits_2_quickly(tmp_path):
    # x -> 4x has image (0, 1) on every cylinder at every depth, so the
    # origin is never covered; the repeated arcs end the search at depth 2
    sc = base_scenario(family={"map": {"form": "affine", "slope": 4.0}})
    res = run_scenario(sc, tmp_path / "slope4")
    assert res.exit_code == EXIT_CONFIG
    assert "not enveloping" in res.message


def test_escape_loop_cap_flags_weak_expansion():
    # expansion 1.5: kept pieces shrink faster than the map stretches, so the
    # nested-interval loop cannot terminate and must hit its cap
    from circlemix.covering import Cylinder, escape_time
    from circlemix.maps import affine_map
    from fractions import Fraction

    weak = affine_map(1.5, marks=(0.0, 0.5))
    J = Cylinder(Fraction(1, 100), Fraction(2, 100), (0,))
    with pytest.raises(RuntimeError, match="expansion"):
        escape_time(weak, J)


def test_cli_jobs_parallel(tmp_path):
    cfg = {"schema": 1, "scenarios": [
        {"name": f"j{i}", "kind": "fixed-map", "grid": 512, "n_max": 4,
         "seed": i, "phi": {"preset": "sine"}, "psi": {"preset": "uniform"},
         "family": {"map": {"form": "slope3-two-branch"}}}
        for i in range(3)]}
    p = tmp_path / "jobs.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["couple", "--config", str(p), "--out", str(out),
                 "--jobs", "2"]) == 0
    for i in range(3):
        assert (out / f"j{i}" / "ledger.csv").exists()


def _recording_pool(monkeypatch):
    """Patch in a stand-in for ProcessPoolExecutor that records max_workers
    and runs the jobs in this process, so no worker process is started."""
    from circlemix import cli

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    return sizes


def test_cli_jobs_pool_holds_one_worker_per_scenario(tmp_path, monkeypatch,
                                                     capsys):
    sizes = _recording_pool(monkeypatch)
    p = _two_scenarios(tmp_path)
    assert main(["couple", "--config", str(p), "--out", str(tmp_path / "o"),
                 "--jobs", "1000"]) == EXIT_OK
    assert sizes == [2]
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_exits_2(tmp_path, monkeypatch, capsys, jobs):
    sizes = _recording_pool(monkeypatch)
    p = _two_scenarios(tmp_path)
    assert main(["couple", "--config", str(p), "--out", str(tmp_path / "o"),
                 f"--jobs={jobs}"]) == EXIT_CONFIG
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert sizes == [] and not (tmp_path / "o").exists()


def test_load_config_multi(tmp_path):
    cfg = {"schema": 1, "scenarios": [
        {"name": "a", "kind": "fixed-map", "grid": 512, "n_max": 3, "seed": 1,
         "phi": {"preset": "uniform"}, "psi": {"preset": "uniform"},
         "family": {"map": {"form": "doubling"}}},
        {"name": "b", "kind": "fixed-map", "grid": 512, "n_max": 3, "seed": 2,
         "phi": {"preset": "uniform"}, "psi": {"preset": "uniform"},
         "family": {"map": {"form": "doubling"}}}]}
    p = tmp_path / "multi.json"
    p.write_text(json.dumps(cfg))
    assert [spec["name"] for spec in load_config(p)] == ["a", "b"]


def test_cli_calculator_subcommands(tmp_path, capsys):
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"map": {"form": "slope25"}}))
    assert main(["analyze-map", "--config", str(mp)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == pytest.approx(4.0) and out["lambda_min"] == 2.5

    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"map": {"form": "slope3-two-branch"},
                               "a_star": 10.0, "eps": 0.01}))
    assert main(["covering", "--config", str(cov)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["N"], out["n1"], out["n0"]) == (1, 4, 4)

    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"a": 200.0, "a_star": 25.0, "grid": 2048,
                              "seeds": 3, "seed": 0}))
    assert main(["absorb", "--config", str(ab)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau"] == 17 and out["passed"]

    ly = tmp_path / "ly.json"
    ly.write_text(json.dumps({"count": 3, "grid": 2048, "seed": 0}))
    assert main(["verify-ly", "--config", str(ly)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] and out["violations"] == []


# --- verify-ly: the variation-inequality suite ---------------------------------


def test_variation_suite_report_pinned():
    from circlemix.scenarios import run_variation_suite

    rep = run_variation_suite({"grid": 2 ** 12, "count": 5, "seed": 0})
    assert rep["passed"] and rep["violations"] == []
    assert rep["max_margin"] == pytest.approx(-23.622737933520337, rel=1e-12)


def test_variation_suite_builds_one_operator_per_map(monkeypatch):
    from circlemix.scenarios import run_variation_suite
    from circlemix.transfer import TransferOperator

    built = []
    init = TransferOperator.__init__

    def counting_init(self, m, G):
        built.append(m)
        init(self, m, G)

    monkeypatch.setattr(TransferOperator, "__init__", counting_init)
    rep = run_variation_suite({"grid": 2 ** 10, "count": 3, "seed": 0})
    assert len(built) == rep["maps"] == 4


def test_density_presets_deterministic():
    from circlemix.scenarios import build_density

    a = build_density({"preset": "random-bv", "a": 12.0}, 512, rng_for(5))
    b = build_density({"preset": "random-bv", "a": 12.0}, 512, rng_for(5))
    assert np.array_equal(a.samples, b.samples)
    c = build_density({"preset": "sine-step", "k": 1, "amplitude": 0.5,
                       "step_amp": 0.3, "pieces": 8}, 512, rng_for(5))
    assert c.min_value() >= 0.0
    assert abs(c.integral() - 1.0) < 1e-9


# --- neighborhood draws against the one-at-a-time loop -----------------------


def oracle_neighborhood_draws(plan, rng, distance=neighborhood_distance):
    """build_sequence's neighborhood draw as it was before attempts were
    drawn and screened in blocks: two scalar draws per attempt, each
    candidate built and decided by its full distance."""
    fam, n, eps = plan.cfg["family"], plan.cfg["n_max"], plan.cfg["eps"]
    g = map_from_dict(fam["base"])
    slope, amp_max, jitter = fam["slope"], fam["amp_max"], fam["slope_jitter"]
    maps = []
    for _ in range(n):
        for _attempt in range(REDRAW_LIMIT + 1):
            a = float(rng.uniform(-amp_max, amp_max))
            s = slope + float(rng.uniform(-jitter, jitter))
            cand = sine_map(s, a, 0.0, tuple(fam["marks"]))
            if distance(cand, g) <= eps:
                maps.append(cand)
                break
        else:
            raise ScenarioError(
                f"no admissible draw within {REDRAW_LIMIT} attempts")
    return maps


def test_neighborhood_draws_unchanged_by_sample_cache():
    # the AC5 draw attempts about 600 candidates; blocks of screened draws
    # accept the maps that the loop deciding each one by the per-call
    # distance accepts
    from test_maps import oracle_neighborhood_distance

    sc = base_scenario(kind="neighborhood", n_max=40, eps=0.01, grid=8192,
                       family={"base": {"form": "slope3-two-branch"},
                               "slope": 3.0, "amp_max": 0.003,
                               "slope_jitter": 0.002})
    plan = plan_for(sc)
    assert build_sequence(plan, rng_for(101)) == oracle_neighborhood_draws(
        plan, rng_for(101), oracle_neighborhood_distance)


NBHD_BASES = [{"form": "slope3-two-branch"},
              {"form": "sine", "slope": 3.0, "amplitude": 0.001}]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amp_max=st.floats(0.0, 0.005),
       jitter=st.one_of(st.just(0.0), st.floats(0.0, 0.005)),
       eps=st.floats(0.002, 0.03), base=st.sampled_from(NBHD_BASES),
       marks=st.sampled_from([(0.0, 0.5), (0.0, 0.5), (0.0, 0.501),
                              (0.0, 0.4, 0.8)]),
       n_max=st.integers(1, 10))
def test_neighborhood_draws_match_the_one_at_a_time_loop(
        seed, amp_max, jitter, eps, base, marks, n_max):
    # the same maps, or the same refusal where nothing is admissible (a
    # third mark leaves every candidate incomparable with the base); the
    # base's own marks are listed twice so that most examples draw maps
    cfg = {"kind": "neighborhood", "n_max": n_max, "eps": eps,
           "family": {"base": base, "slope": 3.0, "amp_max": amp_max,
                      "slope_jitter": jitter, "marks": marks}}
    plan = RunPlan(cfg, None)
    try:
        want = oracle_neighborhood_draws(plan, rng_for(seed))
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as got:
            build_sequence(plan, rng_for(seed))
        assert str(got.value) == str(exc)
    else:
        assert build_sequence(plan, rng_for(seed)) == want


@pytest.mark.parametrize("family,message", [
    ({"amp_max": 0.5}, "a corner of the draw box is not an expanding map"),
    ({"slope": 0.0, "slope_jitter": 3.0}, "branches turn opposite ways"),
    ({"marks": [0.1, 0.5]}, "branch domains must tile"),
])
def test_neighborhood_box_with_maps_that_do_not_expand_exits_2(
        tmp_path, family, message):
    # the screen never builds the maps it rejects, so such a box is
    # refused before the draws
    sc = base_scenario(kind="neighborhood", eps=0.01, family={
        "base": {"form": "slope3-two-branch"}, **family})
    res = run_scenario(sc, tmp_path / "run")
    assert res.exit_code == EXIT_CONFIG and message in res.message
    assert not (tmp_path / "run").exists()


# --- typed covering failures and vacuous certificates -------------------------


def _not_enveloping(monkeypatch):
    from circlemix import covering
    monkeypatch.setattr(covering, "enveloping_time", lambda g, N_max=16: None)
    return "not enveloping"


def _partition_explosion(monkeypatch):
    from circlemix import covering
    depths = covering._depths
    monkeypatch.setattr(covering, "_depths",
                        lambda maps, ar, cap=None: depths(maps, ar, cap=1))
    return "count exceeded 1"


def _escape_loop(monkeypatch):
    from circlemix import covering
    escape = covering.escape_time
    monkeypatch.setattr(covering, "escape_time",
                        lambda g, J: escape(g, J, cap_factor=0))
    return "escape loop exceeded 0 iterations"


COVERING_FAILURES = [_not_enveloping, _partition_explosion, _escape_loop]


def test_covering_errors_share_a_base():
    from circlemix.covering import (CoveringError, NotEnvelopingError,
                                    PartitionExplosionError)
    for cls in (NotEnvelopingError, PartitionExplosionError):
        assert issubclass(cls, CoveringError)
    assert issubclass(CoveringError, RuntimeError)


@pytest.mark.parametrize("fail", COVERING_FAILURES)
def test_covering_error_exits_2_with_message(tmp_path, monkeypatch, fail):
    message = fail(monkeypatch)
    res = run_scenario(base_scenario(), tmp_path / "cov")
    assert res.exit_code == EXIT_CONFIG
    assert message in res.message


def _fork_pool(monkeypatch):
    """Run the --jobs pool in forked workers, which inherit the patches."""
    import functools
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from circlemix import cli
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


def _two_scenarios(tmp_path, **over):
    cfg = {"schema": 1, "scenarios": [
        dict({"name": f"s{i}", "kind": "fixed-map", "grid": 512, "n_max": 4,
              "seed": i, "phi": {"preset": "sine"},
              "psi": {"preset": "uniform"},
              "family": {"map": {"form": "slope3-two-branch"}}}, **over)
        for i in range(2)]}
    p = tmp_path / "two.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.mark.parametrize("fail", COVERING_FAILURES)
def test_covering_error_exits_2_through_jobs_pool(tmp_path, monkeypatch,
                                                  capsys, fail):
    message = fail(monkeypatch)
    _fork_pool(monkeypatch)
    p = _two_scenarios(tmp_path)
    assert main(["couple", "--config", str(p), "--out", str(tmp_path / "o"),
                 "--jobs", "2"]) == EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("exit 2" in ln and message in ln for ln in lines)


@pytest.mark.parametrize("cfg,message", [
    ({"map": {"form": "slope3-two-branch"}}, "missing field 'a_star'"),
    ({"a_star": 10.0}, "missing field 'map'"),
    ({"map": {"form": "slope3-two-branch"}, "a_star": "ten"},
     "a_star must be a number"),
    ({"map": {"form": "slope3-two-branch"}, "a_star": True},
     "a_star must be a number"),
    ({"map": {"form": "slope3-two-branch"}, "a_star": 10.0, "eps": "0"},
     "eps must be a number"),
    ({"map": {"form": "affine"}, "a_star": 10.0}, "malformed map"),
    ([1, 2], "must be a JSON object")])
def test_cli_covering_bad_config_exits_2(tmp_path, capsys, cfg, message):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps(cfg))
    assert main(["covering", "--config", str(cov)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("covering error: ")
    assert message in captured.err


def test_cli_covering_sine_map_witnesses_escape(tmp_path, capsys):
    # a float image arc of this sine map starts at 1.0; every witness still
    # stays inside its branch arcs and escapes
    from test_covering import witness_escapes

    spec = {"branches": [{"lo": 0.0, "hi": 1.0, "slope": 2.5,
                          "offset": -1.0, "amplitude": 0.03125}]}
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"map": spec, "a_star": 10.0}))
    assert main(["covering", "--config", str(cov)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    g = map_from_dict(spec)
    assert len(report["s_table"]) == 50
    for row in report["s_table"]:
        assert witness_escapes(g, row["s"], tuple(row["witness"]), 1e-9)


@pytest.mark.parametrize("command,cfg,message", [
    ("analyze-map", {"map": {"form": "affine"}}, "malformed map"),
    ("analyze-map", {"map": {"form": "nope"}}, "unknown map form"),
    ("analyze-map", {"form": "affine", "slope": 1.0}, "expansion"),
    ("analyze-map", [1, 2], "must be a JSON object"),
    ("absorb", {"a": "x", "a_star": 25.0, "grid": 2048}, "a must be a number"),
    ("absorb", {"a_star": 25.0}, "missing field 'a'"),
    ("absorb", {"a": 8.0, "a_star": None}, "a_star must be a number"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "grid": "2048"},
     "grid must be an integer"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "grid": 48}, "power of two"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "seeds": 0},
     "seeds must be an integer >= 1"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "family": {"slopes": [2.5]}},
     "family slopes must be two numbers"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "family": {"split": [0.5, 1.0]}},
     "family split must be two numbers 0 < lo <= hi < 1"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "family": {"slopes": [3.5, 2.5]}},
     "family slopes must be two numbers"),
    ("absorb", {"a": 8.0, "a_star": 25.0, "family": []},
     "family must be an object"),
    ("absorb", "text", "must be a JSON object"),
    ("verify-ly", {"maps": [{"form": "affine"}]}, "malformed map"),
    ("verify-ly", {"maps": {"form": "doubling"}}, "maps must be a list"),
    ("verify-ly", {"count": 2.5}, "count must be an integer"),
    ("verify-ly", {"var_max": None}, "var_max must be a number"),
    ("verify-ly", {"seed": -1}, "seed must be an integer >= 0"),
])
def test_cli_calculators_bad_config_exit_2(tmp_path, capsys, command, cfg,
                                           message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{command} error: ")
    assert message in captured.err


@pytest.mark.parametrize("command", ["analyze-map", "absorb", "verify-ly",
                                     "covering"])
def test_cli_calculators_unreadable_config_exit_2(tmp_path, capsys, command):
    missing = tmp_path / "none.json"
    assert main([command, "--config", str(missing)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"{command} error: ")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main([command, "--config", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"{command} error: ")


def test_cli_covering_subcommand_exits_2(tmp_path, monkeypatch, capsys):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"map": {"form": "doubling"}, "a_star": 4.0}))
    assert main(["covering", "--config", str(cov)]) == EXIT_CONFIG
    assert "expansion > 2" in capsys.readouterr().err
    cov.write_text(json.dumps({"map": {"form": "slope3-two-branch"},
                               "a_star": 10.0}))
    message = _not_enveloping(monkeypatch)
    assert main(["covering", "--config", str(cov)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid,slack", [(2, "100"), (16, "12.5"), (64, "3.125")])
def test_vacuous_certificate_refused(tmp_path, grid, slack):
    # a* = 10 for the wrap map: the slack 200/G reaches the envelope 2
    sc = base_scenario(grid=grid, family={"map": {"form": "two-slope-wrap"}})
    res = run_scenario(sc, tmp_path / "coarse")
    assert res.exit_code == EXIT_CONFIG
    assert f"= {slack} is not below the initial envelope 2" in res.message
    assert not (tmp_path / "coarse" / "ledger.csv").exists()
    sc = base_scenario(grid=128, family={"map": {"form": "two-slope-wrap"}})
    assert run_scenario(sc, tmp_path / "fine").exit_code == EXIT_OK


def test_vacuous_certificate_refused_smooth(tmp_path):
    # L* = 6.83 for slope 2, amplitude 0.05: G = 64 is too coarse, 256 is not
    fam = {"slope": 2.0, "amp_max": 0.05}
    res = run_scenario(base_scenario(kind="smooth", grid=64, family=fam),
                       tmp_path / "s64")
    assert res.exit_code == EXIT_CONFIG and "too coarse" in res.message
    res = run_scenario(base_scenario(kind="smooth", grid=256, family=fam),
                       tmp_path / "s256")
    assert res.exit_code == EXIT_OK


def test_vacuous_certificate_refused_through_jobs_pool(tmp_path, capsys):
    p = _two_scenarios(tmp_path, grid=16,
                       family={"map": {"form": "two-slope-wrap"}})
    assert main(["couple", "--config", str(p), "--out", str(tmp_path / "o"),
                 "--jobs", "2"]) == EXIT_CONFIG
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("exit 2" in ln and "too coarse" in ln for ln in lines)


def test_smooth_grid_cap_is_2_16(tmp_path):
    body = {"schema": 1, "name": "fine", "kind": "smooth", "grid": 2 ** 16,
            "n_max": 3, "seed": 1, "phi": {"preset": "sine"},
            "psi": {"preset": "uniform"},
            "family": {"slope": 2.0, "amp_max": 0.05}}
    res = run_scenario(body, tmp_path / "fine")
    assert res.exit_code == EXIT_OK and res.certificate.passed
    with pytest.raises(ScenarioError, match="2\\^16"):
        read_scenario({**body, "grid": 2 ** 17})


@pytest.mark.parametrize("seed", [7, 17, 18])
def test_neighborhood_redraws_complete(tmp_path, seed):
    # the acceptance neighborhood config; these seeds need more than 100
    # draws for some step
    sc = {"name": "thB", "kind": "neighborhood", "grid": 2 ** 13, "n_max": 40,
          "seed": seed,
          "phi": {"preset": "sine-step", "k": 1, "amplitude": 0.5,
                  "step_amp": 0.3, "pieces": 8},
          "psi": {"preset": "uniform"},
          "family": {"base": {"form": "slope3-two-branch"}, "slope": 3.0,
                     "amp_max": 0.003, "slope_jitter": 0.002},
          "eps": 0.01}
    res = run_scenario(sc, tmp_path / "thB")
    assert res.exit_code == EXIT_OK, res.message


def test_nan_step_level_exits_2(tmp_path):
    sc = base_scenario(phi={"preset": "step", "levels": [float("nan"), 1.0]})
    res = run_scenario(sc, tmp_path / "nan")
    assert res.exit_code == EXIT_CONFIG and "nonnegative" in res.message


# --- refusals at the door ------------------------------------------------------


def jump_scenario(slope, amp_max):
    """The smooth config of a valid-range sweep that exited 1 when its
    slope was not an integer."""
    return {"name": "jump", "kind": "smooth", "grid": 1024, "n_max": 10,
            "seed": 345, "phi": {"preset": "random-bv", "a": 6.0},
            "psi": {"preset": "uniform"},
            "family": {"slope": slope, "amp_max": amp_max}, "eps_loc": 0.1}


@pytest.mark.parametrize("slope,amp_max", [
    (2.652515666426549, 0.0102797180259978), (2.5, 0.01)])
def test_smooth_family_that_jumps_exits_2(tmp_path, slope, amp_max):
    # a non-integer slope makes every sine map jump at 0, so the smooth
    # constants' hypothesis (a continuous circle map) fails
    res = run_scenario(jump_scenario(slope, amp_max), tmp_path / "jump")
    assert res.exit_code == EXIT_CONFIG
    assert "family.slope" in res.message and f"got {slope!r}" in res.message
    assert not (tmp_path / "jump").exists()  # a refused run writes nothing


@pytest.mark.parametrize("slope", [2.0, 3.0])
def test_smooth_family_with_integer_slope_certifies(tmp_path, slope):
    res = run_scenario(jump_scenario(slope, 0.0102797180259978),
                       tmp_path / "ok")
    assert res.exit_code == EXIT_OK and res.certificate.passed


@pytest.mark.parametrize("over,message", [
    ({"n_max": "auto"}, "n_max 'auto' is only for curve scenarios"),
    ({"n_max": 0}, "n_max must lie in [1, 10000]"),
    ({"n_max": -3}, "n_max must lie in [1, 10000]"),
    ({"kind": "smooth", "grid": 2 ** 17, "n_max": 2,
      "family": {"slope": 2.0, "amp_max": 0.05}}, "cap the grid at 2^16"),
], ids=["auto-fixed", "zero", "negative", "smooth-2^17"])
def test_direct_scenario_gets_the_from_dict_checks(tmp_path, over, message):
    # the checks a config file gets from load_config
    sc = base_scenario(**over)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(sc, schema=1)))
    with pytest.raises(ScenarioError) as err:
        load_config(path)
    assert message in str(err.value)
    res = run_scenario(sc, tmp_path / "run")
    assert res.exit_code == EXIT_CONFIG and res.message == str(err.value)


def test_value_error_after_the_draws_propagates(tmp_path, monkeypatch):
    # up to the draws a ValueError is a refused input (exit 2); after them
    # it is a defect of the program, not of the config
    from circlemix import scenarios

    def broken_fit(distances):
        raise ValueError("fit defect")

    monkeypatch.setattr(scenarios, "fit_decay", broken_fit)
    with pytest.raises(ValueError, match="fit defect"):
        run_scenario(base_scenario(), tmp_path / "run")


@pytest.mark.parametrize("over", [
    {},
    {"kind": "neighborhood", "eps": 0.01,
     "family": {"base": {"form": "slope3-two-branch"}}},
], ids=["fixed-map", "neighborhood"])
@pytest.mark.parametrize("a_star", [0, 0.0])
def test_zero_a_star_exits_2(tmp_path, over, a_star):
    # a_star 0 is a given cone level, refused, not a request for the default
    res = run_scenario(base_scenario(a_star=a_star, **over), tmp_path / "run")
    assert res.exit_code == EXIT_CONFIG
    assert "a_star" in res.message
    assert not (tmp_path / "run").exists()
