"""The config reader (`circlemix.config.read`) and the exit codes of
malformed configs."""

import contextlib
import copy
import importlib.util
import io
import json
import math
import tempfile
import time
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circlemix import config, curves, maps, scenarios
from circlemix.cli import main
from circlemix.config import Field, Format, ScenarioError, read
from circlemix.scenarios import (EXIT_CONFIG, EXIT_OK, load_config,
                                 read_scenario, run_scenario)


# --- the reader ----------------------------------------------------------------

TABLE = {"n": 3, "x": 0.5, "flag": False, "pair": (1.0, 2.0), "name": str,
         "opt": Field(float), "mesh": Field(float, also=("auto",)),
         "count": Field(int, 10, least=1), "sub": {"k": 1},
         "items": Field([{"v": float}])}


def test_read_fills_defaults_in_a_copy():
    spec = {"name": "a", "sub": {}, "extra": [1]}
    got = read(spec, TABLE)
    assert got == {"n": 3, "x": 0.5, "flag": False, "pair": (1.0, 2.0),
                   "name": "a", "opt": None, "mesh": None, "count": 10,
                   "sub": {"k": 1}, "items": None, "extra": [1]}
    assert spec == {"name": "a", "sub": {}, "extra": [1]}


def test_read_passes_values_through_unchanged():
    spec = {"name": "a", "n": 7, "x": 2, "pair": [3, 4.5], "opt": 1,
            "mesh": "auto", "count": 1, "items": [{"v": 2}]}
    got = read(spec, TABLE)
    for key, value in spec.items():
        assert got[key] == value and type(got[key]) is type(value)


@pytest.mark.parametrize("key,value,message", [
    ("n", 1.0, "n must be an integer, got 1.0"),
    ("n", True, "n must be an integer, got True"),
    ("x", "1", "x must be a number, got '1'"),
    ("x", math.nan, "x must be a number, got nan"),
    ("x", math.inf, "x must be a number, got inf"),
    ("x", None, "x must be a number, got None"),
    ("flag", "yes", "flag must be true or false, got 'yes'"),
    ("pair", [], "pair must be a list of numbers, got []"),
    ("pair", [1, "2"], "pair must be a list of numbers"),
    ("pair", 5, "pair must be a list of numbers, got 5"),
    ("name", 5, "name must be a string, got 5"),
    ("opt", "x", "opt must be a number or null, got 'x'"),
    ("mesh", "fine", "mesh must be a number or 'auto' or null, got 'fine'"),
    ("count", 0, "count must be an integer >= 1, got 0"),
    ("count", None, "count must be an integer >= 1, got None"),
    ("sub", [], "sub must be an object, got []"),
    ("sub", {"k": "x"}, "sub.k must be an integer, got 'x'"),
    ("items", {"v": 1.0}, "items must be a list, got {'v': 1.0}"),
    ("items", [{"v": 1.0}, {}], "missing field 'items[1].v'"),
])
def test_read_names_the_bad_field(key, value, message):
    with pytest.raises(ScenarioError) as exc:
        read({"name": "a", key: value}, TABLE)
    assert message in str(exc.value)


def test_read_requires_bare_types_and_formats():
    with pytest.raises(ScenarioError, match="missing field 'name'"):
        read({}, TABLE)
    fmt = Format("form", None, "thing form", {"a": {}})
    with pytest.raises(ScenarioError, match="missing field 'outer.f'"):
        read({}, {"outer": {"f": fmt}})
    with pytest.raises(ScenarioError, match="unknown thing form None"):
        read({}, fmt)


def test_format_picks_the_table_and_prefixes_nested_errors():
    fmt = Format("form", "a", "thing form", {"a": {"p": 1}, "b": {"q": int}})
    assert read({}, fmt) == {"form": "a", "p": 1}
    assert read({"form": "b", "q": 2}, fmt) == {"form": "b", "q": 2}
    with pytest.raises(ScenarioError) as exc:
        read({"t": {"form": "b"}}, {"t": fmt})
    assert str(exc.value) == ("malformed thing {'form': 'b'}: "
                              "missing field 't.q'")
    for tag in ("c", ["a"], 3):
        with pytest.raises(ScenarioError, match="unknown thing form"):
            read({"form": tag}, fmt)


def test_unknown_keys_are_ignored():
    spec = {"family": "slope", "s0": 2.5, "s1": 3.5, "resolved_mesh": 0.25}
    assert read(spec, curves.CURVE)["resolved_mesh"] == 0.25


def test_map_spec_with_branches_needs_no_form():
    spec = {"branches": [{"lo": 0.0, "hi": 1.0, "slope": 3}]}
    m = maps.map_from_dict(spec)
    assert m.branches[0].slope == 3 and m.branches[0].offset == 0.0
    assert spec == {"branches": [{"lo": 0.0, "hi": 1.0, "slope": 3}]}


# --- malformed couple configs exit 2 -----------------------------------------

FIXED = {"schema": 1, "name": "bad", "kind": "fixed-map", "grid": 512,
         "n_max": 4, "seed": 1, "phi": {"preset": "sine"},
         "psi": {"preset": "uniform"},
         "family": {"map": {"form": "slope3-two-branch"}}}
NBHD = dict(FIXED, kind="neighborhood", eps=0.01,
            family={"base": {"form": "slope3-two-branch"}})
SMOOTH = dict(FIXED, kind="smooth", family={})
CURVE = dict({k: v for k, v in FIXED.items() if k != "family"},
             kind="curve-driven", n_max="auto",
             curve={"family": "slope", "s0": 2.5, "s1": 3.5})

MALFORMED = [
    (dict(FIXED, phi="sine"), "phi"),
    (dict(FIXED, phi={"preset": "sine", "k": "x"}), "phi.k"),
    (dict(FIXED, phi={"preset": "step", "levels": []}), "phi.levels"),
    (dict(FIXED, phi={"preset": "random-bv"}), "phi.a"),
    (dict(SMOOTH, family={"marks": 5}), "family.marks"),
    (dict(FIXED, family={"map": {"form": "affine"}}), "family.map.slope"),
    (dict(FIXED, family={"map": "two-slope-wrap"}), "family.map"),
    (dict(NBHD, family={"base": {"form": "sine", "slope": 3.0}}),
     "family.base.amplitude"),
    (dict(CURVE, curve={"family": "slope", "s0": 2.5}), "curve.s1"),
    (dict(CURVE, curve={"family": "slope", "s0": "x", "s1": 3.5}),
     "curve.s0"),
    (dict(CURVE, probes="x"), "probes"),
    (dict(FIXED, mesh_override="yes"), "mesh_override"),
    (dict(NBHD, eps=None), "eps"),
    (dict(FIXED, name=5), "name"),
]


def _couple(tmp_path, cfg, *extra):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["couple", "--config", str(path),
                     "--out", str(tmp_path / "out"), *extra])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cfg,field", MALFORMED,
                         ids=[f for _, f in MALFORMED])
def test_malformed_field_exits_2_naming_it(tmp_path, cfg, field):
    with pytest.raises(ScenarioError, match=field.replace(".", r"\.")):
        read_scenario(cfg)
    code, out, err = _couple(tmp_path, cfg)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("config error: ") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body,key,value", [
    (SMOOTH, "a_star", -1), (SMOOTH, "eps", -3), (SMOOTH, "mesh", -1),
    (SMOOTH, "probes", -4), (FIXED, "eps_loc", 0.2),
    (NBHD, "mesh_override", True), (CURVE, "eps_loc", 0.5),
    (CURVE, "family", {"map": {"form": "slope3-two-branch"}}),
    (FIXED, "curve", {"family": "slope", "s0": 2.5, "s1": 3.5}),
    (SMOOTH, "curve", {"family": "slope", "s0": 2.5, "s1": 3.5})])
def test_field_the_kind_does_not_read_exits_2(tmp_path, body, key, value):
    cfg = dict(body, **{key: value})
    message = f"{key} is not read by a {body['kind']} scenario, got {value!r}"
    with pytest.raises(ScenarioError) as exc:
        read_scenario(cfg)
    assert str(exc.value) == message
    code, out, err = _couple(tmp_path, cfg)
    assert code == EXIT_CONFIG and out == ""
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_unread_fields_at_their_defaults_are_accepted():
    defaults = {"eps": None, "a_star": None, "mesh": None, "probes": 9,
                "mesh_override": False}
    assert read_scenario(dict(SMOOTH, **defaults))["probes"] == 9
    assert read_scenario(dict(CURVE, eps_loc=0.1))["eps_loc"] == 0.1


def test_unknown_top_level_key_exits_2_naming_it(tmp_path):
    with pytest.raises(ScenarioError, match="^foo is not a scenario field$"):
        read_scenario(dict(FIXED, foo=2))
    code, out, err = _couple(tmp_path, dict(FIXED, foo=2))
    assert code == EXIT_CONFIG and out == ""
    assert err == "config error: foo is not a scenario field\n"


@pytest.mark.parametrize("curve,message", [
    ({"family": "slope", "s0": 2.5, "s1": 3.5, "interval": [0, 0]},
     "curve.interval must be two finite numbers"),
    ({"family": "slope", "s0": 2.5, "s1": 3.5, "interval": [0.0]},
     "curve.interval must be two finite numbers"),
])
def test_degenerate_curve_interval_exits_2(tmp_path, curve, message):
    code, out, _ = _couple(tmp_path, dict(CURVE, curve=curve))
    assert code == EXIT_CONFIG and message in out


def test_zero_mesh_exits_2(tmp_path):
    code, out, _ = _couple(tmp_path, dict(CURVE, mesh=0))
    assert code == EXIT_CONFIG and "mesh must be positive" in out


def test_batch_with_one_malformed_scenario_runs_nothing(tmp_path):
    cfg = {"schema": 1, "scenarios": [dict(FIXED, name="good"),
                                      dict(FIXED, name="bad", phi="sine")]}
    del cfg["scenarios"][0]["schema"], cfg["scenarios"][1]["schema"]
    code, out, err = _couple(tmp_path, cfg, "--jobs", "2")
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("config error: ") and "phi must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenarios_value,message", [
    (5, "scenarios must be a list"), (["x"], "scenarios[0] must be an object")])
def test_batch_of_non_objects_exits_2(tmp_path, scenarios_value, message):
    code, _, err = _couple(tmp_path, {"schema": 1,
                                      "scenarios": scenarios_value})
    assert code == EXIT_CONFIG and message in err


def test_empty_batch_exits_2(tmp_path):
    code, out, err = _couple(tmp_path, {"schema": 1, "scenarios": []})
    assert (code, out, err) == (EXIT_CONFIG, "",
                                "config error: config holds no scenarios\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_load_config_keeps_a_scenario_schema(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenarios": [dict(FIXED)]}))
    assert [spec["name"] for spec in load_config(path)] == ["bad"]


@pytest.mark.parametrize("key", ["name", "kind", "grid", "n_max", "seed",
                                 "phi", "psi"])
def test_missing_required_field_exits_2(tmp_path, key):
    cfg = {k: v for k, v in FIXED.items() if k != key}
    code, out, err = _couple(tmp_path, cfg)
    assert (code, out, err) == (EXIT_CONFIG, "",
                                f"config error: missing field {key!r}\n")
    spec = {k: v for k, v in cfg.items() if k != "schema"}
    res = run_scenario(spec, tmp_path / "run")
    assert (res.exit_code, res.message) == (EXIT_CONFIG,
                                            f"missing field {key!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


BAD_NAME = ("must be a directory name: not empty, '.' or '..', and no path "
            "separator")


@pytest.mark.parametrize("names,message", [
    (["a", "a"], "scenario name 'a' is used twice"),
    (["a", "b", "a"], "scenario name 'a' is used twice"),
    (["../escaped"], f"scenario name '../escaped' {BAD_NAME}"),
    (["a", "x/y"], f"scenario name 'x/y' {BAD_NAME}"),
    (["x\\y"], f"scenario name 'x\\\\y' {BAD_NAME}"),
    ([""], f"scenario name '' {BAD_NAME}"),
    (["."], f"scenario name '.' {BAD_NAME}"),
    ([".."], f"scenario name '..' {BAD_NAME}"),
], ids=["repeat", "repeat-later", "escape", "separator", "backslash", "empty",
        "dot", "dotdot"])
def test_batch_names_that_collide_or_leave_out_exit_2(tmp_path, names,
                                                      message):
    body = {k: v for k, v in FIXED.items() if k != "schema"}
    cfg = {"schema": 1, "scenarios": [dict(body, name=n) for n in names]}
    code, out, err = _couple(tmp_path, cfg, "--jobs", "2")
    assert (code, out, err) == (EXIT_CONFIG, "", f"config error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_single_scenario_name_outside_out_exits_2(tmp_path):
    code, out, err = _couple(tmp_path, dict(FIXED, name="../escaped"))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: scenario name '../escaped' {BAD_NAME}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# --- run-time reads of directly built scenarios --------------------------------

def _direct(**over):
    body = {k: v for k, v in FIXED.items() if k != "schema"}
    body.update(over)
    return body


@pytest.mark.parametrize("over,field", [
    ({"kind": "smooth", "family": {"marks": 5}}, "family.marks"),
    ({"phi": {"preset": "random-bv"}}, "phi.a"),
    ({"kind": "neighborhood", "family": {"base": {"form": "doubling"}}},
     "eps"),
    ({"mesh_override": "yes"}, "mesh_override"),
    ({"kind": "smooth", "family": {}, "a_star": -1.0}, "a_star"),
])
def test_direct_scenario_is_read_by_run_scenario(tmp_path, over, field):
    res = run_scenario(_direct(**over), tmp_path / "run")
    assert res.exit_code == EXIT_CONFIG and field in res.message
    assert res.artifacts == {}


def test_run_scenario_leaves_the_scenario_dicts_unfilled(tmp_path):
    spec = _direct(kind="smooth", family={"slope": 2.0})
    before = copy.deepcopy(spec)
    assert run_scenario(spec, tmp_path / "run").exit_code == EXIT_OK
    assert spec == before
    written = json.loads((tmp_path / "run" / "scenario.json").read_text())
    assert written["family"] == {"slope": 2.0}


def _count_reads(monkeypatch):
    calls = []
    real = config.read

    def counting(spec, table, path=""):
        calls.append(path)
        return real(spec, table, path)

    for module in (scenarios, maps, curves):
        monkeypatch.setattr(module, "read", counting)
    return calls


# one valid scenario per kind
KINDS = pytest.mark.parametrize("over", [
    {"family": {"map": {"form": "two-slope-wrap"}}},
    {"kind": "neighborhood", "eps": 0.01,
     "family": {"base": {"form": "slope3-two-branch"}, "slope": 3.0,
                "amp_max": 0.003, "slope_jitter": 0.002}},
    {"kind": "smooth", "family": {"slope": 2.0, "amp_max": 0.05}},
    {"kind": "curve-driven", "mesh": "auto", "family": {},
     "curve": {"family": "slope", "s0": 2.5, "s1": 3.5}},
], ids=["fixed-map", "neighborhood", "smooth", "curve-driven"])


@KINDS
def test_reads_per_run_do_not_grow_with_steps(tmp_path, monkeypatch, over):
    calls = _count_reads(monkeypatch)
    counts = []
    for n_max in (3, 12):
        calls.clear()
        res = run_scenario(_direct(n_max=n_max, grid=1024, **over),
                           tmp_path / str(n_max))
        assert res.exit_code == EXIT_OK, res.message
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8


@KINDS
def test_run_reads_the_scenario_table_once(tmp_path, monkeypatch, over):
    # the density specs are read within it; later stages take the filled
    # config
    tables = []
    real = config.read

    def counting(spec, table, path=""):
        tables.append(table)
        return real(spec, table, path)

    monkeypatch.setattr(scenarios, "read", counting)
    res = run_scenario(_direct(grid=1024, **over), tmp_path / "run")
    assert res.exit_code == EXIT_OK, res.message
    assert tables == [scenarios.SCENARIO]


# --- fuzzing the four benchmark workload configs -------------------------------

def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def _small_config(name: str) -> dict:
    """A workload's config at grid <= 2^10 and n_max <= 10."""
    cfg = dict(WORKLOADS._config(name), schema=1, name=name,
               seed=WORKLOADS.REFERENCE_SEEDS[name])
    cfg["grid"] = min(cfg["grid"], 2 ** 10)
    cfg["n_max"] = 10
    return cfg


def _paths(value, prefix=()):
    """The path to every value nested in a config."""
    if prefix:
        yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# replacements of another type; none is a large number
OTHER_TYPES = ["x", "auto", None, True, [], {}, 1, 0.5, [1.0, 2.0],
               {"preset": "sine"}]


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(_small_config(draw(st.sampled_from(
        WORKLOADS.WORKLOADS))))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["drop", "type", "nest", "number"]))
        paths = [p for p in _paths(cfg)
                 if op != "number" or
                 _is_number(reduce(getitem, p, cfg))]
        path = draw(st.sampled_from(paths))
        parent, key = reduce(getitem, path[:-1], cfg), path[-1]
        value = parent[key]
        if op == "drop":
            del parent[key]
        elif op == "type":
            parent[key] = copy.deepcopy(draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(value)])))
        elif op == "nest":
            parent[key] = draw(st.sampled_from([[value], {"value": value}]))
        else:
            parent[key] = draw(st.sampled_from(
                [0, -value, math.nan, math.inf, -math.inf]))
    return cfg


CERTIFICATE_MESSAGES = ("envelope violated", "positivity floor",
                        "no finite cone level")
# seconds; an unmutated workload config runs in well under one
EXAMPLE_BUDGET_S = 20.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_workload_configs_end_with_an_exit_code(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["couple", "--config", str(path),
                         "--out", str(Path(tmp) / "out")])
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert any(m in out.getvalue() for m in CERTIFICATE_MESSAGES)
    assert elapsed < EXAMPLE_BUDGET_S


def test_padding_to_expansion_two_exits_2(tmp_path):
    # eps = 1 pads the slope-3 base map's expansion down to exactly 2, where
    # the default cone level's absorption threshold is infinite
    code, out, _ = _couple(tmp_path, dict(NBHD, eps=1))
    assert code == EXIT_CONFIG and "absorption needs lambda0 > 2" in out
