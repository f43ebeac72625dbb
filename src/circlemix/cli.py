"""Batch command-line front-end.

Subcommands: analyze-map, verify-ly, absorb, envelope-check, covering,
drive-curve, couple (alias decay).  envelope-check reruns `certify` on a
finished run directory (ledger.csv, bounds.json and scenario.json) and
prints the run's certificate.  Exit codes: 0 success, 1 certificate
violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import BoundsReport
from .coupling import CouplingLedger, certify
from .covering import CoveringError, positivity_horizon
from .maps import PiecewiseMap, TransferError, analyze, map_from_dict
from .scenarios import (EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, Scenario,
                        ScenarioError, is_int, is_number, load_config,
                        run_absorption, run_scenario, run_variation_suite)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_config(path) -> dict:
    """The JSON object in a config file; OSError or ValueError when the
    file is unreadable, not JSON or not an object."""
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _map(spec) -> PiecewiseMap:
    """map_from_dict, with a malformed spec reported as ValueError."""
    try:
        return map_from_dict(spec)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed map {spec!r}: {exc!r}") from exc


def _check_fields(cfg: dict, required=(), numbers=(), ints=None) -> None:
    """ValueError unless every required key is present, every present key
    of `numbers` is a number and every present key of `ints` an integer at
    least the value `ints` maps it to."""
    for key in required:
        if key not in cfg:
            raise ValueError(f"missing field {key!r}")
    for key in numbers:
        if key in cfg and not is_number(cfg[key]):
            raise ValueError(f"{key} must be a number, got {cfg[key]!r}")
    for key, least in (ints or {}).items():
        if key in cfg and not (is_int(cfg[key]) and cfg[key] >= least):
            raise ValueError(
                f"{key} must be an integer >= {least}, got {cfg[key]!r}")


def _config_error(command: str, exc: Exception) -> int:
    print(f"{command} error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _emit(payload: dict, out_dir, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write(text + "\n")
    print(text)


def _apply_grid_seed(cfg: dict, args) -> dict:
    if args.grid:
        cfg["grid"] = args.grid
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _cmd_analyze_map(args) -> int:
    try:
        cfg = _read_config(args.config)
        m = _map(cfg["map"] if "map" in cfg else cfg)
        an = analyze(m)
    except (OSError, ValueError) as exc:
        return _config_error("analyze-map", exc)
    payload = {
        "lambda_min": an.lambda_min, "M0": an.M0, "A": an.A, "C1": an.C1,
        "omega": list(an.omega),
        "d_omega": an.d_omega if an.omega else None,
        "branches": len(m.branches),
        "continuous": m.is_continuous(),
    }
    _emit(payload, args.out, "analysis.json")
    return EXIT_OK


def _cmd_verify_ly(args) -> int:
    try:
        cfg = _apply_grid_seed(
            _read_config(args.config) if args.config else {}, args)
        _check_fields(cfg, numbers=("var_max", "slack"),
                      ints={"grid": 2, "count": 1, "seed": 0})
        specs = cfg.get("maps")
        if specs is not None:
            if not isinstance(specs, list):
                raise ValueError(f"maps must be a list, got {specs!r}")
            for spec in specs:
                _map(spec)
        report = run_variation_suite(cfg)
    except (OSError, ValueError) as exc:
        return _config_error("verify-ly", exc)
    _emit(report, args.out, "verify_ly.json")
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATE


def _cmd_absorb(args) -> int:
    try:
        cfg = _apply_grid_seed(_read_config(args.config), args)
        _check_fields(cfg, required=("a", "a_star"),
                      numbers=("a", "a_star", "headroom"),
                      ints={"grid": 2, "seeds": 1, "seed": 0})
        fam = cfg.get("family", {})
        if not isinstance(fam, dict):
            raise ValueError(f"family must be an object, got {fam!r}")
        for key, top in (("slopes", math.inf), ("split", 1.0)):
            if key not in fam:
                continue
            pair = fam[key]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(is_number(v) for v in pair)
                    and 0.0 < pair[0] <= pair[1] < top):
                raise ValueError(f"family {key} must be two numbers "
                                 f"0 < lo <= hi < {top:g}, got {pair!r}")
        report = run_absorption(cfg)
    except (OSError, ValueError) as exc:
        return _config_error("absorb", exc)
    _emit(report, args.out, "absorb.json")
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATE


def _cmd_covering(args) -> int:
    try:
        cfg = _read_config(args.config)
        _check_fields(cfg, required=("map", "a_star"),
                      numbers=("a_star", "eps"))
        rep = positivity_horizon(_map(cfg["map"]), cfg["a_star"],
                                 cfg.get("eps", 0.0))
    except (CoveringError, TransferError, OSError, ValueError) as exc:
        # TransferError: a float escape witness left its branch image
        return _config_error("covering", exc)
    _emit(rep.as_dict(), args.out, "covering.json")
    return EXIT_OK


def _cmd_envelope_check(args) -> int:
    """Re-certify a finished run directory: read its ledger back with the
    run's bounds and grid and print what `certify` reports, which for an
    untouched directory is its certificate.json byte for byte."""
    run = args.out
    try:
        bounds = BoundsReport(**_load_json(os.path.join(run, "bounds.json")))
        grid = Scenario.from_dict(
            _load_json(os.path.join(run, "scenario.json"))).grid
        ledger = CouplingLedger.from_csv(os.path.join(run, "ledger.csv"),
                                         bounds, grid)
    except (OSError, ValueError, TypeError) as exc:
        print(f"envelope-check: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rep = certify(ledger)
    _emit(rep.as_dict(), None, "")
    return EXIT_OK if rep.passed else EXIT_CERTIFICATE


def _apply_overrides(sc: Scenario, args) -> Scenario:
    if args.grid:
        sc.grid = args.grid
    if args.seed is not None:
        sc.seed = args.seed
    return sc


def _run_one(payload):
    sc_dict, out_dir = payload
    try:
        sc = Scenario.from_dict(sc_dict)
    except ScenarioError as exc:
        return EXIT_CONFIG, str(exc), sc_dict.get("name", "?")
    res = run_scenario(sc, out_dir)
    return res.exit_code, res.message, sc.name


def _cmd_pipeline(args, required_kind: str | None = None) -> int:
    try:
        scenarios = load_config(args.config)
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    scenarios = [_apply_overrides(sc, args) for sc in scenarios]
    if required_kind:
        for sc in scenarios:
            if sc.kind != required_kind:
                print(f"scenario {sc.name!r} is {sc.kind}, expected "
                      f"{required_kind}", file=sys.stderr)
                return EXIT_CONFIG
    jobs = [(sc.as_dict(), os.path.join(args.out, sc.name))
            for sc in scenarios]
    worst = EXIT_OK
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for code, msg, name in pool.map(_run_one, jobs):
                print(f"{name}: exit {code} ({msg})")
                worst = max(worst, code)
    else:
        for payload in jobs:
            code, msg, name = _run_one(payload)
            print(f"{name}: exit {code} ({msg})")
            worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circlemix",
        description="Density evolution and memory-loss experiments for "
                    "piecewise expanding circle maps")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", required=out_required, help="output directory")
        sp.add_argument("--grid", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("analyze-map", help="analytic bounds of one map")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_analyze_map)

    sp = sub.add_parser("verify-ly", help="empirical variation-inequality suite")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=_cmd_verify_ly)

    sp = sub.add_parser("absorb", help="variation absorption schedule + check")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=_cmd_absorb)

    sp = sub.add_parser("covering", help="positivity-horizon report for a map")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_covering)

    sp = sub.add_parser("envelope-check", help="re-certify a finished run dir")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_envelope_check)

    for name, kind, aliases in (("couple", None, ["decay"]),
                                ("drive-curve", "curve-driven", [])):
        sp = sub.add_parser(name, aliases=aliases)
        common(sp)
        sp.set_defaults(fn=lambda a, k=kind: _cmd_pipeline(a, k))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
