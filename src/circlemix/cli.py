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
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import BoundsReport
from .coupling import CouplingLedger, certify
from .covering import CoveringError, positivity_horizon
from .maps import analyze, map_from_dict
from .scenarios import (EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, Scenario,
                        ScenarioError, is_number, load_config,
                        run_absorption, run_scenario, run_variation_suite)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, out_dir, name: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_analyze_map(args) -> int:
    cfg = _load_json(args.config)
    m = map_from_dict(cfg["map"] if "map" in cfg else cfg)
    an = analyze(m)
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
    cfg = _load_json(args.config) if args.config else {}
    if args.grid:
        cfg["grid"] = args.grid
    if args.seed is not None:
        cfg["seed"] = args.seed
    report = run_variation_suite(cfg)
    _emit(report, args.out, "verify_ly.json")
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATE


def _cmd_absorb(args) -> int:
    cfg = _load_json(args.config)
    if args.grid:
        cfg["grid"] = args.grid
    if args.seed is not None:
        cfg["seed"] = args.seed
    report = run_absorption(cfg)
    _emit(report, args.out, "absorb.json")
    return EXIT_OK if report["passed"] else EXIT_CERTIFICATE


def _cmd_covering(args) -> int:
    try:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        for key in ("map", "a_star"):
            if key not in cfg:
                raise ValueError(f"missing field {key!r}")
        a_star, eps = cfg["a_star"], cfg.get("eps", 0.0)
        for key, value in (("a_star", a_star), ("eps", eps)):
            if not is_number(value):
                raise ValueError(f"{key} must be a number, got {value!r}")
        try:
            g = map_from_dict(cfg["map"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed map {cfg['map']!r}: {exc!r}") from exc
        rep = positivity_horizon(g, a_star, eps)
    except (CoveringError, OSError, ValueError) as exc:
        print(f"covering error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
