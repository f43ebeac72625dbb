"""Batch command-line front-end.

Subcommands: analyze-map, verify-ly, absorb, envelope-check, covering,
couple.  envelope-check reruns `certify` on a finished run
directory (ledger.csv, bounds.json and scenario.json) and prints the run's
certificate.  Exit codes: 0 success, 1 certificate violation, 2 a refused
config or hypothesis.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .bounds import BoundsReport
from .config import read, write_json
from .coupling import CouplingLedger, certify
from .covering import CoveringError, positivity_horizon
from .maps import MAP, TransferError, analyze, map_from_dict
from .scenarios import (EXIT_CERTIFICATE, EXIT_CONFIG, EXIT_OK, ScenarioError,
                        load_config, run_absorption, run_scenario,
                        run_variation_suite)


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _apply_grid_seed(cfg: dict, args) -> dict:
    for key in ("grid", "seed"):  # 0 is an override too, refused downstream
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def _analyze_map(cfg: dict) -> dict:
    m = map_from_dict(cfg["map"] if "map" in cfg else cfg)
    an = analyze(m)
    return {
        "lambda_min": an.lambda_min, "M0": an.M0, "A": an.A, "C1": an.C1,
        "omega": list(an.omega),
        "d_omega": an.d_omega if an.omega else None,
        "branches": len(m.branches),
        "continuous": m.is_continuous(),
    }


def _covering(cfg: dict) -> dict:
    cfg = read(cfg, {"map": MAP, "a_star": float, "eps": 0.0})
    return positivity_horizon(map_from_dict(cfg["map"]), cfg["a_star"],
                              cfg["eps"]).as_dict()


# command -> (config -> report, report file, help); verify-ly runs without
# a config, and a report that did not pass exits 1
CALCULATORS = {
    "analyze-map": (_analyze_map, "analysis.json",
                    "analytic bounds of one map"),
    "verify-ly": (run_variation_suite, "verify_ly.json",
                  "empirical variation-inequality suite"),
    "absorb": (run_absorption, "absorb.json",
               "variation absorption schedule + check"),
    "covering": (_covering, "covering.json",
                 "positivity-horizon report for a map"),
}


def _cmd_calculator(args) -> int:
    run, report_file, _ = CALCULATORS[args.command]
    try:
        cfg = _load_json(args.config) if args.config else {}
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        report = run(_apply_grid_seed(cfg, args))
    except (CoveringError, TransferError, OSError, ValueError) as exc:
        # TransferError: a sine branch's preimage solve did not converge
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, report_file), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = "passed" in report and not report["passed"]
    return EXIT_CERTIFICATE if failed else EXIT_OK


def _cmd_envelope_check(args) -> int:
    """Re-certify a finished run directory: read its ledger back with the
    run's bounds and grid and print what `certify` reports, which for an
    untouched directory is its certificate.json byte for byte."""
    run = args.out
    try:
        bounds = BoundsReport(**_load_json(os.path.join(run, "bounds.json")))
        (scenario,) = load_config(os.path.join(run, "scenario.json"))
        ledger = CouplingLedger.from_csv(os.path.join(run, "ledger.csv"),
                                         bounds.grid_slack(scenario["grid"]))
    except (OSError, ValueError, TypeError) as exc:
        print(f"envelope-check: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rep = certify(ledger)
    print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK if rep.passed else EXIT_CERTIFICATE


def _run_one(payload):
    res = run_scenario(*payload)
    return res.exit_code, res.message, payload[0]["name"]


def _cmd_pipeline(args) -> int:
    if args.jobs < 1:
        print(f"--jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        scenarios = load_config(args.config)
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # run_scenario refuses an override its read stage does not pass
    overrides = _apply_grid_seed({}, args)
    jobs = [({**spec, **overrides}, os.path.join(args.out, spec["name"]))
            for spec in scenarios]
    worst = EXIT_OK
    # one worker per scenario at most: the pool starts them all at once
    workers = min(args.jobs, len(jobs))
    with (ProcessPoolExecutor(workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for code, msg, name in (pool.map if pool else map)(_run_one, jobs):
            print(f"{name}: exit {code} ({msg})")
            worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circlemix",
        description="Density evolution and memory-loss experiments for "
                    "piecewise expanding circle maps")
    sub = p.add_subparsers(dest="command", required=True)

    grid_seed = argparse.ArgumentParser(add_help=False)
    grid_seed.add_argument("--grid", type=int, default=None)
    grid_seed.add_argument("--seed", type=int, default=None)

    for name, (_, _, help_text) in CALCULATORS.items():
        sp = sub.add_parser(name, help=help_text, parents=[grid_seed] if name
                            in ("verify-ly", "absorb") else [])
        sp.add_argument("--config", required=name != "verify-ly")
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=_cmd_calculator, grid=None, seed=None)

    sp = sub.add_parser("envelope-check", help="re-certify a finished run dir")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_envelope_check)

    sp = sub.add_parser("couple", parents=[grid_seed])
    sp.add_argument("--config", required=True, help="JSON config path")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=_cmd_pipeline)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
