"""Scenario configs, map-sequence assembly, and the batch pipeline.

A scenario names the composition style (fixed map, random draws inside a
neighborhood, curve driving, or smooth sine perturbations), the initial
densities, grid, horizon, and seed.  Runs are deterministic given the
config: all randomness flows through one seeded PCG64 generator consumed
in a fixed order (phi, psi, then map draws).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bnd
from .config import Field, Format, ScenarioError, is_int, read
from .coupling import (ENVELOPE_START, BlockPlan, CertificateViolation,
                       certify, fit_decay, run_coupled, write_decay_json)
from .covering import CoveringError, CoveringReport, positivity_horizon
from .curves import CURVE, curve_from_dict
from .density import Density
from .maps import (MAP, MARKS, BranchSpec, PiecewiseMap, TransferError,
                   analyze, map_from_dict, neighborhood_distance, sine_map)

SCHEMA_VERSION = 1
REDRAW_LIMIT = 1000
N_MAX_CAP = 10 ** 4

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_CONFIG = 2


DENSITY = Format("preset", "uniform", "density preset", {
    "uniform": {}, "sine": {"k": 1, "amplitude": 0.5},
    "cosine": {"k": 1, "amplitude": 0.4}, "step": {"levels": tuple},
    "random-bv": {"a": float},
    # sine wave plus zero-mean plateau noise drawn from the scenario rng
    "sine-step": {"k": 1, "amplitude": 0.5,
                  "pieces": Field(int, 8, least=1), "step_amp": 0.3}})


@dataclass
class Scenario:
    name: str
    kind: str
    grid: int
    n_max: int
    seed: int
    phi: dict
    psi: dict
    family: dict = field(default_factory=dict)
    curve: dict = field(default_factory=dict)
    eps: float | None = None
    eps_loc: float = 0.1
    a_star: float | None = None
    mesh: float | str | None = None
    mesh_override: bool = False
    probes: int = 9

    @classmethod
    def from_dict(cls, cfg: dict) -> "Scenario":
        if not isinstance(cfg, dict) or cfg.get("schema") != SCHEMA_VERSION:
            raise ScenarioError(f"config schema must be {SCHEMA_VERSION}")
        body = {k: v for k, v in cfg.items() if k != "schema"}
        read(body, SCENARIO)
        try:
            sc = cls(**body)
        except TypeError as exc:
            raise ScenarioError(str(exc)) from exc
        if sc.grid < 2 or (sc.grid & (sc.grid - 1)) != 0:
            raise ScenarioError("grid must be a power of two")
        if sc.kind == "smooth" and sc.grid > 2 ** 16:
            raise ScenarioError("smooth scenarios cap the grid at 2^16 (the "
                                "exact cone-level scan, run when its O(G) "
                                "bracket does not decide tau, is quadratic)")
        if sc.n_max == "auto":
            if sc.kind != "curve-driven":
                raise ScenarioError("n_max 'auto' is only for curve scenarios")
        elif not (is_int(sc.n_max) and 1 <= sc.n_max <= N_MAX_CAP):
            raise ScenarioError(f"n_max must lie in [1, {N_MAX_CAP}]")
        return sc

    def as_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **vars(self)}


# n_max (an integer or "auto") is checked by from_dict alone
_COMMON = {"name": str, "grid": int, "seed": int, "phi": DENSITY,
           "psi": DENSITY, "eps": Field(float), "a_star": Field(float),
           "mesh": Field(float, also=("auto",)), "eps_loc": Scenario.eps_loc,
           "mesh_override": Scenario.mesh_override, "probes": Scenario.probes}
SCENARIO = Format("kind", None, "scenario kind", {
    "fixed-map": {**_COMMON, "family": {"map": MAP}},
    "neighborhood": {**_COMMON, "eps": float, "family": {
        "base": MAP, "slope": 3.0, "amp_max": 0.003, "slope_jitter": 0.0,
        "marks": MARKS}},
    "curve-driven": {**_COMMON, "curve": CURVE},
    "smooth": {**_COMMON, "family": {"slope": 2.0, "amp_max": 0.05,
                                     "marks": MARKS}}})


def build_density(spec: dict, G: int, rng: np.random.Generator) -> Density:
    spec = read(spec, DENSITY, "density")
    preset = spec["preset"]
    if preset == "uniform":
        return Density.uniform(G)
    if preset == "cosine":
        return Density.cosine(G, spec["k"], spec["amplitude"])
    if preset == "step":
        return Density.step(G, spec["levels"])
    if preset == "random-bv":
        return Density.random_bv(G, spec["a"], rng)
    base = Density.sine(G, spec["k"], spec["amplitude"])
    if preset == "sine":
        return base
    pieces = spec["pieces"]
    levels = rng.uniform(-1.0, 1.0, pieces)
    idx = (np.arange(G) * pieces) // G
    noise = levels[idx] - levels.mean()
    samples = np.maximum(base.samples + spec["step_amp"] * noise, 0.0)
    return Density.from_samples(samples)


WRAP_FAMILY = {"slopes": (2.5, 3.5), "split": (0.5, 0.8)}


def _wrap_box(fam) -> tuple:
    """The wrap family's (slopes, split) ranges, each two numbers
    0 < lo <= hi below its top."""
    fam = read({} if fam is None else fam, WRAP_FAMILY, "family")
    for key, top in (("slopes", math.inf), ("split", 1.0)):
        pair = fam[key]
        if not (len(pair) == 2 and 0.0 < pair[0] <= pair[1] < top):
            raise ScenarioError(f"family {key} must be two numbers "
                                f"0 < lo <= hi < {top:g}, got {pair!r}")
    return fam["slopes"], fam["split"]


def draw_two_slope_wrap(fam: dict, rng: np.random.Generator) -> PiecewiseMap:
    """Random two-branch wrap map: split point in fam['split'], slopes in
    fam['slopes'], random second-branch offset.  With the default ranges
    the family has inf-expansion 2.5 and variation coefficient sup 4."""
    (s_lo, s_hi), (p_lo, p_hi) = _wrap_box(fam)
    p = float(rng.uniform(p_lo, p_hi))
    s1 = float(rng.uniform(s_lo, s_hi))
    s2 = float(rng.uniform(s_lo, s_hi))
    c2 = float(rng.uniform(0.0, 1.0))
    return PiecewiseMap((BranchSpec(0.0, p, s1),
                         BranchSpec(p, 1.0, s2, c2)))


def two_slope_wrap_family_bounds(fam: dict | None = None) -> bnd.FamilyBounds:
    """Closed-form uniform bounds over the wrap family's parameter box."""
    (s_lo, s_hi), (p_lo, p_hi) = _wrap_box(fam)
    shortest = min(1.0 - p_hi, p_lo)
    return bnd.FamilyBounds(lambda0=s_lo, A0=2.0 * (1.0 / s_lo) / shortest,
                            M0=s_hi, C1=0.0, sup_d2=0.0)


def build_sequence(scenario: Scenario,
                   rng: np.random.Generator) -> list[PiecewiseMap]:
    """Assemble the map sequence for the scenario (deterministic given the
    generator state)."""
    n = scenario.n_max
    kind = scenario.kind
    if kind == "curve-driven":
        curve = curve_from_dict(scenario.curve)
        delta = scenario.curve.get("resolved_mesh")
        if delta is None:
            raise ScenarioError("curve mesh not resolved; use run_scenario")
        ts = [min(curve.a + (i + 1) * delta, curve.b) for i in range(n)]
        return [curve(t) for t in ts]
    fam = read(scenario.as_dict(), SCENARIO)["family"]
    if kind == "fixed-map":
        return [map_from_dict(fam["map"])] * n
    slope, amp_max, marks = fam["slope"], fam["amp_max"], tuple(fam["marks"])
    if kind == "neighborhood":
        g = map_from_dict(fam["base"])
        eps = scenario.eps
        slope_jitter = fam["slope_jitter"]
        maps = []
        for _ in range(n):
            for attempt in range(REDRAW_LIMIT + 1):
                a = float(rng.uniform(-amp_max, amp_max))
                s = slope + float(rng.uniform(-slope_jitter, slope_jitter))
                cand = sine_map(s, a, 0.0, marks)
                if neighborhood_distance(cand, g) <= eps:
                    maps.append(cand)
                    break
            else:
                raise ScenarioError(
                    f"no admissible draw within {REDRAW_LIMIT} attempts")
        return maps
    draws = rng.uniform(-amp_max, amp_max, n)
    return [sine_map(slope, float(a), 0.0, marks) for a in draws]


def _piecewise_constants(scenario: Scenario, g: PiecewiseMap,
                         eps_pad: float) -> tuple[bnd.BoundsReport, CoveringReport]:
    fam = bnd.family_bounds([g], eps_pad=eps_pad)
    a_star = scenario.a_star or bnd.default_a_star(fam)
    eps = scenario.eps if scenario.eps is not None else 0.0
    cov = positivity_horizon(g, a_star, eps)
    kappa = cov.kappa_eps
    tau = bnd.tau_piecewise(a_star / (1.0 - kappa), a_star, fam.lambda0, fam.A0)
    block = cov.n0 + tau
    report = bnd.BoundsReport(
        mode="piecewise", lambda0=fam.lambda0, A0=fam.A0, M0_family=fam.M0,
        C1=fam.C1, C0=None, L_star=None, a_star=a_star, tau=tau, kappa=kappa,
        block=block, Lambda=bnd.lambda_local(kappa, block), eps=eps,
        fraction=1.0)
    return report, cov


def _smooth_constants(scenario: Scenario) -> bnd.BoundsReport:
    fam_cfg = read(scenario.as_dict(), SCENARIO)["family"]
    amp = fam_cfg["amp_max"]
    extremes = [sine_map(fam_cfg["slope"], a, 0.0, tuple(fam_cfg["marks"]))
                for a in (-amp, 0.0, amp)]
    fam = bnd.family_bounds(extremes)
    C0 = max(bnd.distortion_constant(fam.C1, fam.lambda0), bnd.C0_FLOOR)
    L_star = bnd.cone_parameter(C0)
    kappa = bnd.smooth_positivity_floor(L_star, scenario.eps_loc)
    block = bnd.tau_smooth(2.0 * L_star, fam.lambda0, C0)
    block = max(block, 1)
    return bnd.BoundsReport(
        mode="smooth", lambda0=fam.lambda0, A0=None, M0_family=fam.M0,
        C1=fam.C1, C0=C0, L_star=L_star, a_star=None, tau=block, kappa=kappa,
        block=block, Lambda=bnd.lambda_local(0.5 * kappa, block),
        eps_loc=scenario.eps_loc, fraction=0.5)


@dataclass
class RunResult:
    exit_code: int
    message: str
    artifacts: dict
    ledger: object = None
    fit: object = None
    certificate: object = None
    bounds: object = None
    covering: object = None
    curve_cover: object = None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_curve_plan(scenario: Scenario):
    """Compute the curve cover (refining probes until the half-windows
    cover) and the resolved mesh; raises ScenarioError on violations."""
    curve = curve_from_dict(scenario.curve)
    grid = list(np.linspace(curve.a, curve.b, max(2, scenario.probes)))
    eps_rule = None
    if scenario.eps is not None:
        eps_rule = lambda t: scenario.eps  # noqa: E731
    cover = None
    for _ in range(64):
        cover = bnd.delta0_of_curve(curve, grid, scenario.a_star, eps_rule)
        if cover.covered:
            break
        grid.append(cover.uncovered_at)
        grid = sorted(set(grid))
    if cover is None or not cover.covered:
        raise ScenarioError("curve half-windows failed to cover the interval")
    mesh = scenario.mesh
    mesh = cover.delta0 if mesh in (None, "auto") else float(mesh)
    if not mesh > 0.0:
        raise ScenarioError(f"mesh must be positive, got {mesh}")
    if mesh > cover.delta0 and not scenario.mesh_override:
        raise ScenarioError(
            f"mesh {mesh} exceeds the certified delta0 {cover.delta0}; "
            "set mesh_override to acknowledge the guarantee is void")
    return curve, cover, mesh


def run_scenario(scenario: Scenario, out_dir) -> RunResult:
    """Full pipeline: constants, covering, map sequence, coupled run,
    decay fit, and certification, all written to out_dir.

    Exit codes: 0 success, 1 certificate violation, 2 configuration error.
    """
    os.makedirs(out_dir, exist_ok=True)
    artifacts = {}
    try:
        cfg = read(scenario.as_dict(), SCENARIO)
        rng = np.random.Generator(np.random.PCG64(scenario.seed))
        phi = build_density(scenario.phi, scenario.grid, rng)
        psi = build_density(scenario.psi, scenario.grid, rng)
        covering = None
        curve_cover = None
        plan = None
        if scenario.kind == "smooth":
            report = _smooth_constants(scenario)
        elif scenario.kind == "curve-driven":
            curve, curve_cover, mesh = resolve_curve_plan(scenario)
            n_max = scenario.n_max
            if n_max == "auto":
                n_max = min(math.ceil((curve.b - curve.a) / mesh), N_MAX_CAP)
            # resolve on a copy: the caller's Scenario stays as given
            scenario = replace(scenario, n_max=n_max,
                               curve={**scenario.curve, "resolved_mesh": mesh})
            binding = min(
                (curve_cover.probes[j] for j in curve_cover.selected),
                key=lambda p: p.alpha / (2.0 * p.n_block))
            covering = binding.covering
            fam = curve_cover.family
            block = binding.n_block
            report = bnd.BoundsReport(
                mode="piecewise", lambda0=fam.lambda0, A0=fam.A0,
                M0_family=fam.M0, C1=fam.C1, C0=None, L_star=None,
                a_star=curve_cover.a_star, tau=binding.tau,
                kappa=binding.kappa, block=block,
                Lambda=bnd.lambda_local(binding.kappa, block),
                delta0=curve_cover.delta0, eps=binding.eps, fraction=1.0)
            ts = [min(curve.a + (i + 1) * mesh, curve.b)
                  for i in range(scenario.n_max)]

            def plan(step_index: int) -> BlockPlan:
                t = ts[min(step_index, len(ts) - 1)]
                p = curve_cover.anchor_for(t)
                return BlockPlan(kappa=p.kappa, n0=p.covering.n0, tau=p.tau,
                                 anchor="t=%.6f" % p.t)
        else:
            fixed = scenario.kind == "fixed-map"
            g = map_from_dict(cfg["family"]["map" if fixed else "base"])
            pad = 0.0 if fixed else scenario.eps
            report, covering = _piecewise_constants(scenario, g, pad)

        slack = report.grid_slack(scenario.grid)
        if slack >= ENVELOPE_START:
            raise ScenarioError(
                f"grid {scenario.grid} is too coarse: the grid slack "
                f"20*a_ref/{scenario.grid} = {slack:g} is not below the "
                f"initial envelope {ENVELOPE_START:g}, so the certificate "
                "would be vacuous")

        maps = build_sequence(scenario, rng)
        ledger = run_coupled(maps, phi, psi, report.mode, bounds=report,
                             plan=plan)
        fit = fit_decay(ledger.distances())
        cert = certify(ledger)

        led_path = os.path.join(out_dir, "ledger.csv")
        ledger.to_csv(led_path)
        artifacts["ledger"] = led_path
        bpath = os.path.join(out_dir, "bounds.json")
        report.to_json(bpath)
        artifacts["bounds"] = bpath
        if covering is not None:
            cpath = os.path.join(out_dir, "covering.json")
            covering.to_json(cpath)
            artifacts["covering"] = cpath
        if curve_cover is not None:
            qpath = os.path.join(out_dir, "curve_plan.json")
            _write_json(qpath, curve_cover.as_dict())
            artifacts["curve_plan"] = qpath
        dpath = os.path.join(out_dir, "decay.json")
        write_decay_json(fit, dpath)
        artifacts["decay"] = dpath
        xpath = os.path.join(out_dir, "certificate.json")
        _write_json(xpath, cert.as_dict())
        artifacts["certificate"] = xpath
        spath = os.path.join(out_dir, "scenario.json")
        _write_json(spath, scenario.as_dict())
        artifacts["scenario"] = spath

        if not cert.passed:
            return RunResult(EXIT_CERTIFICATE, "envelope violated", artifacts,
                             ledger, fit, cert, report, covering, curve_cover)
        return RunResult(EXIT_OK, "ok", artifacts, ledger, fit, cert, report,
                         covering, curve_cover)
    except CertificateViolation as exc:
        _write_json(os.path.join(out_dir, "certificate.json"),
                    {"passed": False, "error": str(exc), "block": exc.block})
        return RunResult(EXIT_CERTIFICATE, str(exc), artifacts)
    except (ScenarioError, ValueError, TransferError, CoveringError) as exc:
        return RunResult(EXIT_CONFIG, str(exc), artifacts)


ABSORB = {"a": float, "a_star": float, "grid": Field(int, 2 ** 13, least=2),
          "seeds": Field(int, 20, least=1), "seed": Field(int, 0, least=0),
          "headroom": 0.05, "family": WRAP_FAMILY}


def run_absorption(cfg: dict) -> dict:
    """Absorption suite: the scheduled time tau from the family constants,
    then seeded random-sequence runs checking that the variation has
    entered the cone (with 5% headroom) after tau steps."""
    from .transfer import TransferOperator, push

    cfg = read(cfg, ABSORB)
    fam = two_slope_wrap_family_bounds(cfg["family"])
    a, a_star = cfg["a"], cfg["a_star"]
    tau = bnd.tau_piecewise(a, a_star, fam.lambda0, fam.A0)
    G, seeds, seed0 = cfg["grid"], cfg["seeds"], cfg["seed"]
    results = []
    worst = 0.0
    for s in range(seeds):
        rng = np.random.Generator(np.random.PCG64(seed0 + s))
        phi = Density.random_bv(G, a, rng)
        maps = [draw_two_slope_wrap(cfg["family"], rng) for _ in range(tau)]
        final = phi
        for m in maps:
            final = push(TransferOperator(m, G), final)
        v = final.variation()
        worst = max(worst, v)
        results.append({"seed": seed0 + s, "initial_variation": phi.variation(),
                        "final_variation": v})
    passed = worst <= a_star * (1.0 + cfg["headroom"])
    return {"tau": tau, "lambda0": fam.lambda0, "A0": fam.A0, "a": a,
            "a_star": a_star, "worst_final_variation": worst,
            "passed": passed, "runs": results}


# verify-ly's maps when its config gives none
LY_MAPS = ({"form": "doubling"}, {"form": "slope25"},
           {"form": "slope3-two-branch"}, {"form": "two-slope-wrap"})
VERIFY_LY = {"maps": Field([MAP]), "grid": Field(int, 2 ** 14, least=2),
             "count": Field(int, 100, least=1), "var_max": 50.0,
             "seed": Field(int, 0, least=0), "slack": 0.02}


def run_variation_suite(cfg: dict) -> dict:
    """Empirical variation-inequality sweep: seeded rough densities pushed
    through the configured maps must respect
    2/lambda * V(phi) + A + 0.02*(1 + V(phi))."""
    from .transfer import TransferOperator, push

    cfg = read(cfg, VERIFY_LY)
    maps = [map_from_dict(ms) for ms in cfg["maps"] or LY_MAPS]
    G, count, seed0 = cfg["grid"], cfg["count"], cfg["seed"]
    var_max, slack_lin = cfg["var_max"], cfg["slack"]
    per_map = [(analyze(m), TransferOperator(m, G)) for m in maps]
    violations = []
    max_margin = -math.inf
    for s in range(count):
        rng = np.random.Generator(np.random.PCG64(seed0 + s))
        phi = Density.random_bv(G, var_max, rng)
        v0 = phi.variation()
        for mi, (an, op) in enumerate(per_map):
            allowed = (2.0 / an.lambda_min) * v0 + an.A + slack_lin * (1.0 + v0)
            got = push(op, phi).variation()
            margin = got - allowed
            max_margin = max(max_margin, margin)
            if margin > 0:
                violations.append({"seed": seed0 + s, "map": mi,
                                   "variation": got, "allowed": allowed})
    return {"count": count, "maps": len(maps), "violations": violations,
            "max_margin": max_margin, "passed": not violations}


def load_config(path) -> list[Scenario]:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not (isinstance(cfg, dict) and "scenarios" in cfg):
        return [Scenario.from_dict(cfg)]
    batch = read(cfg, {"scenarios": [{}]})["scenarios"]
    return [Scenario.from_dict({"schema": cfg.get("schema"), **body})
            for body in batch]
