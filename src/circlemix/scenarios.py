"""Scenario configs, map-sequence assembly, and the run pipeline.

A scenario is a spec dict, its fields declared in the `SCENARIO` tables,
naming the composition style (fixed map, neighborhood draws, curve driving
or smooth sine perturbations), initial densities, grid, horizon and seed.
`run_scenario` runs every kind through the same stages: read (the spec,
once, by `read_scenario`), densities (phi, then psi), plan (the kind's
constants in `PLANS`, refusing inputs outside the theorem), slack check,
draw (the maps, after every refusal), evolve, fit, certify, write.  All
randomness flows through one seeded PCG64 generator consumed in that
order: phi, psi, then the map draws.  Neighborhood attempts are drawn in
blocks of DRAW_BLOCK, one call per block giving the values of that many
scalar draws in the same order, and each step continues the block where
the last one stopped; the unused tail of the last block is drawn but never
read, and nothing draws after the maps.  Up to the draws a ValueError is a
refused input (exit 2); after them it is a defect and propagates.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from itertools import islice

import numpy as np

from . import bounds as bnd
from .config import (Field, Format, ScenarioError, is_int, load_json, read,
                     write_json as _write_json)
from .coupling import (ENVELOPE_START, BlockPlan, CertificateViolation,
                       certify, fit_decay, run_coupled, write_decay_json)
from .covering import CoveringError, positivity_horizon
from .curves import CURVE, curve_from_dict
from .density import Density
from .maps import (MAP, MARKS, BranchSpec, MapFormError, PiecewiseMap,
                   TransferError, analyze, map_from_dict,
                   neighborhood_distance, sine_map, sine_screen)

SCHEMA_VERSION = 1
REDRAW_LIMIT = 1000
# Neighborhood attempts drawn and screened at once (see _screened_draws).
DRAW_BLOCK = 32
N_MAX_CAP = 10 ** 4
# The largest grid of any command: 16 times the largest shipped grid (2^16,
# fixed-wrap), so that one array of samples stays at 8 MB.  It bounds what
# a grid allocates, not how long a run takes.
GRID_MAX = 2 ** 20

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


# The spec perfbench/workloads.py builds, kept by name: a scenario is its dict.
Scenario = dict

# The fields every kind requires; n_max (an integer or "auto") is checked
# by read_scenario alone
_COMMON = {"name": str, "grid": int, "seed": int, "phi": DENSITY,
           "psi": DENSITY}
# The optional fields that only some kinds read.  A kind's table lists the
# ones its stages read; read_scenario refuses the others unless they keep
# their defaults, and treats family and curve (default {}) alike.
_OPTIONAL = {"eps": Field(float), "a_star": Field(float),
             "mesh": Field(float, also=("auto",)), "eps_loc": 0.1,
             "mesh_override": False,
             "probes": Field(int, 9, least=2, most=1024)}
# Each optional field at the value that stands in for it when left out
_DEFAULTS = {**{key: entry.default if isinstance(entry, Field) else entry
                for key, entry in _OPTIONAL.items()},
             "family": {}, "curve": {}}
_FIELDS = {"schema", "kind", "n_max", *_COMMON, *_DEFAULTS}


def _reads(*keys) -> dict:
    return {key: _OPTIONAL[key] for key in keys}


SCENARIO = Format("kind", None, "scenario kind", {
    "fixed-map": {**_COMMON, **_reads("eps", "a_star"),
                  "family": {"map": MAP}},
    "neighborhood": {**_COMMON, **_reads("a_star"), "eps": float, "family": {
        "base": MAP, "slope": 3.0, "amp_max": 0.003, "slope_jitter": 0.0,
        "marks": MARKS}},
    "curve-driven": {**_COMMON, **_reads("eps", "a_star", "mesh",
                                         "mesh_override", "probes"),
                     "curve": CURVE},
    "smooth": {**_COMMON, **_reads("eps_loc"),
               "family": {"slope": 2.0, "amp_max": 0.05, "marks": MARKS}}})


def read_scenario(spec: dict) -> dict:
    """The read stage: `spec` checked against SCENARIO with every field
    filled, after the checks its table cannot state: no unknown field, kind
    and n_max given, no unread optional field, the grid and n_max."""
    for key in spec:
        if key not in _FIELDS:
            raise ScenarioError(f"{key} is not a scenario field")
    for key in ("kind", "n_max"):  # required, but in no table's entries
        if key not in spec:
            raise ScenarioError(f"missing field {key!r}")
    cfg = read({**_DEFAULTS, **spec}, SCENARIO)
    grid, kind, n_max = cfg["grid"], cfg["kind"], cfg["n_max"]
    for key, default in _DEFAULTS.items():
        if key not in SCENARIO.tables[kind] and cfg[key] != default:
            raise ScenarioError(f"{key} is not read by a {kind} scenario, "
                                f"got {cfg[key]!r}")
    if grid < 2 or (grid & (grid - 1)) != 0:
        raise ScenarioError("grid must be a power of two")
    if grid > GRID_MAX:
        raise ScenarioError(f"grid must be at most 2^20 = {GRID_MAX}, "
                            f"got {grid}")
    if kind == "smooth" and grid > 2 ** 16:
        raise ScenarioError("smooth scenarios cap the grid at 2^16 (the "
                            "exact cone-level scan, run when its O(G) "
                            "bracket does not decide tau, is quadratic)")
    if n_max == "auto":
        if kind != "curve-driven":
            raise ScenarioError("n_max 'auto' is only for curve scenarios")
    elif not (is_int(n_max) and 1 <= n_max <= N_MAX_CAP):
        raise ScenarioError(f"n_max must lie in [1, {N_MAX_CAP}]")
    return cfg


def build_density(spec: dict, G: int, rng: np.random.Generator) -> Density:
    """The density of a spec as `read` fills it against DENSITY."""
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


class RunPlan(namedtuple("RunPlan", "cfg report covering curve_cover "
                         "block_plan curve ts mesh", defaults=(None,) * 6)):
    """The read config and what the plan stage fixes from it: the
    BoundsReport, its CoveringReport, the per-block constants (None: the
    report's) and, for a curve, its CurveCover, MapCurve, step parameters
    ts and mesh."""

    @property
    def kind(self) -> str:
        return self.cfg["kind"]


def _piecewise_report(fam, a_star, cov, tau, eps, delta0=None):
    """The report of blocks of n0 + tau steps subtracting the full kappa."""
    kappa, block = cov.kappa_eps, cov.n0 + tau
    return bnd.BoundsReport(
        mode="piecewise", lambda0=fam.lambda0, A0=fam.A0, M0_family=fam.M0,
        C1=fam.C1, C0=None, L_star=None, a_star=a_star, tau=tau, kappa=kappa,
        block=block, Lambda=bnd.lambda_local(kappa, block), delta0=delta0,
        eps=eps, fraction=1.0)


def _check_draw_box(fam: dict) -> None:
    """Refuse a neighborhood family whose draw box, slope +- slope_jitter
    by amplitude +- amp_max, holds a sine map that is not expanding, so
    that no draw the screen rejects could have failed to build.  The
    (slope, amplitude) of the maps whose branch i expands in a given
    direction form a convex set, so the four corners decide the box."""
    slope, amp, jitter = fam["slope"], fam["amp_max"], fam["slope_jitter"]
    try:
        corners = [sine_map(slope + ds, a, 0.0, tuple(fam["marks"]))
                   for ds in (-jitter, jitter) for a in (-amp, amp)]
    except MapFormError as exc:
        raise ScenarioError(f"family: a corner of the draw box is not an "
                            f"expanding map: {exc}") from None
    if len({tuple(b.increasing for b in m.branches) for m in corners}) > 1:
        raise ScenarioError("family: the draw box holds maps that are not "
                            "expanding (its corners' branches turn opposite "
                            "ways)")


def plan_piecewise(cfg: dict) -> RunPlan:
    """Fixed-map and neighborhood runs: the constants of one map, the
    fixed map or the neighborhood's base padded by eps."""
    fixed = cfg["kind"] == "fixed-map"
    g = map_from_dict(cfg["family"]["map" if fixed else "base"])
    if not fixed:
        _check_draw_box(cfg["family"])
    fam = bnd.family_bounds([g], eps_pad=0.0 if fixed else cfg["eps"])
    a_star = cfg["a_star"]
    if a_star is None:
        a_star = bnd.default_a_star(fam)
    eps = cfg["eps"] if cfg["eps"] is not None else 0.0
    cov = positivity_horizon(g, a_star, eps)
    tau = bnd.tau_piecewise(a_star / (1.0 - cov.kappa_eps), a_star,
                            fam.lambda0, fam.A0)
    return RunPlan(cfg, _piecewise_report(fam, a_star, cov, tau, eps), cov)


def plan_smooth(cfg: dict) -> RunPlan:
    """Smooth runs: the ratio-cone constants of the family's extreme maps,
    which must be continuous circle maps."""
    fam_cfg = cfg["family"]
    slope, amp = fam_cfg["slope"], fam_cfg["amp_max"]
    extremes = [sine_map(slope, a, 0.0, tuple(fam_cfg["marks"]))
                for a in (-amp, 0.0, amp)]
    if not all(m.is_continuous() for m in extremes):
        raise ScenarioError(
            f"family.slope must be an integer in a smooth scenario, got "
            f"{slope!r}: the smooth constants assume continuous circle "
            "maps, and this slope makes every map of the family jump")
    fam = bnd.family_bounds(extremes)
    C0 = max(bnd.distortion_constant(fam.C1, fam.lambda0), bnd.C0_FLOOR)
    L_star = bnd.cone_parameter(C0)
    kappa = bnd.smooth_positivity_floor(L_star, cfg["eps_loc"])
    block = max(bnd.tau_smooth(2.0 * L_star, fam.lambda0, C0), 1)
    return RunPlan(cfg, bnd.BoundsReport(
        mode="smooth", lambda0=fam.lambda0, A0=None, M0_family=fam.M0,
        C1=fam.C1, C0=C0, L_star=L_star, a_star=None, tau=block, kappa=kappa,
        block=block, Lambda=bnd.lambda_local(0.5 * kappa, block),
        eps_loc=cfg["eps_loc"], fraction=0.5))


def plan_curve(cfg: dict) -> RunPlan:
    """Curve-driven runs: probes refined until their half-windows cover
    the curve, steps at the mesh (the certified delta0 unless given), and
    each block on the constants of the probe anchoring its start."""
    curve = curve_from_dict(cfg["curve"])
    probes = list(np.linspace(curve.a, curve.b, cfg["probes"]))
    cover = None
    for _ in range(64):
        cover = bnd.delta0_of_curve(curve, probes, cfg["a_star"], cfg["eps"],
                                    cover)
        if cover.covered:
            break
        probes = sorted({*probes, cover.uncovered_at})
    else:
        raise ScenarioError("curve half-windows failed to cover the interval")
    mesh = cfg["mesh"]
    mesh = cover.delta0 if mesh in (None, "auto") else float(mesh)
    if not mesh > 0.0:
        raise ScenarioError(f"mesh must be positive, got {mesh}")
    if mesh > cover.delta0 and not cfg["mesh_override"]:
        raise ScenarioError(
            f"mesh {mesh} exceeds the certified delta0 {cover.delta0}; "
            "set mesh_override to acknowledge the guarantee is void")
    n_max = cfg["n_max"]
    if n_max == "auto":
        n_max = min(math.ceil((curve.b - curve.a) / mesh), N_MAX_CAP)
    ts = [min(curve.a + (i + 1) * mesh, curve.b) for i in range(n_max)]

    binding = min((cover.probes[j] for j in cover.selected),
                  key=lambda p: p.alpha / (2.0 * p.n_block))
    report = _piecewise_report(cover.family, cover.a_star, binding.covering,
                               binding.tau, binding.eps, cover.delta0)

    def block_plan(step_index: int) -> BlockPlan:
        p = cover.anchor_for(ts[min(step_index, len(ts) - 1)])
        return BlockPlan(kappa=p.kappa, n0=p.covering.n0, tau=p.tau,
                         anchor="t=%.6f" % p.t)

    return RunPlan(cfg, report, binding.covering, cover, block_plan, curve,
                   ts, mesh)


PLANS = {"fixed-map": plan_piecewise, "neighborhood": plan_piecewise,
         "curve-driven": plan_curve, "smooth": plan_smooth}


def _screened_draws(slope, amp_max, slope_jitter, marks, g, eps, rng):
    """The neighborhood family's attempts in draw order, as (slope,
    amplitude, whether sine_screen passes it), drawn and screened
    DRAW_BLOCK at a time.  One block's draw alternates amplitude and
    jitter bounds, so it gives the values of that many pairs of scalar
    draws in the same order."""
    bounds = np.tile([[-amp_max, -slope_jitter], [amp_max, slope_jitter]],
                     DRAW_BLOCK)
    while True:
        amps, jitters = rng.uniform(*bounds).reshape(DRAW_BLOCK, 2).T
        slopes = slope + jitters
        passed = sine_screen(slopes, amps, marks, g, eps)
        yield from zip(slopes.tolist(), amps.tolist(), passed.tolist())


def build_sequence(plan: RunPlan,
                   rng: np.random.Generator) -> list[PiecewiseMap]:
    """The draw stage: the planned run's maps (deterministic given the
    generator state)."""
    fam, n = plan.cfg["family"], plan.cfg["n_max"]
    if plan.kind == "curve-driven":
        return [plan.curve(t) for t in plan.ts]
    if plan.kind == "fixed-map":
        return [map_from_dict(fam["map"])] * n
    slope, amp_max, marks = fam["slope"], fam["amp_max"], tuple(fam["marks"])
    if plan.kind == "neighborhood":
        g = map_from_dict(fam["base"])
        eps = plan.cfg["eps"]
        attempts = _screened_draws(slope, amp_max, fam["slope_jitter"], marks,
                                   g, eps, rng)
        maps = []
        for _ in range(n):
            for s, a, passed in islice(attempts, REDRAW_LIMIT + 1):
                if passed:
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


RunResult = namedtuple("RunResult", "exit_code message artifacts ledger fit "
                       "certificate bounds", defaults=(None,) * 4)


def out_of_memory(where: str, exc: MemoryError) -> str:
    """The message of a MemoryError raised `where`, which exits 2."""
    return f"out of memory {where}: {str(exc) or 'MemoryError'}"


def run_scenario(spec: dict, out_dir) -> RunResult:
    """The pipeline of the module docstring on the scenario `spec`, writing
    its artifacts to out_dir.  Exit codes: 0 success, 1 certificate
    violation, 2 a refused config or hypothesis (or a TransferError or a
    MemoryError, up to the end of the evolve stage).  A refused run writes
    nothing."""
    try:
        cfg = read_scenario(spec)
        grid = cfg["grid"]
        rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
        phi = build_density(cfg["phi"], grid, rng)
        psi = build_density(cfg["psi"], grid, rng)
        plan = PLANS[cfg["kind"]](cfg)
        slack = plan.report.grid_slack(grid)
        if slack >= ENVELOPE_START:
            raise ScenarioError(
                f"grid {grid} is too coarse: the grid slack "
                f"20*a_ref/{grid} = {slack:g} is not below the initial "
                f"envelope {ENVELOPE_START:g}, so the certificate would be "
                "vacuous")
        maps = build_sequence(plan, rng)
    except (ValueError, TransferError, CoveringError) as exc:
        return RunResult(EXIT_CONFIG, str(exc), {})
    except MemoryError as exc:
        return RunResult(EXIT_CONFIG,
                         out_of_memory("before the evolve stage", exc), {})
    os.makedirs(out_dir, exist_ok=True)
    try:
        ledger = run_coupled(maps, phi, psi, bounds=plan.report,
                             plan=plan.block_plan)
    except CertificateViolation as exc:
        _write_json(os.path.join(out_dir, "certificate.json"),
                    {"passed": False, "error": str(exc), "block": exc.block})
        return RunResult(EXIT_CERTIFICATE, str(exc), {})
    except TransferError as exc:
        return RunResult(EXIT_CONFIG, str(exc), {})
    except MemoryError as exc:
        return RunResult(EXIT_CONFIG,
                         out_of_memory("in the evolve stage", exc), {})
    fit = fit_decay(ledger.distances())
    cert = certify(ledger)

    artifacts = {}

    def path(name: str, filename: str) -> str:
        artifacts[name] = os.path.join(out_dir, filename)
        return artifacts[name]

    record = {"schema": SCHEMA_VERSION, **_DEFAULTS, **spec}  # as given
    if plan.ts is not None:  # with a curve's resolved steps
        record.update(n_max=len(plan.ts),
                      curve={**spec["curve"], "resolved_mesh": plan.mesh})
    ledger.to_csv(path("ledger", "ledger.csv"))
    plan.report.to_json(path("bounds", "bounds.json"))
    if plan.covering is not None:
        plan.covering.to_json(path("covering", "covering.json"))
    if plan.curve_cover is not None:
        _write_json(path("curve_plan", "curve_plan.json"),
                    plan.curve_cover.as_dict())
    write_decay_json(fit, path("decay", "decay.json"))
    _write_json(path("certificate", "certificate.json"), cert.as_dict())
    _write_json(path("scenario", "scenario.json"), record)
    code, message = ((EXIT_OK, "ok") if cert.passed
                     else (EXIT_CERTIFICATE, "envelope violated"))
    return RunResult(code, message, artifacts, ledger, fit, cert, plan.report)


ABSORB = {"a": float, "a_star": float,
          "grid": Field(int, 2 ** 13, least=2, most=GRID_MAX),
          "seeds": Field(int, 20, least=1, most=10 ** 4),
          "seed": Field(int, 0, least=0),
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
VERIFY_LY = {"maps": Field([MAP]),
             "grid": Field(int, 2 ** 14, least=2, most=GRID_MAX),
             "count": Field(int, 100, least=1, most=10 ** 4),
             "var_max": 50.0,
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


def load_config(path) -> list[dict]:
    """A config file's scenario specs, as given.  Each is read before any
    run, so that one malformed scenario, or a name that is not one new
    directory in the output directory, refuses the whole file."""
    cfg = load_json(path)
    if isinstance(cfg, dict) and "scenarios" in cfg:
        specs = [{"schema": cfg.get("schema"), **body}
                 for body in read(cfg, {"scenarios": [{}]})["scenarios"]]
        if not specs:
            raise ScenarioError("config holds no scenarios")
    else:
        specs = [cfg]
    names = set()
    for spec in specs:
        if not isinstance(spec, dict) or spec.get("schema") != SCHEMA_VERSION:
            raise ScenarioError(f"config schema must be {SCHEMA_VERSION}")
        name = read_scenario(spec)["name"]
        if name in names:
            raise ScenarioError(f"scenario name {name!r} is used twice")
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ScenarioError(f"scenario name {name!r} must be a directory "
                                "name: not empty, '.' or '..', and no path "
                                "separator")
        names.add(name)
    return specs
