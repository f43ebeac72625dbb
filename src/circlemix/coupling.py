"""The matching scheme on pairs of densities, with certification.

The engine evolves the raw pair (ground truth for L1 distances) and, in
parallel, the renormalized unmatched pair.  Every block it verifies the
positivity floor, subtracts the matched fraction, and records residual
mass, so the raw distance can be certified against the envelope
2 * prod(1 - r*kappa_j).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import write_json
from .density import Density
from .transfer import TransferOperator, push

DISTANCE_FLOOR = 1e-12
MIN_FIT_POINTS = 5
# The envelope starts at the largest L1 distance of two unit-mass densities.
ENVELOPE_START = 2.0
# Ledger columns written as integers; the rest are floats in %.17g.
INT_COLUMNS = ("n", "block_index")


class CertificateViolation(RuntimeError):
    """A proof-backed check failed at runtime (positivity below the floor or
    raw distance above the envelope); carries the offending block."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class BlockPlan:
    """Constants governing one matching block."""

    kappa: float
    n0: int       # steps of positivity development before subtracting
    tau: int      # steps to re-enter the cone after subtracting
    anchor: str = "fixed"

    @property
    def length(self) -> int:
        return self.n0 + self.tau


@dataclass
class BlockRecord:
    index: int
    start: int
    sub_step: int
    end: int
    kappa_used: float
    fraction: float
    min_phi: float
    min_psi: float
    residual_after: float
    anchor: str = "fixed"


@dataclass
class CouplingLedger:
    """Per-step and per-block record of one coupled run."""

    slack: float
    steps: dict = field(default_factory=dict)   # column name -> list
    blocks: list = field(default_factory=list)  # BlockRecord

    COLUMNS = ("n", "l1_distance", "variation_phi", "variation_psi",
               "min_phi", "min_psi", "block_index", "kappa_used",
               "residual_mass", "envelope_value")

    @property
    def n_wait(self) -> int:
        """The step the first block starts at (the step count if none)."""
        blocks = self.steps["block_index"]
        return next((n for n, b in enumerate(blocks) if b >= 1), len(blocks))

    def distances(self) -> np.ndarray:
        return np.asarray(self.steps["l1_distance"], dtype=float)

    def to_csv(self, path) -> None:
        cols = self.COLUMNS
        rows = zip(*(self.steps[c] for c in cols))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                out = []
                for c, v in zip(cols, row):
                    if c in INT_COLUMNS:
                        out.append(str(int(v)))
                    else:
                        out.append("%.17g" % v)
                fh.write(",".join(out) + "\n")

    @classmethod
    def from_csv(cls, path, slack: float) -> "CouplingLedger":
        """Read back a ledger written by `to_csv` (%.17g round-trips every
        float), with the run's grid slack; the per-block records are not
        in the CSV and stay empty.  Raises ValueError on a malformed
        file."""
        with open(path, "r", encoding="ascii") as fh:
            header = tuple(fh.readline().rstrip("\n").split(","))
            if header != cls.COLUMNS:
                raise ValueError(f"{path}: ledger header is not "
                                 + ",".join(cls.COLUMNS))
            steps = {c: [] for c in cls.COLUMNS}
            for lineno, line in enumerate(fh, start=2):
                row = line.rstrip("\n").split(",")
                if len(row) != len(cls.COLUMNS):
                    raise ValueError(f"{path}:{lineno}: expected "
                                     f"{len(cls.COLUMNS)} fields")
                for c, v in zip(cls.COLUMNS, row):
                    value = int(v) if c in INT_COLUMNS else float(v)
                    if not math.isfinite(value) or (
                            c == "envelope_value" and value <= 0.0):
                        raise ValueError(f"{path}:{lineno}: bad {c} {v!r}")
                    steps[c].append(value)
        if not steps["n"] or steps["n"] != list(range(len(steps["n"]))):
            raise ValueError(f"{path}: ledger rows must be n = 0, 1, 2, ...")
        return cls(slack=slack, steps=steps)


def _smooth_wait(phi: Density, psi: Density, eps_loc: float,
                 lambda0: float, C0: float) -> int:
    """The absorption time tau_smooth of the rougher initial density.

    tau_smooth is monotone in L, so when the O(G) bracket of the cone
    level gives one tau at both ends, that is the tau of the exact scan,
    which runs only otherwise."""
    from .bounds import tau_smooth

    lows, ups = zip(phi.ratio_class_bracket(eps_loc),
                    psi.ratio_class_bracket(eps_loc))
    if math.isinf(max(lows)):
        raise CertificateViolation(
            "initial density vanishes somewhere; no finite cone level")
    if not math.isinf(max(ups)):
        tau = tau_smooth(max(lows), lambda0, C0)
        if tau == tau_smooth(max(ups), lambda0, C0):
            return tau
    L_init = max(phi.ratio_class_L(eps_loc), psi.ratio_class_L(eps_loc))
    return tau_smooth(L_init, lambda0, C0)


def run_coupled(maps, phi: Density, psi: Density, *, bounds,
                plan=None) -> CouplingLedger:
    """Run the matching scheme along the map sequence, on the constants of
    the plan stage's `bounds`.

    The schedule: step n = 0 is the initial pair, step n >= 1 the pair
    after the n-th map.  Until the wait ends no block runs.  The wait ends
    at the first step where, in mode "smooth", n reaches the absorption
    time of the rougher initial density, and otherwise both variations are
    <= a*.  That step starts block 1; block k starting at step s runs on
    the constants p = plan(s), subtracts the fraction `bounds.fraction` of
    p.kappa at step s + p.n0, and ends at step s + p.n0 + p.tau, which
    starts block k + 1 and sets the envelope to 2 * residual.  `plan` may
    supply per-block constants (curve driving); the default is the
    report's BlockPlan(kappa, block - tau, tau), so n0 = 0 when smooth.

    A subtraction step refuses a minimum of u below max(kappa - slack,
    fraction*kappa), the floor up to grid error or what the subtraction
    needs to stay nonnegative, by a CertificateViolation naming the block.
    """
    G = phi.G
    if psi.G != G:
        raise ValueError("phi and psi must share a grid")
    fraction, slack = bounds.fraction, bounds.grid_slack(G)
    base = BlockPlan(bounds.kappa, bounds.block - bounds.tau, bounds.tau)
    smooth = bounds.mode == "smooth"
    if smooth:
        wait = _smooth_wait(phi, psi, bounds.eps_loc, bounds.lambda0,
                            bounds.C0)

    ledger = CouplingLedger(slack, {c: [] for c in CouplingLedger.COLUMNS})
    cols = ledger.steps
    raw_phi, raw_psi = phi, psi
    u_phi, u_psi = phi, psi
    residual, env = 1.0, ENVELOPE_START
    index, start, cur = 0, -1, None  # the running block; start -1: waiting
    op = None
    for n, f in enumerate(itertools.chain((None,), maps)):
        if f is not None:
            if op is None or op.m != f:
                op = None  # drop the old operator before building the next
                op = TransferOperator(f, G)
            # until the first subtraction u_phi is raw_phi: push it once
            shared = (u_phi is raw_phi, u_psi is raw_psi)
            raw_phi, raw_psi = push(op, raw_phi), push(op, raw_psi)
            u_phi = raw_phi if shared[0] else push(op, u_phi)
            u_psi = raw_psi if shared[1] else push(op, u_psi)
        if start >= 0:
            begins = n == start + cur.length
        else:  # the wait rule
            begins = (n >= wait if smooth else
                      u_phi.variation() <= bounds.a_star
                      and u_psi.variation() <= bounds.a_star)
        if begins:
            index, start = index + 1, n
            cur = base if plan is None else plan(n)
            env = ENVELOPE_START * residual
        if start >= 0 and n == start + cur.n0:
            mins = (u_phi.min_value(), u_psi.min_value())
            floor = max(cur.kappa - slack, fraction * cur.kappa)
            if mins[0] < floor or mins[1] < floor:
                raise CertificateViolation(
                    f"positivity floor {cur.kappa} violated at step {n} "
                    f"(mins {mins}); inadmissible maps or grid too coarse",
                    block=index)
            u_phi = u_phi.match_subtract(cur.kappa, fraction)
            u_psi = u_psi.match_subtract(cur.kappa, fraction)
            residual *= 1.0 - fraction * cur.kappa
            ledger.blocks.append(BlockRecord(
                index=index, start=start, sub_step=n, end=start + cur.length,
                kappa_used=cur.kappa, fraction=fraction, min_phi=mins[0],
                min_psi=mins[1], residual_after=residual, anchor=cur.anchor))
        cols["n"].append(n)
        cols["l1_distance"].append(raw_phi.l1_distance(raw_psi))
        cols["variation_phi"].append(u_phi.variation())
        cols["variation_psi"].append(u_psi.variation())
        cols["min_phi"].append(u_phi.min_value())
        cols["min_psi"].append(u_psi.min_value())
        cols["block_index"].append(index if start >= 0 else -1)
        cols["kappa_used"].append(cur.kappa if start >= 0 else 0.0)
        cols["residual_mass"].append(residual)
        cols["envelope_value"].append(env)
    return ledger


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of per-step distances above the numerical floor."""

    Lambda_emp: float
    R2: float
    n_range: tuple[int, int]
    n_points: int

    def as_dict(self) -> dict:
        return {"available": True, "Lambda_emp": self.Lambda_emp, "R2": self.R2,
                "n_range": list(self.n_range), "n_points": self.n_points}


def fit_decay(distances) -> DecayFit | None:
    """Least-squares line through (n, log d_n) over usable points; None when
    fewer than 5 distances sit above the floor."""
    d = np.asarray(distances, dtype=float)
    ns = np.arange(len(d))
    usable = d > DISTANCE_FLOOR
    if int(usable.sum()) < MIN_FIT_POINTS:
        return None
    x = ns[usable].astype(float)
    y = np.log(d[usable])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(Lambda_emp=float(np.exp(slope)), R2=r2,
                    n_range=(int(x[0]), int(x[-1])), n_points=int(usable.sum()))


@dataclass(frozen=True)
class CertifyReport:
    passed: bool
    max_ratio: float
    checks: int
    failures: tuple[tuple[int, float, float], ...]  # (step, raw, envelope)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "max_ratio": self.max_ratio,
                "checks": self.checks,
                "failures": [list(f) for f in self.failures]}


def certify(ledger: CouplingLedger) -> CertifyReport:
    """Raw distance must sit below the matched-mass envelope (within grid
    slack) at every completed block end; reports the tightest ratio.

    Reads only the ledger's columns: block j ends at the step where
    `block_index` steps up from j >= 1, and `envelope_value` there is
    2 * prod(1 - r*kappa_i) over the blocks i <= j."""
    ns = ledger.steps["n"]
    l1 = ledger.steps["l1_distance"]
    idx = ledger.steps["block_index"]
    envs = ledger.steps["envelope_value"]
    max_ratio = 0.0
    checks = 0
    failures = []
    for k in range(1, len(idx)):
        if not 1 <= idx[k - 1] < idx[k]:
            continue
        raw, env = l1[k], envs[k]
        checks += 1
        max_ratio = max(max_ratio, raw / env)
        if raw > env + ledger.slack:
            failures.append((ns[k], raw, env))
    return CertifyReport(passed=not failures, max_ratio=max_ratio,
                         checks=checks, failures=tuple(failures))


def write_decay_json(fit: DecayFit | None, path) -> None:
    write_json(path, {"available": False} if fit is None else fit.as_dict())
