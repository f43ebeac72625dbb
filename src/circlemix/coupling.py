"""The matching scheme on pairs of densities, with certification.

The engine evolves the raw pair (ground truth for L1 distances) and, in
parallel, the renormalized unmatched pair.  Every block it verifies the
positivity floor, subtracts the matched fraction, and records residual
mass, so the raw distance can be certified against the envelope
2 * prod(1 - r*kappa_j).
"""

from __future__ import annotations

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

    mode: str
    G: int
    fraction: float
    slack: float
    n_wait: int
    steps: dict = field(default_factory=dict)   # column name -> list
    blocks: list = field(default_factory=list)  # BlockRecord
    snapshots: list = field(default_factory=list)

    COLUMNS = ("n", "l1_distance", "variation_phi", "variation_psi",
               "min_phi", "min_psi", "block_index", "kappa_used",
               "residual_mass", "envelope_value")

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
    def from_csv(cls, path, bounds, G: int) -> "CouplingLedger":
        """Read back a ledger written by `to_csv` (%.17g round-trips every
        float).  `bounds` and the grid size G restore the mode, fraction and
        grid slack; the per-block records and snapshots are not in the CSV
        and stay empty.  Raises ValueError on a malformed file."""
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
        blocks = steps["block_index"]
        n_wait = next((n for n, b in enumerate(blocks) if b >= 1), len(blocks))
        return cls(mode=bounds.mode, G=G, fraction=bounds.fraction,
                   slack=bounds.grid_slack(G), n_wait=n_wait, steps=steps)


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


def run_coupled(maps, phi: Density, psi: Density, *, bounds, plan=None,
                record_snapshots: bool = False) -> CouplingLedger:
    """Run the matching scheme along the map sequence, in `bounds.mode`.

    mode "smooth": blocks of tau(2 L*) steps, fraction 1/2 subtracted,
    kappa = the ratio-cone positivity floor; the wait is the absorption
    time of the rougher initial density.  mode "piecewise": wait until
    both variations are <= a*, then blocks of n0 + tau steps with the full
    kappa subtracted.  `plan` may supply per-block constants (curve
    driving); default is the constant plan from `bounds`.
    """
    smooth = bounds.mode == "smooth"
    fraction = 0.5 if smooth else 1.0
    G = phi.G
    if psi.G != G:
        raise ValueError("phi and psi must share a grid")
    slack = bounds.grid_slack(G)

    if plan is None:
        if smooth:
            base = BlockPlan(kappa=bounds.kappa, n0=0, tau=bounds.block)
        else:
            base = BlockPlan(kappa=bounds.kappa, n0=bounds.block - bounds.tau,
                             tau=bounds.tau)
        plan = lambda step: base  # noqa: E731

    wait_target = None
    if smooth:
        wait_target = _smooth_wait(phi, psi, bounds.eps_loc,
                                   bounds.lambda0, bounds.C0)

    ledger = CouplingLedger(mode=bounds.mode, G=G, fraction=fraction,
                            slack=slack, n_wait=-1)
    cols = {c: [] for c in CouplingLedger.COLUMNS}

    raw_phi, raw_psi = phi, psi
    u_phi, u_psi = phi, psi
    residual = 1.0
    env = ENVELOPE_START
    state = "wait"
    block_idx = 0
    cur: BlockPlan | None = None
    sub_step = end_step = -1
    kappa_now = 0.0

    def in_cone() -> bool:
        return (u_phi.variation() <= bounds.a_star
                and u_psi.variation() <= bounds.a_star)

    def start_block(n: int):
        nonlocal cur, sub_step, end_step, block_idx, kappa_now, state
        cur = plan(n)
        block_idx += 1
        sub_step = n + cur.n0
        end_step = n + cur.length
        kappa_now = cur.kappa
        state = "block"

    def do_subtract(n: int):
        nonlocal u_phi, u_psi, residual
        mins = (u_phi.min_value(), u_psi.min_value())
        floor = cur.kappa - slack
        if mins[0] < floor or mins[1] < floor:
            raise CertificateViolation(
                f"positivity floor {cur.kappa} violated at step {n} "
                f"(mins {mins}); inadmissible maps or grid too coarse",
                block=block_idx)
        if record_snapshots:
            pre = (u_phi, u_psi)
        u_phi = u_phi.match_subtract(cur.kappa, fraction)
        u_psi = u_psi.match_subtract(cur.kappa, fraction)
        residual *= 1.0 - fraction * cur.kappa
        if record_snapshots:
            ledger.snapshots.append(
                {"n": n, "block": block_idx, "pre": pre, "post": (u_phi, u_psi)})
        ledger.blocks.append(BlockRecord(
            index=block_idx, start=end_step - cur.length, sub_step=n,
            end=end_step, kappa_used=cur.kappa, fraction=fraction,
            min_phi=mins[0], min_psi=mins[1],
            residual_after=residual, anchor=cur.anchor))

    def record(n: int):
        cols["n"].append(n)
        cols["l1_distance"].append(raw_phi.l1_distance(raw_psi))
        cols["variation_phi"].append(u_phi.variation())
        cols["variation_psi"].append(u_psi.variation())
        cols["min_phi"].append(u_phi.min_value())
        cols["min_psi"].append(u_psi.min_value())
        cols["block_index"].append(block_idx if state == "block" else -1)
        cols["kappa_used"].append(kappa_now if state == "block" else 0.0)
        cols["residual_mass"].append(residual)
        cols["envelope_value"].append(env)

    def maybe_transitions(n: int):
        nonlocal env, state
        if state == "wait":
            entered = (n >= wait_target) if smooth else in_cone()
            if entered:
                ledger.n_wait = n
                start_block(n)
        if state == "block" and n == sub_step:
            do_subtract(n)
        if state == "block" and n == end_step:
            env = ENVELOPE_START * residual
            start_block(n)
            if n == sub_step:  # smooth blocks subtract at their start
                do_subtract(n)

    # step 0: transitions may already fire (densities can start in the cone)
    maybe_transitions(0)
    record(0)
    op = None
    for n, f in enumerate(maps, start=1):
        if op is None or op.m != f:
            op = None  # drop the old operator before building the next
            op = TransferOperator(f, G)
        # until the first subtraction u_phi is raw_phi: push it once
        shared = (u_phi is raw_phi, u_psi is raw_psi)
        raw_phi, raw_psi = push(op, raw_phi), push(op, raw_psi)
        u_phi = raw_phi if shared[0] else push(op, u_phi)
        u_psi = raw_psi if shared[1] else push(op, u_psi)
        maybe_transitions(n)
        record(n)
    if ledger.n_wait < 0:
        ledger.n_wait = len(cols["n"])  # never entered the cone
    ledger.steps = cols
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


def fit_decay(distances, floor: float = DISTANCE_FLOOR) -> DecayFit | None:
    """Least-squares line through (n, log d_n) over usable points; None when
    fewer than 5 distances sit above the floor."""
    d = np.asarray(distances, dtype=float)
    ns = np.arange(len(d))
    usable = d > floor
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
