"""The four benchmark workloads: one scenario config per scenario kind.

Each workload is a closed loop of `run_scenario` calls, one at a time.  A
run starts on the workload's reference seed, whose outputs are recorded in
reference.json; every other call uses its own seed derived from the workload
seed given on the command line.

fixed-wrap and smooth-sine are kept to 100 and 30 steps, so that a run of
the benchmark holds about ten calls of each.
"""

from __future__ import annotations

import random

from circlemix.scenarios import Scenario

# Seeds whose outputs reference.json records (the acceptance-test seeds).
REFERENCE_SEEDS = {
    "fixed-wrap": 42,
    "neighborhood-sine": 101,
    "curve-slope": 5,
    "smooth-sine": 33,
}

WORKLOADS = tuple(REFERENCE_SEEDS)

# The one failure a workload may have, as (exit code, message): a known
# defect of the map draw, counted in fail_frac rather than avoided.  Any
# other failure fails the correctness gate.
EXPECTED_FAILURES = {
    "neighborhood-sine": (2, "no admissible draw within 100 attempts"),
}


def _config(name: str) -> dict:
    if name == "fixed-wrap":
        return dict(kind="fixed-map", grid=2 ** 16, n_max=100,
                    phi={"preset": "random-bv", "a": 8.0},
                    psi={"preset": "uniform"},
                    family={"map": {"form": "two-slope-wrap"}})
    if name == "neighborhood-sine":
        return dict(kind="neighborhood", grid=2 ** 13, n_max=40,
                    phi={"preset": "sine-step", "k": 1, "amplitude": 0.5,
                         "step_amp": 0.3, "pieces": 8},
                    psi={"preset": "uniform"},
                    family={"base": {"form": "slope3-two-branch"},
                            "slope": 3.0, "amp_max": 0.003,
                            "slope_jitter": 0.002},
                    eps=0.01)
    if name == "curve-slope":
        return dict(kind="curve-driven", grid=2 ** 12, n_max="auto",
                    phi={"preset": "sine"}, psi={"preset": "uniform"},
                    curve={"family": "slope", "s0": 2.5, "s1": 3.5,
                           "interval": [0, 1]},
                    mesh="auto", probes=9)
    if name == "smooth-sine":
        return dict(kind="smooth", grid=2 ** 14, n_max=30,
                    phi={"preset": "sine"}, psi={"preset": "uniform"},
                    family={"slope": 2.0, "amp_max": 0.05}, eps_loc=0.1)
    raise ValueError(f"unknown workload {name!r}")


def scenario(name: str, seed: int) -> Scenario:
    """A fresh Scenario per call: run_scenario mutates curve scenarios."""
    return Scenario(name=name, seed=seed, **_config(name))


def call_seeds(name: str, workload_seed: int):
    """The reference seed, then an endless stream of seeds derived from
    workload_seed (the same workload seed gives the same stream)."""
    yield REFERENCE_SEEDS[name]
    rng = random.Random(f"{name}:{workload_seed}")
    while True:
        yield rng.randrange(2 ** 31)
