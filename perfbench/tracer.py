"""In-memory span tracer that times circlemix's layers from the outside.

Nothing in circlemix changes.  While `Tracer.installed()` is active, each
traced function is replaced at the module or class attribute its callers
look it up through (`transfer.push` is reached as `coupling.push`, for
example), and the originals come back on exit.  Every call records a span
(name, start, end, parent) in memory; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from circlemix import (bounds, coupling, covering, curves, density, maps,
                       scenarios, transfer)

ROOT_SPAN = "scenarios.run_scenario"


def _count_points(tracer, args, result):
    tracer.counts["transfer.push.points"] += args[1].G


def _count_cylinders(tracer, args, result):
    tracer.counts["covering.cylinders"] += len(result)


def _count_probes(tracer, args, result):
    tracer.counts["bounds.probes"] += len(result.probes)


def _count_draw(tracer, args, result):
    tracer.counts["scenarios.draws"] += 1


def _count_accepted(tracer, args, result):
    if args[0].kind == "neighborhood":
        tracer.counts["scenarios.accepted"] += len(result)


# (span name, attributes the callers use, hook run on each result)
SITES = (
    ("transfer.push", ((coupling, "push"), (transfer, "push")), _count_points),
    ("maps.neighborhood_distance", ((scenarios, "neighborhood_distance"),),
     _count_draw),
    ("maps.neighborhood_distance", ((bounds, "neighborhood_distance"),
                                    (maps, "neighborhood_distance")), None),
    ("maps.analyze", ((maps, "analyze"), (covering, "analyze"),
                      (bounds, "analyze"), (scenarios, "analyze")), None),
    ("curves.map_build", ((curves.MapCurve, "__call__"),), None),
    ("covering.positivity_horizon", ((covering, "positivity_horizon"),
                                     (bounds, "positivity_horizon"),
                                     (scenarios, "positivity_horizon")), None),
    ("covering.cylinder_partition", ((covering, "cylinder_partition"),),
     _count_cylinders),
    ("bounds.delta0_of_curve", ((bounds, "delta0_of_curve"),), _count_probes),
    ("density.ratio_class_L", ((density.Density, "ratio_class_L"),), None),
    ("scenarios.build_sequence", ((scenarios, "build_sequence"),),
     _count_accepted),
    ("coupling.run_coupled", ((scenarios, "run_coupled"),), None),
    ("coupling.certify", ((scenarios, "certify"),), None),
    ("coupling.fit_decay", ((scenarios, "fit_decay"),), None),
    ("coupling.ledger_csv", ((coupling.CouplingLedger, "to_csv"),), None),
    ("scenarios.artifacts", ((bounds.BoundsReport, "to_json"),
                             (covering.CoveringReport, "to_json"),
                             (scenarios, "_write_json"),
                             (scenarios, "write_decay_json")), None),
)

# Per-layer metrics of one traced call: (name, unit).
PER_LAYER = (
    ("transfer.push.calls", "count"),
    ("transfer.push.s", "s"),
    ("transfer.push.ns_per_point", "ns"),
    ("maps.neighborhood_distance.calls", "count"),
    ("maps.neighborhood_distance.s", "s"),
    ("maps.analyze.calls", "count"),
    ("maps.analyze.s", "s"),
    ("curves.map_builds", "count"),
    ("covering.positivity_horizon.calls", "count"),
    ("covering.positivity_horizon.s", "s"),
    ("covering.cylinder_partition.calls", "count"),
    ("covering.cylinder_partition.s", "s"),
    ("covering.cylinders", "count"),
    ("bounds.delta0_of_curve.s", "s"),
    ("bounds.delta0_of_curve.self_s", "s"),
    ("bounds.probes", "count"),
    ("density.ratio_class_L.calls", "count"),
    ("density.ratio_class_L.s", "s"),
    ("scenarios.draws", "count"),
    ("scenarios.draw_accept_ratio", "ratio"),
    ("scenarios.build_sequence.self_s", "s"),
    ("coupling.run_coupled.self_s", "s"),
    ("coupling.steps", "count"),
    ("coupling.blocks", "count"),
    ("coupling.certify.s", "s"),
    ("coupling.fit_decay.s", "s"),
    ("coupling.ledger_csv.s", "s"),
    ("coupling.ledger_csv.bytes", "bytes"),
    ("scenarios.artifacts.s", "s"),
    ("scenarios.artifacts.bytes", "bytes"),
    ("scenarios.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Spans and counters of one traced run_scenario call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, sites, hook in SITES:
                for owner, attr in sites:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stats(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered[i]
        return out

    def layer_metrics(self, steps: int, blocks: int, ledger_bytes: int,
                      artifact_bytes: int) -> dict:
        """Every PER_LAYER value of this call, in order, except the last,
        trace.overhead_frac, which compares two calls."""
        st = self.stats()
        c = self.counts
        push = st["transfer.push"]
        points = c["transfer.push.points"]
        draws = c["scenarios.draws"]
        m = {
            "transfer.push.ns_per_point": push["s"] * 1e9 / points if points else 0.0,
            "curves.map_builds": st["curves.map_build"]["calls"],
            "covering.cylinders": c["covering.cylinders"],
            "bounds.probes": c["bounds.probes"],
            "scenarios.draws": draws,
            # 0 where the workload draws no maps
            "scenarios.draw_accept_ratio":
                c["scenarios.accepted"] / draws if draws else 0.0,
            "coupling.steps": steps,
            "coupling.blocks": blocks,
            "coupling.ledger_csv.bytes": ledger_bytes,
            "scenarios.artifacts.bytes": artifact_bytes,
            "scenarios.unattributed_s": st[ROOT_SPAN]["self_s"],
        }
        out = {}
        for name, _ in PER_LAYER[:-1]:
            if name not in m:
                span, field = name.rsplit(".", 1)
                m[name] = st[span][field]
            out[name] = m[name]
        return out
