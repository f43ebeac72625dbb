"""Benchmark of circlemix's end-to-end pipeline, `scenarios.run_scenario`.

Run from the repository root:

    python3 perfbench/run.py --workload fixed-wrap --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One process runs one workload as a closed loop: one call at a time, the
first two on the workload's reference seed, the rest on seeds derived from
--seed, for --seconds.  Every call must exit 0 with a passed certificate
within CALL_LIMIT_S, except for the workload's one expected failure
(workloads.EXPECTED_FAILURES); the reference call must match reference.json,
and a rerun of a seed must give a byte-identical ledger.csv.

--trace 0 reports the end-to-end metrics (run_s, setup_s, peak_rss_mb).
--trace 1 runs every seed twice, untraced and traced, and reports the
per-layer metrics of tracer.PER_LAYER from the traced calls.  Human-readable
lines come first; the last line of stdout is one JSON object.  A failed
correctness gate exits 1.
"""

from __future__ import annotations

import os

# All load comes from this one process: keep BLAS from starting a thread
# pool.  This must happen before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CALL_LIMIT_S = 30.0   # about 10x the slowest workload's call
SETUP_PROBES = 7      # at least; one follows every timed call
PROBE_LIMIT_S = 20.0

# Tolerances against reference.json, set from float64 roundoff.  A push
# is L1 non-expansive, so per-step rounding adds up at most linearly: allow
# 1e-13 per step (about 450 ulp of 1.0) on the ledger's l1_distance, and
# one step's worth on row 0, the distance before any push.
# kappa and delta0 come from closed forms and a 40-step bisection whose
# last step is 2^-40 ~ 1e-12 relative; allow 1e-9 relative.  Integer
# constants must match exactly.
L1_ATOL_PER_STEP = 1e-13
CONST_RTOL = 1e-9
INT_KEYS = ("n0", "tau", "block", "blocks", "steps")
FLOAT_KEYS = ("kappa", "delta0")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# A set-up probe: a fresh interpreter that imports circlemix and builds the
# workload's first scenario.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.scenario(sys.argv[3], int(sys.argv[4]))")


class CallLimitExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallLimitExceeded(f"call exceeded {CALL_LIMIT_S:g} s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Put this checkout's src/ first on the path; refuse to run without it,
    so an installed circlemix is never measured by mistake."""
    if not (SRC / "circlemix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no circlemix sources under {SRC}")
    sys.path.insert(0, str(SRC))


# --- environment ------------------------------------------------------------


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu():
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            caches.append("L%s %s %s" % tuple(
                (d / f).read_text().strip() for f in ("level", "type", "size")))
    return model, caches


def _blas():
    import numpy
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    model, caches = _cpu()
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
        "call_limit_s": CALL_LIMIT_S,
    }


# --- one call -----------------------------------------------------------------


def _artifact_facts(res, out: Path) -> dict:
    """What the correctness gate and the per-layer metrics need from a
    finished call, read back from the files it wrote."""
    ledger = (out / "ledger.csv").read_bytes()
    lines = ledger.decode("ascii").splitlines()
    col = lines[0].split(",").index("l1_distance")
    bounds = json.loads((out / "bounds.json").read_text())
    cov = out / "covering.json"
    sizes = {p.name: p.stat().st_size for p in out.iterdir()}
    return {
        "ledger": ledger,
        "l1": [float(row.split(",")[col]) for row in lines[1:]],
        "n0": json.loads(cov.read_text())["n0"] if cov.exists() else None,
        "tau": bounds["tau"], "block": bounds["block"],
        "kappa": bounds["kappa"], "delta0": bounds["delta0"],
        "blocks": len(res.ledger.blocks),
        "steps": len(lines) - 2,
        "ledger_bytes": sizes.pop("ledger.csv"),
        "artifact_bytes": sum(sizes.values()),
    }


def run_call(workload: str, seed: int, traced: bool) -> dict:
    """One timed run_scenario call, classified.  outcome is "ok",
    "incorrect" (certificate failed or unreadable artifacts) or "failed"
    (other nonzero exit, crash, or time limit)."""
    from circlemix import scenarios
    import tracer as tr
    import workloads

    out = WORK / f"out-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    sc = workloads.scenario(workload, seed)
    tracer = tr.Tracer() if traced else None
    rec = {"seed": seed, "traced": traced}
    try:
        with tracer.installed() if traced else contextlib.nullcontext():
            fn = tracer.wrap(tr.ROOT_SPAN, scenarios.run_scenario) \
                if traced else scenarios.run_scenario
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                res = fn(sc, str(out))
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                signal.setitimer(signal.ITIMER_REAL, 0)
    except CallLimitExceeded as exc:
        rec.update(wall_s=CALL_LIMIT_S, outcome="failed", message=str(exc))
    except Exception as exc:  # recorded here; the gate fails it
        rec.update(outcome="failed", message=f"{type(exc).__name__}: {exc}")
    else:
        rec.update(wall_s=t1 - t0, cpu_s=c1 - c0, exit_code=res.exit_code,
                   message=res.message)
        cert_ok = res.certificate is not None and res.certificate.passed
        if res.exit_code == scenarios.EXIT_OK and cert_ok:
            try:
                rec.update(_artifact_facts(res, out), outcome="ok")
            except (OSError, ValueError, LookupError) as exc:
                rec.update(outcome="incorrect",
                           message=f"unreadable artifacts: {exc!r}")
        elif res.exit_code in (scenarios.EXIT_OK, scenarios.EXIT_CERTIFICATE):
            rec["outcome"] = "incorrect"
        else:
            rec["outcome"] = "failed"
        if traced and rec["outcome"] == "ok":
            rec["layers"] = tracer.layer_metrics(
                rec["steps"], rec["blocks"], rec["ledger_bytes"],
                rec["artifact_bytes"])
            rec["spans"] = tracer.spans
            rec["self_total_s"] = sum(
                row["self_s"] for row in tracer.stats().values())
    shutil.rmtree(out, ignore_errors=True)
    return rec


# --- correctness gate ---------------------------------------------------------


def reference_problems(rec: dict, ref: dict) -> list[str]:
    problems = []
    got, want = rec["l1"], ref["l1_distance"]
    if len(got) != len(want):
        problems.append(f"ledger has {len(got)} rows, reference {len(want)}")
    else:
        excess = max(abs(g - w) - L1_ATOL_PER_STEP * (n + 1)
                     for n, (g, w) in enumerate(zip(got, want)))
        if excess > 0:
            problems.append(f"l1_distance exceeds tolerance by {excess:.3g}")
    for key in INT_KEYS:
        if rec[key] != ref[key]:
            problems.append(f"{key} = {rec[key]}, reference {ref[key]}")
    for key in FLOAT_KEYS:
        g, w = rec[key], ref[key]
        if (g is None) != (w is None) or (
                w is not None and not math.isclose(g, w, rel_tol=CONST_RTOL)):
            problems.append(f"{key} = {g!r}, reference {w!r}")
    return problems


def expected_failure(workload: str, c: dict) -> bool:
    import workloads

    want = workloads.EXPECTED_FAILURES.get(workload)
    return want is not None and (c.get("exit_code"), c.get("message")) == want


def gate(workload: str, calls: list[dict], trace: bool,
         ref: dict) -> list[str]:
    """Every call ok or the workload's expected failure, the reference call
    matching reference.json, and every rerun of a seed ending the same way
    with a byte-identical ledger.csv.  Without trace the first two calls
    are the reference seed; with trace each seed is a pair of calls.  Marks
    the calls it fails and returns the problems."""
    problems = [f"seed {c['seed']}{' traced' if c['traced'] else ''}: "
                f"{c['outcome']}: {c.get('message')}"
                for c in calls
                if c["outcome"] != "ok" and not expected_failure(workload, c)]
    marks = []
    first = calls[0]
    if first["outcome"] != "ok":
        problems.append(f"reference seed {first['seed']} did not succeed")
    else:
        for p in reference_problems(first, ref):
            problems.append(f"reference seed {first['seed']}: {p}")
            marks.append((first, "reference mismatch"))
    pairs = zip(calls[0::2], calls[1::2]) if trace else [calls[:2]]
    for a, b in pairs:
        if (a.get("exit_code"), a.get("message")) != (
                b.get("exit_code"), b.get("message")):
            miss = (f"rerun ended {b.get('exit_code')} {b.get('message')!r} "
                    f"after {a.get('exit_code')} {a.get('message')!r}")
        elif a.get("ledger") != b.get("ledger"):
            miss = "rerun wrote another ledger.csv"
        else:
            continue
        problems.append(f"seed {a['seed']}: {miss}")
        marks += [(a, miss), (b, miss)]
    for c, why in marks:
        c.update(outcome="incorrect", message=why)
    return problems


# --- measurement --------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that starts the interpreter, imports
    circlemix and builds the workload's first scenario.  The output is
    piped: with no pipe to watch, a wait with a timeout polls in steps of
    up to 50 ms, which would quantize the time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(BENCH),
                    workload, str(seed)],
                   cwd=ROOT, check=True, timeout=PROBE_LIMIT_S,
                   capture_output=True)
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """The closed loop: laps of calls for `seconds`.  A lap starts only if
    a lap of median length still ends in time, so a run lasts about
    `seconds` however long its calls are.

    With trace, a lap is one seed run untraced and traced.  Without trace,
    a lap is one call followed by a set-up probe (at least SETUP_PROBES in
    all), so that setup_s samples the same stretch of time as run_s; the
    first two calls run the reference seed, the second as the determinism
    rerun of the first.  Returns the calls and the set-up times."""
    import workloads

    seeds = workloads.call_seeds(workload, seed)
    if not trace:
        seeds = itertools.chain([workloads.REFERENCE_SEEDS[workload]], seeds)
    calls, setup, laps = [], [], []
    start = time.perf_counter()
    while True:
        s = next(seeds)
        lap_start = time.perf_counter()
        if trace:
            # Alternate which call of a pair goes first, so that a drift in
            # machine speed does not bias trace.overhead_frac.
            traced_first = len(calls) // 2 % 2 == 1
            calls += [run_call(workload, s, traced_first),
                      run_call(workload, s, not traced_first)]
        else:
            calls.append(run_call(workload, s, False))
            setup.append(setup_probe(workload, seed))
        now = time.perf_counter()
        laps.append(now - lap_start)
        if len(calls) >= 2 and (
                now - start + statistics.median(laps) > seconds):
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    return calls, setup


def traced_pairs(calls: list[dict]) -> list[tuple[dict, dict]]:
    """(untraced, traced) calls of one seed, both successful."""
    pairs = [sorted(p, key=lambda c: c["traced"])
             for p in zip(calls[0::2], calls[1::2])]
    return [(a, b) for a, b in pairs if a["outcome"] == b["outcome"] == "ok"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracer as tr
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(args.workload, args.seed, args.trace)
    ref = json.loads((BENCH / "reference.json").read_text())[args.workload]

    calls, setup = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    problems = gate(args.workload, calls, bool(args.trace), ref)
    ok = [c for c in calls if c["outcome"] == "ok"]
    failed = [c for c in calls if c["outcome"] != "ok"]

    metrics = {}
    units = dict(tr.PER_LAYER if args.trace else END_TO_END)
    if args.trace:
        pairs = traced_pairs(calls)
        if pairs:
            metrics = {k: statistics.median(b["layers"][k] for _, b in pairs)
                       for k in pairs[0][1]["layers"]}
            metrics["trace.overhead_frac"] = statistics.median(
                b["wall_s"] / a["wall_s"] - 1.0 for a, b in pairs)
    elif ok:
        metrics = {
            "run_s": statistics.median(c["wall_s"] for c in ok),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    correct = not problems and len(metrics) == len(units)

    print(f"perfbench {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, c in enumerate(calls):
        print(f"call {i:3d} seed {c['seed']:>10} "
              f"{'traced' if c['traced'] else 'timed '} "
              f"{c.get('wall_s', math.nan):9.4f} s wall "
              f"{c.get('cpu_s', math.nan):9.4f} s cpu  {c['outcome']}"
              + ("" if c["outcome"] == "ok" else f": {c.get('message')}"))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    if args.trace and metrics:
        gap = statistics.median(b["self_total_s"] / a["wall_s"] - 1.0
                                for a, b in pairs)
        print(f"{'self times vs untraced run_s':36s} {gap:+14.4%} "
              f"(tracing overhead {metrics['trace.overhead_frac']:+.4%})")
    if not args.trace:
        print(f"{'run_s samples':36s} {len(ok):14d} successful calls")
        print(f"{'setup_s samples':36s} "
              + " ".join(f"{t:.4f}" for t in setup))
    print(f"{'fail_frac':36s} {len(failed) / len(calls):14.6g} ratio "
          f"({len(failed)}/{len(calls)}); failing seeds: "
          f"{sorted({c['seed'] for c in failed})}")
    for p in problems:
        print(f"CORRECTNESS: {p}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "metrics": metrics, "problems": problems,
              "calls": [{k: v for k, v in c.items()
                         if k not in ("ledger", "l1", "spans")}
                        for c in calls]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            [{"seed": c["seed"], "spans": c["spans"]} for c in calls
             if "spans" in c]))

    print(json.dumps({
        "correct": correct, "attempted": len(calls), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other; then, without
    trace, a table of the end-to-end metrics and the fail fraction."""
    import workloads

    worst = 0
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
    if not args.trace:
        names = [n for n, _ in END_TO_END]
        print(f"{'workload':18s}" + "".join(
            f"{n + ' (' + u + ')':>18s}" for n, u in END_TO_END)
            + f"{'fail_frac (ratio)':>18s}")
        for name, res in summary.items():
            if res is None:
                print(f"{name:18s} no result")
                continue
            vals = [res["metrics"].get(n, {}).get("value", math.nan)
                    for n in names]
            print(f"{name:18s}" + "".join(f"{v:18.4f}" for v in vals)
                  + f"{res['failed'] / res['attempted']:18.4f}")
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
