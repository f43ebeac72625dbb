"""Write reference.json: the outputs of each workload's reference seed,
which the correctness gate of run.py compares every run against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py
"""

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    out = {}
    for name in workloads.WORKLOADS:
        seed = workloads.REFERENCE_SEEDS[name]
        rec = run.run_call(name, seed, traced=False)
        if rec["outcome"] != "ok":
            raise SystemExit(f"{name} seed {seed}: {rec['outcome']}: "
                             f"{rec.get('message')}")
        out[name] = {"seed": seed, "l1_distance": rec["l1"]}
        out[name].update({k: rec[k] for k in run.INT_KEYS + run.FLOAT_KEYS})
        print(f"{name}: {rec['steps']} steps, {rec['blocks']} blocks, "
              f"{rec['wall_s']:.2f} s")
    (run.BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
