"""Run the benchmark on several seeds and print each metric's median and quartiles.

    python3 bench/spread.py --workloads nstar,dims,learn,cli --seeds 1-10 --seconds 20 [--trace 1]
    python3 bench/spread.py --seeds 2000-2009 --against 2500-2509

Runs are sequential, one process at a time, and go round the workloads one
seed at a time.  With ``--against``, a second set of runs on those seeds
alternates with the first, and the difference of the two medians is shown.
The spread is the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median; the reference
figures in README.md come from this.  ``raw_ops_per_s`` is the completed ops
per second of raw wall time, read from the run's summary on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = re.search(r"([\d.]+) raw ops/s", proc.stderr)
    if raw and trace == "0":
        result["metrics"]["raw_ops_per_s"] = {"value": float(raw.group(1)), "unit": "ops/s"}
    print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
    return result


def summary(runs: list[dict]) -> dict[str, tuple[float, float, float]]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            values = values * 2
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, q1, q3)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="nstar,dims,learn,cli")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--against", type=seeds, default=[])
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args(argv)
    if args.against and len(args.against) != len(args.seeds):
        p.error("--against needs as many seeds as --seeds")
    workloads = args.workloads.split(",")
    sets = [args.seeds] + ([args.against] if args.against else [])
    runs = {(w, k): [] for w in workloads for k in range(len(sets))}
    for i in range(len(args.seeds)):
        for workload in workloads:
            for k, set_seeds in enumerate(sets):
                runs[workload, k].append(run(workload, set_seeds[i], args.seconds, args.trace))
    ok = all(r["correct"] for rs in runs.values() for r in rs)
    for workload in workloads:
        for k in range(len(sets)):
            rs = runs[workload, k]
            shares = {r["failed"] / r["attempted"] for r in rs}
            print(f"== {workload} set {k + 1}: {len(rs)} runs, correct {all(r['correct'] for r in rs)}, "
                  f"failed share {sorted(shares)}")
            for name, (med, q1, q3) in summary(rs).items():
                spread = (q3 - q1) / med if med else 0.0
                print(f"   {name:40s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {spread:.4f}")
        if len(sets) == 2:
            first, second = summary(runs[workload, 0]), summary(runs[workload, 1])
            for name in first:
                diff = first[name][0] / second[name][0] - 1 if second[name][0] else 0.0
                print(f"   {name:40s} median of set 1 over set 2: {diff:+.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
