"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload nstar|dims|learn|cli --seed N --seconds S --trace 0|1

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
comparelearn layers are wrapped in spans and the per-layer metrics are
printed instead, and the spans are written under ``bench/out/``.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
IMPORT_REPS = 9

WORKLOADS = {
    "nstar": "workload_nstar",
    "dims": "workload_dims",
    "learn": "workload_learn",
    "cli": "workload_cli",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of fresh interpreters that start and import every
    layer, at the reference speed."""
    import speed

    code = f"import sys; sys.path.insert(0, {SRC!r}); import comparelearn.cli"
    times = []
    for _ in range(IMPORT_REPS):
        before = speed.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        dt = time.perf_counter() - t0
        times.append(speed.at_reference(dt, before, speed.sample()))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "comparelearn", "__init__.py")):
        print(f"error: no comparelearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)

    import comparelearn.cli  # noqa: F401  (imports every layer)
    import harness

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = importlib.import_module(WORKLOADS[args.workload])
    result = harness.run(wl, args.seed, args.seconds, tracer, import_seconds())
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
