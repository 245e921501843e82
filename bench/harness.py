"""The timing loop shared by every workload, and the metrics it reports.

A workload module provides:

* ``ROUND``: the op kinds of one round, in order.  A run attempts whole
  rounds only, so the make-up of every run is the same.
* ``TAIL_PCT``: the tail percentile reported as ``op_tail_ms``.
* ``TRACE_ROUNDS``: rounds whose spans give the per-layer metrics.
* ``setup()``: the program's own set-up (timed, repeated ``SETUP_REPS`` times).
* ``make_input(ctx, kind, seed, round_index, slot)``: the op's inputs (untimed).
* ``run_op(ctx, kind, inp)``: the one timed call into comparelearn.
* ``succeeded(kind, out)``: whether the op completed (False counts as failed).
* ``check(ctx, kind, inp, out)``: raise :class:`CheckFailed` on a wrong output.
* ``check_round(ctx, results)`` and ``finish(ctx)``: checks over a round and a run.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time

import speed

SETUP_REPS = 5
# a speed sample is taken before an op once this much wall time has passed
# since the last one, and once more after the last op
SAMPLE_EVERY_S = 0.2


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tail_ms(latencies: list[float], pct: int) -> float:
    """Nearest-rank percentile of the latencies, in ms."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


def run(wl, seed: int, seconds: float, tracer, import_s: float) -> dict:
    """Set up, then run whole rounds until ``seconds`` of raw op time have passed.

    ``setup_s`` is ``import_s`` (the caller's measure of starting an
    interpreter and importing the program) plus the median of the set-up
    builds.  Every reported time is at the reference speed (``speed.py``).
    """
    builds = []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = speed.sample()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        ctx = wl.setup()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        builds.append(speed.at_reference(dt, before, speed.sample()))
    setup_s = import_s + statistics.median(builds)
    if tracer is not None:
        ctx["tracer"] = tracer
    # what exists now lives for the whole run: keep it out of the collections
    # made between ops, so they cost little and the run spends its time in ops
    gc.collect()
    gc.freeze()

    # every op as (kind, completed, raw seconds, index of the speed sample before it)
    timed: list[tuple[str, bool, float, int]] = []
    samples = [speed.sample()]
    sampled_at = time.perf_counter()
    attempted = failed = rounds = 0
    op_time = 0.0
    correct = True
    snapshot = None
    while op_time < seconds or (tracer is not None and snapshot is None):
        results = []
        for slot, kind in enumerate(wl.ROUND):
            inp = wl.make_input(ctx, kind, seed, rounds, slot)
            gc.collect()
            if time.perf_counter() - sampled_at >= SAMPLE_EVERY_S:
                samples.append(speed.sample())
                sampled_at = time.perf_counter()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, error = wl.run_op(ctx, kind, inp), None
            except Exception as exc:  # an op that raises counts as failed
                out, error = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            attempted += 1
            op_time += dt
            ok = error is None and wl.succeeded(kind, out)
            timed.append((kind, ok, dt, len(samples) - 1))
            if not ok:
                failed += 1
                results.append((kind, inp, None))
                continue
            results.append((kind, inp, out))
            try:
                wl.check(ctx, kind, inp, out)
            except CheckFailed as exc:
                correct = False
                print(f"check failed: {kind} round {rounds}: {exc}", file=sys.stderr)
        try:
            wl.check_round(ctx, results)
        except CheckFailed as exc:
            correct = False
            print(f"check failed: round {rounds}: {exc}", file=sys.stderr)
        rounds += 1
        if tracer is not None and rounds == wl.TRACE_ROUNDS:
            snapshot = tracer.snapshot()
    samples.append(speed.sample())
    try:
        wl.finish(ctx)
    except CheckFailed as exc:
        correct = False
        print(f"check failed: run: {exc}", file=sys.stderr)

    # an op's time at the reference speed, from the samples on either side of it
    at_ref = [speed.at_reference(dt, samples[i], samples[i + 1]) for _, _, dt, i in timed]
    latencies = [t for (_, ok, _, _), t in zip(timed, at_ref) if ok]
    by_kind: dict[str, list[float]] = {}
    for (kind, ok, _, _), t in zip(timed, at_ref):
        if ok:
            by_kind.setdefault(kind, []).append(t)
    completed = attempted - failed
    if tracer is not None:
        metrics = snapshot
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": completed / sum(at_ref), "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
            "op_tail_ms": {"value": tail_ms(latencies, wl.TAIL_PCT), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    for kind, times in by_kind.items():
        print(f"  {kind}: median {statistics.median(times) * 1000:.2f} ms over {len(times)}", file=sys.stderr)
    print(
        f"{wl.__name__}: {rounds} rounds, {attempted} ops ({failed} failed), "
        f"{op_time:.2f} s of raw op time, {completed / op_time:.3f} raw ops/s, "
        f"{completed / sum(at_ref):.3f} ops/s at the reference speed, "
        f"speed kernel median {statistics.median(samples):.3f} ms "
        f"(reference {speed.REF_MS} ms), setup {setup_s:.3f} s",
        file=sys.stderr,
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
