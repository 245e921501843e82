"""nstar: the paper's sample-complexity experiments, one grid point per op.

Growth ops estimate the success rate of benchmark-class ERM on c1 reversed
(sampled mode) at one n; a round's growth ops give n* for m = 1, 2, 3.  The
grids are chosen so that every rate sits at least four binomial standard
errors from the 1 - delta bar, so n* does not depend on the seed: n* is
2, 6 and 8 (or 12) for m = 1, 2, 3.  Forward ops certify n* = 0 in
adversarial mode with each construction's zero-sample baseline, on a copy of
figure1 (compl), c2 (corm) or c3 (compr) relabelled by a seeded permutation
of the domain and with a seeded epsilon, so no two ops share inputs.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from comparelearn.core import Domain
from comparelearn.experiments import (
    TaskSpec,
    benchmark_erm_factory,
    estimate_sample_complexity,
    scenario,
)
from comparelearn.stat_model import DiscreteDistribution
from harness import require

EPSILON, DELTA = 0.1, 0.25
# (m, n, trials): trials keep each rate >= 4 standard errors off the bar
GROWTH = {
    "grow_m1_n0": (1, 0, 200),
    "grow_m1_n2": (1, 2, 200),
    "grow_m2_n1": (2, 1, 150),
    "grow_m2_n6": (2, 6, 150),
    "grow_m3_n3": (3, 3, 80),
    "grow_m3_n8": (3, 8, 80),
    "grow_m3_n12": (3, 12, 80),
}
FORWARD = {"fwd_figure1": ("figure1", 3), "fwd_c2": ("c2", 3), "fwd_c3": ("c3", 6)}

ROUND = list(GROWTH) + list(FORWARD)
TAIL_PCT = 80
TRACE_ROUNDS = 2


def baseline_factory(spec: TaskSpec):
    baseline = spec.baseline_model

    def learn(data, rng):
        return baseline

    return learn


def setup() -> dict:
    ctx = {m: scenario("c1", m, "reversed", EPSILON, DELTA) for m in (1, 2, 3)}
    for kind, (name, m) in FORWARD.items():
        ctx[kind] = scenario(name, m, "forward", 0.0, 0.0)
    ctx["factories"] = {m: benchmark_erm_factory(ctx[m]) for m in (1, 2, 3)}
    return ctx


def _permuted(spec: TaskSpec, perm: np.ndarray, epsilon: float) -> TaskSpec:
    """The same construction with point x renamed to inv[x]."""
    inv = np.argsort(perm)
    domain = Domain(spec.source.domain.size)
    src = type(spec.source)(domain, spec.source.matrix[:, perm], dedup=False)
    bench = type(spec.benchmark)(domain, spec.benchmark.matrix[:, perm], dedup=False)
    family = [
        DiscreteDistribution(
            domain, [(inv[x], y, p) for x, y, p in zip(mu.xs, mu.ys, mu.ps)], mu.label_kind
        )
        for mu in spec.mu_family
    ]
    base = spec.baseline_model
    baseline = type(base)(domain, base.values[perm])
    return TaskSpec(
        name=spec.name,
        kind=spec.kind,
        source=src,
        benchmark=bench,
        epsilon=epsilon,
        delta=0.0,
        loss=spec.loss,
        mu_family=family,
        baseline_model=baseline,
        meta=dict(spec.meta),
    )


def make_input(ctx, kind, seed, round_index, slot):
    op_seed = seed * 1_000_003 + round_index * len(ROUND) + slot
    if kind in GROWTH:
        return {"seed": op_seed}
    rng = ref.stream(seed, 0xF0, round_index, slot)
    spec = ctx[kind]
    perm = rng.permutation(spec.source.domain.size)
    epsilon = float(rng.uniform(0.0, 1e-3))
    return {"seed": op_seed, "spec": _permuted(spec, perm, epsilon)}


def run_op(ctx, kind, inp):
    if kind in GROWTH:
        m, n, trials = GROWTH[kind]
        return estimate_sample_complexity(
            ctx[m], lambda spec: ctx["factories"][m], [n], trials, inp["seed"]
        )
    return estimate_sample_complexity(
        inp["spec"], baseline_factory, [0], 1, inp["seed"], adversarial=True
    )


def succeeded(kind, out) -> bool:
    return out is not None


def growth_successes(spec: TaskSpec, n: int, trials: int, seed: int, grid_index: int = 0) -> int:
    """Success count of benchmark ERM in sampled mode, recomputed from the
    scenario's classes and the streams rng_stream(seed, grid_index, t)."""
    src, bench = spec.source.matrix, spec.benchmark.matrix
    size = src.shape[1]
    p = np.full(size, 1.0 / size)
    rows = np.empty(trials, dtype=np.int64)
    xs = np.empty((trials, n), dtype=np.int64)
    for t in range(trials):
        rng = ref.stream(seed, grid_index, t)
        rows[t] = int(rng.integers(src.shape[0]))
        if n:
            xs[t] = rng.choice(size, size=n, p=p)
    ys = src[rows[:, None], xs]
    models = ref.erm_models(bench, xs, ys)
    # errors in atoms of mass 1/size, compared as integer counts
    err = (models != src[rows]).sum(axis=1)
    best = (bench[None, :, :] != src[rows][:, None, :]).sum(axis=2).min(axis=1)
    return int((err <= best + spec.epsilon * size + 1e-9).sum())


def forward_certified(spec: TaskSpec) -> bool:
    """Does the baseline meet the goal exactly on every enumerated distribution?"""
    f = spec.baseline_model.values.astype(np.float64)
    bench = spec.benchmark.matrix
    for mu in spec.mu_family:
        args = (mu.xs, mu.ys, mu.ps)
        if spec.kind == "compl":
            ok = ref.error(spec.baseline_model.values, mu.xs, mu.ys.astype(np.int8), mu.ps)[0] <= (
                ref.error(bench, mu.xs, mu.ys.astype(np.int8), mu.ps).min() + spec.epsilon + 1e-12
            )
        elif spec.kind == "corm":
            ok = ref.correlation(f, *args)[0] >= ref.correlation(bench, *args).max() - spec.epsilon - 1e-12
        else:
            ok = ref.squared_loss(f, *args)[0] <= ref.squared_loss(bench, *args).min() + spec.epsilon + 1e-12
        if not ok:
            return False
    return True


def check(ctx, kind, inp, out):
    if kind in GROWTH:
        m, n, trials = GROWTH[kind]
        expected = growth_successes(ctx[m], n, trials, inp["seed"])
        require(out.successes == [expected], f"successes {out.successes} != [{expected}]")
        bar = math.ceil((1.0 - DELTA) * trials)
        require(out.n_star == (n if expected >= bar else None), f"n* {out.n_star}")
    else:
        require(forward_certified(inp["spec"]), "baseline misses the goal")
        require(out.successes == [1] and out.n_star == 0, f"forward n* {out.n_star}")


def check_round(ctx, results):
    """n* from the round's growth ops is >= 1 at m = 1 and rises strictly with m."""
    stars = {}
    for kind, _, out in results:
        if kind in GROWTH and out is not None and out.n_star is not None:
            m, n, _ = GROWTH[kind]
            stars[m] = min(stars.get(m, n), n)
    require(sorted(stars) == [1, 2, 3], f"n* missing: {stars}")
    require(1 <= stars[1] < stars[2] < stars[3], f"n* not strictly rising: {stars}")


def finish(ctx):
    pass
