"""Scenario generators, the Monte-Carlo sample-complexity estimator, and
reproducible experiment orchestration.

Scenarios build the finite constructions used throughout the validation
suite: the disjoint-complexity pair (``figure1``) and the four non-duality
constructions (``c1``..``c4``).  Each scenario carries an explicit finite
family of admissible distributions (for adversarial-mode certification) and
a generator for sampled-mode trials, together with an exactly evaluable goal.

Success declaration uses the raw empirical rate >= 1 - delta with Wilson 95%
intervals reported alongside; the declared n* is a point estimate of our
learners' behavior, never the task's true sample complexity.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from . import __about__
from .core import (
    BinaryClass,
    BinaryModel,
    ConfigError,
    Domain,
    GuardError,
    RealClass,
    RealModel,
    _json_float,
    _real_view,
)
from .offline import (
    LossFunction,
    comparative_learn,
    erm_agnostic,
    squared_loss,
)
from .stat_model import (
    BER_STAR,
    DETERMINISTIC,
    Dataset,
    DiscreteDistribution,
    SourceModel,
    _binary_values,
    _corr_rows,
    _error_rows,
    _loss_rows,
    _total_values,
    make_distribution,
    rng_stream,
)

GOAL_ATOL = 1e-12  # float-summation slack for "exact" goal comparisons

SCENARIO_EXHAUSTIVE_M = 4


@dataclass
class TaskSpec:
    """A learning task instance with exactly evaluable success criteria."""

    name: str
    kind: str  # "compl" | "dcorm" | "corm" | "compr"
    source: BinaryClass | RealClass
    benchmark: BinaryClass | RealClass
    epsilon: float
    delta: float
    loss: LossFunction | None = None
    mu_family: list[DiscreteDistribution] | None = None
    mu_generator: Callable[[np.random.Generator], DiscreteDistribution] | None = None
    mu_x: np.ndarray | None = None  # set iff the task is distribution-specific
    baseline_model: BinaryModel | RealModel | None = None
    meta: dict = field(default_factory=dict)

    def draw_mu(self, rng: np.random.Generator) -> DiscreteDistribution:
        if self.mu_generator is not None:
            return self.mu_generator(rng)
        if self.mu_family:
            return self.mu_family[int(rng.integers(len(self.mu_family)))]
        raise ValueError(f"scenario {self.name} has no distribution family")


def _support_rows(model_values: np.ndarray, benchmark, xs: np.ndarray, real: bool) -> np.ndarray:
    """Row 0: the model on the support points ``xs``; row 1 + i: member i there.

    With ``real`` a binary benchmark is read as +-1 with * as NaN.
    """
    members = benchmark.matrix[:, xs]
    if real:
        members = _real_view(members)
    return np.concatenate((model_values[None, xs], members))


def goal_satisfied(spec: TaskSpec, model, mu: DiscreteDistribution) -> bool:
    """Exactly evaluate the task goal for one model against one distribution.

    The model and every benchmark member are scored by the same row
    functional of :mod:`stat_model` over their values on the support (row 0
    is the model), so a model equal to a member ties with it exactly: the
    mistake mass with * counting as a mistake (compl), E[y <> b(x)] with the
    generalized product (corm, dcorm), or E[loss(y, b(x))] (compr, where a
    member with * on the support is an error).
    """
    bench = spec.benchmark
    if spec.kind == "compl":
        if not isinstance(bench, BinaryClass):
            raise TypeError("a compl benchmark must be a BinaryClass")
        err = _error_rows(_support_rows(_binary_values(model), bench, mu.xs, real=False), mu)
        return bool(err[0] <= err[1:].min() + spec.epsilon + GOAL_ATOL)
    if spec.kind in ("corm", "dcorm"):
        corr = _corr_rows(_support_rows(_total_values(model), bench, mu.xs, real=True), mu)
        return bool(corr[0] >= corr[1:].max() - spec.epsilon - GOAL_ATOL)
    if spec.kind == "compr":
        rows = _support_rows(_total_values(model), bench, mu.xs, real=True)
        if np.isnan(rows[1:]).any():
            raise ValueError("compr benchmark members must be defined on the support (no *)")
        loss = _loss_rows(spec.loss, rows, mu)
        return bool(loss[0] <= loss[1:].min() + spec.epsilon + GOAL_ATOL)
    raise ValueError(f"unknown task kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


SCENARIO_SUBCLASS_CAP = 512


def _k_ones_class(n: int, sets) -> BinaryClass:
    """Member i is +1 exactly on the i-th index set of ``sets`` (all of one size)."""
    sets = np.array(list(sets), dtype=np.int64)
    rows = -np.ones((len(sets), n), dtype=np.int8)
    np.put_along_axis(rows, sets, 1, axis=1)
    return BinaryClass(Domain(n), rows)


def _all_sign_patterns(n: int) -> np.ndarray:
    """Row i holds +1 at point j iff bit j of i is set, else -1."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int8)


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _subset_uniform(n: int, subset) -> np.ndarray:
    mu = np.zeros(n)
    mu[list(subset)] = 1.0 / len(subset)
    return mu


def _family(sources, laws, marginals) -> list[DiscreteDistribution]:
    """One distribution per (member, marginal, law) of ``sources``, in that nesting order."""
    return [
        make_distribution(mu_x, SourceModel(hyp, law))
        for hyp in map(sources.member, range(len(sources)))
        for mu_x in marginals
        for law in laws
    ]


def scenario(
    name: str,
    m: int,
    direction: str = "forward",
    epsilon: float = 0.0,
    delta: float = 0.0,
) -> TaskSpec:
    """Build one of the named constructions at size parameter m.

    ``figure1``: disjoint-complexity pair on 2m points (source free on the
    second half, benchmark free on the first); zero-sample comparative
    learning via the constant +1 model.

    ``c1``: exactly-m-ones source vs exactly-2m-ones benchmark on 4m points,
    uniform marginal; distribution-specific comparative learning.  Exhaustive
    class enumeration up to m = 4; beyond that a seeded random subclass of
    512 members per side is used and only sampled mode is available.  ``c2``:
    {0,1}-valued source vs sign-valued benchmark on 2m points (correlation
    maximization).  ``c3``: {-1/2,1/2} source vs sign benchmark with the
    squared loss (comparative regression).  ``c4``: the bottom-point
    construction whose source/benchmark correlations are source-independent.

    ``direction="reversed"`` swaps the two classes (where meaningful) to
    produce the hard direction used by the growth experiments.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    if direction not in ("forward", "reversed"):
        raise ConfigError(f"unknown direction {direction!r}")
    if name == "figure1":
        return _scenario_figure1(m, epsilon, delta)
    if name == "c1":
        return _scenario_c1(m, direction, epsilon, delta)
    if name == "c2":
        return _scenario_c2(m, direction, epsilon, delta)
    if name == "c3":
        return _scenario_c3(m, direction, epsilon, delta)
    if name == "c4":
        return _scenario_c4(m, epsilon, delta)
    raise ConfigError(f"unknown scenario {name!r}")


def _scenario_figure1(m: int, epsilon: float, delta: float) -> TaskSpec:
    if m > SCENARIO_EXHAUSTIVE_M:
        raise GuardError(f"figure1 exhaustive mode is guarded to m <= {SCENARIO_EXHAUSTIVE_M}")
    n = 2 * m
    domain = Domain(n)
    free = _all_sign_patterns(m)
    S = BinaryClass(domain, np.hstack([np.ones((2**m, m), dtype=np.int8), free]))
    B = BinaryClass(domain, np.hstack([free, np.ones((2**m, m), dtype=np.int8)]))
    subsets = [s for r in range(1, n + 1) for s in combinations(range(n), r)]
    return TaskSpec(
        name="figure1",
        kind="compl",
        source=S,
        benchmark=B,
        epsilon=epsilon,
        delta=delta,
        mu_family=_family(S, (DETERMINISTIC,), [_subset_uniform(n, sub) for sub in subsets]),
        baseline_model=BinaryModel.constant(domain, 1),
        meta={"m": m},
    )


def _scenario_c1(m: int, direction: str, epsilon: float, delta: float) -> TaskSpec:
    n = 4 * m
    domain = Domain(n)
    exhaustive = m <= SCENARIO_EXHAUSTIVE_M
    if exhaustive:
        def k_sets(k):
            return combinations(range(n), k)
    else:
        # class sizes are binomial in 4m: beyond the exhaustive guard the
        # scenario uses a seeded random subclass (documented subfamily mode)
        gen_rng = rng_stream(0xC1, m)

        def k_sets(k):  # distinct sorted draws, in the order first drawn
            sets = {}
            while len(sets) < SCENARIO_SUBCLASS_CAP:
                sets[tuple(sorted(gen_rng.choice(n, size=k, replace=False).tolist()))] = None
            return sets

    S, B = (_k_ones_class(n, k_sets(k)) for k in (m, 2 * m))
    mu_x = _uniform(n)
    src_cls, bench_cls = (S, B) if direction == "forward" else (B, S)
    family = _family(src_cls, (DETERMINISTIC,), (mu_x,))

    def gen(rng: np.random.Generator) -> DiscreteDistribution:
        return family[int(rng.integers(len(family)))]

    # beyond the guard the subfamily is sampled only: no adversarial family
    return TaskSpec(
        name="c1",
        kind="compl",
        source=src_cls,
        benchmark=bench_cls,
        epsilon=epsilon,
        delta=delta,
        mu_family=family if exhaustive else None,
        mu_generator=None if exhaustive else gen,
        mu_x=mu_x,
        baseline_model=BinaryModel.constant(domain, -1) if direction == "forward" else None,
        meta={"m": m, "direction": direction, "exhaustive": exhaustive},
    )


def _scenario_c2(m: int, direction: str, epsilon: float, delta: float) -> TaskSpec:
    if m > 3:
        raise GuardError("c2 enumerates 2^(2m) hypotheses; guarded to m <= 3")
    n = 2 * m
    domain = Domain(n)
    signs = _all_sign_patterns(n)
    S = RealClass(domain, (signs.astype(np.float64) + 1.0) / 2.0)  # {0, 1}-valued
    B = RealClass(domain, signs.astype(np.float64))
    mu_x = _uniform(n)
    forward = direction == "forward"
    # forward maximizes correlation against Ber* labels too; reversed is
    # distribution-specific with deterministic sign labels
    src_cls, bench_cls = (S, B) if forward else (B, S)
    laws = (DETERMINISTIC, BER_STAR) if forward else (DETERMINISTIC,)
    return TaskSpec(
        name="c2",
        kind="corm" if forward else "dcorm",
        source=src_cls,
        benchmark=bench_cls,
        epsilon=epsilon,
        delta=delta,
        mu_family=_family(src_cls, laws, (mu_x,)),
        mu_x=None if forward else mu_x,
        baseline_model=BinaryModel.constant(domain, 1) if forward else None,
        meta={"m": m, "direction": direction},
    )


def _scenario_c3(m: int, direction: str, epsilon: float, delta: float) -> TaskSpec:
    if m > 6:
        raise GuardError("c3 enumerates 2^m sources; guarded to m <= 6")
    domain = Domain(m)
    signs = _all_sign_patterns(m)
    S = RealClass(domain, signs.astype(np.float64) / 2.0)  # {-1/2, 1/2}-valued
    B = RealClass(domain, signs.astype(np.float64))
    mu_x = _uniform(m)
    src_cls, bench_cls = (S, B) if direction == "forward" else (B, S)
    return TaskSpec(
        name="c3",
        kind="compr",
        source=src_cls,
        benchmark=bench_cls,
        epsilon=epsilon,
        delta=delta,
        loss=squared_loss(),
        mu_family=_family(src_cls, (BER_STAR,), (mu_x,)),
        mu_x=mu_x if direction == "reversed" else None,
        baseline_model=RealModel.constant(domain, 0.0) if direction == "forward" else None,
        meta={"m": m, "direction": direction},
    )


def _scenario_c4(m: int, epsilon: float, delta: float) -> TaskSpec:
    """Bottom point plus a 4 x m grid; E[s(x) b(x)] does not depend on s.

    Point 0 is the bottom point; grid row i in 1..4 is the block of points
    1 + (i - 1) m .. i m, one column block per row below.
    """
    if m > 8:
        raise GuardError("c4 enumerates 2^m sources and 4^m benchmarks; m <= 8")
    domain = Domain(1 + 4 * m)
    h = _all_sign_patterns(m).astype(np.float64)
    s_blocks = [(h + 2.0) / 3.0, (-h + 2.0) / 3.0, (h - 2.0) / 3.0, (-h - 2.0) / 3.0]
    S = RealClass(domain, np.hstack([np.ones((2**m, 1)), *s_blocks]))
    p, r = np.repeat(h, 2**m, axis=0), np.tile(h, (2**m, 1))  # p outer, r inner
    B = RealClass(domain, np.hstack([np.zeros((4**m, 1)), r, p, -r, -p]))
    mu_x = np.full(domain.size, 1.0 / (8 * m))
    mu_x[0] = 0.5
    return TaskSpec(
        name="c4",
        kind="corm",
        source=S,
        benchmark=B,
        epsilon=epsilon,
        delta=delta,
        mu_x=mu_x,
        meta={"m": m},
    )


def _scaled_ints(values: np.ndarray, scale: int, what: str) -> np.ndarray:
    """``values * scale`` as int64; ValueError unless every value is a multiple of 1/scale."""
    ints = np.rint(values * scale)
    if not (np.abs(values - ints / scale) < 1e-12).all():
        raise ValueError(f"unexpected c4 {what}: not all multiples of 1/{scale}")
    return ints.astype(np.int64)


def _c4_numerators(spec: TaskSpec) -> tuple[np.ndarray, int]:
    """E[s(x) b(x)] for every (benchmark, source) pair as int64 numerators over one denominator.

    Source and benchmark values must be multiples of 1/3 and the masses of
    mu_x multiples of 1/(8m), so the sums are exact in integers.
    """
    if spec.name != "c4":
        raise ValueError("c4_correlations_exact needs a c4 scenario")
    m = spec.meta["m"]
    weights = _scaled_ints(spec.mu_x, 8 * m, "mass")
    S = _scaled_ints(spec.source.matrix, 3, "value")
    B = _scaled_ints(spec.benchmark.matrix, 3, "value")
    return B @ (S * weights).T, 9 * 8 * m


def c4_correlations_exact(spec: TaskSpec) -> list[list[Fraction]]:
    """E[s(x) b(x)] for every (s, b) pair of the c4 scenario, in exact fractions.

    Along the way this is the exact-arithmetic backing for the invariance
    check: each inner list (one per benchmark) must be constant across
    sources, with value (1/(8m)) * (4/3) * sum(p_j + r_j).
    """
    numerators, denominator = _c4_numerators(spec)
    return [[Fraction(v, denominator) for v in row] for row in numerators.tolist()]


# ---------------------------------------------------------------------------
# sample-complexity estimation
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class EstimateReport:
    """Per-n success counts and the declared n* (a point estimate)."""

    scenario: str
    direction: str
    m: int
    grid: list[int]
    trials: int
    successes: list[int]
    n_star: int | None
    seed: int
    adversarial: bool
    wall_ms: int

    def success_rate(self, i: int) -> float:
        return self.successes[i] / self.trials if self.trials else 0.0

    def wilson(self, i: int) -> tuple[float, float]:
        return wilson_interval(self.successes[i], self.trials)

    def monotonicity_violations(self, tol_se: float = 2.0) -> list[tuple[int, int]]:
        """Grid pairs where the rate drops by more than tol_se standard errors."""
        out = []
        for i in range(len(self.grid) - 1):
            r0, r1 = self.success_rate(i), self.success_rate(i + 1)
            se = math.sqrt(max(r0 * (1 - r0), r1 * (1 - r1), 1e-12) / max(self.trials, 1))
            if r1 < r0 - tol_se * se:
                out.append((self.grid[i], self.grid[i + 1]))
        return out


def _trial(spec: TaskSpec, learner, mu: DiscreteDistribution, n: int, rng) -> bool:
    """One trial: sample n points from mu, learn, and test the goal on mu."""
    data = mu.sample(n, rng) if n else Dataset(np.empty(0, np.int64), np.empty(0))
    return goal_satisfied(spec, learner(data, rng), mu)


def estimate_sample_complexity(
    spec: TaskSpec,
    learner_factory: Callable[[TaskSpec], Callable[[Dataset, np.random.Generator], object]],
    n_grid,
    trials: int,
    seed: int,
    adversarial: bool = False,
) -> EstimateReport:
    """Empirical n*: the smallest grid n whose success rate reaches 1 - delta.

    Sampled mode draws one distribution from the family per trial.  In
    adversarial mode every enumerated distribution must separately reach the
    1 - delta bar with ``trials`` trials each.
    """
    grid = sorted(int(n) for n in n_grid)
    if not grid:
        raise ValueError("empty n grid")
    learner = learner_factory(spec)
    bar = math.ceil((1.0 - spec.delta) * trials)
    t0 = time.perf_counter()
    successes = []
    n_star = None
    for gi, n in enumerate(grid):
        if adversarial:
            if not spec.mu_family:
                raise ValueError("adversarial mode needs an enumerated family")
            worst = trials
            for mi, mu in enumerate(spec.mu_family):
                rngs = (rng_stream(seed, gi, mi, t) for t in range(trials))
                count = sum(_trial(spec, learner, mu, n, rng) for rng in rngs)
                worst = min(worst, count)
                if worst < bar:
                    break
            successes.append(worst)
        else:
            count = 0
            for t in range(trials):
                rng = rng_stream(seed, gi, t)
                count += _trial(spec, learner, spec.draw_mu(rng), n, rng)
            successes.append(count)
        if n_star is None and successes[-1] >= bar:
            n_star = n
    wall_ms = int((time.perf_counter() - t0) * 1000)
    return EstimateReport(
        scenario=spec.name,
        direction=spec.meta.get("direction", "forward"),
        m=spec.meta.get("m", 0),
        grid=grid,
        trials=trials,
        successes=successes,
        n_star=n_star,
        seed=seed,
        adversarial=adversarial,
        wall_ms=wall_ms,
    )


def default_learner_factory(spec: TaskSpec):
    """The stock learner for a scenario: the construction's zero-sample
    baseline when it has one (the forward constructions), otherwise
    agreement-class ERM (``comparative_learn``) for comparative learning."""
    if spec.baseline_model is not None:
        baseline = spec.baseline_model

        def learn_const(data: Dataset, rng):
            return baseline

        return learn_const
    if spec.kind == "compl":
        S, B = spec.source, spec.benchmark

        def learn(data: Dataset, rng) -> BinaryModel:
            return comparative_learn(S, B, data)

        return learn
    raise ValueError(
        f"no default learner for scenario {spec.name} kind {spec.kind}; supply a factory"
    )


def benchmark_erm_factory(spec: TaskSpec):
    """Agnostic ERM over the benchmark class, ignoring the source side.

    Any agnostic learner for the benchmark class solves comparative learning,
    so this is a valid comparative learner.  It is the designated family for
    the reversed-direction growth experiments: the agreement-class learner
    short-cuts the exactly-k-ones construction through its * -> +1 completion
    (completing an agreement member recovers the source hypothesis exactly),
    which flattens its n* in m, whereas this family has to localize the
    benchmark's support and scales with m.
    """
    if spec.kind != "compl":
        raise ValueError("benchmark_erm_factory applies to comparative learning only")
    bench = spec.benchmark

    def learn(data: Dataset, rng) -> BinaryModel:
        return erm_agnostic(bench, data)

    return learn


LEARNER_FACTORIES = {
    "default": default_learner_factory,
    "benchmark_erm": benchmark_erm_factory,
}


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------

CSV_HEADER = "scenario,direction,m,n,trials,successes,wilson_lo,wilson_hi,seed,millis"


_ENTRY_DEFAULTS = {
    "direction": "forward",
    "epsilon": 0.0,
    "delta": 0.0,
    "grid": [0],
    "trials": 1,
    "mode": "sampled",
    "learner": "default",
}


def _is_int(value) -> bool:
    """Is ``value`` a JSON integer (a bool is not one)?"""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_config(cfg: dict) -> dict:
    """The checked config as a new dict, with every default written out."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    if not _is_int(cfg.get("seed")):
        raise ConfigError("config.seed: required integer")
    record_millis = cfg.get("record_millis", False)
    if not isinstance(record_millis, bool):
        raise ConfigError("config.record_millis: must be a boolean")
    exps = cfg.get("experiments")
    if not isinstance(exps, list) or not exps:
        raise ConfigError("config.experiments: required nonempty list")
    entries = []
    for i, e in enumerate(exps):
        where = f"config.experiments[{i}]"
        if not isinstance(e, dict):
            raise ConfigError(f"{where}: must be an object")
        e = {**_ENTRY_DEFAULTS, **e}
        entries.append(e)
        name = e.get("scenario")
        if name not in ("figure1", "c1", "c2", "c3", "c4"):
            raise ConfigError(f"{where}.scenario: unknown scenario {name!r}")
        if not _is_int(e.get("m")) or e["m"] < 1:
            raise ConfigError(f"{where}.m: required positive integer")
        if name == "c4":
            continue
        if e["direction"] not in ("forward", "reversed"):
            raise ConfigError(f"{where}.direction: must be forward or reversed")
        try:
            epsilon, delta = (
                _json_float(e[key], f"{where}.{key}: must be a number") for key in ("epsilon", "delta")
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ConfigError(f"{where}.epsilon: must be a finite nonnegative number, got {epsilon!r}")
        if not 0 <= delta < 1:
            raise ConfigError(f"{where}.delta: must lie in [0, 1), got {delta!r}")
        grid = e["grid"]
        if not isinstance(grid, list) or not all(_is_int(n) and n >= 0 for n in grid):
            raise ConfigError(f"{where}.grid: must be a list of nonnegative integers")
        if not _is_int(e["trials"]) or e["trials"] < 1:
            raise ConfigError(f"{where}.trials: must be a positive integer")
        if e["mode"] not in ("sampled", "adversarial"):
            raise ConfigError(f"{where}.mode: must be sampled or adversarial")
        if e["learner"] not in LEARNER_FACTORIES:
            raise ConfigError(
                f"{where}.learner: must be one of {sorted(LEARNER_FACTORIES)}"
            )
    return {"seed": cfg["seed"], "record_millis": record_millis, "experiments": entries}


def toolkit_version_hash() -> str:
    """Short content hash of the package sources, for replay provenance."""
    import importlib
    import pathlib

    pkg_dir = pathlib.Path(importlib.import_module(__package__).__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_experiment(config: dict, out_dir) -> dict:
    """Run a validated experiment config; write CSV, JSON summary, curve files.

    Outputs are pure functions of (config, seed, toolkit version): wall-clock
    timing goes to the CSV millis column only when ``record_millis`` is true
    (it defaults to 0 so that replays are byte-identical) and always appears
    in the JSON summary.
    """
    import pathlib

    cfg = _validate_config(config)
    out = pathlib.Path(out_dir)
    seed = cfg["seed"]
    record_millis = cfg["record_millis"]
    rows = []
    curves: dict[str, list[str]] = {}
    summary_entries = []
    for ei, e in enumerate(cfg["experiments"]):
        name = e["scenario"]
        m = e["m"]
        if name == "c4":
            spec = scenario("c4", m)
            t0 = time.perf_counter()
            table, _ = _c4_numerators(spec)
            ok = int((table == table[:, :1]).all(axis=1).sum())  # rows constant across sources
            ms = int((time.perf_counter() - t0) * 1000)
            rows.append(
                (name, "forward", m, 0, len(table), ok, *wilson_interval(ok, len(table)), seed, ms if record_millis else 0)
            )
            summary_entries.append(
                {"scenario": name, "m": m, "pairs": len(table), "invariant_ok": ok, "wall_ms": ms}
            )
            continue
        direction = e["direction"]
        spec = scenario(name, m, direction, e["epsilon"], e["delta"])
        report = estimate_sample_complexity(
            spec,
            LEARNER_FACTORIES[e["learner"]],
            e["grid"],
            e["trials"],
            seed + ei,
            adversarial=e["mode"] == "adversarial",
        )
        curve_lines = []
        for i, n in enumerate(report.grid):
            lo, hi = report.wilson(i)
            rows.append(
                (
                    name,
                    direction,
                    m,
                    n,
                    report.trials,
                    report.successes[i],
                    lo,
                    hi,
                    seed + ei,
                    report.wall_ms if record_millis else 0,
                )
            )
            curve_lines.append(
                f"{n} {report.successes[i]} {report.trials} {lo:.6f} {hi:.6f}"
            )
        curves[f"{name}_{direction}_m{m}"] = curve_lines
        summary_entries.append(
            {
                "scenario": name,
                "direction": direction,
                "m": m,
                "grid": report.grid,
                "successes": report.successes,
                "n_star": report.n_star,
                "wall_ms": report.wall_ms,
            }
        )
    # all computation done; write outputs only now so failures leave no files
    out.mkdir(parents=True, exist_ok=True)
    csv_lines = [CSV_HEADER]
    for r in rows:
        csv_lines.append(
            f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},{r[5]},{r[6]:.6f},{r[7]:.6f},{r[8]},{r[9]}"
        )
    (out / "results.csv").write_text("\n".join(csv_lines) + "\n")
    summary = {
        "seed": seed,
        "toolkit_version": __about__.__version__,
        "toolkit_hash": toolkit_version_hash(),
        "config_sha256": hashlib.sha256(  # the config as given, not with defaults filled
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest(),
        "experiments": summary_entries,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    curve_dir = out / "curves"
    curve_dir.mkdir(exist_ok=True)
    for key, lines in curves.items():
        (curve_dir / f"{key}.dat").write_text(
            "# n successes trials wilson_lo wilson_hi\n" + "\n".join(lines) + "\n"
        )
    return summary
