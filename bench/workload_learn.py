"""learn: batch fits and online matches, at the acceptance-test sizes.

Every op gets a fresh seeded instance: random classes with a planted source
(or a planted agreeing pair), a distribution and a sample drawn from it.  The
guarantee checks count failures per learner over the run and compare them
with the acceptance budgets delta + 3 sqrt(delta (1 - delta) / trials).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference as ref
from comparelearn.core import BinaryClass, Domain, IntervalPartition, RealClass, RealHypothesis, as_real_class
from comparelearn.dimensions import MistakeTree
from comparelearn.offline import (
    LearnerParams,
    boost,
    comparative_learn,
    dcorm_binary_benchmark,
    dcorm_real,
    exact_weak_oracle,
    ma_mc_learn,
    omnipredict,
    plan_dcorm_binary,
    squared_loss,
)
from comparelearn.online import LabeledSequence, SOALearner, comp_online, play_tree_adversary, run_sequence
from comparelearn.stat_model import BER_STAR, DETERMINISTIC, Dataset, SourceModel, make_distribution
from harness import require

GRID = np.linspace(-1.0, 1.0, 9)

DCORM_ETA, DCORM_EPS, DCORM_DELTA = 0.1, 0.3, 0.1
REAL_ETA1 = REAL_ETA2 = 0.1
REAL_EPS, REAL_DELTA = 0.3 + 2 * 0.1 + 2 * 0.1, 0.1
MAMC_ALPHA, MAMC_GAMMA, MAMC_DELTA, MAMC_K = 0.6, 0.3, 0.1, 3
MAMC_W = int(4 / MAMC_GAMMA**2) + 1
BOOST_ALPHA, BOOST_GAMMA, BOOST_EPS = 0.5, 0.3, 0.3
BOOST_D = 0.002
BOOST_WP = 23
BOOST_W = BOOST_WP + int(4 / BOOST_EPS**2) + 3
BOOST_DELTA = BOOST_WP * 3 * BOOST_D + BOOST_W * BOOST_D
OMNI_K, OMNI_GAMMA, OMNI_EPS, OMNI_ALPHA, OMNI_DELTA = 4, 0.3, 0.3, 0.7, 0.1
OMNI_WP = int(4 / OMNI_GAMMA**2) + 1
OMNI_W = OMNI_WP + int(4 / OMNI_EPS**2) + 1
TREE_DEPTH = 5

DELTAS = {
    "dcorm_bin": DCORM_DELTA,
    "dcorm_real": REAL_DELTA,
    "mamc": MAMC_DELTA,
    "boost": BOOST_DELTA,
    "omni": OMNI_DELTA,
}

ROUND = ["comp", "dcorm_bin", "dcorm_real", "mamc", "boost", "omni", "online", "soa", "tree"]
TAIL_PCT = 95
TRACE_ROUNDS = 10


def setup() -> dict:
    return {
        "mamc_oracle": exact_weak_oracle(eta2=0.45, alpha=MAMC_ALPHA / 2, gamma=MAMC_GAMMA / 2),
        "omni_oracle": exact_weak_oracle(eta2=0.45, alpha=OMNI_ALPHA / 2, gamma=OMNI_GAMMA / 2),
        "loss": squared_loss(),
        "mamc_params": LearnerParams(alpha=MAMC_ALPHA, gamma=MAMC_GAMMA, W=MAMC_W, n1=700, n2=700),
        "boost_params": LearnerParams(
            alpha=BOOST_ALPHA, gamma=BOOST_GAMMA, epsilon=BOOST_EPS, W=BOOST_W,
            W_prime=BOOST_WP, n1=800, n2=500, n3=250, n0=600,
        ),
        "omni_params": LearnerParams(
            alpha=OMNI_ALPHA, gamma=OMNI_GAMMA, epsilon=OMNI_EPS, W=OMNI_W, W_prime=OMNI_WP,
            n1=400, n2=250, n3=250, k=OMNI_K,
        ),
        "fails": Counter(),
        "trials": Counter(),
    }


def _real(rng, n, members, star) -> np.ndarray:
    m = rng.choice(GRID, size=(members, n))
    m[rng.random((members, n)) < star] = np.nan
    return m


def _planted_dist(rng, S: np.ndarray, law):
    """A law with a random marginal and a source drawn from the total rows of S."""
    n = S.shape[1]
    total = np.flatnonzero(~np.isnan(S).any(axis=1))
    row = S[int(total[int(rng.integers(total.size))])]
    return make_distribution(rng.dirichlet(np.ones(n)), SourceModel(RealHypothesis(Domain(n), row), law))


def _sequence(rng, matrix: np.ndarray, n: int) -> LabeledSequence:
    """A sequence labelled by one row of ``matrix``, on the points it defines."""
    row = matrix[int(rng.integers(matrix.shape[0]))]
    xs = rng.choice(np.flatnonzero(row != 0), size=n)
    return LabeledSequence(tuple((int(x), int(row[x])) for x in xs))


def make_input(ctx, kind, seed, round_index, slot):
    rng = ref.stream(seed, 0x1E, round_index, slot)
    if kind == "comp":
        n = 24
        S, B = ref.binary_rows(rng, n, 256, 0.1), ref.binary_rows(rng, n, 256, 0.1)
        i, j = int(rng.integers(256)), int(rng.integers(256))
        B[j] = S[i]
        xs = rng.choice(np.flatnonzero(S[i] != 0), size=200)
        ys = S[i, xs].astype(np.float64)
        flip = rng.random(200) < 0.1
        ys[flip] = -ys[flip]
        return {"S": BinaryClass(Domain(n), S), "B": BinaryClass(Domain(n), B), "data": Dataset(xs, ys)}
    if kind == "dcorm_bin":
        n = 12
        S = RealClass(Domain(n), _real(rng, n, int(rng.integers(5, 21)), 0.1))
        if np.isnan(S.matrix).any(axis=1).all():
            S = RealClass(Domain(n), np.vstack([rng.choice(GRID, size=(1, n)), S.matrix]))
        B = BinaryClass(Domain(n), ref.binary_rows(rng, n, int(rng.integers(5, 21)), 0.2))
        dist = _planted_dist(rng, S.matrix, DETERMINISTIC)
        size = plan_dcorm_binary(S, B, DCORM_EPS, DCORM_ETA, DCORM_DELTA).n
        return {"S": S, "B": B, "dist": dist, "data": dist.sample(size, rng), "rng": rng}
    if kind == "dcorm_real":
        n = 8
        S = RealClass(Domain(n), _real(rng, n, 6, 0.0))
        B = RealClass(Domain(n), _real(rng, n, 6, 0.2))
        dist = _planted_dist(rng, S.matrix, DETERMINISTIC)
        return {"S": S, "B": B, "dist": dist, "data": dist.sample(800, rng), "rng": rng}
    if kind in ("mamc", "boost"):
        n = 8
        S = RealClass(Domain(n), _real(rng, n, 5, 0.0))
        B = as_real_class(BinaryClass(Domain(n), ref.binary_rows(rng, n, 5, 0.2)))
        if kind == "mamc":
            dist = _planted_dist(rng, S.matrix, BER_STAR)
            size = MAMC_W * 1400
        else:
            dist = _planted_dist(rng, S.matrix, DETERMINISTIC)
            size = BOOST_WP * 1300 + BOOST_W * 250
        return {"S": S, "B": B, "dist": dist, "data": dist.sample(size, rng), "rng": rng}
    if kind == "omni":
        n = 6
        S = RealClass(Domain(n), _real(rng, n, 4, 0.0))
        B = as_real_class(BinaryClass(Domain(n), ref.binary_rows(rng, n, 4, 0.0)))
        dist = _planted_dist(rng, S.matrix, BER_STAR)
        data = dist.sample(OMNI_WP * 650 + OMNI_W * 250, rng)
        return {"S": S, "B": B, "dist": dist, "data": data, "rng": rng}
    if kind == "online":
        n = 10
        S, B = ref.binary_rows(rng, n, 64, 0.1), ref.binary_rows(rng, n, 64, 0.1)
        return {"S": BinaryClass(Domain(n), S), "B": BinaryClass(Domain(n), B),
                "seq": _sequence(rng, S, 300)}
    if kind == "soa":
        n = 10
        H = ref.binary_rows(rng, n, 64, 0.0)
        return {"H": BinaryClass(Domain(n), H), "seq": _sequence(rng, H, 200)}
    # a planted mutually shattered set on the first TREE_DEPTH points
    S, B = (ref.binary_rows(rng, 10, 64, 0.1, range(TREE_DEPTH)) for _ in range(2))
    nodes = tuple(level for level in range(TREE_DEPTH) for _ in range(2**level))
    return {"S": BinaryClass(Domain(10), S), "B": BinaryClass(Domain(10), B),
            "tree": MistakeTree(TREE_DEPTH, nodes)}


def run_op(ctx, kind, inp):
    if kind == "comp":
        return comparative_learn(inp["S"], inp["B"], inp["data"])
    if kind == "dcorm_bin":
        return dcorm_binary_benchmark(inp["S"], inp["B"], inp["data"], LearnerParams(eta=DCORM_ETA), inp["rng"])
    if kind == "dcorm_real":
        params = LearnerParams(eta1=REAL_ETA1, eta2=REAL_ETA2, n1=500, n2=300)
        return dcorm_real(inp["S"], inp["B"], inp["data"], params, inp["rng"])
    if kind == "mamc":
        return ma_mc_learn(inp["S"], inp["B"], inp["data"], IntervalPartition(MAMC_K),
                           ctx["mamc_params"], ctx["mamc_oracle"], inp["rng"])
    if kind == "boost":
        calls = []
        oracle = exact_weak_oracle(eta2=0.45, alpha=BOOST_ALPHA, gamma=BOOST_GAMMA, n0=600, delta1=BOOST_D)
        inner = oracle.fn

        def counted(S, B, data, rng):
            calls.append(1)
            return inner(S, B, data, rng)

        oracle.fn = counted
        model = boost(inp["S"], inp["B"], inp["data"], oracle, ctx["boost_params"], inp["rng"])
        return model, len(calls)
    if kind == "omni":
        return omnipredict(inp["S"], inp["B"], ctx["loss"], inp["data"], IntervalPartition(OMNI_K),
                           ctx["omni_params"], ctx["omni_oracle"], inp["rng"])
    if kind == "online":
        learner = comp_online(inp["S"], inp["B"], len(inp["seq"]))
        return run_sequence(learner, inp["seq"], inp["B"]), learner.regret_bound
    if kind == "soa":
        return run_sequence(SOALearner(inp["H"]), inp["seq"])
    learner = comp_online(inp["S"], inp["B"], TREE_DEPTH)
    return play_tree_adversary(learner, inp["tree"], inp["S"], inp["B"])


def succeeded(kind, out) -> bool:
    return out is not None


def _dist_arrays(dist):
    return dist.xs, dist.ys, dist.ps


def _guarantee(ctx, kind, ok: bool) -> None:
    ctx["trials"][kind] += 1
    ctx["fails"][kind] += not ok


def _consistent(matrix: np.ndarray, seq: LabeledSequence) -> np.ndarray:
    xs = np.array([x for x, _ in seq])
    ys = np.array([y for _, y in seq], dtype=np.int8)
    return (matrix[:, xs] == ys).all(axis=1)


def check(ctx, kind, inp, out):
    if kind == "comp":
        S, B, data = inp["S"].matrix, inp["B"].matrix, inp["data"]
        starred, completed = ref.pair_mistakes(S, B, data.xs, data.ys)
        i, j = np.unravel_index(int(np.argmin(starred)), starred.shape)  # first pair, S-major
        row = ref.agreement_rows(S[i : i + 1], B[j : j + 1])[0]
        require(np.array_equal(out.values, ref.complete(row)), "model is not the first ERM pair, completed")
        mistakes = int((out.values[data.xs] != data.ys.astype(np.int8)).sum())
        require(completed.min() <= mistakes <= starred.min(), f"mistakes {mistakes} out of range")
    elif kind in ("dcorm_bin", "dcorm_real", "boost"):
        args = _dist_arrays(inp["dist"])
        model = out[0] if kind == "boost" else out
        margin = {
            "dcorm_bin": DCORM_EPS + 2 * DCORM_ETA,
            "dcorm_real": REAL_EPS,
            "boost": BOOST_ALPHA + BOOST_EPS,
        }[kind]
        bench = inp["B"].matrix
        if bench.dtype == np.int8:  # binary benchmark: 0 encodes *
            bench = np.where(bench == 0, np.nan, bench.astype(np.float64))
        best = ref.correlation(bench, *args).max()
        corr = ref.correlation(model.values.astype(np.float64), *args)[0]
        _guarantee(ctx, kind, corr >= best - margin - 1e-12)
        if kind == "boost":
            require(out[1] <= BOOST_WP, f"boost made {out[1]} oracle calls > W' = {BOOST_WP}")
    elif kind == "mamc":
        err = ref.mc_error_cells(out.values, inp["B"].matrix, MAMC_K, *_dist_arrays(inp["dist"]))
        _guarantee(ctx, kind, err <= MAMC_ALPHA)
    elif kind == "omni":
        args = _dist_arrays(inp["dist"])
        bound = (OMNI_ALPHA + 3 * OMNI_EPS + 4 / OMNI_K) * ctx["loss"].kappa
        loss = ref.squared_loss(out.values, *args)[0]
        _guarantee(ctx, kind, loss <= ref.squared_loss(inp["B"].matrix, *args).min() + bound + 1e-9)
    elif kind == "online":
        report, bound = out
        S, B, seq = inp["S"].matrix, inp["B"].matrix, inp["seq"]
        xs = np.array([x for x, _ in seq])
        ys = np.array([y for _, y in seq], dtype=np.int8)
        bench_rate = float((B[:, xs] != ys).sum(axis=1).min()) / len(seq)
        size = np.unique(ref.agreement_rows(S, B), axis=0).shape[0]
        require(report.benchmark_rate == bench_rate, f"benchmark rate {report.benchmark_rate} != {bench_rate}")
        require(abs(bound - math.sqrt(math.log(size) / (2 * len(seq)))) < 1e-12, "regret bound")
        require(report.learner_rate <= bench_rate + bound + 1e-9, "regret chain broken")
    elif kind == "soa":
        mistakes = out.learner_rate * out.n
        require(mistakes <= ref.littlestone(inp["H"].matrix) + 1e-9, f"SOA made {mistakes} mistakes")
    else:
        seq, expected = out
        require(expected >= TREE_DEPTH / 2 - 1e-12, f"tree adversary forced only {expected}")
        require(_consistent(inp["S"].matrix, seq).any() and _consistent(inp["B"].matrix, seq).any(),
                "tree sequence not realizable")


def check_round(ctx, results):
    pass


def finish(ctx):
    for kind, trials in ctx["trials"].items():
        share = ctx["fails"][kind] / trials
        require(share <= ref.budget(DELTAS[kind], trials),
                f"{kind}: {ctx['fails'][kind]}/{trials} failures over budget")
