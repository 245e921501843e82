"""Batch learners: ERM, correlation maximizers, MA/MC loop, boosting, omni."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comparelearn import (
    STAR,
    BinaryClass,
    BinaryHypothesis,
    BinaryModel,
    Dataset,
    DiscreteDistribution,
    Domain,
    EnumerationCapError,
    GuardError,
    IntervalPartition,
    LearnerParams,
    LossFunction,
    NoConsistentHypothesisError,
    RealClass,
    RealHypothesis,
    RealModel,
    SourceModel,
    absolute_loss,
    agreement_class,
    agreement_learn,
    as_real_class,
    ber_star,
    binarize_class,
    boost,
    cal_error,
    class_error,
    comparative_learn,
    corm_general,
    corr_partial,
    correlation,
    dcorm_binary_benchmark,
    dcorm_real,
    erm_agnostic,
    erm_realizable,
    exact_weak_oracle,
    ma_error,
    ma_mc_learn,
    make_distribution,
    mc_error,
    mc_error_lambda,
    multi_agreement_class,
    mutual_vc,
    omni_learn,
    omnipredict,
    regression_loss,
    rng_stream,
    round_model,
    squared_loss,
    tau,
    weak_from_strong,
)
from comparelearn.core import _agreement_matrix
from comparelearn.dimensions import sup_theta_mutual_vc, theta_candidates
from comparelearn.offline import (
    boosting_plan,
    erm_sample_bound,
    max_threshold_index,
    phi_potential,
    plan_dcorm_binary,
)
from comparelearn.stat_model import BER_STAR, DETERMINISTIC
from conftest import (
    random_binary_class,
    random_binary_model,
    random_real_class,
    random_real_model,
)


def _pi_proj(y, u):
    """Projection of u into [0, y] (or [y, 0] when y < 0)."""
    return min(max(u, min(0.0, y)), max(0.0, y))


def det_dist(svals, mu):
    d = Domain(len(svals))
    return make_distribution(np.asarray(mu), SourceModel(RealHypothesis(d, svals), DETERMINISTIC))


def sup_corr(B, dist):
    Bm = as_real_class(B)
    return max(corr_partial(Bm.member(i), dist) for i in range(len(Bm)))


# --- ERM bases ---------------------------------------------------------------


def test_erm_agnostic_perfect_data_picks_that_member():
    d = Domain(4)
    H = BinaryClass(d, [[1, 1, -1, -1], [1, -1, 1, -1], [-1, -1, -1, -1]])
    data = Dataset(np.array([0, 1, 2, 3]), np.array([1.0, -1.0, 1.0, -1.0]))
    out = erm_agnostic(H, data)
    assert out.values.tolist() == [1, -1, 1, -1]


def test_erm_agnostic_all_star_completes_plus_one():
    d = Domain(3)
    H = BinaryClass(d, [[STAR] * 3])
    data = Dataset(np.array([0]), np.array([-1.0]))
    assert erm_agnostic(H, data).values.tolist() == [1, 1, 1]


def test_erm_agnostic_matches_exhaustive_table():
    rng = rng_stream(61, 1)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        H = random_binary_class(rng, n, int(rng.integers(1, 10)))
        m = int(rng.integers(1, 12))
        xs = rng.integers(0, n, size=m)
        ys = rng.choice([-1.0, 1.0], size=m)
        out = erm_agnostic(H, Dataset(xs, ys))
        errs = [
            sum(1 for x, y in zip(xs, ys) if H.matrix[i, x] != int(y))
            for i in range(len(H))
        ]
        best = min(errs)
        i0 = errs.index(best)  # lowest index among minimizers
        expected = np.where(H.matrix[i0] == 0, 1, H.matrix[i0])
        assert out.values.tolist() == expected.tolist()


def test_erm_realizable():
    d = Domain(3)
    H = BinaryClass(d, [[1, 1, 1], [1, -1, STAR]])
    data = Dataset(np.array([0, 1]), np.array([1.0, -1.0]))
    out = erm_realizable(H, data)
    assert out.values.tolist() == [1, -1, 1]  # * completed to +1
    bad = Dataset(np.array([0, 0]), np.array([1.0, -1.0]))
    with pytest.raises(NoConsistentHypothesisError):
        erm_realizable(H, bad)


def test_binary_learners_reject_non_sign_labels():
    H = BinaryClass(Domain(2), [[1, -1]])
    for bad in (2.0, -2.0, 127.0, -128.0, 0.0, float("nan")):
        data = Dataset(np.array([0, 1]), np.array([1.0, bad]))
        for learner in (erm_agnostic, erm_realizable):
            with pytest.raises(ValueError, match=r"binary learners require labels in \{-1, \+1\}"):
                learner(H, data)


def test_erm_realizable_matches_consistency_scan():
    rng = rng_stream(61, 2)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        H = random_binary_class(rng, n, int(rng.integers(2, 10)))
        i = int(rng.integers(len(H)))
        defined = np.flatnonzero(H.matrix[i] != 0)
        if defined.size == 0:
            continue
        xs = rng.choice(defined, size=4)
        ys = H.matrix[i, xs].astype(np.float64)
        out = erm_realizable(H, Dataset(xs, ys))
        scan = next(
            j
            for j in range(len(H))
            if all(H.matrix[j, x] == int(y) for x, y in zip(xs, ys))
        )
        assert out.values.tolist() == np.where(
            H.matrix[scan] == 0, 1, H.matrix[scan]
        ).tolist()


def test_comparative_learn_self_class():
    rng = rng_stream(61, 3)
    S = random_binary_class(rng, 4, 5)
    data = Dataset(np.array([0, 1]), np.array([1.0, 1.0]))
    assert comparative_learn(S, S, data) == erm_agnostic(agreement_class(S, S), data)


def test_agreement_learn_is_multi_class_erm():
    rng = rng_stream(61, 4)
    classes = [random_binary_class(rng, 4, 3) for _ in range(3)]
    data = Dataset(np.array([0, 2]), np.array([1.0, -1.0]))
    assert agreement_learn(classes, data) == erm_agnostic(
        multi_agreement_class(classes), data
    )


@st.composite
def agreement_cases(draw, k_min, k_max):
    """Partial classes with repeated and all-* rows, on a few labeled points.

    Few points, few values and a reordered copy of a class force ties between
    pairs; the sample may be empty.
    """
    n = draw(st.integers(1, 5))
    label = st.sampled_from([-1, 0, 1])

    def binary_class():
        rows = draw(st.lists(st.lists(label, min_size=n, max_size=n), min_size=1, max_size=5))
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [0] * n)
        if draw(st.booleans()):
            rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        matrix = np.array(rows, dtype=np.int8)
        return BinaryClass(Domain(n), matrix, dedup=draw(st.booleans()))

    classes = [binary_class() for _ in range(draw(st.integers(k_min, k_max)))]
    if draw(st.booleans()):  # a reordered copy of the first class: every s ties with its copy
        rows = draw(st.permutations(list(classes[0].matrix)))
        classes[-1] = BinaryClass(Domain(n), np.array(rows, dtype=np.int8))
    # points off the sample separate pairs that tie on it
    seen = draw(st.integers(1, n))
    points = draw(st.lists(st.tuples(st.integers(0, seen - 1), st.sampled_from([-1.0, 1.0])), max_size=8))
    data = Dataset(np.array([x for x, _ in points], dtype=np.int64),
                   np.array([y for _, y in points], dtype=np.float64))
    return classes, data


@settings(max_examples=400, deadline=None)
@given(agreement_cases(2, 2))
def test_comparative_learn_matches_materialized_erm(case):
    (S, B), data = case
    out = comparative_learn(S, B, data)
    assert out.values.tobytes() == erm_agnostic(agreement_class(S, B), data).values.tobytes()


@settings(max_examples=300, deadline=None)
@given(agreement_cases(1, 4))
def test_agreement_learn_matches_materialized_erm(case):
    classes, data = case
    out = agreement_learn(classes, data)
    assert out.values.tobytes() == erm_agnostic(multi_agreement_class(classes), data).values.tobytes()


def test_comparative_learn_builds_no_agreement_class(monkeypatch):
    d = Domain(4)
    S = BinaryClass(d, [[1, STAR, -1, 1], [-1, 1, 1, STAR], [1, 1, 1, 1]])
    B = BinaryClass(d, [[1, 1, STAR, -1], [-1, 1, 1, 1]])
    data = Dataset(np.array([0, 1, 2, 3, 1]), np.array([1.0, 1.0, 1.0, -1.0, 1.0]))
    expected = erm_agnostic(agreement_class(S, B), data)

    def refuse(*args, **kwargs):
        raise AssertionError("the learner built the agreement class")

    def one_pair(ms, mb):  # only the chosen a_{s,b} may be formed
        assert ms.shape[0] == mb.shape[0] == 1
        return _agreement_matrix(ms, mb)

    monkeypatch.setattr("comparelearn.offline.agreement_class", refuse)
    monkeypatch.setattr("comparelearn.offline._agreement_matrix", one_pair)
    assert comparative_learn(S, B, data).values.tobytes() == expected.values.tobytes()


def test_figure1_zero_data_comparative_learner_is_optimal():
    from comparelearn.experiments import scenario

    spec = scenario("figure1", 3)
    empty = Dataset(np.empty(0, np.int64), np.empty(0))
    f = comparative_learn(spec.source, spec.benchmark, empty)
    assert f.values.tolist() == [1] * 6
    for mu in spec.mu_family:
        err = class_error(f, mu)
        best = min(
            class_error(spec.benchmark.member(i), mu)
            for i in range(len(spec.benchmark))
        )
        assert err <= best + 1e-12  # epsilon = 0, exact


def test_realizable_agreement_direction():
    # data realizable by an agreement hypothesis: error drops at realizable rates
    rng = rng_stream(61, 5)
    S = random_binary_class(rng, 6, 8, star_prob=0.1)
    B = random_binary_class(rng, 6, 8, star_prob=0.1)
    A = agreement_class(S, B)
    rows = [i for i in range(len(A)) if (A.matrix[i] != 0).sum() >= 4]
    if not rows:
        pytest.skip("no informative agreement member in this draw")
    a = A.matrix[rows[0]]
    defined = np.flatnonzero(a != 0)
    mu = np.zeros(6)
    mu[defined] = 1.0 / defined.size
    dist = DiscreteDistribution(
        Domain(6), [(int(x), float(a[x]), 1.0 / defined.size) for x in defined], "binary"
    )
    ok = 0
    for seed in range(40):
        data = dist.sample(60, rng_stream(61, 6, seed))
        f = comparative_learn(S, B, data)
        ok += class_error(f, dist) <= 0.15
    assert ok >= 36  # realizable-style success rate


# --- Algorithm 1 ----------------------------------------------------------------


def test_dcorm_binary_all_plus_source():
    d = Domain(5)
    S = RealClass(d, [[1.0] * 5])
    B = BinaryClass(d, [[1] * 5, [-1] * 5])
    dist = det_dist(np.ones(5), np.full(5, 0.2))
    params = LearnerParams(eta=0.1)
    for seed in range(5):
        data = dist.sample(30, rng_stream(61, 7, seed))
        out = dcorm_binary_benchmark(S, B, data, params, rng_stream(61, 8, seed))
        assert out.values.tolist() == [1] * 5


def test_dcorm_binary_small_margin_returns_fixed_model():
    d = Domain(4)
    svals = np.array([0.05, -0.05, 0.0, 0.02])
    S = RealClass(d, [svals])
    B = BinaryClass(d, [[1] * 4])
    dist = det_dist(svals, np.full(4, 0.25))
    params = LearnerParams(eta=0.1)
    data = dist.sample(50, rng_stream(61, 9))
    out = dcorm_binary_benchmark(S, B, data, params, rng_stream(61, 10))
    assert out.values.tolist() == [1] * 4  # Psi empty -> fixed constant +1
    # trivial goal: correlations all within [-rho, rho], rho <= eta
    rho = float(np.abs(svals).mean())
    assert abs(correlation(out, dist)) <= rho + 1e-12
    assert sup_corr(B, dist) <= rho + 1e-12


# --- Algorithm 2 -----------------------------------------------------------------


def test_dcorm_real_binary_benchmark_degenerates():
    rng = rng_stream(61, 11)
    d = Domain(6)
    grid = np.linspace(-1, 1, 9)
    svals = rng.choice(grid, size=6)
    S = RealClass(d, [svals])
    B = as_real_class(random_binary_class(rng, 6, 4, star_prob=0.0))
    dist = det_dist(svals, rng.dirichlet(np.ones(6)))
    params = LearnerParams(eta1=0.1, eta2=0.45, n1=120, n2=80)
    data = dist.sample(200, rng_stream(61, 12))
    out = dcorm_real(S, B, data, params, rng_stream(61, 13))
    # with t = 0 the threshold class is exactly B; output must reach the goal
    assert correlation(out, dist) >= sup_corr(B, dist) - (0.2 + 2 * 0.1 + 2 * 0.45)


def test_claim_threshold_decomposition_grid():
    # |b(x) - eta2 * sum_j p_j| <= 2 eta2 for every b(x), any admissible p_j
    for eta2 in (0.1, 0.2, 0.3):
        t = max_threshold_index(eta2)
        assert (2 * t + 1) * eta2 < 1 <= (2 * t + 3) * eta2
        for v in np.linspace(-1, 1, 401):
            lo = hi = 0.0
            for j in range(-t, t + 1):
                theta = 2 * eta2 * j
                if v > theta + eta2:
                    lo += 1.0
                    hi += 1.0
                elif v < theta - eta2:
                    lo += -1.0
                    hi += -1.0
                else:  # * cell: adversarial p_j in [-1, 1]
                    lo += -1.0
                    hi += 1.0
            assert v - eta2 * lo <= 2 * eta2 + 1e-12
            assert v - eta2 * hi >= -2 * eta2 - 1e-12


def test_dcorm_real_seeded_success_rate():
    rng = rng_stream(61, 14)
    grid = np.linspace(-1, 1, 9)
    eta1 = eta2 = 0.1
    beta = 0.3
    eps = beta + 2 * eta1 + 2 * eta2
    fails = 0
    trials = 40
    for seed in range(trials):
        gen = rng_stream(61, 15, seed)
        n_pts = 8
        S = random_real_class(gen, n_pts, 6, grid=grid, star_prob=0.0)
        B = random_real_class(gen, n_pts, 6, grid=grid, star_prob=0.2)
        si = int(gen.integers(len(S)))
        dist = det_dist(S.matrix[si], gen.dirichlet(np.ones(n_pts)))
        params = LearnerParams(eta1=eta1, eta2=eta2, n1=500, n2=300)
        data = dist.sample(800, rng_stream(61, 16, seed))
        out = dcorm_real(S, B, data, params, rng_stream(61, 17, seed))
        if correlation(out, dist) < sup_corr(B, dist) - eps - 1e-12:
            fails += 1
    assert fails <= 4


# --- Algorithm 3 -----------------------------------------------------------------


def test_corm_general_cap():
    d = Domain(4)
    S = RealClass(d, [[0.5] * 4])
    B = RealClass(d, [[1.0] * 4])
    params = LearnerParams(eta1=0.1, eta2=0.3, n1=20, n2=2)
    data = Dataset(np.zeros(22, np.int64), np.zeros(22))
    with pytest.raises(EnumerationCapError) as exc:
        corm_general(S, B, data, params, rng_stream(61, 18))
    assert exc.value.count == len(np.unique(np.r_[0.0, np.arange(-10, 11) * 0.1])) ** 20


def test_corm_general_n1_zero_is_sign_of_mean():
    d = Domain(3)
    S = RealClass(d, [[0.5] * 3])
    B = RealClass(d, [[1.0] * 3])
    params = LearnerParams(eta1=0.34, eta2=0.34, n1=0, n2=5)
    for seed, ys in ((0, [1.0, 1.0, -1.0, 1.0, 1.0]), (1, [-1.0] * 5)):
        data = Dataset(np.array([0, 1, 2, 0, 1]), np.array(ys))
        out = corm_general(S, B, data, params, rng_stream(61, 19, seed))
        want = 1 if np.mean(ys) >= 0 else -1
        assert out.values.tolist() == [want] * 3


def test_corm_general_ber_star_success_rate():
    grid7 = np.linspace(-1, 1, 7)
    eta1 = eta2 = 0.34
    beta = 0.4
    eps = beta + 2 * eta1 + 2 * eta2
    fails = 0
    trials = 25
    for seed in range(trials):
        gen = rng_stream(61, 20, seed)
        n_pts = 6
        S = random_real_class(gen, n_pts, 4, grid=grid7, star_prob=0.0)
        B = random_real_class(gen, n_pts, 4, grid=grid7, star_prob=0.2)
        si = int(gen.integers(len(S)))
        d = Domain(n_pts)
        dist = make_distribution(
            gen.dirichlet(np.ones(n_pts)),
            SourceModel(RealHypothesis(d, S.matrix[si]), BER_STAR),
        )
        params = LearnerParams(eta1=eta1, eta2=eta2, n1=3, n2=400)
        data = dist.sample(403, rng_stream(61, 21, seed))
        out = corm_general(S, B, data, params, rng_stream(61, 22, seed))
        if correlation(out, dist) < sup_corr(B, dist) - eps - 1e-12:
            fails += 1
    assert fails <= 3


# --- weak oracles ------------------------------------------------------------------


def test_exact_weak_oracle_prefers_best_candidate():
    d = Domain(4)
    S = RealClass(d, [[0.5] * 4])
    B = RealClass(d, [[1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
    oracle = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.25)
    data = Dataset(np.array([0, 1, 2, 3]), np.array([1.0, 1.0, -1.0, -1.0]))
    out = oracle(S, B, data)
    assert out.values.tolist() == [1, 1, -1, -1]


def test_exact_weak_oracle_star_completion():
    d = Domain(4)
    S = RealClass(d, [[0.5] * 4])
    B = RealClass(d, [[1.0, 1.0, STAR, STAR]])
    oracle = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.25)
    data = Dataset(np.array([0, 1, 2, 3]), np.array([1.0, 1.0, -0.5, -0.5]))
    out = oracle(S, B, data)
    # star region completed by the constant matching its empirical labels
    assert out.values.tolist() == [1, 1, -1, -1]


def _reference_weak_oracle(B, data, eta2):
    """The exact weak oracle built as before: one deduplicated binarized class
    per threshold, its rows stacked with the two constants."""
    t = max_threshold_index(eta2)
    cand_rows = []
    for j in range(-t, t + 1):
        Bj = binarize_class(B, eta2, 2.0 * eta2 * j)
        cand_rows.extend(Bj.matrix[i] for i in range(len(Bj)))
    cand_rows.append(np.ones(B.domain.size, dtype=np.int8))
    cand_rows.append(-np.ones(B.domain.size, dtype=np.int8))
    cands = np.stack(cand_rows)
    if len(data) == 0:
        return np.where(cands[0] == 0, 1, cands[0]).astype(np.int8)
    vals = cands[:, data.xs].astype(np.float64)
    star = cands[:, data.xs] == 0
    scores = np.where(star, -np.abs(data.ys)[None, :], data.ys[None, :] * vals)
    row = cands[int(np.argmax(scores.sum(axis=1)))]
    fill = 1 if float(data.ys[row[data.xs] == 0].sum()) >= 0 else -1
    return np.where(row == 0, fill, row).astype(np.int8)


@st.composite
def weak_oracle_cases(draw):
    n = draw(st.integers(1, 6))
    eta2 = draw(st.sampled_from([0.45, 0.3, 0.2, 0.15, 0.1, 0.05]))
    value = st.sampled_from([-1.0, -0.6, -0.3, -0.1, 0.0, 0.1, 0.25, 0.5, 0.9, 1.0, np.nan])
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), max_size=6))
    if rows and draw(st.booleans()):  # repeat members
        rows = rows + draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
    B = RealClass(Domain(n), np.array(rows, dtype=np.float64).reshape(len(rows), n), dedup=False)
    labels = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0] if draw(st.booleans()) else [-1.0, 1.0])
    points = draw(st.lists(st.tuples(st.integers(0, n - 1), labels), max_size=12))
    data = Dataset(np.array([x for x, _ in points], dtype=np.int64),
                   np.array([y for _, y in points], dtype=np.float64))
    return B, data, eta2


@settings(max_examples=400, deadline=None)
@given(weak_oracle_cases())
def test_exact_weak_oracle_matches_per_threshold_construction(case):
    B, data, eta2 = case
    out = exact_weak_oracle(eta2=eta2, alpha=0.5, gamma=0.25)(B, B, data)
    assert out.values.tobytes() == _reference_weak_oracle(B, data, eta2).tobytes()


def test_exact_weak_oracle_builds_no_class(monkeypatch):
    d = Domain(4)
    B = RealClass(d, [[1.0, 0.2, STAR, -0.7], [-1.0, 0.4, 0.0, 0.9]])
    data = Dataset(np.array([0, 1, 2, 3, 1]), np.array([1.0, -1.0, 0.5, -1.0, 1.0]))
    oracle = exact_weak_oracle(eta2=0.15, alpha=0.5, gamma=0.25)
    expected = _reference_weak_oracle(B, data, 0.15)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a hypothesis class")

    monkeypatch.setattr(BinaryClass, "__init__", refuse)
    monkeypatch.setattr(RealClass, "__init__", refuse)
    assert oracle(B, B, data).values.tobytes() == expected.tobytes()


def test_weak_from_strong_contract():
    calls = []

    def factory(eps):
        calls.append(eps)

        def fn(S, B, data, rng):
            return BinaryModel.constant(S.domain, 1)

        return fn

    oracle = weak_from_strong(factory, alpha=0.5, gamma=0.2, delta1=0.05)
    assert calls == [pytest.approx(0.3)]
    assert oracle.alpha == 0.5 and oracle.gamma == 0.2
    with pytest.raises(ValueError):
        weak_from_strong(factory, alpha=0.1, gamma=0.2, delta1=0.05)


def test_weak_oracle_contract_on_planted_instance():
    # where sup_b E[y <> b] >= alpha holds, the output correlates at >= gamma
    rng = rng_stream(61, 23)
    d = Domain(6)
    svals = np.array([0.75, 0.75, 0.75, -0.75, -0.75, -0.75])
    bvals = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    S = RealClass(d, [svals])
    B = RealClass(d, [bvals])
    dist = det_dist(svals, np.full(6, 1 / 6))
    assert sup_corr(B, dist) >= 0.5
    oracle = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.25)
    for seed in range(10):
        data = dist.sample(200, rng_stream(61, 24, seed))
        out = oracle(S, B, data)
        assert correlation(out, dist) >= 0.25


# --- Algorithm 4 (MA/MC) --------------------------------------------------------------


def _mamc_instance(seed, k=1, n_benchmarks=4, binary_benchmark=True):
    gen = rng_stream(71, seed)
    n_pts = 8
    grid = np.linspace(-1, 1, 9)
    S = random_real_class(gen, n_pts, 5, grid=grid, star_prob=0.0)
    if binary_benchmark:
        B = as_real_class(random_binary_class(gen, n_pts, n_benchmarks, star_prob=0.15))
    else:
        B = random_real_class(gen, n_pts, n_benchmarks, grid=grid, star_prob=0.15)
    si = int(gen.integers(len(S)))
    d = Domain(n_pts)
    dist = make_distribution(
        gen.dirichlet(np.ones(n_pts)),
        SourceModel(RealHypothesis(d, S.matrix[si]), BER_STAR),
    )
    return S, B, dist


def test_ma_mc_learn_drives_constant_benchmark():
    # B = {constant +1}, k = 1: the loop drives |E[f - y]| below alpha
    alpha, gamma = 0.2, 0.1
    W = int(4 / gamma**2) + 1
    part = IntervalPartition(1)
    oracle = exact_weak_oracle(eta2=0.45, alpha=alpha / 2, gamma=gamma / 2)
    fails = 0
    for seed in range(20):
        gen = rng_stream(71, 100, seed)
        n_pts = 6
        d = Domain(n_pts)
        svals = gen.choice(np.linspace(-1, 1, 9), size=n_pts)
        S = RealClass(d, [svals])
        B = RealClass(d, [[1.0] * n_pts])
        dist = make_distribution(
            gen.dirichlet(np.ones(n_pts)), SourceModel(RealHypothesis(d, svals), BER_STAR)
        )
        n1 = n2 = 250
        data = dist.sample(W * (n1 + n2), rng_stream(71, 101, seed))
        params = LearnerParams(alpha=alpha, gamma=gamma, W=W, n1=n1, n2=n2)
        f = ma_mc_learn(S, B, data, part, params, oracle, rng_stream(71, 102, seed))
        if mc_error_lambda(f, B, dist, part) > alpha:
            fails += 1
    assert fails <= 2


def test_ma_mc_progress_and_bad_events():
    # whenever the update fires and both bad events are absent, the squared
    # residual drops by gamma^2 / 4 exactly
    alpha, gamma = 0.4, 0.2
    k = 2
    part = IntervalPartition(k)
    W = int(4 / gamma**2) + 1
    oracle = exact_weak_oracle(eta2=0.45, alpha=alpha / 2, gamma=gamma / 2)
    S, B, dist = _mamc_instance(3, k=k)
    n1 = n2 = 300
    data = dist.sample(W * (n1 + n2), rng_stream(71, 103))
    params = LearnerParams(alpha=alpha, gamma=gamma, W=W, n1=n1, n2=n2)

    def sq_residual(fvals):
        return float(np.sum(dist.ps * (fvals[dist.xs] - dist.ys) ** 2))

    def residual_corr(fvals, gvals):
        return float(np.sum(dist.ps * (dist.ys - fvals[dist.xs]) * gvals[dist.xs]))

    events = []
    ma_mc_learn(S, B, data, part, params, oracle, rng_stream(71, 104), inspector=events.append)
    assert 0 < len(events) <= W
    from comparelearn import sigma_mask_class
    from comparelearn.offline import _all_sigmas

    checked = 0
    for ev in events:
        fvals = ev["f_before"]
        fmodel = RealModel(S.domain, fvals)
        # bad event 1: some masked benchmark still correlates above alpha
        # while no candidate direction reaches gamma
        sup_resid = -np.inf
        for sig in _all_sigmas(k):
            Bm = sigma_mask_class(B, sig, fmodel, part)
            for i in range(len(Bm)):
                b = Bm.matrix[i]
                terms = np.where(
                    np.isnan(b[dist.xs]),
                    -np.abs(dist.ys - fvals[dist.xs]),
                    (dist.ys - fvals[dist.xs]) * np.nan_to_num(b[dist.xs]),
                )
                sup_resid = max(sup_resid, float(np.sum(dist.ps * terms)))
        cand_corrs = [residual_corr(fvals, c.values) for c in ev["candidates"]]
        e1 = sup_resid > alpha and all(c < gamma for c in cand_corrs)
        # bad event 2: the holdout estimate is off by more than gamma / 4
        e2 = any(
            abs(q_meas - residual_corr(fvals, c.values)) > gamma / 4
            for c, q_meas in [(ev["f_prime"], ev["q_prime"])]
        )
        if ev["updated"] and not e1 and not e2:
            drop = sq_residual(ev["f_before"]) - sq_residual(ev["f_after"])
            assert drop >= gamma**2 / 4 - 1e-12
            checked += 1
    assert checked >= 1


def _counting_oracle(calls, **contract):
    oracle = exact_weak_oracle(**contract)
    inner = oracle.fn

    def counted(Sc, Bc, dd, rr):
        calls.append(1)
        return inner(Sc, Bc, dd, rr)

    oracle.fn = counted
    return oracle


def test_ma_mc_k_guard_and_w_validation():
    S, B, dist = _mamc_instance(4)
    data = dist.sample(10, rng_stream(71, 105))
    calls = []
    oracle = _counting_oracle(calls, eta2=0.45, alpha=0.2, gamma=0.1)
    with pytest.raises(GuardError):
        ma_mc_learn(
            S, B, data, IntervalPartition(21),
            LearnerParams(gamma=0.5, W=20, n1=1, n2=1), oracle,
        )
    with pytest.raises(GuardError):
        omni_learn(
            S, B, data, IntervalPartition(21),
            LearnerParams(gamma=0.5, epsilon=0.5, W=40, W_prime=20, n1=1, n2=1, n3=1), oracle,
        )
    with pytest.raises(ValueError):
        ma_mc_learn(
            S, B, data, IntervalPartition(1),
            LearnerParams(gamma=0.1, W=5, n1=1, n2=1), oracle,
        )
    with pytest.raises(ValueError, match="ma_mc_learn split sizes must be nonnegative"):
        ma_mc_learn(
            S, B, data, IntervalPartition(1),
            LearnerParams(gamma=0.5, W=20, n1=-1, n2=1), oracle,
        )
    assert calls == []


@pytest.mark.parametrize(
    "field, value",
    [("eta2", None), ("gamma", "x"), ("alpha", True), ("n1", 2.5), ("n1", True), ("W", 1.0), ("k", 0)],
)
def test_learner_params_refuse_ill_typed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        LearnerParams(**{field: value})
    LearnerParams(eta=1, epsilon=np.float64(0.5), n1=np.int64(3), n0=None)  # ints pass as floats


def test_round_model():
    d = Domain(3)
    part = IntervalPartition(2)
    f = RealModel(d, [-0.7, 0.3, -0.5])
    assert round_model(f, part).values.tolist() == [-0.5, 0.5, -0.5]
    mid = RealModel(d, [-0.5, 0.5, 0.5])
    assert round_model(mid, part) == mid


def test_appendix_d_vc_bound_on_tiny_instances():
    # sup_theta VC(((S-f)/2)_{eta1}^{r1}, (B_{sigma,f})_{eta2}^{theta})
    #   <= 2 sup_theta' VC(S_{2 eta1}^{2 r1 + f}, B_{eta2}^{theta'})
    from comparelearn import shift_scale_class, sigma_mask_class
    from comparelearn.core import binarize_class as binz

    rng = rng_stream(71, 106)
    part = IntervalPartition(2)
    for trial in range(8):
        n = 4
        S = random_real_class(rng, n, 5, star_prob=0.1)
        B = random_real_class(rng, n, 5, star_prob=0.1)
        f = random_real_model(rng, n)
        sigma = rng.choice([-1, 1], size=2).astype(np.int8)
        r1 = rng.uniform(-0.5, 0.5, size=n)
        eta1, eta2 = 0.1, 0.15
        St = shift_scale_class(S, f)
        Bt = sigma_mask_class(B, sigma, f, part)
        lhs_S = binz(St, eta1, r1)
        lhs = sup_theta_mutual_vc(lhs_S, Bt, eta2)
        rhs_S = binz(S, 2 * eta1, 2 * r1 + f.values)
        rhs = sup_theta_mutual_vc(rhs_S, B, eta2)
        lv = -1 if lhs.value is None else lhs.value
        rv = -1 if rhs.value is None else rhs.value
        if lv >= 0 and rv >= 0:
            assert lv <= 2 * rv
        elif lv >= 0:
            assert lv == 0 or rv >= 0


# --- boosting machinery -----------------------------------------------------------------


def test_phi_potential_closed_form():
    # piecewise form of the integral definition, checked by quadrature
    for y in np.linspace(-1, 1, 9):
        for u in np.linspace(-1.5, 1.5, 13):
            ts = np.linspace(y, u, 4001)
            quad = float(np.trapezoid([_pi_proj(y, t) - y for t in ts], ts))
            assert phi_potential(y, u) == pytest.approx(quad, abs=1e-4)


def test_claim_smoothness_grid():
    grid = np.linspace(-1, 1, 50)
    for y in grid:
        for u in grid:
            base = phi_potential(y, u)
            slope = _pi_proj(y, u) - y
            for up in grid:
                assert phi_potential(y, up) <= base + slope * (up - u) + 0.5 * (up - u) ** 2 + 1e-12


def test_claim_rho_dominates_phi():
    rng = rng_stream(71, 107)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        svals = rng.choice(np.linspace(-1, 1, 9), size=n)
        dist = det_dist(svals, rng.dirichlet(np.ones(n)))
        f = random_real_model(rng, n)
        rho = 0.0
        phi = 0.0
        for x, y, p in zip(dist.xs, dist.ys, dist.ps):
            u = f.values[x]
            rho += p * (0.0 if y == 0 else abs(y - _pi_proj(y, u)) / abs(y))
            phi += p * phi_potential(y, u)
        assert rho >= (2 / 3) * phi - 1e-12


def _boost_instance(seed):
    gen = rng_stream(71, 200, seed)
    n_pts = 8
    grid = np.linspace(-1, 1, 9)
    S = random_real_class(gen, n_pts, 5, grid=grid, star_prob=0.0)
    B = as_real_class(random_binary_class(gen, n_pts, 5, star_prob=0.2))
    si = int(gen.integers(len(S)))
    dist = det_dist(S.matrix[si], gen.dirichlet(np.ones(n_pts)))
    return S, B, dist


BOOST_PARAMS = LearnerParams(
    alpha=0.5, gamma=0.3, epsilon=0.3, W=70, W_prime=23, n1=600, n2=400, n3=200, n0=500
)


def test_boost_oracle_budget_and_goal():
    oracle = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.3, n0=500)
    fails = 0
    trials = 25
    for seed in range(trials):
        S, B, dist = _boost_instance(seed)
        p = BOOST_PARAMS
        n = p.W_prime * (p.n1 + p.n2) + p.W * p.n3
        data = dist.sample(n, rng_stream(71, 201, seed))
        calls = []
        counting = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.3, n0=500)
        inner = counting.fn

        def counted(Sc, Bc, dd, rr):
            calls.append(1)
            return inner(Sc, Bc, dd, rr)

        counting.fn = counted
        out = boost(S, B, data, counting, p, rng_stream(71, 202, seed))
        assert len(calls) <= p.W_prime
        if correlation(out, dist) < sup_corr(B, dist) - p.alpha - p.epsilon - 1e-12:
            fails += 1
    assert fails <= 2


def test_boost_potential_decreases_per_iteration():
    S, B, dist = _boost_instance(99)
    p = BOOST_PARAMS
    oracle = exact_weak_oracle(eta2=0.45, alpha=p.alpha, gamma=p.gamma, n0=p.n0)
    n = p.W_prime * (p.n1 + p.n2) + p.W * p.n3
    data = dist.sample(n, rng_stream(71, 203))
    events = []
    boost(S, B, data, oracle, p, rng_stream(71, 204), inspector=events.append)

    def Phi(fvals):
        return float(
            sum(
                pmass * phi_potential(y, fvals[x])
                for x, y, pmass in zip(dist.xs, dist.ys, dist.ps)
            )
        )

    def rho(fvals):
        return float(
            sum(
                pmass * (0.0 if y == 0 else abs(y - _pi_proj(y, fvals[x])) / abs(y))
                for x, y, pmass in zip(dist.xs, dist.ys, dist.ps)
            )
        )

    def resid_corr(fvals, gvals):
        return float(
            sum(
                pmass * (y - _pi_proj(y, fvals[x])) * gvals[x]
                for x, y, pmass in zip(dist.xs, dist.ys, dist.ps)
            )
        )

    checked_cal = checked_orc = 0
    for ev in events:
        fv = ev["f_before"]
        if ev.get("branch") == "calibrate" and ev.get("updated"):
            true_sign_cal = float(
                sum(
                    pmass * (y - _pi_proj(y, fv[x])) * (1 if fv[x] >= 0 else -1)
                    for x, y, pmass in zip(dist.xs, dist.ys, dist.ps)
                )
            )
            e3 = abs(ev["q_sign"] - true_sign_cal) > p.epsilon / 4
            if not e3:
                assert Phi(fv) - Phi(ev["f_after"]) >= p.epsilon**2 / 8 - 1e-12
                checked_cal += 1
        elif ev.get("branch") == "oracle" and ev.get("updated"):
            r = rho(fv)
            e4 = r >= p.alpha and not (
                p.n1 * r / 2 <= ev["n_kept"] <= 2 * p.n1 * r
            )
            e2 = abs(ev["q_prime"] - resid_corr(fv, ev["f_prime"].values)) > p.alpha * p.gamma / 9
            if not e2 and not e4:
                drop = Phi(fv) - Phi(ev["f_after"])
                bound = max(p.gamma**2 * p.alpha**2, p.gamma**2 * r**2) / 162
                assert drop >= bound - 1e-12
                checked_orc += 1
    assert checked_cal + checked_orc >= 1


def test_learners_unchanged_by_inspector():
    # the same model and rng state with and without an inspector; one event
    # per round, with the counters and branches the round scheduler documents
    S, B, mdist = _mamc_instance(3, k=2)
    part = IntervalPartition(2)
    mamc_params = LearnerParams(alpha=0.4, gamma=0.2, W=101, n1=300, n2=300)
    mamc_data = mdist.sample(101 * 600, rng_stream(71, 500))
    bS, bB, bdist = _boost_instance(0)
    p = BOOST_PARAMS
    boost_data = bdist.sample(p.W_prime * (p.n1 + p.n2) + p.W * p.n3, rng_stream(71, 501))
    omni_params = LearnerParams(
        alpha=0.7, gamma=0.3, epsilon=0.3, W=90, W_prime=45, n1=300, n2=200, n3=200, k=4
    )
    oS, oB, odist = _mamc_instance(2, binary_benchmark=False)
    omni_data = odist.sample(45 * 500 + 90 * 200, rng_stream(71, 502))
    calls = []
    oracle = _counting_oracle(calls, eta2=0.45, alpha=0.2, gamma=0.1, n0=500)
    runs = {
        "ma_mc_learn": lambda rng, insp: ma_mc_learn(
            S, B, mamc_data, part, mamc_params, oracle, rng, inspector=insp
        ),
        "boost": lambda rng, insp: boost(bS, bB, boost_data, oracle, p, rng, inspector=insp),
        "omni_learn": lambda rng, insp: omni_learn(
            oS, oB, omni_data, IntervalPartition(4), omni_params, oracle, rng, inspector=insp
        ),
    }
    branches = set()
    for name, run in runs.items():
        quiet_rng, loud_rng = rng_stream(71, 503), rng_stream(71, 503)
        quiet = run(quiet_rng, None)
        events = []
        calls.clear()
        loud = run(loud_rng, events.append)
        assert quiet.values.tobytes() == loud.values.tobytes(), name
        assert quiet_rng.random() == loud_rng.random(), name
        assert events and all(ev["updated"] for ev in events[:-1]), name
        assert [ev["round"] for ev in events] == list(range(len(events)))
        assert [ev["j"] for ev in events] == list(range(1, len(events) + 1))
        j_prime = 1
        oracle_steps = 0
        for ev, after in zip(events, events[1:] + [None]):
            assert ev["j_prime"] == j_prime
            assert ev["branch"] in ("calibrate", "oracle")
            assert {"f_before", "f_after"} <= set(ev)
            assert ("broke" in ev) == (not ev["updated"])
            if after is not None:
                np.testing.assert_array_equal(ev["f_after"], after["f_before"])
            if ev["branch"] == "oracle":
                j_prime += 1
                oracle_steps += ev.get("broke") != "few_points"
            branches.add((name, ev["branch"], ev["updated"]))
        last = events[-1]["f_after"]
        np.testing.assert_array_equal(loud.values, np.where(last >= 0, 1, -1) if name == "boost" else last)
        per_step = 1 if name == "boost" else 2 ** (2 if name == "ma_mc_learn" else 4)
        assert len(calls) == per_step * oracle_steps
    assert ("omni_learn", "calibrate", True) in branches
    assert ("omni_learn", "oracle", True) in branches
    assert ("boost", "calibrate", True) in branches


def test_boosting_plan_shapes():
    plan = boosting_plan(0.5, 0.3, 0.3, (0.01, 0.01, 0.01, 0.01), n0=100)
    assert plan.W > plan.W_prime + 4 / plan.epsilon**2
    assert plan.n1 >= 2 * plan.n0 / plan.alpha


# --- losses, tau, omnipredictor -----------------------------------------------------------


def test_loss_kappa_from_grid():
    assert squared_loss().kappa == pytest.approx(4.0)
    assert absolute_loss().kappa == pytest.approx(1.0)
    assert (squared_loss().kappa, absolute_loss().kappa) == (4.0, 1.0)  # rounded up to 0.1


def test_loss_rejects_understated_kappa_and_fake_convexity():
    with pytest.raises(ValueError, match="below the observed grid slope"):
        LossFunction(fn=lambda y, q: (y - q) ** 2, kappa=1.0)
    with pytest.raises(ValueError, match="fails the grid convexity check"):
        LossFunction(fn=lambda y, q: -((y - q) ** 2), kappa=4.0, convex=True)


def test_tau_squared_is_identity():
    loss = squared_loss()
    for u in np.linspace(-1, 1, 9):
        assert tau(loss, u) == pytest.approx(u)
    numeric = LossFunction(fn=loss.fn, kappa=4.0, convex=True)  # no analytic map
    for u in np.linspace(-1, 1, 5):
        assert tau(numeric, u) == pytest.approx(u, abs=1e-6)


def test_tau_absolute_matches_grid_minimizer():
    loss = absolute_loss()
    assert tau(loss, 0.5) == 1.0
    assert tau(loss, -0.5) == -1.0
    assert tau(loss, 0.0) == 1.0  # sign tie rule at u = 0
    # grid-minimization oracle: E = 1 - u q, so any grid argmin matches
    for u in (0.5, -0.5, 0.3):
        grid = np.linspace(-1, 1, 2001)
        vals = 1 - u * grid
        assert vals[int(np.argmin(vals))] == pytest.approx(1 - u * tau(loss, u), abs=1e-9)


def test_tau_minimizer_property():
    rng = rng_stream(71, 300)
    for loss in (squared_loss(), absolute_loss()):
        for u in rng.uniform(-1, 1, size=10):
            probs = ber_star(float(u))
            best = probs[1] * loss(1, tau(loss, u)) + probs[-1] * loss(-1, tau(loss, u))
            for q in rng.uniform(-1, 1, size=100):
                other = probs[1] * loss(1, q) + probs[-1] * loss(-1, q)
                assert best <= other + 1e-6


def test_tau_rejects_nonconvex_numeric():
    bumpy = LossFunction(fn=lambda y, q: abs(abs(q) - 0.5), kappa=1.0, convex=False)
    with pytest.raises(ValueError):
        tau(bumpy, 0.3)


def test_lemma_e1_lipschitz_of_tau_composition():
    # E_{y~Ber*(u)}[l(y, tau(u'))] <= E_{y~Ber*(u)}[l(y, tau(u))] + 2 |u - u'| kappa
    for loss in (squared_loss(), absolute_loss()):
        grid = np.linspace(-1, 1, 41)
        for u in grid:
            probs = ber_star(float(u))

            def expected_at(q):
                return probs[1] * loss(1, q) + probs[-1] * loss(-1, q)

            base = expected_at(tau(loss, u))
            for up in grid:
                assert expected_at(tau(loss, up)) <= base + 2 * abs(u - up) * loss.kappa + 1e-12


def test_omnipredictor_inequality_on_constructed_models():
    # any f: measured mc_error <= alpha and cal_error <= eps imply the loss bound
    rng = rng_stream(71, 301)
    for loss in (squared_loss(), absolute_loss()):
        for trial in range(15):
            n = int(rng.integers(3, 7))
            d = Domain(n)
            grid = np.linspace(-1, 1, 9)
            svals = rng.choice(grid, size=n)
            dist = make_distribution(
                rng.dirichlet(np.ones(n)),
                SourceModel(RealHypothesis(d, svals), BER_STAR),
            )
            B = RealClass(d, rng.choice([-1.0, -0.5, 0.5, 1.0], size=(4, n)))
            f = random_real_model(rng, n)
            alpha = mc_error(f, B, dist)
            eps = cal_error(f, dist)
            tf = RealModel(d, [tau(loss, float(v)) for v in f.values])
            lhs = regression_loss(tf, loss, dist)
            best = min(regression_loss(B.member(i), loss, dist) for i in range(len(B)))
            assert lhs <= best + (alpha + 3 * eps) * loss.kappa + 1e-9


def test_omnipredict_end_to_end_small():
    # S = B = {s}: the omnipredictor must compete with s itself under the bound
    loss = squared_loss()
    k = 4
    part = IntervalPartition(k)
    gamma, eps_cal, alpha_target = 0.3, 0.3, 0.7
    Wp = int(4 / gamma**2) + 1
    W = Wp + int(4 / eps_cal**2) + 1
    params = LearnerParams(
        alpha=alpha_target, gamma=gamma, epsilon=eps_cal, W=W, W_prime=Wp,
        n1=300, n2=200, n3=200, k=k,
    )
    oracle = exact_weak_oracle(eta2=0.45, alpha=alpha_target / 2, gamma=gamma / 2)
    fails = 0
    trials = 15
    for seed in range(trials):
        gen = rng_stream(71, 302, seed)
        n_pts = 6
        d = Domain(n_pts)
        svals = gen.choice(np.linspace(-1, 1, 9), size=n_pts)
        S = RealClass(d, [svals])
        B = RealClass(d, [svals])
        dist = make_distribution(
            gen.dirichlet(np.ones(n_pts)), SourceModel(RealHypothesis(d, svals), BER_STAR)
        )
        n = params.W_prime * (params.n1 + params.n2) + params.W * params.n3
        data = dist.sample(n, rng_stream(71, 303, seed))
        out = omnipredict(S, B, loss, data, part, params, oracle, rng_stream(71, 304, seed))
        bound = (alpha_target + 3 * eps_cal + 4 / k) * loss.kappa
        best = regression_loss(RealModel(d, svals), loss, dist)
        if regression_loss(out, loss, dist) > best + bound + 1e-9:
            fails += 1
    assert fails <= 1


# --- planners -------------------------------------------------------------------------------


def test_planner_advisory():
    d = Domain(6)
    rng = rng_stream(71, 400)
    S = random_real_class(rng, 6, 5, star_prob=0.0)
    B = random_binary_class(rng, 6, 5)
    plan = plan_dcorm_binary(S, B, eps=0.3, eta=0.1, delta=0.1)
    assert plan.n >= erm_sample_bound(1, 0.3 / 4, 0.05)
    assert "advisory" in plan.note


def test_max_threshold_index():
    assert max_threshold_index(0.45) == 0
    assert max_threshold_index(1 / 3) == 0
    assert max_threshold_index(0.3) == 1
    assert max_threshold_index(0.1) == 4
    for eta2 in (0.45, 1 / 3, 0.3, 0.2, 0.1, 0.07):
        t = max_threshold_index(eta2)
        assert (2 * t + 1) * eta2 < 1 <= (2 * (t + 1) + 1) * eta2


def test_learners_replay_bit_for_bit():
    # same (data, seed, params) reproduces outputs exactly
    rng = rng_stream(61, 500)
    grid = np.linspace(-1, 1, 9)
    S = random_real_class(rng, 6, 5, grid=grid, star_prob=0.0)
    B = random_real_class(rng, 6, 5, grid=grid, star_prob=0.2)
    dist = det_dist(S.matrix[0], np.full(6, 1 / 6))
    data = dist.sample(300, rng_stream(61, 501))
    params = LearnerParams(eta1=0.1, eta2=0.3, n1=200, n2=100)
    m1 = dcorm_real(S, B, data, params, rng_stream(61, 502))
    m2 = dcorm_real(S, B, data, params, rng_stream(61, 502))
    assert m1 == m2
    bp = LearnerParams(
        alpha=0.5, gamma=0.3, epsilon=0.3, W=60, W_prime=10, n1=60, n2=40, n3=30
    )
    oracle = exact_weak_oracle(eta2=0.45, alpha=0.5, gamma=0.3)
    n = bp.W_prime * (bp.n1 + bp.n2) + bp.W * bp.n3
    data_b = dist.sample(n, rng_stream(61, 503))
    b1 = boost(S, B, data_b, oracle, bp, rng_stream(61, 504))
    b2 = boost(S, B, data_b, oracle, bp, rng_stream(61, 504))
    assert b1 == b2


def test_holdout_best_takes_the_first_maximizer():
    from comparelearn.offline import _holdout_best

    d = Domain(3)
    models = [BinaryModel(d, v) for v in ([-1, -1, -1], [1, -1, 1], [1, 1, 1], [1, -1, 1])]
    w, xs = np.array([0.5, -0.25, 1.0]), np.array([0, 1, 2])
    assert _holdout_best(w, xs, models) == (1, float(np.mean(w * models[1].values[xs])))
    assert _holdout_best(w[:0], xs[:0], models) == (0, 0.0)  # every model scores 0.0 on no points
