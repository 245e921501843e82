"""Distributions, sampling, and exact functionals vs. independent summation."""

import math

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
    IntervalPartition,
    RealClass,
    RealHypothesis,
    RealModel,
    SourceModel,
    as_real_class,
    ber_star,
    cal_error,
    class_error,
    corr_partial,
    correlation,
    ma_error,
    make_distribution,
    mc_error,
    mc_error_lambda,
    regression_loss,
    rng_stream,
    sign_cal_error,
)
from comparelearn.core import as_real_hypothesis, gen_product_arr
from comparelearn.experiments import _support_rows
from comparelearn.offline import round_model, squared_loss
from comparelearn.stat_model import (
    BER_STAR,
    CUSTOM,
    DETERMINISTIC,
    _corr_rows,
    _error_rows,
    _loss_rows,
    load_dataset,
    save_dataset,
)
from conftest import (
    random_binary_class,
    random_binary_distribution,
    random_real_class,
    random_real_distribution,
    random_real_model,
)


def atoms(dist):
    return list(zip(dist.xs.tolist(), dist.ys.tolist(), dist.ps.tolist()))


# --- construction -------------------------------------------------------------


def test_ber_star_examples():
    assert ber_star(0)[1] == 0.5
    assert ber_star(1) == {1: 1.0, -1: 0.0}
    assert ber_star(-0.5)[1] == 0.25


def test_make_distribution_deterministic():
    d = Domain(4)
    s = BinaryHypothesis(d, [1, 1, 1, 1])
    dist = make_distribution(np.full(4, 0.25), SourceModel(s, DETERMINISTIC))
    assert dist.label_kind == "binary"
    assert atoms(dist) == [(0, 1.0, 0.25), (1, 1.0, 0.25), (2, 1.0, 0.25), (3, 1.0, 0.25)]


def test_make_distribution_rejects_star_on_support():
    d = Domain(2)
    s = RealHypothesis(d, [0.5, STAR])
    with pytest.raises(ValueError):
        make_distribution(np.array([0.5, 0.5]), SourceModel(s, DETERMINISTIC))
    # zero mass on the starred point is fine
    dist = make_distribution(np.array([1.0, 0.0]), SourceModel(s, DETERMINISTIC))
    assert len(dist.xs) == 1


def test_ber_star_sampling_mean():
    d = Domain(3)
    s = RealHypothesis(d, [0.0, 0.0, 0.0])
    dist = make_distribution(np.full(3, 1 / 3), SourceModel(s, BER_STAR))
    data = dist.sample(10**5, rng_stream(3, 0))
    assert abs(data.ys.mean()) < 0.02


def test_custom_law_mean_checked():
    d = Domain(1)
    s = RealHypothesis(d, [0.5])
    good = SourceModel(s, CUSTOM, conditionals={0: [(1.0, 0.75), (-1.0, 0.25)]})
    dist = make_distribution(np.array([1.0]), good)
    mean = sum(y * p for _, y, p in atoms(dist))
    assert mean == pytest.approx(0.5)
    bad = SourceModel(s, CUSTOM, conditionals={0: [(1.0, 0.5), (-1.0, 0.5)]})
    with pytest.raises(ValueError):
        make_distribution(np.array([1.0]), bad)


def test_distribution_mass_validation():
    d = Domain(2)
    with pytest.raises(ValueError):
        DiscreteDistribution(d, [(0, 1.0, 0.6), (1, 1.0, 0.6)], "binary")
    with pytest.raises(ValueError):
        DiscreteDistribution(d, [(0, 0.5, 1.0)], "binary")


def test_duplicate_atoms_merge():
    d = Domain(2)
    dist = DiscreteDistribution(d, [(0, 1.0, 0.25), (0, 1.0, 0.25), (1, -1.0, 0.5)], "binary")
    assert len(dist.xs) == 2
    assert dist.marginal_x().tolist() == [0.5, 0.5]


# --- class_error ----------------------------------------------------------------


def test_class_error_source_is_zero():
    rng = rng_stream(47, 1)
    d = Domain(5)
    s = BinaryHypothesis(d, rng.choice([-1, 1], size=5).astype(np.int8))
    dist = make_distribution(rng.dirichlet(np.ones(5)), SourceModel(s, DETERMINISTIC))
    assert class_error(s, dist) == 0.0


def test_class_error_all_star_is_one():
    d = Domain(3)
    h = BinaryHypothesis(d, [STAR] * 3)
    dist = DiscreteDistribution(d, [(0, 1.0, 0.5), (2, -1.0, 0.5)], "binary")
    assert class_error(h, dist) == 1.0


def test_class_error_rejects_real_labels():
    d = Domain(2)
    dist = DiscreteDistribution(d, [(0, 0.5, 1.0)], "real")
    with pytest.raises(ValueError):
        class_error(BinaryHypothesis(d, [1, 1]), dist)


def test_class_error_matches_monte_carlo():
    rng = rng_stream(47, 2)
    d = Domain(6)
    dist = random_binary_distribution(rng, 6, 10)
    h = BinaryHypothesis(d, rng.choice([-1, 0, 1], size=6).astype(np.int8))
    exact = class_error(h, dist)
    n = 10**5
    data = dist.sample(n, rng_stream(47, 3))
    emp = np.mean(h.values[data.xs] != data.ys.astype(np.int8))
    se = math.sqrt(max(exact * (1 - exact), 1e-4) / n)
    assert abs(emp - exact) <= 3 * se + 1e-3


# --- correlation and the error-correlation identity --------------------------------


def test_error_correlation_identity():
    # 1 - 2 error(b) = E[y <> b(x)] for binary partial b, exactly
    rng = rng_stream(47, 4)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        dist = random_binary_distribution(rng, n, 8)
        b = BinaryHypothesis(Domain(n), rng.choice([-1, 0, 1], size=n).astype(np.int8))
        lhs = 1.0 - 2.0 * class_error(b, dist)
        rhs = corr_partial(b, dist)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_corr_partial_all_star():
    d = Domain(2)
    b = RealHypothesis(d, [STAR, STAR])
    dist = DiscreteDistribution(d, [(0, 0.5, 0.5), (1, -1.0, 0.5)], "real")
    assert corr_partial(b, dist) == pytest.approx(-(0.5 * 0.5 + 0.5 * 1.0))


def test_correlation_of_sign_of_source():
    rng = rng_stream(47, 5)
    d = Domain(4)
    grid = np.linspace(-1, 1, 9)
    svals = rng.choice(grid, size=4)
    s = RealHypothesis(d, svals)
    mu = rng.dirichlet(np.ones(4))
    dist = make_distribution(mu, SourceModel(s, DETERMINISTIC))
    f = BinaryModel(d, np.where(svals >= 0, 1, -1).astype(np.int8))
    assert correlation(f, dist) == pytest.approx(float((mu * np.abs(svals)).sum()))


# --- multiaccuracy -------------------------------------------------------------------


def oracle_ma(fvals, Bmatrix, dist):
    best = -np.inf
    for i in range(Bmatrix.shape[0]):
        for sigma in (-1, 1):
            total = 0.0
            for x, y, p in zip(dist.xs, dist.ys, dist.ps):
                r = (fvals[x] - y) * sigma
                b = Bmatrix[i, x]
                total += p * (-abs(r) if np.isnan(b) else r * b)
            best = max(best, total)
    return best


def test_ma_error_constant_plus_one():
    rng = rng_stream(47, 6)
    d = Domain(4)
    dist = random_real_distribution(rng, 4, 8)
    f = random_real_model(rng, 4)
    B = RealClass(d, [[1.0] * 4])
    expected = abs(sum(p * (f.values[x] - y) for x, y, p in atoms(dist)))
    assert ma_error(f, B, dist) == pytest.approx(expected, abs=1e-12)


def test_ma_error_all_star_class():
    rng = rng_stream(47, 7)
    d = Domain(4)
    dist = random_real_distribution(rng, 4, 8)
    f = random_real_model(rng, 4)
    B = RealClass(d, [[STAR] * 4])
    expected = -sum(p * abs(f.values[x] - y) for x, y, p in atoms(dist))
    assert ma_error(f, B, dist) == pytest.approx(expected, abs=1e-12)


def test_ma_error_matches_oracle_and_sup_decomposition():
    rng = rng_stream(47, 8)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        dist = random_real_distribution(rng, n, 8)
        f = random_real_model(rng, n)
        B1 = random_real_class(rng, n, 4)
        B2 = random_real_class(rng, n, 4)
        union = RealClass(Domain(n), np.vstack([B1.matrix, B2.matrix]))
        v1, v2 = ma_error(f, B1, dist), ma_error(f, B2, dist)
        assert ma_error(f, union, dist) == pytest.approx(max(v1, v2), abs=1e-12)
        assert v1 == pytest.approx(oracle_ma(f.values, B1.matrix, dist), abs=1e-12)


def test_ma_error_source_ber_star_nonpositive():
    # f = s under a conditional-mean law: every signed residual term is <= 0
    rng = rng_stream(47, 9)
    d = Domain(5)
    grid = np.linspace(-1, 1, 9)
    s = RealHypothesis(d, rng.choice(grid, size=5))
    dist = make_distribution(rng.dirichlet(np.ones(5)), SourceModel(s, BER_STAR))
    f = RealModel(d, s.values)
    B = random_real_class(rng, 5, 6)
    got = ma_error(f, B, dist)
    assert got == pytest.approx(oracle_ma(f.values, B.matrix, dist), abs=1e-12)
    assert got <= 1e-12


# --- multicalibration -----------------------------------------------------------------


def oracle_mc_cells(fvals, Bmatrix, dist, cell_of):
    best = -np.inf
    cells = sorted({cell_of(fvals[x]) for x in dist.xs})
    for i in range(Bmatrix.shape[0]):
        total = 0.0
        for c in cells:
            inner = -np.inf
            for sigma in (-1, 1):
                t = 0.0
                for x, y, p in zip(dist.xs, dist.ys, dist.ps):
                    if cell_of(fvals[x]) != c:
                        continue
                    r = (fvals[x] - y) * sigma
                    b = Bmatrix[i, x]
                    t += p * (-abs(r) if np.isnan(b) else r * b)
                inner = max(inner, t)
            total += inner
        best = max(best, total)
    return best


def test_mc_error_k1_equals_ma_error():
    rng = rng_stream(47, 10)
    part = IntervalPartition(1)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        dist = random_real_distribution(rng, n, 8)
        f = random_real_model(rng, n)
        B = random_real_class(rng, n, 5)
        assert mc_error_lambda(f, B, dist, part) == pytest.approx(
            ma_error(f, B, dist), abs=1e-12
        )


def test_mc_error_constant_model_equals_ma():
    rng = rng_stream(47, 11)
    d = Domain(4)
    dist = random_real_distribution(rng, 4, 8)
    f = RealModel.constant(d, 0.3)
    B = random_real_class(rng, 4, 5)
    assert mc_error(f, B, dist) == pytest.approx(ma_error(f, B, dist), abs=1e-12)


def test_mc_error_matches_oracle():
    rng = rng_stream(47, 12)
    part = IntervalPartition(3)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        dist = random_real_distribution(rng, n, 8)
        f = random_real_model(rng, n)
        B = random_real_class(rng, n, 5)
        got = mc_error_lambda(f, B, dist, part)
        exp = oracle_mc_cells(f.values, B.matrix, dist, part.cell_index)
        assert got == pytest.approx(exp, abs=1e-12)
        got_v = mc_error(f, B, dist)
        exp_v = oracle_mc_cells(f.values, B.matrix, dist, lambda v: v)
        assert got_v == pytest.approx(exp_v, abs=1e-12)


def test_mc_lambda_dominates_ma():
    rng = rng_stream(47, 13)
    for k in (2, 4):
        part = IntervalPartition(k)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            dist = random_real_distribution(rng, n, 8)
            f = random_real_model(rng, n)
            B = random_real_class(rng, n, 5)
            assert mc_error_lambda(f, B, dist, part) >= ma_error(f, B, dist) - 1e-12


def test_rounding_inequality_claim():
    # MC-error(round(f)) <= Lambda-MC-error(f) + 1/k
    rng = rng_stream(47, 14)
    for _ in range(30):
        k = int(rng.choice([2, 4, 8]))
        part = IntervalPartition(k)
        n = int(rng.integers(2, 6))
        dist = random_real_distribution(rng, n, 8)
        f = random_real_model(rng, n)
        B = random_real_class(rng, n, 5)
        fprime = round_model(f, part)
        assert mc_error(fprime, B, dist) <= mc_error_lambda(f, B, dist, part) + 1.0 / k + 1e-9


def test_deterministic_mc_equals_conditional_mean_form():
    # with y = s(x) surely and total benchmarks, the level-set sums over
    # (f - s) b match the label-form computation exactly
    rng = rng_stream(47, 15)
    d = Domain(5)
    grid = np.linspace(-1, 1, 9)
    svals = rng.choice(grid, size=5)
    mu = rng.dirichlet(np.ones(5))
    dist = make_distribution(mu, SourceModel(RealHypothesis(d, svals), DETERMINISTIC))
    f = random_real_model(rng, 5)
    B = RealClass(d, rng.choice(grid, size=(4, 5)))
    got = mc_error(f, B, dist)
    best = -np.inf
    for i in range(4):
        total = 0.0
        for v in np.unique(f.values):
            cell = 0.0
            for x in range(5):
                if f.values[x] == v and mu[x] > 0:
                    cell += mu[x] * (f.values[x] - svals[x]) * B.matrix[i, x]
            total += abs(cell)
        best = max(best, total)
    assert got == pytest.approx(best, abs=1e-12)


# --- calibration ------------------------------------------------------------------------


def test_cal_error_zero_for_conditional_mean():
    rng = rng_stream(47, 16)
    d = Domain(4)
    grid = np.linspace(-1, 1, 9)
    svals = rng.choice(grid, size=4)
    dist = make_distribution(
        rng.dirichlet(np.ones(4)), SourceModel(RealHypothesis(d, svals), BER_STAR)
    )
    f = RealModel(d, svals)
    assert cal_error(f, dist) == pytest.approx(0.0, abs=1e-12)


def test_cal_error_zero_for_constant_mean():
    rng = rng_stream(47, 17)
    dist = random_binary_distribution(rng, 4, 8)
    mean = float((dist.ps * dist.ys).sum())
    f = RealModel.constant(Domain(4), mean)
    assert cal_error(f, dist) == pytest.approx(0.0, abs=1e-12)


def test_sign_cal_at_most_cal():
    from comparelearn import sign_cal_error

    rng = rng_stream(47, 18)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        dist = random_real_distribution(rng, n, 8)
        f = random_real_model(rng, n)
        assert sign_cal_error(f, dist) <= cal_error(f, dist) + 1e-12


# --- regression loss -----------------------------------------------------------------------


def test_regression_loss_examples():
    d = Domain(3)
    loss = squared_loss()
    rng = rng_stream(47, 19)
    s = BinaryHypothesis(d, rng.choice([-1, 1], size=3).astype(np.int8))
    dist = make_distribution(rng.dirichlet(np.ones(3)), SourceModel(s, DETERMINISTIC))
    assert regression_loss(s, loss, dist) == pytest.approx(0.0)
    zero = RealModel.constant(d, 0.0)
    assert regression_loss(zero, loss, dist) == pytest.approx(1.0)


def test_regression_loss_matches_monte_carlo():
    rng = rng_stream(47, 20)
    dist = random_binary_distribution(rng, 4, 8)
    f = random_real_model(rng, 4)
    loss = squared_loss()
    exact = regression_loss(f, loss, dist)
    data = dist.sample(10**5, rng_stream(47, 21))
    emp = np.mean((data.ys - f.values[data.xs]) ** 2)
    assert abs(emp - exact) <= 3 * 4 / math.sqrt(10**5) + 1e-3


# --- dataset files ----------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    rng = rng_stream(47, 22)
    dist = random_binary_distribution(rng, 4, 6)
    data = dist.sample(50, rng)
    path = tmp_path / "data.csv"
    save_dataset(data, path, sidecar={"seed": 47, "distribution_sha256": dist.sha256(), "label_kind": dist.label_kind})
    back = load_dataset(path)
    assert np.array_equal(back.xs, data.xs)
    assert np.array_equal(back.ys, data.ys)
    assert back.meta["seed"] == 47
    assert back.meta["label_kind"] == "binary"


def test_rng_stream_replay():
    a = rng_stream(9, 1, 2).random(5)
    b = rng_stream(9, 1, 2).random(5)
    c = rng_stream(9, 1, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- MA/MC/calibration functionals need a total predictor ----------------------


@pytest.mark.parametrize(
    "functional",
    [
        lambda f, B, dist: ma_error(f, B, dist),
        lambda f, B, dist: mc_error(f, B, dist),
        lambda f, B, dist: mc_error_lambda(f, B, dist, IntervalPartition(2)),
        lambda f, B, dist: cal_error(f, dist),
        lambda f, B, dist: sign_cal_error(f, dist),
    ],
    ids=["ma_error", "mc_error", "mc_error_lambda", "cal_error", "sign_cal_error"],
)
def test_residual_functionals_reject_partial_predictor(functional):
    # mc_error and cal_error used to drop the * point (0.75), the others gave NaN
    d = Domain(2)
    dist = DiscreteDistribution(d, [(0, 1.0, 0.5), (1, 1.0, 0.5)], "binary")
    B = RealClass(d, [[1.0, 1.0]])
    with pytest.raises(ValueError, match="total model"):
        functional(RealHypothesis(d, [STAR, 0.5]), B, dist)
    assert np.isfinite(functional(RealHypothesis(d, [0.0, 0.5]), B, dist))


# --- the scalar functionals are the one-row case of the row functionals --------
#
# The reference formulas below are the scalar functionals as they were written
# before the row functionals existed.


def _ref_class_error(vals, dist):
    return float(dist.ps[vals[dist.xs] != dist.ys.astype(np.int8)].sum())


def _ref_correlation(vals, dist):
    return float(np.sum(dist.ps * dist.ys * vals[dist.xs]))


def _ref_corr_partial(vals, dist):
    bx = vals[dist.xs]
    star = np.isnan(bx)
    terms = np.where(star, -np.abs(dist.ys), dist.ys * np.where(star, 0.0, bx))
    return float(np.sum(dist.ps * terms))


def _ref_regression_loss(vals, loss, dist):
    per_atom = np.array([loss(y, q) for y, q in zip(dist.ys, vals[dist.xs])])
    return float(np.sum(dist.ps * per_atom))


def _ref_loss_table(loss, ys, rows):
    values, index = np.unique(rows, return_inverse=True)
    table = np.array([[loss(y, q) for q in values] for y in (-1.0, 1.0)])
    return table[(ys > 0).astype(np.intp), index.reshape(rows.shape)]


def _same(a, b):
    """Equal bit for bit (NaN included)."""
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


FUNCTIONAL_VALUES = (-1.0, -0.5, -0.25, 0.0, 1.0 / 3.0, 0.5, 0.7, 1.0)
SQUARED = squared_loss()


@st.composite
def functional_cases(draw):
    n = draw(st.integers(1, 40))
    d = Domain(n)
    real_labels = draw(st.booleans())
    label = st.sampled_from(FUNCTIONAL_VALUES if real_labels else (-1.0, 1.0))
    atoms = draw(
        st.lists(st.tuples(st.integers(0, n - 1), label, st.integers(1, 99)), min_size=1, max_size=40)
    )
    total = sum(w for _, _, w in atoms)
    dist = DiscreteDistribution(
        d, [(x, y, w / total) for x, y, w in atoms], "real" if real_labels else "binary"
    )
    rows = draw(st.integers(1, 5))
    binary = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=rows * n, max_size=rows * n)))
    real = np.array(draw(st.lists(st.sampled_from(FUNCTIONAL_VALUES + (np.nan,)), min_size=rows * n,
                                  max_size=rows * n)))
    model = np.array(draw(st.lists(st.sampled_from(FUNCTIONAL_VALUES), min_size=n, max_size=n)))
    return d, dist, binary.reshape(rows, n).astype(np.int8), real.reshape(rows, n), model


@settings(max_examples=300, deadline=None)
@given(functional_cases())
def test_scalar_functionals_match_reference_formulas(case):
    d, dist, binary, real, model = case
    bound = dist.xs.size * 2.0**-52
    xs = dist.xs
    f = RealModel(d, model)
    if dist.label_kind == "binary":
        # * counted wrong: a masked sum before, a where-sum of the row functional now
        for row in binary:
            value = class_error(BinaryHypothesis(d, row), dist)
            assert value == _error_rows(row[None, xs], dist)[0]
            assert abs(value - _ref_class_error(row, dist)) <= bound
        for row in real:
            h = RealHypothesis(d, row)
            assert _same(regression_loss(h, SQUARED, dist), _ref_regression_loss(h.values, SQUARED, dist))
        assert correlation(f, dist) == _ref_correlation(model, dist)
    else:
        # (p y) f before, p (y f) now
        value = correlation(f, dist)
        assert value == _corr_rows(model[None, xs], dist)[0]
        assert abs(value - _ref_correlation(model, dist)) <= bound
    for row in real:
        h = RealHypothesis(d, row)
        assert corr_partial(h, dist) == _ref_corr_partial(h.values, dist)
    for row in binary:
        h = BinaryHypothesis(d, row)
        assert corr_partial(h, dist) == _ref_corr_partial(as_real_hypothesis(h).values, dist)


@settings(max_examples=300, deadline=None)
@given(functional_cases())
def test_goal_rows_match_reference_formulas(case):
    d, dist, binary, real, model = case
    loss = SQUARED
    # the n* goal's gather: row 0 the model, then the members on the support
    B, R = BinaryClass(d, binary, dedup=False), RealClass(d, real, dedup=False)
    f, fb = RealModel(d, model), BinaryModel(d, np.where(model >= 0, 1, -1))
    if dist.label_kind == "binary":
        rows = _support_rows(fb.values, B, dist.xs, real=False)
        ref = np.where(rows != dist.ys.astype(np.int8), dist.ps, 0.0).sum(axis=1)
        assert _same(_error_rows(rows, dist), ref)
        for C in (B, R):
            rows = _support_rows(f.values, C, dist.xs, real=True)
            ref = (dist.ps * _ref_loss_table(loss, dist.ys, rows)).sum(axis=1)
            assert _same(_loss_rows(loss, rows, dist), ref)
    for C in (B, R):
        rows = _support_rows(f.values, C, dist.xs, real=True)
        ref = (dist.ps * gen_product_arr(dist.ys, rows)).sum(axis=1)
        assert _same(_corr_rows(rows, dist), ref)
