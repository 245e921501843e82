"""Domain types, label transforms, and their spec'd invariants."""

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
    Domain,
    IntervalPartition,
    RealClass,
    RealHypothesis,
    RealModel,
    agreement,
    agreement_class,
    as_real_class,
    binarize_class,
    binarize_hypothesis,
    chi,
    class_from_json,
    class_to_json,
    discretize_labels,
    gen_product,
    model_from_json,
    model_to_json,
    multi_agreement_class,
    pi_proj,
    proj_interval,
    shift_scale_class,
    sigma_mask_class,
    sign,
)
from comparelearn.core import _dedup_rows, validate_sign_vector
from conftest import random_binary_class, random_real_class, random_real_model

from comparelearn import rng_stream

# int8 values that are not labels; -128 is its own absolute value
NON_LABELS = (2, -2, 127, -128)


# --- scalar ops -------------------------------------------------------------


def test_sign_at_zero_is_plus_one():
    assert sign(0) == 1
    assert sign(0.0) == 1


def test_sign_examples():
    assert sign(-0.3) == -1
    assert sign(2.5) == 1


def test_gen_product_star_branch():
    assert gen_product(0.5, STAR) == -0.5
    assert gen_product(-0.3, 0.5) == pytest.approx(-0.15)
    assert gen_product(0, STAR) == 0


@given(st.floats(-5, 5, allow_nan=False))
def test_gen_product_star_is_infimum(u1):
    # u1 <> * equals inf over v in [-1, 1] of u1 * v, checked on a grid
    grid = np.linspace(-1, 1, 201)
    assert gen_product(u1, STAR) == pytest.approx((u1 * grid).min(), abs=1e-9)


@given(st.floats(-5, 5, allow_nan=False), st.floats(-1, 1, allow_nan=False))
def test_gen_product_defined_is_plain_product(u1, u2):
    assert gen_product(u1, u2) == u1 * u2


def test_proj_interval():
    assert proj_interval(1.7) == 1
    assert proj_interval(-3) == -1
    assert proj_interval(0.2) == 0.2


def test_pi_proj_paper_examples():
    assert pi_proj(0.6, 0.9) == 0.6
    assert pi_proj(0.6, -0.2) == 0
    assert pi_proj(-0.6, -0.3) == -0.3


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_pi_proj_range_and_fixpoint(y, u):
    v = pi_proj(y, u)
    lo, hi = min(0, y), max(0, y)
    assert lo <= v <= hi
    if lo <= u <= hi:
        assert v == u


# --- discretized label grid --------------------------------------------------


def test_discretize_half():
    assert discretize_labels(0.5).tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_discretize_near_one():
    eta = 1 - 1e-9
    Y = discretize_labels(eta)
    assert 0.0 in Y.tolist()
    grid = np.linspace(-1, 1, 1001)
    dist = np.abs(grid[:, None] - Y[None, :]).min(axis=1)
    assert dist.max() <= eta + 1e-12


@pytest.mark.parametrize("eta", [0.5, 0.34, 0.25, 0.1, 0.07, 0.999])
def test_discretize_properties(eta):
    Y = discretize_labels(eta)
    assert 0.0 in Y.tolist()
    assert (np.abs(Y) <= 1).all()
    assert len(Y) <= math.ceil(2 / eta) + 1
    grid = np.linspace(-1, 1, 2001)
    dist = np.abs(grid[:, None] - Y[None, :]).min(axis=1)
    assert dist.max() <= eta + 1e-12


# --- hypotheses, classes, dedup ----------------------------------------------


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(0)
    with pytest.raises(ValueError):
        Domain(2, names=("a",))


def test_binary_hypothesis_labels():
    d = Domain(3)
    h = BinaryHypothesis(d, [1, STAR, -1])
    assert h.labels() == [1, STAR, -1]
    assert not h.is_total
    with pytest.raises(ValueError):
        BinaryHypothesis(d, [1, 2, -1])
    for bad in NON_LABELS:
        with pytest.raises(ValueError, match=r"binary labels must be -1, \+1 or \*"):
            BinaryHypothesis(d, np.array([1, bad, -1], dtype=np.int8))
        with pytest.raises(ValueError, match=r"binary labels must be -1, \+1 or \*"):
            BinaryClass(d, np.array([[1, 0, -1], [1, bad, -1]], dtype=np.int8))


def test_real_hypothesis_range():
    d = Domain(2)
    h = RealHypothesis(d, [0.5, STAR])
    assert h.labels() == [0.5, STAR]
    with pytest.raises(ValueError):
        RealHypothesis(d, [1.5, 0])


def _dedup_oracle(matrix):
    first = {}
    for i in range(matrix.shape[0]):
        first.setdefault(matrix[i].tobytes(), i)
    return matrix[sorted(first.values())]


def test_dedup_rows_matches_dict_oracle():
    rng = rng_stream(20240815, 9)
    pools = (
        np.array([-1, 0, 1], dtype=np.int8),
        np.array([-1.0, -0.5, 0.0, 0.5, 1.0, np.nan]),
    )
    for trial in range(60):
        pool = pools[trial % 2]
        shape = (int(rng.integers(0, 40)), int(rng.integers(1, 4)))
        matrix = rng.choice(pool, size=shape)
        out = _dedup_rows(matrix)
        expected = _dedup_oracle(matrix)
        assert out.dtype == matrix.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        if expected.shape[0] == matrix.shape[0]:
            assert out is matrix
    nan_rows = np.array([[np.nan, 1.0], [np.nan, 1.0], [1.0, np.nan]])
    assert _dedup_rows(nan_rows).tobytes() == nan_rows[[0, 2]].tobytes()


def test_class_dedup_keeps_first_occurrence_order():
    d = Domain(2)
    C = BinaryClass(d, [[1, -1], [1, 1], [1, -1], [-1, -1]])
    assert len(C) == 3
    assert C.member(0).labels() == [1, -1]
    assert C.member(1).labels() == [1, 1]


def test_real_class_dedups_star_rows():
    d = Domain(2)
    C = RealClass(d, [[0.5, STAR], [0.5, STAR], [0.5, 0.5]])
    assert len(C) == 2


def test_empty_class_is_representable():
    d = Domain(3)
    C = BinaryClass(d, [])
    assert C.is_empty and len(C) == 0


def test_models_must_be_total():
    d = Domain(2)
    with pytest.raises(ValueError):
        BinaryModel(d, [1, 0])
    with pytest.raises(ValueError):
        RealModel(d, [0.5, float("nan")])
    for bad in NON_LABELS:
        with pytest.raises(ValueError, match=r"binary model values must be -1 or \+1"):
            BinaryModel(d, np.array([1, bad], dtype=np.int8))
        with pytest.raises(ValueError, match=r"sign vector entries must be -1 or \+1"):
            validate_sign_vector(np.array([1, bad], dtype=np.int8), 2)
    with pytest.raises(ValueError, match=r"sign vector entries must be -1 or \+1"):
        validate_sign_vector([1, 0], 2)


@pytest.mark.parametrize("bad", [[1.5, -1], np.array([1, 255]), [1, 128], np.array([1.0, -0.5])])
def test_binary_values_checked_before_int8_cast(bad):
    # a non-label must not be cast to int8 first: 1.5 truncates to +1, 255
    # wraps to -1 and 128 overflows
    d = Domain(2)
    with pytest.raises(ValueError, match=r"binary model values must be -1 or \+1"):
        BinaryModel(d, bad)
    with pytest.raises(ValueError, match=r"binary labels must be -1, \+1 or \*"):
        BinaryClass(d, np.array([bad]))
    with pytest.raises(ValueError, match=r"sign vector entries must be -1 or \+1"):
        validate_sign_vector(bad, 2)


def test_binary_values_accept_exact_labels_of_any_dtype():
    d = Domain(3)
    for arr in ([1, -1, 1], np.array([1.0, -1.0, 1.0]), np.array([1, -1, 1], dtype=np.int64)):
        assert BinaryModel(d, arr).values.dtype == np.int8
        assert BinaryModel(d, arr).values.tolist() == [1, -1, 1]
    C = BinaryClass(d, np.array([[1.0, 0.0, -1.0], [1.0, 0.0, -1.0]]))
    assert C.matrix.dtype == np.int8 and C.matrix.tolist() == [[1, 0, -1]]


def test_immutability():
    d = Domain(2)
    h = BinaryHypothesis(d, [1, -1])
    with pytest.raises(Exception):
        h.values[0] = -1


# --- binarization -------------------------------------------------------------


def test_binarize_hypothesis_examples():
    d = Domain(3)
    h = RealHypothesis(d, [0.8, 0.4, STAR])
    out = binarize_hypothesis(h, 0.5, 0.0)
    assert out.labels() == [1, STAR, STAR]
    low = RealHypothesis(d, [-0.8, -0.4, 0.0])
    assert binarize_hypothesis(low, 0.5, 0.0).labels() == [-1, STAR, STAR]


def test_binarize_eta_zero_total_gives_sign_except_ties():
    d = Domain(3)
    h = RealHypothesis(d, [0.3, 0.0, -0.2])
    out = binarize_hypothesis(h, 0.0, 0.0)
    assert out.labels() == [1, STAR, -1]  # exact tie h(x) = r(x) maps to *


def test_binarize_class_constants():
    d = Domain(3)
    H = RealClass(d, [[1.0] * 3, [-1.0] * 3])
    out = binarize_class(H, 0.5, 0.0)
    assert sorted(tuple(m.labels()) for m in out.members()) == [(-1,) * 3, (1,) * 3]
    Z = RealClass(d, [[0.0] * 3])
    assert binarize_class(Z, 0.5, 0.0).member(0).labels() == [STAR] * 3


def test_binarize_class_matches_pointwise_oracle():
    rng = rng_stream(11, 1)
    for trial in range(20):
        H = random_real_class(rng, 5, 6)
        eta = float(rng.choice([0.0, 0.1, 0.3]))
        r = rng.uniform(-1, 1, size=5)
        got = binarize_class(H, eta, r)
        # independent per-hypothesis recomputation
        expected_rows = []
        for i in range(len(H)):
            row = []
            for x in range(5):
                v = H.matrix[i, x]
                if np.isnan(v):
                    row.append(0)
                elif v > r[x] + eta:
                    row.append(1)
                elif v < r[x] - eta:
                    row.append(-1)
                else:
                    row.append(0)
            expected_rows.append(row)
        seen = {tuple(int(v) for v in got.matrix[i]) for i in range(len(got))}
        assert seen == {tuple(r_) for r_ in expected_rows}


# --- agreement ------------------------------------------------------------------


def test_agreement_pointwise():
    d = Domain(3)
    s = BinaryHypothesis(d, [1, 1, STAR])
    b = BinaryHypothesis(d, [1, -1, 1])
    assert agreement(s, b).labels() == [1, STAR, STAR]


def test_agreement_symmetric_and_claim_semantics():
    rng = rng_stream(11, 2)
    for _ in range(50):
        vals = rng.choice([-1, 0, 1], size=(2, 4))
        d = Domain(4)
        s = BinaryHypothesis(d, vals[0].astype(np.int8))
        b = BinaryHypothesis(d, vals[1].astype(np.int8))
        ab = agreement(s, b)
        assert agreement(b, s) == ab
        for x in range(4):
            for y in (-1, 1):
                lhs = ab.label(x) == y
                rhs = (s.label(x) == y) and (b.label(x) == y)
                assert lhs == rhs


def test_agreement_class_matches_bruteforce_table():
    rng = rng_stream(11, 3)
    d = Domain(3)
    S = random_binary_class(rng, 3, 2)
    B = random_binary_class(rng, 3, 2)
    A = agreement_class(S, B)
    table = set()
    for i in range(len(S)):
        for j in range(len(B)):
            table.add(tuple(agreement(S.member(i), B.member(j)).labels()))
    assert {tuple(m.labels()) for m in A.members()} == table


def test_self_agreement_keeps_stars():
    d = Domain(3)
    h = BinaryHypothesis(d, [1, STAR, -1])
    H = BinaryClass(d, [h])
    A = agreement_class(H, H)
    assert A.member(0).labels() == [1, STAR, -1]


def test_multi_agreement_two_classes_equals_pairwise():
    rng = rng_stream(11, 4)
    S = random_binary_class(rng, 4, 3)
    B = random_binary_class(rng, 4, 3)
    assert multi_agreement_class([S, B]) == agreement_class(S, B)


def test_multi_agreement_definition():
    rng = rng_stream(11, 5)
    classes = [random_binary_class(rng, 3, 2) for _ in range(3)]
    A = multi_agreement_class(classes)
    expected = set()
    for i in range(len(classes[0])):
        for j in range(len(classes[1])):
            for k in range(len(classes[2])):
                hs = [classes[0].member(i), classes[1].member(j), classes[2].member(k)]
                # directly: label y at x iff every h_i(x) = y
                row = []
                for x in range(3):
                    l0 = hs[0].label(x)
                    if l0 is not STAR and all(h.label(x) == l0 for h in hs):
                        row.append(l0)
                    else:
                        row.append(STAR)
                expected.add(tuple(row))
    assert {tuple(m.labels()) for m in A.members()} == expected


def test_multi_agreement_rejects_empty_collection():
    with pytest.raises(ValueError):
        multi_agreement_class([])


# --- shift/scale and sigma masking ----------------------------------------------


def test_shift_scale_examples():
    d = Domain(3)
    S = RealClass(d, [[1.0] * 3, [STAR] * 3])
    f = RealModel(d, [1.0] * 3)
    out = shift_scale_class(S, f)
    assert {tuple(m.labels()) for m in out.members()} == {(0.0,) * 3, (STAR,) * 3}


def test_shift_scale_matches_pointwise():
    rng = rng_stream(11, 6)
    S = random_real_class(rng, 5, 6)
    f = random_real_model(rng, 5)
    out = shift_scale_class(S, f)
    rows = set()
    for i in range(len(S)):
        row = []
        for x in range(5):
            v = S.matrix[i, x]
            row.append(STAR if np.isnan(v) else (v - f.values[x]) / 2)
        rows.add(tuple(row))
    assert {tuple(m.labels()) for m in out.members()} == rows
    defined = ~np.isnan(out.matrix)
    assert (np.abs(out.matrix[defined]) <= 1).all()


def test_chi_and_identity_mask():
    d = Domain(3)
    part = IntervalPartition(1)
    B = RealClass(d, [[0.5, -0.3, STAR]])
    f = RealModel(d, [0.1, 0.9, -0.5])
    same = sigma_mask_class(B, [1], f, part)
    assert same == B
    neg = sigma_mask_class(B, [-1], f, part)
    assert neg.member(0).labels() == [-0.5, 0.3, STAR]


def test_sigma_mask_matches_pointwise():
    rng = rng_stream(11, 7)
    part = IntervalPartition(2)
    B = random_real_class(rng, 4, 5)
    f = random_real_model(rng, 4)
    sigma = [1, -1]
    out = sigma_mask_class(B, sigma, f, part)
    expected = set()
    for i in range(len(B)):
        row = []
        for x in range(4):
            v = B.matrix[i, x]
            if np.isnan(v):
                row.append(STAR)
            else:
                row.append(chi(sigma, part, f.values[x]) * v)
        expected.add(tuple(row))
    assert {tuple(m.labels()) for m in out.members()} == expected


def test_chi_piecewise_constant_with_partition_breakpoints():
    part = IntervalPartition(4)
    sigma = validate_sign_vector([1, -1, -1, 1], 4)
    grid = np.linspace(-1, 1, 4001)
    vals = np.array([chi(sigma, part, u) for u in grid])
    changes = grid[1:][vals[1:] != vals[:-1]]
    # every change point is adjacent to a breakpoint of the partition
    for c in changes:
        assert np.abs(part.breakpoints - c).min() < 1e-3
    # exactly one cell claims each u
    for u in (-1.0, -0.5, 0.0, 0.25, 1.0):
        idx = part.cell_index(u)
        assert 0 <= idx < 4


def test_partition_cell_indices_reject_star():
    part = IntervalPartition(3)
    assert part.cell_indices(np.array([-1.0, 0.0, 1.0])).tolist() == [0, 1, 2]
    for bad in ([0.5, np.nan], [1.5]):
        with pytest.raises(ValueError, match=r"values must lie in \[-1, 1\]"):
            part.cell_indices(np.array(bad))


def test_partition_cells_cover_exactly():
    part = IntervalPartition(3)
    # boundary membership: cell 1 = [-1, -1+2/3], others half-open
    assert part.cell_index(-1.0) == 0
    assert part.cell_index(-1 + 2 / 3) == 0
    assert part.cell_index(-1 + 2 / 3 + 1e-12) == 1
    assert part.cell_index(1.0) == 2


# --- JSON round-trips ------------------------------------------------------------


def test_class_json_roundtrip_binary():
    rng = rng_stream(11, 8)
    C = random_binary_class(rng, 4, 5)
    assert class_from_json(class_to_json(C)) == C


def test_class_json_roundtrip_real_lossless():
    d = Domain(3)
    C = RealClass(d, [[0.1, STAR, -1.0], [1 / 3, 0.7, 2 / 3]])
    import json

    blob = json.dumps(class_to_json(C))
    back = class_from_json(json.loads(blob))
    assert back == C  # bitwise-equal floats after a JSON round-trip


def test_model_json_roundtrip():
    d = Domain(3)
    f = RealModel(d, [0.25, -1 / 3, 1.0])
    assert model_from_json(model_to_json(f)) == f
    g = BinaryModel(d, [1, -1, 1])
    assert model_from_json(model_to_json(g)) == g
