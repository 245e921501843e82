"""Dimension computations against independent brute-force oracles."""

from itertools import combinations, product

import numpy as np
import pytest

from comparelearn import (
    BinaryClass,
    BinaryModel,
    Domain,
    GuardError,
    GVConstructionError,
    RealClass,
    agreement_class,
    as_real_class,
    binarize_class,
    covering_number_exact,
    covering_upper,
    fat,
    gv_packing,
    is_fat_shattered,
    is_shattered,
    ldim,
    multi_agreement_class,
    mutual_fat,
    mutual_fat2,
    mutual_ldim,
    mutual_vc,
    packing_number,
    rng_stream,
    tree_shattered_by,
    vc,
)
from comparelearn.dimensions import MistakeTree, dual_distances
from conftest import random_binary_class, random_real_class, random_total_real_class


# --- independent oracles -----------------------------------------------------


def oracle_shattered(members, subset):
    """Pure-python shattering check: members are label tuples with 0 = *."""
    for pattern in product((-1, 1), repeat=len(subset)):
        if not any(
            all(m[x] == p for x, p in zip(subset, pattern)) for m in members
        ):
            return False
    return bool(members)


def oracle_vc(members, n):
    best = -1
    witness = None
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if oracle_shattered(members, subset):
                if k > best:
                    best, witness = k, subset
    return best, witness


def oracle_mutual_vc(ms, mb, n):
    best = -1
    witness = None
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if oracle_shattered(ms, subset) and oracle_shattered(mb, subset):
                if k > best:
                    best, witness = k, subset
    return best, witness


def oracle_fat_shattered(matrix, subset, eta):
    """Direct fat-shattering search: assign a hypothesis per pattern.

    The subset is eta-fat shattered for some reference iff there is an
    assignment pattern -> hypothesis (defined on the subset) such that at
    every point min over +1-patterns minus max over -1-patterns exceeds
    2 eta.  Searched with pruning; independent of the candidate-reference
    reduction in the library.
    """
    k = len(subset)
    if k == 0:
        return matrix.shape[0] > 0
    patterns = list(product((-1, 1), repeat=k))
    rows = [
        i
        for i in range(matrix.shape[0])
        if not np.isnan(matrix[i, list(subset)]).any()
    ]
    if not rows:
        return False
    lows = np.full(k, np.inf)  # running min over patterns requiring +1
    highs = np.full(k, -np.inf)  # running max over patterns requiring -1

    def rec(pi):
        if pi == len(patterns):
            return True
        pattern = patterns[pi]
        for i in rows:
            vals = matrix[i, list(subset)]
            saved_l, saved_h = lows.copy(), highs.copy()
            ok = True
            for j in range(k):
                if pattern[j] == 1:
                    lows[j] = min(lows[j], vals[j])
                else:
                    highs[j] = max(highs[j], vals[j])
                if lows[j] - highs[j] <= 2 * eta:
                    ok = False
                    break
            if ok and rec(pi + 1):
                return True
            lows[:], highs[:] = saved_l, saved_h
        return False

    return rec(0)


def oracle_fat(matrix, n, eta):
    best = -1
    for k in range(n + 1):
        found = False
        for subset in combinations(range(n), k):
            if oracle_fat_shattered(matrix, subset, eta):
                best = max(best, k)
                found = True
                break
        if not found:
            break
    return best


def members_of(C):
    return [tuple(int(v) for v in C.matrix[i]) for i in range(len(C))]


# --- shattering / VC ----------------------------------------------------------


def test_is_shattered_examples():
    d = Domain(3)
    full = BinaryClass(d, np.array(list(product((-1, 1), repeat=3)), dtype=np.int8))
    assert is_shattered(full, (0, 1, 2))
    const = BinaryClass(d, [[1, 1, 1]])
    assert is_shattered(const, ())
    assert not is_shattered(const, (0,))
    empty = BinaryClass(d, [])
    assert not is_shattered(empty, ())


@pytest.mark.parametrize("subset", [[-1], [0, -1], [3], [0, 1.0], [True], ["0"]])
def test_shattering_checks_refuse_points_outside_the_domain(subset):
    # -1 used to wrap to point 2, which this class shatters
    H = BinaryClass(Domain(3), [[1, 1, 1], [1, -1, -1], [-1, 1, 1], [-1, -1, -1]])
    assert is_shattered(H, [2]) and is_shattered(H, np.array([0, 2]))
    message = r"^subset entries must be points of the domain \[0, 3\)$"
    with pytest.raises(ValueError, match=message):
        is_shattered(H, subset)
    with pytest.raises(ValueError, match=message):
        is_fat_shattered(as_real_class(H), subset, 0.1, 0.0)


def test_subset_guard():
    d = Domain(31)
    C = BinaryClass(d, [np.ones(31, dtype=np.int8)])
    with pytest.raises(GuardError):
        is_shattered(C, tuple(range(31)))


def test_vc_full_cube():
    d = Domain(3)
    full = BinaryClass(d, np.array(list(product((-1, 1), repeat=3)), dtype=np.int8))
    res = vc(full)
    assert res.value == 3
    assert mutual_vc(full, full).value == 3


def test_vc_undefined_for_empty():
    C = BinaryClass(Domain(2), [])
    assert vc(C).is_undefined
    assert mutual_vc(C, C).is_undefined


def test_vc_matches_oracle_random():
    rng = rng_stream(31, 1)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        C = random_binary_class(rng, n, int(rng.integers(1, 12)))
        got = vc(C)
        exp, exp_witness = oracle_vc(members_of(C), n)
        assert got.value == exp
        assert got.witness == exp_witness  # lexicographically first maximum subset
        assert is_shattered(C, got.witness)  # witness re-verifies


def test_mutual_vc_matches_oracle_and_symmetry():
    rng = rng_stream(31, 2)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        S = random_binary_class(rng, n, int(rng.integers(1, 10)))
        B = random_binary_class(rng, n, int(rng.integers(1, 10)))
        got = mutual_vc(S, B)
        exp, exp_witness = oracle_mutual_vc(members_of(S), members_of(B), n)
        assert got.value == exp
        assert got.witness == exp_witness
        assert mutual_vc(B, S).value == got.value
        assert got.value <= min(vc(S).value, vc(B).value)
        assert is_shattered(S, got.witness) and is_shattered(B, got.witness)


def test_figure1_mutual_vc_zero():
    from comparelearn.experiments import scenario

    spec = scenario("figure1", 3)
    assert mutual_vc(spec.source, spec.benchmark).value == 0
    # the individual classes are as complex as the domain halves allow
    assert vc(spec.source).value == 3
    assert vc(spec.benchmark).value == 3


def test_c1_m1_mutual_vc_one():
    from comparelearn.experiments import scenario

    spec = scenario("c1", 1)
    got = mutual_vc(spec.source, spec.benchmark)
    assert (got.value, got.witness) == oracle_mutual_vc(
        members_of(spec.source), members_of(spec.benchmark), 4
    )
    assert got.value == 1


def test_claim_agreement_vc_identity_small():
    rng = rng_stream(31, 3)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        S = random_binary_class(rng, n, int(rng.integers(1, 12)))
        B = random_binary_class(rng, n, int(rng.integers(1, 12)))
        assert mutual_vc(S, B).value == vc(agreement_class(S, B)).value
    rng = rng_stream(31, 13)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        classes = [random_binary_class(rng, n, int(rng.integers(1, 12))) for _ in range(3)]
        got = mutual_vc(*classes)
        assert got == vc(multi_agreement_class(classes))  # value and witness
        assert all(is_shattered(C, got.witness) for C in classes)


# --- fat shattering ------------------------------------------------------------


def test_fat_binary_class_equals_vc():
    rng = rng_stream(31, 4)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        C = random_binary_class(rng, n, int(rng.integers(1, 10)))
        R = as_real_class(C)
        v = vc(C).value
        for eta in (0.0, 0.3, 0.99):
            assert fat(R, eta).value == v


def test_fat_constant_zero_class():
    C = RealClass(Domain(3), [[0.0, 0.0, 0.0]])
    assert fat(C, 0.1).value == 0


def test_fat_matches_direct_oracle():
    rng = rng_stream(31, 5)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        C = random_real_class(rng, n, int(rng.integers(2, 7)))
        for eta in (0.1, 0.25):
            got = fat(C, eta)
            assert got.value == oracle_fat(C.matrix, n, eta)
            subset, refs = got.witness
            assert is_fat_shattered(C, subset, eta, np.asarray(refs))


def test_is_fat_shattered_reference_forms():
    C = RealClass(Domain(3), [[0.9, a, b] for a in (0.5, -0.5) for b in (0.5, -0.5)])
    assert is_fat_shattered(C, (1, 2), 0.4, 0.0)  # a scalar is the reference at every point
    assert is_fat_shattered(C, (1, 2), 0.4, np.array([0.0, 0.0]))  # aligned with the subset
    assert is_fat_shattered(C, (1, 2), 0.4, np.array([5.0, 0.0, 0.0]))  # a full-domain array, read at 1 and 2
    assert not is_fat_shattered(C, (1, 2), 0.4, np.array([0.0, 0.2, 0.0]))  # 0.5 - 0.2 misses the margin
    with pytest.raises(ValueError, match="r must align with the subset or the domain"):
        is_fat_shattered(C, (1, 2), 0.4, np.zeros(4))


@pytest.mark.parametrize("bad", [float("nan"), -0.1])
def test_margins_and_radii_refuse_nan_and_negative(bad):
    # NaN fails every comparison: an eta < 0 check lets it through, and it binarizes every label to *
    d = Domain(2)
    S = RealClass(d, [[0.5, -0.5], [-0.5, 0.5]])
    B = RealClass(d, [[1.0, 1.0], [-1.0, 1.0]])
    for call in (
        lambda: fat(S, bad),
        lambda: mutual_fat(S, B, bad),
        lambda: mutual_fat2(S, B, 0.1, bad),  # the min of (0.1, nan) is 0.1
        lambda: is_fat_shattered(S, (0,), bad, 0.0),
        lambda: binarize_class(S, bad, 0.0),
    ):
        with pytest.raises(ValueError, match="^eta must be >= 0$"):
            call()
    for radius in (packing_number, covering_upper, covering_number_exact):
        with pytest.raises(ValueError, match="^eps must be >= 0$"):
            radius(S, B, np.full(2, 0.5), bad)


def test_mutual_fat_symmetry_and_monotone_in_eta():
    rng = rng_stream(31, 6)
    for _ in range(10):
        S = random_real_class(rng, 4, 6)
        B = random_real_class(rng, 4, 6)
        prev = None
        for eta in (0.05, 0.1, 0.25, 0.5):
            v = mutual_fat(S, B, eta).value
            assert mutual_fat(B, S, eta).value == v
            if prev is not None:
                assert v <= prev
            prev = v


def test_mutual_fat2_monotone_in_each_margin():
    rng = rng_stream(31, 7)
    S = random_real_class(rng, 4, 8)
    B = random_real_class(rng, 4, 8)
    base = mutual_fat2(S, B, 0.1, 0.1).value
    assert mutual_fat2(S, B, 0.3, 0.1).value <= base
    assert mutual_fat2(S, B, 0.1, 0.3).value <= base


def test_claim_fat_equals_sup_binarized_vc():
    # fat_eta(S, B) = sup over candidate references of VC(binarized pair)
    from comparelearn.core import binarize_class
    from comparelearn.dimensions import reference_candidates

    rng = rng_stream(31, 8)
    for _ in range(8):
        n = 3
        S = random_real_class(rng, n, 4)
        B = random_real_class(rng, n, 4)
        eta = 0.25
        got = mutual_fat(S, B, eta).value

        def sup_vc(C):
            # per-point candidate grids, full functions r over the domain
            grids = []
            for x in range(n):
                col = C.matrix[:, x]
                vals = col[~np.isnan(col)]
                cands = reference_candidates(vals, eta) if vals.size else [0.0]
                grids.append(cands)
            return grids

        gs, gb = sup_vc(S), sup_vc(B)
        best = -1
        for rs in product(*gs):
            Sb = binarize_class(S, eta, np.array(rs))
            vs = vc(Sb).value
            if vs is None or vs <= best:
                continue
            for rb in product(*gb):
                Bb = binarize_class(B, eta, np.array(rb))
                mv = mutual_vc(Sb, Bb).value
                if mv is not None:
                    best = max(best, mv)
        assert got == best


# --- Littlestone dimension -------------------------------------------------------


def oracle_ldim(members, n, depth_cap=4):
    """Brute-force deepest shattered mistake tree by explicit tree search."""

    def rec(consistent, depth):
        if depth == 0 or not consistent:
            return 0
        best = 0
        for x in range(n):
            plus = [m for m in consistent if m[x] == 1]
            minus = [m for m in consistent if m[x] == -1]
            if plus and minus:
                best = max(best, 1 + min(rec(plus, depth - 1), rec(minus, depth - 1)))
        return best

    return rec(members, depth_cap)


def test_ldim_singleton_and_cube():
    d = Domain(3)
    single = BinaryClass(d, [[1, -1, 1]])
    assert ldim(single).value == 0
    full = BinaryClass(d, np.array(list(product((-1, 1), repeat=3)), dtype=np.int8))
    res = ldim(full)
    assert res.value == 3
    assert tree_shattered_by(full, res.witness)


def test_ldim_matches_bruteforce():
    rng = rng_stream(31, 9)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        C = random_binary_class(rng, n, int(rng.integers(1, 10)))
        got = ldim(C)
        assert got.value == oracle_ldim(members_of(C), n)
        assert tree_shattered_by(C, got.witness)


def test_vc_at_most_ldim():
    rng = rng_stream(31, 10)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        C = random_binary_class(rng, n, int(rng.integers(1, 10)))
        assert vc(C).value <= ldim(C).value


def test_claim_mutual_ldim_equals_agreement_ldim():
    rng = rng_stream(31, 11)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        S = random_binary_class(rng, n, int(rng.integers(1, 8)))
        B = random_binary_class(rng, n, int(rng.integers(1, 8)))
        got = mutual_ldim(S, B)
        assert got.value == ldim(agreement_class(S, B)).value
        assert mutual_ldim(B, S).value == got.value
        assert tree_shattered_by(S, got.witness)
        assert tree_shattered_by(B, got.witness)
    rng = rng_stream(31, 14)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        classes = [random_binary_class(rng, n, int(rng.integers(1, 8))) for _ in range(3)]
        got = mutual_ldim(*classes)
        assert got == ldim(multi_agreement_class(classes))  # value and tree
        assert all(tree_shattered_by(C, got.witness) for C in classes)


def test_tree_shattered_by_reads_only_tree_nodes():
    # 30 points exceed the Ldim search guard; checking a given tree needs no search
    d = Domain(30)
    H = BinaryClass(d, [np.ones(30, dtype=np.int8), -np.ones(30, dtype=np.int8)])
    assert tree_shattered_by(H, MistakeTree(1, (29,)))
    assert not tree_shattered_by(H, MistakeTree(2, (0, 1, 1)))
    for node in (30, -1, 1.5, True):
        with pytest.raises(ValueError):
            tree_shattered_by(H, MistakeTree(1, (node,)))


def test_mistake_tree_checks_its_shape():
    with pytest.raises(ValueError, match=r"^a depth-m tree has 2\^m - 1 nodes$"):
        MistakeTree(2, (0, 1))
    tree = MistakeTree(2, (0, 1, 2))
    assert tree.node(()) == 0 and tree.node((1,)) == 2
    with pytest.raises(ValueError, match="^path longer than tree depth$"):
        tree.node((1, -1))


def test_ldim_guards():
    d = Domain(25)
    C = BinaryClass(d, [np.ones(25, dtype=np.int8)])
    with pytest.raises(GuardError):
        ldim(C)
    cube = BinaryClass(Domain(13), np.array(list(product((-1, 1), repeat=13)), dtype=np.int8)[:4097])
    with pytest.raises(GuardError, match=r"^\|H\| = 4097 exceeds Ldim guard 4096$"):
        ldim(cube)


def test_empty_class_is_undefined_and_packs_nothing():
    d = Domain(2)
    empty, B = RealClass(d, []), RealClass(d, [[1.0, 1.0]])
    assert fat(empty, 0.1).is_undefined
    assert mutual_ldim(BinaryClass(d, []), BinaryClass(d, [[1, -1]])).is_undefined
    for radius in (packing_number, covering_upper, covering_number_exact):
        assert radius(empty, B, np.full(2, 0.5), 0.1) == 0


# --- packing / covering -----------------------------------------------------------


def test_packing_singleton_and_large_eps():
    d = Domain(3)
    S = RealClass(d, [[0.5, -0.5, 0.0]])
    B = RealClass(d, [[1.0, 1.0, 1.0]])
    mu = np.full(3, 1 / 3)
    assert packing_number(S, B, mu, 0.1) == 1
    S2 = RealClass(d, [[0.5, -0.5, 0.0], [0.4, 0.4, 0.4]])
    assert packing_number(S2, B, mu, 10.0) == 1


def test_packing_refuses_past_the_exact_guard():
    # a greedy pass answers 9 here; the maximum packing is 10
    rng = np.random.default_rng(3)
    S = RealClass(Domain(4), rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(27, 4)))
    B = RealClass(Domain(4), rng.choice([-1.0, 1.0], size=(4, 4)))
    assert len(S) == 26
    with pytest.raises(GuardError, match=r"^\|S\| = 26 exceeds exact-packing guard 24$"):
        packing_number(S, B, np.full(4, 0.25), 0.3)
    assert packing_number(RealClass(Domain(4), S.matrix[:24]), B, np.full(4, 0.25), 0.3) <= 10


def test_covering_refuses_past_the_exact_guard():
    S = RealClass(Domain(5), np.array(list(product((-1.0, 0.0, 1.0), repeat=5)))[:21])
    with pytest.raises(GuardError, match=r"^\|S\| = 21 exceeds exact-covering guard 20$"):
        covering_number_exact(S, RealClass(Domain(5), [np.ones(5)]), np.full(5, 0.2), 0.1)


def test_packing_rejects_partial():
    d = Domain(2)
    S = RealClass(d, [[0.5, float("nan")]])
    B = RealClass(d, [[1.0, 1.0]])
    with pytest.raises(ValueError):
        packing_number(S, B, np.full(2, 0.5), 0.1)


def oracle_packing(D, eps):
    n = D.shape[0]
    best = 0
    for r in range(n, 0, -1):
        for combo in combinations(range(n), r):
            if all(D[i, j] > eps for i, j in combinations(combo, 2)):
                return r
    return best


def oracle_covering(D, eps):
    n = D.shape[0]
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if all(any(D[i, j] <= eps for j in combo) for i in range(n)):
                return r
    return n


def test_packing_covering_exact_small():
    rng = rng_stream(31, 12)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        S = random_total_real_class(rng, n, int(rng.integers(2, 8)))
        B = random_total_real_class(rng, n, int(rng.integers(1, 6)))
        mu = rng.dirichlet(np.ones(n))
        mu = mu / mu.sum()
        eps = float(rng.choice([0.05, 0.15, 0.4]))
        D = dual_distances(S, B, mu)
        M = packing_number(S, B, mu, eps)
        N = covering_number_exact(S, B, mu, eps)
        assert M == oracle_packing(D, eps)
        assert N == oracle_covering(D, eps)
        assert N <= M  # packing dominates covering
        assert covering_upper(S, B, mu, eps) >= N


# --- Gilbert--Varshamov packing -----------------------------------------------------


def test_gv_distance_property_and_size():
    models = gv_packing(64, 0.25, seed=7)
    assert len(models) >= 2
    n = 64
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            dist = (models[i].values != models[j].values).mean()
            assert dist >= 0.25  # = 1/2 - eps exactly


def test_gv_monotone_in_n():
    sizes = [len(gv_packing(n, 0.25, seed=7)) for n in (64, 128, 256)]
    assert sizes[0] <= sizes[1] <= sizes[2]
    assert sizes[0] < sizes[2]  # grows with n at fixed eps


def test_gv_models_are_total():
    for m in gv_packing(32, 0.3, seed=5):
        assert isinstance(m, BinaryModel)


def test_gv_retry_cap():
    with pytest.raises(GVConstructionError):
        # c huge makes N astronomically large relative to n: distances fail
        gv_packing(8, 0.05, seed=1, c=400.0, max_retries=2)
