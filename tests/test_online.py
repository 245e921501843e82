"""Online learners: SOA mistake bounds, RWM regret, tree adversaries."""

import copy
import math
from itertools import product

import numpy as np
import pytest

from comparelearn import (
    BinaryClass,
    BinaryHypothesis,
    Domain,
    LabeledSequence,
    RWMLearner,
    SOALearner,
    agreement_class,
    comp_online,
    ldim,
    mutual_ldim,
    play_tree_adversary,
    rng_stream,
    run_sequence,
    tree_shattered_by,
)
from comparelearn.online import realizable_witness
from conftest import random_binary_class


def full_cube(n):
    rows = np.array(list(product((-1, 1), repeat=n)), dtype=np.int8)
    return BinaryClass(Domain(n), rows)


class ConstantLearner:
    def __init__(self, p=1.0):
        self.p = p

    def predict(self, x):
        return self.p

    def update(self, x, y):
        pass


# --- SOA ------------------------------------------------------------------------


def test_soa_singleton_never_errs():
    d = Domain(4)
    h = BinaryHypothesis(d, [1, -1, 1, -1])
    H = BinaryClass(d, [h])
    learner = SOALearner(H)
    seq = LabeledSequence(tuple((x, int(h.values[x])) for x in [0, 1, 2, 3, 0, 2]))
    report = run_sequence(learner, seq, H)
    assert report.learner_rate == 0.0


@pytest.mark.parametrize("label", [1.5, -1.7, 0.5, 0, True, "1"])
def test_labeled_sequence_rejects_non_sign_label(label):
    # checked before int(), which would truncate 1.5 to +1 and -1.7 to -1
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
        LabeledSequence(((0, 1), (1, label)))


def test_labeled_sequence_reads_exact_sign_labels_as_int():
    seq = LabeledSequence(((0, 1.0), (1, -1.0), (2, np.int8(1)), (np.int64(3), np.float64(-1.0))))
    assert seq.pairs == ((0, 1), (1, -1), (2, 1), (3, -1))
    assert all(type(v) is int for pair in seq for v in pair)


def max_soa_mistakes_exhaustive(H, horizon):
    """Worst-case SOA mistakes over all realizable sequences of given length."""
    oracle_masks = {}
    base = SOALearner(H)

    def consistent_mask(version, x, y):
        m = base._oracle.plus[x] if y == 1 else base._oracle.minus[x]
        return version & m

    def rec(learner_version, realizable_mask, depth):
        if depth == 0:
            return 0
        best = 0
        learner = SOALearner(H)
        for x in range(H.domain.size):
            for y in (-1, 1):
                new_real = consistent_mask(realizable_mask, x, y)
                if not new_real:
                    continue
                learner.version = learner_version
                p = learner.predict(x)
                mistake = 1 if (y == 1) == (p < 0.5) else 0
                new_version = consistent_mask(learner_version, x, y)
                best = max(best, mistake + rec(new_version, new_real, depth - 1))
        return best

    full = base._oracle.full
    return rec(full, full, horizon)


def test_soa_mistakes_bounded_by_ldim_exhaustive():
    rng = rng_stream(83, 1)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        H = random_binary_class(rng, n, int(rng.integers(2, 9)))
        bound = ldim(H).value
        worst = max_soa_mistakes_exhaustive(H, 5)
        assert worst <= bound


def test_soa_full_cube_adversary_achieves_ldim():
    H = full_cube(3)
    assert ldim(H).value == 3
    worst = max_soa_mistakes_exhaustive(H, 6)
    assert worst == 3


def test_soa_on_agreement_class_bounded_by_mutual_ldim():
    rng = rng_stream(83, 2)
    for trial in range(5):
        n = int(rng.integers(2, 4))
        S = random_binary_class(rng, n, int(rng.integers(2, 6)))
        B = random_binary_class(rng, n, int(rng.integers(2, 6)))
        A = agreement_class(S, B)
        bound = mutual_ldim(S, B).value
        assert ldim(A).value == bound
        worst = max_soa_mistakes_exhaustive(A, 5)
        assert worst <= bound


# --- RWM -------------------------------------------------------------------------


def test_rwm_singleton_mirrors_member():
    d = Domain(3)
    h = BinaryHypothesis(d, [1, -1, 1])
    learner = RWMLearner(BinaryClass(d, [h]), horizon=10)
    for x in (0, 1, 2):
        p = learner.predict(x)
        assert p == (1.0 if h.values[x] == 1 else 0.0)
        learner.update(x, int(h.values[x]))
    assert learner.regret_bound == 0.0


def test_rwm_all_star_predicts_half():
    d = Domain(2)
    H = BinaryClass(d, [["*", "*"]])
    learner = RWMLearner(H, horizon=4)
    assert learner.predict(0) == 0.5


def test_rwm_adversarial_regret_two_experts():
    # adversary always flips against the learner; measured exact regret must
    # stay within sqrt(ln 2 / (2n)) of the best expert
    d = Domain(1)
    H = BinaryClass(d, [[1], [-1]])
    n = 10**4
    learner = RWMLearner(H, horizon=n)
    expected = 0.0
    mistakes = np.zeros(2)
    for _ in range(n):
        p = learner.predict(0)
        y = -1 if p >= 0.5 else 1
        expected += p if y == -1 else 1 - p
        mistakes[0] += y != 1
        mistakes[1] += y != -1
        learner.update(0, y)
    regret = expected / n - mistakes.min() / n
    assert regret <= math.sqrt(math.log(2) / (2 * n)) + 1e-9


def test_rwm_regret_bound_random_sequences():
    rng = rng_stream(83, 3)
    for trial in range(10):
        n_pts = int(rng.integers(2, 5))
        H = random_binary_class(rng, n_pts, int(rng.integers(2, 8)))
        n = 200
        learner = RWMLearner(H, horizon=n)
        seq = LabeledSequence(
            tuple(
                (int(rng.integers(n_pts)), int(rng.choice([-1, 1])))
                for _ in range(n)
            )
        )
        report = run_sequence(learner, seq, H)
        assert report.regret <= learner.regret_bound + 1e-9


def test_rwm_regret_can_be_negative():
    d = Domain(1)
    H = BinaryClass(d, [[1], [-1]])
    n = 50
    learner = RWMLearner(H, horizon=n)
    seq = LabeledSequence(tuple((0, 1) for _ in range(n)))
    report = run_sequence(learner, seq, H)
    # the class contains the perfect expert, so regret >= 0 here; flip half
    seq2 = LabeledSequence(tuple((0, 1 if i % 2 else -1) for i in range(n)))
    report2 = run_sequence(RWMLearner(H, horizon=n), seq2, H)
    assert report.regret is not None and report2.regret is not None
    # signed regret is reported either way
    assert report2.benchmark_rate == 0.5


def test_rwm_matches_a_full_pass_over_the_class_bit_for_bit():
    # the reference masks the whole column each round and scales every member by exp(-lr * loss)
    rng = rng_stream(83, 13)
    H = random_binary_class(rng, 9, 2500, star_prob=0.2)
    n = 400
    learner, weights = RWMLearner(H, horizon=n), np.ones(len(H))
    for x, y in zip(rng.integers(0, 9, size=n).tolist(), rng.choice([-1, 1], size=n).tolist()):
        col = H.matrix[:, x]
        wp, wm = float(weights[col == 1].sum()), float(weights[col == -1].sum())
        assert learner.predict(x) == (wp / (wp + wm) if wp + wm > 0.0 else 0.5)
        learner.update(x, y)
        weights = weights * np.exp(-learner.lr * (col != y).astype(np.float64))
        assert np.array_equal(learner.weights, weights)


@pytest.mark.parametrize("horizon", [2.5, 2.0, True, 0, -1, "3"])
def test_rwm_horizon_must_be_a_positive_int(horizon):
    # truncating 2.5 to 2 would set lr and regret_bound from different horizons
    H = BinaryClass(Domain(2), [[1, -1], [-1, 1]])
    with pytest.raises(ValueError, match="horizon must be an int >= 1"):
        RWMLearner(H, horizon)
    with pytest.raises(ValueError, match="horizon must be an int >= 1"):
        comp_online(H, H, horizon)


@pytest.mark.parametrize("make", [SOALearner, lambda H: RWMLearner(H, horizon=4)])
@pytest.mark.parametrize("y", [0, 2, -2, 0.5, True])
def test_update_rejects_a_label_that_is_not_pm1(make, y):
    # the label is checked before any state changes
    H = BinaryClass(Domain(2), [[1, -1], [-1, 1], [1, "*"]])
    learner = make(H)
    state = lambda: learner.weights.tolist() if isinstance(learner, RWMLearner) else learner.version
    before = state()
    with pytest.raises(ValueError, match=r"labels must be -1 or \+1"):
        learner.update(0, y)
    assert state() == before


@pytest.mark.parametrize("make", [SOALearner, lambda H: RWMLearner(H, horizon=2)])
@pytest.mark.parametrize("x", [-1, -3, 3])
def test_a_point_outside_the_domain_is_refused(make, x):
    # -1 and -3 used to wrap to points 2 and 0, and 3 gave a bare IndexError
    H = BinaryClass(Domain(3), [[1, -1, 1], [-1, -1, 1], [1, "*", -1]])
    learner = make(H)
    learner.update(1, 1)
    state = lambda: learner.weights.tolist() if isinstance(learner, RWMLearner) else learner.version
    before = state()
    for call in (lambda: learner.predict(x), lambda: learner.update(x, 1)):
        with pytest.raises(ValueError, match=r"points must lie in \[0, 3\), got " + str(x)):
            call()
    assert state() == before
    with pytest.raises(ValueError, match=r"points must lie in \[0, 3\)"):
        run_sequence(make(H), LabeledSequence(((0, 1), (x, 1))), H)


# --- run_sequence ------------------------------------------------------------------


def test_run_sequence_exact_rates():
    d = Domain(2)
    seq = LabeledSequence(((0, 1), (1, -1), (0, 1), (1, 1)))
    match = run_sequence(ConstantLearner(1.0), LabeledSequence(((0, 1), (1, 1))), None)
    assert match.learner_rate == 0.0
    half = run_sequence(ConstantLearner(0.5), seq, None)
    assert half.learner_rate == 0.5
    assert half.rounds == ((0, 0.5, 1, 0.5), (1, 0.5, -1, 1.0), (2, 0.5, 1, 1.5), (3, 0.5, 1, 2.0))


def test_run_sequence_matches_sampled_estimate():
    rng = rng_stream(83, 4)
    d = Domain(3)
    H = random_binary_class(rng, 3, 5)
    n = 30
    seq = LabeledSequence(
        tuple((int(rng.integers(3)), int(rng.choice([-1, 1]))) for _ in range(n))
    )
    exact = run_sequence(RWMLearner(H, horizon=n), seq, H).learner_rate
    # simulate coin flips from the prediction probabilities
    reps = 4000
    total = 0
    sim_rng = rng_stream(83, 5)
    for _ in range(reps):
        lrn = RWMLearner(H, horizon=n)
        miss = 0
        for x, y in seq:
            p = lrn.predict(x)
            yhat = 1 if sim_rng.random() < p else -1
            miss += yhat != y
            lrn.update(x, y)
        total += miss / n
    emp = total / reps
    se = math.sqrt(0.25 / reps)
    assert abs(emp - exact) <= 5 * se + 1e-3


def test_run_sequence_deterministic_replay():
    rng = rng_stream(83, 6)
    H = random_binary_class(rng, 3, 6)
    seq = LabeledSequence(
        tuple((int(rng.integers(3)), int(rng.choice([-1, 1]))) for _ in range(40))
    )
    r1 = run_sequence(RWMLearner(H, horizon=40), seq, H)
    r2 = run_sequence(RWMLearner(H, horizon=40), seq, H)
    assert r1.learner_rate == r2.learner_rate


# --- comparative online -----------------------------------------------------------------


def test_comp_online_agreeing_pair_zero_benchmark():
    rng = rng_stream(83, 7)
    d = Domain(4)
    s = BinaryHypothesis(d, [1, -1, 1, -1])
    S = BinaryClass(d, [s, BinaryHypothesis(d, [1, 1, 1, 1])])
    B = BinaryClass(d, [s, BinaryHypothesis(d, [-1, -1, -1, -1])])
    n = 400
    learner = comp_online(S, B, n)
    seq = LabeledSequence(
        tuple((x, int(s.values[x])) for x in rng.integers(0, 4, size=n))
    )
    report = run_sequence(learner, seq, B)
    assert report.benchmark_rate == 0.0
    assert report.learner_rate <= learner.regret_bound + 1e-9


def test_comp_online_lemma_chain_per_sequence():
    # mistake(L) <= inf_b mistake(b) + rwm bound, exactly, per sequence
    rng = rng_stream(83, 8)
    for trial in range(8):
        n_pts = int(rng.integers(2, 5))
        S = random_binary_class(rng, n_pts, int(rng.integers(2, 6)), star_prob=0.1)
        B = random_binary_class(rng, n_pts, int(rng.integers(2, 6)), star_prob=0.1)
        si = int(rng.integers(len(S)))
        s = S.member(si)
        defined = np.flatnonzero(S.matrix[si] != 0)
        if defined.size == 0:
            continue
        n = 300
        seq = LabeledSequence(
            tuple(
                (int(x), int(S.matrix[si, x]))
                for x in rng.choice(defined, size=n)
            )
        )
        learner = comp_online(S, B, n)
        report = run_sequence(learner, seq, B)
        assert report.learner_rate <= report.benchmark_rate + learner.regret_bound + 1e-9


def test_figure1_comp_online_regret():
    from comparelearn.experiments import scenario

    spec = scenario("figure1", 2)
    rng = rng_stream(83, 9)
    n = 200
    si = int(rng.integers(len(spec.source)))
    s = spec.source.matrix[si]
    seq = LabeledSequence(
        tuple((int(x), int(s[x])) for x in rng.integers(0, 4, size=n))
    )
    learner = comp_online(spec.source, spec.benchmark, n)
    report = run_sequence(learner, seq, spec.benchmark)
    assert report.regret <= learner.regret_bound + 1e-9


# --- tree adversary -----------------------------------------------------------------------


def test_tree_adversary_constant_learner_depth2():
    H = full_cube(2)
    tree = mutual_ldim(H, H).witness
    assert tree.depth == 2
    seq, expected = play_tree_adversary(ConstantLearner(1.0), tree, H, H)
    assert expected == 2.0  # adversary always flips a deterministic learner


def test_tree_adversary_forces_half_depth():
    for m in (1, 2, 3, 4):
        H = full_cube(m)
        res = mutual_ldim(H, H)
        assert res.value == m
        learner = comp_online(H, H, m)
        seq, expected = play_tree_adversary(learner, res.witness, H, H)
        assert expected >= m / 2 - 1e-12
        # the sequence is realizable in both classes by shattering
        assert realizable_witness(H, seq) is not None


def test_tree_adversary_zero_mistake_benchmark_exists():
    rng = rng_stream(83, 10)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        S = random_binary_class(rng, n, 8)
        B = random_binary_class(rng, n, 8)
        res = mutual_ldim(S, B)
        if res.value == 0:
            continue
        learner = comp_online(S, B, res.value)
        seq, expected = play_tree_adversary(learner, res.witness, S, B)
        assert expected >= res.value / 2 - 1e-12
        assert realizable_witness(S, seq) is not None
        assert realizable_witness(B, seq) is not None  # zero-mistake benchmark


def test_tree_adversary_rejects_uncertified_tree():
    from comparelearn.dimensions import MistakeTree

    d = Domain(2)
    H = BinaryClass(d, [[1, 1]])
    bad = MistakeTree(1, (0,))
    with pytest.raises(ValueError):
        play_tree_adversary(ConstantLearner(), bad, H, H)


def test_tree_adversary_depth_zero_plays_no_round():
    from comparelearn.dimensions import MistakeTree

    H = BinaryClass(Domain(2), [[1, 1]])
    seq, expected = play_tree_adversary(SOALearner(H), MistakeTree(0, ()), H, H)
    assert (seq.pairs, seq.source_tag, expected) == ((), "tree_adversary", 0.0)
    with pytest.raises(ValueError, match="sequence must be nonempty"):
        run_sequence(SOALearner(H), seq, H)


@pytest.mark.parametrize("make", [SOALearner, lambda H: RWMLearner(H, horizon=4)])
def test_tree_walk_replays_as_a_sequence(make):
    # a deterministic learner shown the walk's sequence again predicts the same p each round,
    # so the replay's rounds end at the walk's expected mistake count
    rng = rng_stream(83, 12)
    played = 0
    for _ in range(8):
        S = random_binary_class(rng, 4, 10)
        res = ldim(S)
        if not res.value:
            continue
        played += 1
        seq, expected = play_tree_adversary(make(S), res.witness, S, S)
        report = run_sequence(make(S), seq)
        assert len(report.rounds) == report.n == res.value
        assert [(i, y) for i, _, y, _ in report.rounds] == [(i, y) for i, (_, y) in enumerate(seq)]
        assert report.rounds[-1][3] == expected and report.learner_rate == expected / report.n
    assert played >= 4


def minimax_tree_value(learner, tree, path=()):
    """Exhaustive adversary: max over label choices of expected mistakes."""
    if len(path) == tree.depth:
        return 0.0
    x = tree.node(path)
    best = -np.inf
    for y in (-1, 1):
        clone = copy.deepcopy(learner)
        p = clone.predict(x)
        mistake = p if y == -1 else 1.0 - p
        clone.update(x, y)
        best = max(best, mistake + minimax_tree_value(clone, tree, path + (y,)))
    return best


def test_tree_adversary_matches_minimax_small_depths():
    rng = rng_stream(83, 11)
    for m in (1, 2, 3):
        H = full_cube(m)
        res = mutual_ldim(H, H)
        tree = res.witness
        greedy_learner = comp_online(H, H, m)
        _, greedy = play_tree_adversary(greedy_learner, tree, H, H)
        minimax = minimax_tree_value(comp_online(H, H, m), tree)
        assert greedy == pytest.approx(minimax, abs=1e-9)


def test_ldim_rate_bound_shape():
    from comparelearn.online import ldim_rate_bound

    assert ldim_rate_bound(0, 10) == 0.0
    assert ldim_rate_bound(2, 100) > ldim_rate_bound(2, 10000)
    assert ldim_rate_bound(4, 100) > ldim_rate_bound(2, 100)
