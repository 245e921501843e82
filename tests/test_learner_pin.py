"""One sha256 over seeded outputs of the ERM bases, online matches and correlation maximizers."""

import hashlib

import numpy as np

from comparelearn import (
    Dataset,
    LabeledSequence,
    LearnerParams,
    NoConsistentHypothesisError,
    RWMLearner,
    SOALearner,
    as_real_class,
    comp_online,
    corm_general,
    dcorm_binary_benchmark,
    dcorm_real,
    erm_agnostic,
    erm_realizable,
    rng_stream,
    run_sequence,
)
from comparelearn.online import realizable_witness
from conftest import feed, random_binary_class, random_real_class

GRID = np.linspace(-1, 1, 9)


def _feed_binary_learners(h, gen, seed):
    n_pts = 4 + seed % 4
    H = random_binary_class(gen, n_pts, 1 + seed % 6, star_prob=0.25)
    B = random_binary_class(gen, n_pts, 1 + seed % 3, star_prob=0.25)
    n = (0, 1, 3, 9)[seed % 4]
    xs = gen.integers(0, n_pts, size=n)
    if seed % 2:
        ys = gen.choice([-1.0, 1.0], size=n)
    else:  # labels of a completed member, so a consistent one may exist
        row = H.matrix[int(gen.integers(len(H)))]
        ys = np.where(row[xs] == -1, -1.0, 1.0)
    data = Dataset(xs, ys)
    feed(h, "erm", seed, erm_agnostic(H, data).values)
    try:
        feed(h, erm_realizable(H, data).values)
    except NoConsistentHypothesisError as exc:
        feed(h, type(exc).__name__)
    seq = LabeledSequence(tuple(zip(xs.tolist(), ys.astype(int).tolist())))
    feed(h, realizable_witness(H, seq), realizable_witness(B, seq))
    if n == 0:
        return
    for learner, bench in (
        (RWMLearner(H, n), B),
        (RWMLearner(H, n), None),
        (SOALearner(H), H),
        (comp_online(H, B, n), B),
    ):
        r = run_sequence(learner, seq, bench)
        feed(h, r.n, r.learner_rate, r.benchmark_rate, r.regret, r.rwm_bound, r.rounds)


def _feed_maximizers(h, gen, seed):
    n_pts = 4 + seed % 3
    S = random_real_class(gen, n_pts, 3, grid=GRID, star_prob=0.2)
    B = random_real_class(gen, n_pts, 3, grid=GRID, star_prob=0.2)
    Bbin = random_binary_class(gen, n_pts, 3, star_prob=0.2)
    n = (0, 4, 12)[seed % 3]
    data = Dataset(gen.integers(0, n_pts, size=n), gen.choice(GRID, size=n))
    eta = (0.1, 0.3, 0.9)[seed % 3]
    rng = rng_stream(89, 1, seed)
    feed(h, "dcorm_binary", dcorm_binary_benchmark(S, Bbin, data, LearnerParams(eta=eta), rng).values)
    feed(h, rng.random())
    params = LearnerParams(eta1=0.1, eta2=(0.1, 0.3, 0.45)[seed % 3], n1=n // 2, n2=n - n // 2)
    rng = rng_stream(89, 2, seed)
    feed(h, "dcorm_real", dcorm_real(S, B, data, params, rng).values, rng.random())
    small = Dataset(data.xs[:4], data.ys[:4])
    n1 = min(2, len(small))
    params = LearnerParams(eta1=0.34, eta2=0.34, n1=n1, n2=len(small) - n1)
    rng = rng_stream(89, 3, seed)
    feed(h, "corm", corm_general(S, as_real_class(Bbin), small, params, rng).values, rng.random())


def _feed_large_matches(h, gen, seed):
    n_pts = 8 + seed % 3
    n = 400
    H = random_binary_class(gen, n_pts, (300, 1200, 3000)[seed % 3], star_prob=0.2)
    S = random_binary_class(gen, n_pts, 64, star_prob=0.1)
    B = random_binary_class(gen, n_pts, 64, star_prob=0.1)
    xs = gen.integers(0, n_pts, size=n)  # every point comes back many times
    if seed % 2:
        ys = gen.choice([-1, 1], size=n)
    else:  # a member of S with a tenth of its labels flipped, so the weights concentrate
        row = S.matrix[int(gen.integers(len(S)))]
        ys = np.where(row[xs] == -1, -1, 1) * np.where(gen.random(n) < 0.1, -1, 1)
    seq = LabeledSequence(tuple(zip(xs.tolist(), ys.tolist())))
    for learner, bench in ((RWMLearner(H, n), H), (comp_online(S, B, n), B)):
        r = run_sequence(learner, seq, bench)
        feed(h, len(learner.H), r.learner_rate, r.benchmark_rate, r.regret, r.rwm_bound, r.rounds, learner.weights)


def test_learners_are_pinned():
    """ERM models and witnesses, match reports and maximizer models with the rng after, byte for byte."""
    h = hashlib.sha256()
    for seed in range(24):
        gen = rng_stream(83, seed)
        _feed_binary_learners(h, gen, seed)
        _feed_maximizers(h, gen, seed)
    assert h.hexdigest() == "55c87ad9bc6d46a9d0660fd6095bc7f975b6e27fcabb5d61bf0ef016a0dd1761"


def test_large_class_matches_are_pinned():
    """RWM and comp_online reports and final weights over 289 to 2 863 members, byte for byte.

    The small classes above hold at most 6 members, and numpy regroups a pairwise sum only
    from 8 elements on, so only classes this large see a change in the order of a weight sum.
    Computed with numpy 2.4.6.
    """
    h = hashlib.sha256()
    for seed in range(6):
        _feed_large_matches(h, rng_stream(97, seed), seed)
    assert h.hexdigest() == "863543af9a8587d6ceadbf058f1196f8bc5f633119bd2ab936afc81f18027fc5"
