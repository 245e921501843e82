"""Online prediction with exact expected-mistake accounting.

Learners expose ``predict(x) -> p`` (the probability of predicting +1) and
``update(x, y)``.  All mistake quantities are computed in expectation from
the prediction probabilities; no coins are flipped, so repeated runs are
identical.  A point outside the class's domain raises ValueError before any
learner state changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinaryClass, _is_int, agreement_class
from .dimensions import LdimGame, MistakeTree, tree_shattered_by
from .offline import _mistakes
from .stat_model import Dataset


def _check_label(y) -> None:
    if isinstance(y, bool) or y not in (-1, 1):
        raise ValueError(f"labels must be -1 or +1, got {y!r}")


def _check_point(x, size: int) -> None:
    if not 0 <= x < size:
        raise ValueError(f"points must lie in [0, {size}), got {x!r}")


@dataclass(frozen=True)
class LabeledSequence:
    """An ordered list of (x, y) pairs with y in {-1, +1}."""

    pairs: tuple[tuple[int, int], ...]
    source_tag: str | None = None

    def __post_init__(self):
        pairs = tuple(self.pairs)
        for _, y in pairs:
            _check_label(y)  # before int() truncates
        object.__setattr__(self, "pairs", tuple((int(x), int(y)) for x, y in pairs))

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class RegretReport:
    """Exact expected mistake rates for one learner/sequence match."""

    n: int
    learner_rate: float
    benchmark_rate: float | None
    regret: float | None
    rwm_bound: float | None = None
    rounds: tuple[tuple[int, float, int, float], ...] | None = None
    # rounds rows: (round index, p_plus, true label, cumulative expected mistakes)


class SOALearner:
    """Standard-optimal-style learner for a partial binary class.

    Keeps the version space of members exactly consistent with the history (a
    * label is never consistent) and deterministically predicts the label
    whose restricted version space has the larger Littlestone dimension (ties
    predict +1).  Makes at most Ldim(H) mistakes on any realizable sequence.
    """

    def __init__(self, H: BinaryClass):
        if H.is_empty:
            raise ValueError("SOA requires a nonempty class")
        self._oracle = LdimGame(H)
        self.version = self._oracle.full

    def predict(self, x: int) -> float:
        _check_point(x, len(self._oracle.plus))
        vp = self.version & self._oracle.plus[x]
        vm = self.version & self._oracle.minus[x]
        return 1.0 if self._oracle.value(vp) >= self._oracle.value(vm) else 0.0

    def update(self, x: int, y: int) -> None:
        _check_label(y)
        _check_point(x, len(self._oracle.plus))
        mask = self._oracle.plus[x] if y == 1 else self._oracle.minus[x]
        self.version &= mask


class RWMLearner:
    """Randomized weighted majority over the members of a finite class.

    A member's per-step loss is 1(h(x) != y) with * counting as wrong.  The
    prediction probability renormalizes the weight mass over defined votes;
    members voting * contribute to neither label, and if all mass is on *
    the prediction is +1 with probability 1/2.  The learning rate is the
    horizon-aware sqrt(8 ln|H| / n), fixed per run.

    The first visit to a point sorts the members stably by their vote there,
    so the -1 voters, the * voters and the +1 voters each form one run in
    index order.  A round is then two index gathers over the +1 and -1 runs
    (the sums add the same weights in the same order as boolean masks would)
    and one scatter that scales the losers of the label by exp(-lr); winners
    would be scaled by exp(0) = 1, so the reports are those of a full pass
    over the class.
    """

    def __init__(self, H: BinaryClass, horizon: int):
        if H.is_empty:
            raise ValueError("RWM requires a nonempty class")
        if not _is_int(horizon) or horizon < 1:
            raise ValueError(f"horizon must be an int >= 1, got {horizon!r}")
        self.H = H
        self.horizon = horizon
        self.lr = math.sqrt(8.0 * math.log(len(H)) / horizon)
        self.weights = np.ones(len(H))
        self._decay = np.exp(-self.lr)
        self._votes_at: dict = {}

    @property
    def regret_bound(self) -> float:
        """sqrt(ln|H| / (2n)): the guaranteed expected regret rate."""
        return math.sqrt(math.log(len(self.H)) / (2.0 * self.horizon))

    def _votes(self, x: int) -> tuple[np.ndarray, int, int]:
        """Member indices sorted stably by their vote at x (-1, *, +1) and where the * and +1 runs start."""
        votes = self._votes_at.get(x)
        if votes is None:
            _check_point(x, self.H.domain.size)
            col = self.H.matrix[:, x]
            order = np.argsort(col, kind="stable")
            votes = self._votes_at[x] = (order, *col[order].searchsorted((0, 1)))
        return votes

    def predict(self, x: int) -> float:
        order, star, plus = self._votes(x)
        wp = float(self.weights[order[plus:]].sum())
        wm = float(self.weights[order[:star]].sum())
        if wp + wm <= 0.0:
            return 0.5
        return wp / (wp + wm)

    def update(self, x: int, y: int) -> None:
        _check_label(y)
        order, star, plus = self._votes(x)
        self.weights[order[:plus] if y == 1 else order[star:]] *= self._decay  # * always loses


def comp_online(S: BinaryClass, B: BinaryClass, horizon: int) -> RWMLearner:
    """Comparative online learner: RWM over the agreement class of (S, B)."""
    if S.is_empty or B.is_empty:
        raise ValueError("comparative online learning requires nonempty classes")
    return RWMLearner(agreement_class(S, B), horizon)


def _match(learner, n, point, label) -> tuple[list, list, float]:
    """Play n rounds: x = point(labels so far), p = predict(x), y = label(i, p), update(x, y).

    Returns the (x, y) pairs, the rows (round, p, y, cumulative expected
    mistakes) and the learner's exact expected mistake count.
    """
    xs, path, rows, expected = [], [], [], 0.0
    for i in range(n):
        x = point(path)
        p = learner.predict(x)
        y = label(i, p)
        expected += p if y == -1 else 1.0 - p
        rows.append((i, float(p), int(y), float(expected)))
        learner.update(x, y)
        xs.append(x)
        path.append(y)
    return list(zip(xs, path)), rows, expected


def _report(learner, pairs, rows, expected, benchmarks: BinaryClass | None) -> RegretReport:
    """The :class:`RegretReport` of a finished :func:`_match`."""
    n = len(pairs)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    learner_rate = expected / n
    benchmark_rate = regret = None
    if benchmarks is not None and not benchmarks.is_empty:
        mistakes = _mistakes(benchmarks.matrix, Dataset(*np.array(pairs).T))
        benchmark_rate = float(mistakes.min()) / n
        regret = learner_rate - benchmark_rate
    return RegretReport(
        n=n,
        learner_rate=learner_rate,
        benchmark_rate=benchmark_rate,
        regret=regret,
        rwm_bound=getattr(learner, "regret_bound", None),
        rounds=tuple(rows),
    )


def run_sequence(
    learner,
    seq: LabeledSequence,
    benchmarks: BinaryClass | None = None,
) -> RegretReport:
    """Drive a learner over a sequence with exact expectation accounting.

    The benchmark side, when a class is given, is the minimum exact mistake
    rate over its members with * counting as a mistake.  Regret is signed:
    the learner may beat the class.
    """
    pairs = seq.pairs
    match = _match(learner, len(pairs), lambda path: pairs[len(path)][0], lambda i, p: pairs[i][1])
    return _report(learner, *match, benchmarks)


def _tree_match(learner, tree: MistakeTree, S: BinaryClass, B: BinaryClass):
    """The :func:`_match` of :func:`play_tree_adversary`."""
    if not (tree_shattered_by(S, tree) and tree_shattered_by(B, tree)):
        raise ValueError("tree is not certified shattered by both classes")
    return _match(learner, tree.depth, tree.node, lambda i, p: -1 if p >= 0.5 else 1)


def play_tree_adversary(
    learner,
    tree: MistakeTree,
    S: BinaryClass,
    B: BinaryClass,
) -> tuple[LabeledSequence, float]:
    """Walk a mutually shattered mistake tree against a learner.

    The tree must certify as shattered by both classes (uncertified trees are
    rejected).  At each level the adversary presents the node, observes the
    +1-probability p, picks the label minimizing correctness (-1 if p >= 1/2
    else +1), and descends.  Returns the produced sequence, which is
    realizable by some s in S with a perfectly agreeing b in B, and the
    learner's exact expected mistake count (at least depth/2 by construction).
    """
    pairs, _, expected = _tree_match(learner, tree, S, B)
    return LabeledSequence(tuple(pairs), source_tag="tree_adversary"), expected


def ldim_rate_bound(m: int, n: int) -> float:
    """The agnostic-online regret rate sqrt((m/n) log((2m + n)/m)) at Ldim m.

    Reported alongside the RWM ln|H| bound: our agnostic learner is
    finite-class RWM, so its guarantee is the ln|H| rate, while this is the
    rate the Littlestone-dimension characterization promises for the optimal
    learner.  Both quantities are surfaced rather than conflated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m <= 0:
        return 0.0
    return math.sqrt((m / n) * math.log2((2 * m + n) / m))


def realizable_witness(H: BinaryClass, seq: LabeledSequence) -> int | None:
    """Index of a member consistent with the whole sequence, if any."""
    if H.is_empty or len(seq) == 0:
        return None
    mistakes = _mistakes(H.matrix, Dataset(*np.array(seq.pairs).T))
    best = int(np.argmin(mistakes))
    return None if mistakes[best] else best
