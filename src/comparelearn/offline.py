"""Batch learners: ERM bases, the agreement reduction, the correlation
maximizers, the multiaccuracy/multicalibration loop, boosting, and the
omnipredictor for comparative regression.

All learners are deterministic functions of (data, rng state, params); replay
with the same seed reproduces outputs bit for bit.  The randomized steps
(rejection sampling) draw one uniform per data point, vectorized.

The paper-level sample-size requirements are exposed as *advisory* planners
based on the finite-class ERM bound O(log|H| / eps^2); runs accept any user
``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .core import (
    BinaryClass,
    BinaryModel,
    Domain,
    EnumerationCapError,
    GuardError,
    IntervalPartition,
    NoConsistentHypothesisError,
    RealClass,
    RealModel,
    _agreement_matrix,
    _binarize_matrix,
    _is_binary,
    _real_view,
    _star,
    agreement_class,
    binarize_class,
    chi_arr,
    discretize_labels,
    gen_product_arr,
    multi_agreement_class,
    pi_proj_arr,
    proj_interval_arr,
    shift_scale_class,
    sigma_mask_class,
    sign_arr,
)
from .stat_model import Dataset, _level_sums, ber_star

MAMC_K_GUARD = 20
ENUM_CAP = 10**6


def max_threshold_index(eta2: float) -> int:
    """Largest integer t with (2t + 1) * eta2 < 1."""
    if not 0.0 < eta2 < 1.0:
        raise ValueError("eta2 must lie in (0, 1)")
    t = max(int(math.floor((1.0 - eta2) / (2.0 * eta2))), 0)
    while (2 * (t + 1) + 1) * eta2 < 1.0:
        t += 1
    while t > 0 and (2 * t + 1) * eta2 >= 1.0:
        t -= 1
    return t


@dataclass
class LearnerParams:
    """Knobs shared by the batch learners; unused fields are ignored.

    Each field must have its annotated type (a bool is neither an int nor a
    float; a float field also takes an int) and ``k`` must be positive, else
    ValueError.  Split sizes must be nonnegative and sum to the data length
    at the call site.
    """

    epsilon: float = 0.0
    alpha: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    eta1: float = 0.0
    eta2: float = 0.0
    k: int = 1
    W: int = 0
    W_prime: int = 0
    n1: int | None = None
    n2: int | None = None
    n3: int | None = None
    n0: int | None = None

    def __post_init__(self):
        IntervalPartition(self.k)  # refuses a k that is not a positive integer
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.default is None:
                continue
            kinds = (int, np.integer) if "int" in field.type else (int, float, np.integer, np.floating)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"LearnerParams.{field.name} must be {field.type}, got {value!r}")


@dataclass
class WeakOracle:
    """A weak correlation-maximization learner with its declared contract.

    ``fn(source_class, benchmark_class, data, rng)`` must return a total
    binary model.  The (alpha, gamma, delta1) numbers are the declared
    W-CorM/W-DCorM contract, recorded for reporting; ``n0`` is the sample
    size the contract is declared at (None means "use all provided points").
    """

    fn: Callable[[RealClass, RealClass, Dataset, np.random.Generator | None], BinaryModel]
    alpha: float
    gamma: float
    delta1: float
    n0: int | None = None

    def __call__(self, S, B, data, rng=None) -> BinaryModel:
        out = self.fn(S, B, data, rng)
        if not isinstance(out, BinaryModel):
            raise TypeError("weak oracle must return a total BinaryModel")
        return out


@dataclass(frozen=True)
class PlannedSamples:
    """Advisory sample-size suggestion; runs accept any user n."""

    n: int
    note: str


def erm_sample_bound(class_size: int, eps: float, delta: float) -> int:
    """Finite-class agnostic ERM bound: n with sup-deviation <= eps/2 whp."""
    class_size = max(class_size, 1)
    return int(math.ceil((2.0 / eps**2) * math.log(2.0 * class_size / delta)))


# ---------------------------------------------------------------------------
# ERM bases and the agreement reduction
# ---------------------------------------------------------------------------


def _require_binary_labels(data: Dataset) -> np.ndarray:
    ys = data.ys
    if not _is_binary(ys).all():
        raise ValueError("binary learners require labels in {-1, +1}")
    return ys.astype(np.int8)


def _complete(values: np.ndarray) -> np.ndarray:
    """STAR -> +1 completion; never increases error since * always counts wrong."""
    return np.where(_star(values), np.int8(1), values).astype(np.int8)


def _mistakes(matrix: np.ndarray, data: Dataset) -> np.ndarray:
    """Each row's mistake count on the data, * counting as wrong."""
    return (matrix[:, data.xs] != _require_binary_labels(data)).sum(axis=1)


def erm_agnostic(H: BinaryClass, data: Dataset) -> BinaryModel:
    """Lowest-index empirical-error minimizer of H, completed with * -> +1."""
    if H.is_empty:
        raise ValueError("ERM requires a nonempty class")
    best = int(np.argmin(_mistakes(H.matrix, data)))
    return BinaryModel(H.domain, _complete(H.matrix[best]))


def erm_realizable(H: BinaryClass, data: Dataset) -> BinaryModel:
    """Lowest-index member consistent with every point, completed."""
    if H.is_empty:
        raise ValueError("ERM requires a nonempty class")
    counts = _mistakes(H.matrix, data)
    best = int(np.argmin(counts))
    if counts[best]:
        raise NoConsistentHypothesisError("no member is consistent with the data")
    return BinaryModel(H.domain, _complete(H.matrix[best]))


def comparative_learn(S: BinaryClass, B: BinaryClass, data: Dataset) -> BinaryModel:
    """Comparative learning via agnostic ERM over the agreement class {a_{s,b}}.

    The class is never built.  a_{s,b} is right at (x, y) exactly when
    s(x) = y and b(x) = y, since * is never right, so the correct counts of all
    pairs are one product ``(S[:, xs] == ys) @ (B[:, xs] == ys).T`` (exact in
    float64).  ``agreement_class`` keeps first occurrences in i-major order, so
    its lowest-index ERM member is a_{s,b} of the row-major first maximizing
    pair; with no data that is the pair (0, 0).
    """
    if S.is_empty or B.is_empty:
        raise ValueError("comparative learning requires nonempty classes")
    if S.domain.size != B.domain.size:
        raise ValueError("classes must share a domain")
    ys = _require_binary_labels(data)
    right_s = (S.matrix[:, data.xs] == ys).astype(np.float64)
    right_b = (B.matrix[:, data.xs] == ys).astype(np.float64)
    i, j = np.unravel_index(np.argmax(right_s @ right_b.T), (len(S), len(B)))
    a = _agreement_matrix(S.matrix[i : i + 1], B.matrix[j : j + 1])[0]
    return BinaryModel(S.domain, _complete(a))


def agreement_learn(classes: Sequence[BinaryClass], data: Dataset) -> BinaryModel:
    """Agreement learning for many classes via ERM over the joint agreement class."""
    return erm_agnostic(multi_agreement_class(classes), data)


# ---------------------------------------------------------------------------
# correlation maximization (Algorithms 1-3)
# ---------------------------------------------------------------------------


def _signed_resample(xs: np.ndarray, ys: np.ndarray, eta: float, rng: np.random.Generator) -> Dataset:
    """(x, sign(y)) for the points with |y| > eta, each kept w.p. |y|; one uniform per point."""
    keep = (np.abs(ys) > eta) & (rng.random(len(ys)) < np.abs(ys))
    return Dataset(xs[keep], sign_arr(ys[keep]).astype(np.float64))


def dcorm_binary_benchmark(
    S: RealClass,
    B: BinaryClass,
    data: Dataset,
    params: LearnerParams,
    rng: np.random.Generator,
) -> BinaryModel:
    """Deterministic-label correlation maximization with a binary benchmark.

    Rejection-samples (x, sign(y)) keeping points with |y| > eta w.p. |y|,
    then runs the comparative learner on (S_eta^0, B).  An empty resample
    returns the fixed constant +1 model.
    """
    psi = _signed_resample(data.xs, data.ys, params.eta, rng)
    if len(psi) == 0:
        return BinaryModel.constant(S.domain, 1)
    return comparative_learn(binarize_class(S, params.eta, 0.0), B, psi)


def _threshold_models(
    Sbin: BinaryClass,
    B: RealClass,
    psi: Dataset,
    eta2: float,
    t: int,
    domain: Domain,
) -> list[BinaryModel]:
    """Per-threshold comparative models f_j against B_eta2^(2 eta2 j), j = -t..t."""
    models = []
    for j in range(-t, t + 1):
        Bj = binarize_class(B, eta2, 2.0 * eta2 * j)
        if len(psi) == 0 or Bj.is_empty:
            models.append(BinaryModel.constant(domain, 1))
        else:
            models.append(comparative_learn(Sbin, Bj, psi))
    return models


def _holdout_best(w: np.ndarray, xs: np.ndarray, models) -> tuple[int, float]:
    """The first maximizer of mean(w * m(x)) over the models, and its value (0.0 if no x)."""
    qs = [float(np.mean(w * m.values[xs])) if len(xs) else 0.0 for m in models]
    best = int(np.argmax(qs))
    return best, qs[best]


def _split_two(data: Dataset, params: LearnerParams) -> tuple[Dataset, Dataset]:
    n = len(data)
    n1 = params.n1 if params.n1 is not None else n // 2
    n2 = params.n2 if params.n2 is not None else n - n1
    if min(n1, n2) < 0:
        raise ValueError(f"split sizes must be nonnegative, got n1 = {n1}, n2 = {n2}")
    if n1 + n2 != n:
        raise ValueError(f"split sizes n1 + n2 = {n1 + n2} must sum to n = {n}")
    return data.slice(0, n1), data.slice(n1, n)


def dcorm_real(
    S: RealClass,
    B: RealClass,
    data: Dataset,
    params: LearnerParams,
    rng: np.random.Generator,
) -> BinaryModel:
    """Deterministic-label correlation maximization, real-valued benchmarks.

    Runs the binary-benchmark pipeline once per threshold theta = 2 eta2 j
    for j = -t..t, adds the two constant models as f_{-t-1} and f_{t+1}, and
    returns the holdout maximizer (ties: lowest j).
    """
    psi1, psi2 = _split_two(data, params)
    eta1, eta2 = params.eta1, params.eta2
    t = max_threshold_index(eta2)
    psi = _signed_resample(psi1.xs, psi1.ys, eta1, rng)
    Sbin = binarize_class(S, eta1, 0.0)
    models = _threshold_models(Sbin, B, psi, eta2, t, S.domain)
    candidates = (
        [BinaryModel.constant(S.domain, -1)] + models + [BinaryModel.constant(S.domain, 1)]
    )
    return candidates[_holdout_best(psi2.ys, psi2.xs, candidates)[0]]


def corm_general(
    S: RealClass,
    B: RealClass,
    data: Dataset,
    params: LearnerParams,
    rng: np.random.Generator,
) -> BinaryModel:
    """General correlation maximization by enumerating relabelings.

    Enumerates every vector of guessed labels in Y^(n1) (Y the eta1 grid from
    :func:`discretize_labels`), runs the deterministic-label pipeline per
    guess, and picks the holdout-best among all per-(y, j) models plus the two
    constants.  The enumeration is exponential in n1 by construction; a hard
    cap rejects oversized runs.
    """
    psi1, psi2 = _split_two(data, params)
    eta1, eta2 = params.eta1, params.eta2
    t = max_threshold_index(eta2)
    Y = discretize_labels(eta1)
    n1 = len(psi1)
    count = len(Y) ** n1
    if count > ENUM_CAP:
        raise EnumerationCapError(count, ENUM_CAP)
    Sbin = binarize_class(S, eta1, 0.0)
    candidates: list[BinaryModel] = []
    for yhat in product(Y.tolist(), repeat=n1):
        psi = _signed_resample(psi1.xs, np.asarray(yhat, dtype=np.float64), 0.0, rng)
        candidates.extend(_threshold_models(Sbin, B, psi, eta2, t, S.domain))
    candidates.append(BinaryModel.constant(S.domain, 1))
    candidates.append(BinaryModel.constant(S.domain, -1))
    return candidates[_holdout_best(psi2.ys, psi2.xs, candidates)[0]]


# ---------------------------------------------------------------------------
# weak oracles
# ---------------------------------------------------------------------------


def exact_weak_oracle(
    eta2: float,
    alpha: float,
    gamma: float,
    delta1: float = 0.0,
    n0: int | None = None,
) -> WeakOracle:
    """The default exact empirical weak learner.

    Candidates are the benchmark members binarized at every threshold
    2 eta2 j (j = -t..t) plus the two constant models; the candidate
    maximizing the empirical sum of y <> b(x) wins (ties: first), and its *
    region is completed by the constant maximizing the empirical contribution
    there.  Valid for finite classes by uniform convergence.
    """
    t = max_threshold_index(eta2)

    def fn(S: RealClass, B: RealClass, data: Dataset, rng=None) -> BinaryModel:
        size = B.domain.size
        thresholds = 2.0 * eta2 * np.arange(-t, t + 1)
        binarized = _binarize_matrix(B.matrix, eta2, thresholds[:, None, None]).reshape(-1, size)
        cands = np.concatenate((binarized, np.array([[1], [-1]], dtype=np.int8).repeat(size, axis=1)))
        vals = cands[:, data.xs]
        scores = gen_product_arr(data.ys, _real_view(vals)).sum(axis=1)
        row = cands[int(np.argmax(scores))]
        fill = 1 if data.ys[_star(row[data.xs])].sum() >= 0 else -1
        return BinaryModel(B.domain, np.where(_star(row), fill, row))

    return WeakOracle(fn, alpha=alpha, gamma=gamma, delta1=delta1, n0=n0)


def weak_from_strong(
    strong_factory: Callable[[float], Callable],
    alpha: float,
    gamma: float,
    delta1: float,
    n0: int | None = None,
) -> WeakOracle:
    """Wrap a strong correlation maximizer, run at error alpha - gamma."""
    if gamma > alpha:
        raise ValueError("weak-from-strong requires gamma <= alpha")
    return WeakOracle(strong_factory(alpha - gamma), alpha, gamma, delta1, n0)


# ---------------------------------------------------------------------------
# the round scheduler and multiaccuracy / multicalibration (Algorithm 4)
# ---------------------------------------------------------------------------


def _block_loop(f, data, W, Wp, n1, n2, n3, calibrate, oracle_step, inspector, name):
    """The round scheduler of :func:`ma_mc_learn`, :func:`boost` and :func:`omni_learn`.

    ``data`` holds W' pair blocks of n1 + n2 points, then W check blocks of
    n3 points.  Round j = 1..W first offers check block j to
    ``calibrate(f, psi3, event)``, which returns the next f or None.  On None,
    pair block j' = 1..W' (split n1 | n2) goes to
    ``oracle_step(f, psi1, psi2, event)``, which returns the next f, and j'
    advances, or the reason the loop stops: "few_points" or "weak_gain".
    Every oracle step thus advances j' or ends the loop, so there are at most
    W' of them.  Returns the last f.

    ``inspector``, if given, receives one dict per round, for diagnostics
    only; it must not influence the run.  Its keys:

    - ``round`` (j - 1), ``j`` and ``j_prime``: the counters as the round starts;
    - ``branch``: "calibrate" or "oracle";
    - ``f_before``, ``f_after``: copies of f as the round starts and ends;
    - ``updated``: whether f moved; False only on a round that stops the loop;
    - ``broke``: on such a round, why it stopped;
    - ``q_sign`` (boost) or ``q_cal`` (omni_learn): the check block's
      measured miscalibration;
    - ``n_kept`` (boost): the size of the rejection-sampled pair block;
    - ``f_prime``, ``q_prime``: the oracle answer taken and its holdout value;
    - ``candidates`` (ma_mc_learn, omni_learn): the oracle answer per sign vector.
    """
    if None in (n1, n2, n3):
        raise ValueError(f"{name} requires explicit n1, n2, n3 split sizes")
    if min(n1, n2, n3) < 0:
        raise ValueError(f"{name} split sizes must be nonnegative, got n1 = {n1}, n2 = {n2}, n3 = {n3}")
    split = Wp * (n1 + n2)
    need = split + W * n3
    if need > len(data):
        raise ValueError(f"{name} needs {need} points, got {len(data)}")
    j = j_prime = 1
    while j <= W and j_prime <= Wp:
        event = {"round": j - 1, "j": j, "j_prime": j_prime, "f_before": f.copy()}
        step = calibrate(f, data.slice(split + (j - 1) * n3, split + j * n3), event)
        event["branch"] = "oracle" if step is None else "calibrate"
        if step is None:
            base = (j_prime - 1) * (n1 + n2)
            psi1, psi2 = data.slice(base, base + n1), data.slice(base + n1, base + n1 + n2)
            step = oracle_step(f, psi1, psi2, event)
            j_prime += 1
        stopped = isinstance(step, str)
        if stopped:
            event["broke"] = step
        else:
            f = step
        event.update(updated=not stopped, f_after=f.copy())
        if inspector is not None:
            inspector(event)
        if stopped:
            break
        j += 1
    return f


def _all_sigmas(k: int):
    return list(product((-1, 1), repeat=k))


def _sigma_round(S, B, partition, gamma, oracle, rng):
    """The Algorithm-4 round of :func:`ma_mc_learn` and :func:`omni_learn`.

    Returns it as an ``oracle_step`` for :func:`_block_loop`: the halved
    residuals (y - f(x))/2 on psi1 go to the oracle once per sign vector
    over the partition cells (S shifted and scaled by f, B masked by the sign
    vector); the first answer with the largest holdout residual correlation
    on psi2 is taken, and f steps gamma/2 along it if that correlation is
    >= 3 gamma / 4.  Raises ValueError unless gamma > 0, and GuardError past
    the 2^k sweep guard, before any oracle call.
    """
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    if partition.k > MAMC_K_GUARD:
        raise GuardError(f"k = {partition.k} exceeds the 2^k sigma sweep guard {MAMC_K_GUARD}")
    sigmas = _all_sigmas(partition.k)

    def oracle_step(f, psi1, psi2, event):
        fmodel = RealModel(S.domain, f)
        Sp = shift_scale_class(S, fmodel)
        halved = Dataset(psi1.xs, (psi1.ys - f[psi1.xs]) / 2.0)
        cands = [
            oracle(Sp, sigma_mask_class(B, sig, fmodel, partition), halved, rng) for sig in sigmas
        ]
        best, q = _holdout_best(psi2.ys - f[psi2.xs], psi2.xs, cands)
        event.update(candidates=cands, f_prime=cands[best], q_prime=q)
        if q >= 3.0 * gamma / 4.0:
            return proj_interval_arr(f + gamma * cands[best].values / 2.0)
        return "weak_gain"

    return oracle_step


def ma_mc_learn(
    S: RealClass,
    B: RealClass,
    data: Dataset,
    partition: IntervalPartition,
    params: LearnerParams,
    oracle: WeakOracle,
    rng: np.random.Generator | None = None,
    inspector: Callable[[dict], None] | None = None,
) -> RealModel:
    """The multiaccuracy/multicalibration loop.

    Each round presents the halved residuals (y - f(x))/2 to the weak oracle
    once per sign vector over the partition cells, picks the holdout-best
    update direction, and takes a projected step of length gamma/2 while the
    holdout correlation stays >= 3 gamma / 4.  It is :func:`_block_loop`
    with W pair blocks of n1 + n2 points and no check blocks.

    ``inspector``, if given, receives one dict per round (keys listed in
    :func:`_block_loop`); it is for diagnostics only and must not influence
    the run.
    """
    gamma, W = params.gamma, params.W
    oracle_step = _sigma_round(S, B, partition, gamma, oracle, rng)
    if W <= 4.0 / gamma**2:
        raise ValueError("W must exceed 4 / gamma^2")
    n1 = params.n1 if params.n1 is not None else len(data) // (2 * W)
    n2 = params.n2 if params.n2 is not None else n1
    f = _block_loop(
        np.zeros(S.domain.size), data, W, W, n1, n2, 0,
        lambda f, psi3, event: None, oracle_step, inspector, "ma_mc_learn",
    )
    return RealModel(S.domain, f)


def round_model(f: RealModel, partition: IntervalPartition) -> RealModel:
    """Snap every value to the midpoint of its partition cell."""
    cells = partition.cell_indices(f.values)
    mids = np.array([partition.midpoint(i) for i in range(partition.k)])
    return RealModel(f.domain, mids[cells])


# ---------------------------------------------------------------------------
# boosting
# ---------------------------------------------------------------------------


def boost(
    S: RealClass,
    B: RealClass,
    data: Dataset,
    oracle: WeakOracle,
    params: LearnerParams,
    rng: np.random.Generator,
    inspector: Callable[[dict], None] | None = None,
) -> BinaryModel:
    """Boost a weak deterministic-label correlation maximizer to a strong one.

    Alternates a sign-calibration fix (step of length eps/2 against sign(f))
    with weak-oracle rounds on the rejection-sampled residual distribution
    with keep ratio |y - pi(y, f(x))| / |y|, scheduled by :func:`_block_loop`,
    so the oracle is invoked at most W_prime times.  Returns sign(f).

    ``inspector``, if given, receives one dict per round (keys listed in
    :func:`_block_loop`); it is for diagnostics only.
    """
    alpha, gamma, eps = params.alpha, params.gamma, params.epsilon
    W, Wp = params.W, params.W_prime
    if not eps > 0:
        raise ValueError("epsilon must be > 0")
    if W <= Wp + 4.0 / eps**2:
        raise ValueError("W must exceed W_prime + 4 / eps^2")
    n1, n2, n3 = params.n1, params.n2, params.n3
    n0 = oracle.n0 if oracle.n0 is not None else params.n0

    def calibrate(f, psi3, event):
        resid3 = psi3.ys - pi_proj_arr(psi3.ys, f[psi3.xs])
        Q = event["q_sign"] = float(np.mean(resid3 * sign_arr(f[psi3.xs]))) if n3 else 0.0
        if Q < -3.0 * eps / 4.0:
            return proj_interval_arr(f - eps * sign_arr(f) / 2.0)
        return None

    def oracle_step(f, psi1, psi2, event):
        resid1 = psi1.ys - pi_proj_arr(psi1.ys, f[psi1.xs])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(psi1.ys == 0.0, 0.0, np.abs(resid1) / np.abs(psi1.ys))
        keep = rng.random(len(ratio)) < ratio
        n_kept = event["n_kept"] = int(keep.sum())
        if n_kept < n1 * alpha / 2.0:
            return "few_points"
        psi = Dataset(psi1.xs[keep], psi1.ys[keep])
        if n0 is not None:
            psi = psi.slice(0, min(n0, len(psi)))
        fprime = oracle(S, B, psi, rng)
        resid2 = psi2.ys - pi_proj_arr(psi2.ys, f[psi2.xs])
        _, Qp = _holdout_best(resid2, psi2.xs, [fprime])
        event.update(f_prime=fprime, q_prime=Qp)
        if Qp >= 4.0 * gamma * n_kept / (9.0 * n1):
            return proj_interval_arr(f + Qp * fprime.values / 2.0)
        return "weak_gain"

    f = _block_loop(
        np.zeros(S.domain.size), data, W, Wp, n1, n2, n3,
        calibrate, oracle_step, inspector, "boost",
    )
    return BinaryModel(S.domain, sign_arr(f))


def phi_potential(y: float, u: float) -> float:
    """The boosting potential: integral from y to u of (pi(y, t) - y) dt."""
    lo, hi = min(0.0, y), max(0.0, y)
    if lo <= u <= hi:
        return 0.5 * (y - u) ** 2
    if (y >= 0 and u > y) or (y < 0 and u < y):
        return 0.0
    return 0.5 * y * y - y * u


def boosting_plan(
    alpha: float,
    gamma: float,
    eps: float,
    deltas: tuple[float, float, float, float],
    n0: int,
) -> LearnerParams:
    """Advisory parameter plan for :func:`boost`; any user sizes are accepted."""
    d1, d2, d3, d4 = deltas
    C = 4.0
    Wp = int(math.floor(C / (alpha * gamma**2) * math.log2(max(2.0, 1.0 / alpha)))) + 1
    W = Wp + int(math.floor(4.0 / eps**2)) + 1
    n1 = max(int(math.ceil(2.0 * n0 / alpha)), int(math.ceil(C / alpha * math.log(1.0 / d4))))
    n2 = int(math.ceil(C / (alpha**2 * gamma**2) * math.log(1.0 / d2)))
    n3 = int(math.ceil(C / eps**2 * math.log(1.0 / d3)))
    return LearnerParams(
        alpha=alpha, gamma=gamma, epsilon=eps, W=W, W_prime=Wp, n1=n1, n2=n2, n3=n3, n0=n0
    )


# ---------------------------------------------------------------------------
# losses, tau, and the omnipredictor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossFunction:
    """A loss l(y, q) for y in {-1, +1}, q in [-1, 1].

    ``kappa`` must dominate the finite-difference slope of l(y, .) on a
    1001-point grid (checked at construction); ``convex`` is verified on the
    same grid.  ``analytic_tau`` optionally short-circuits the numeric
    argmin in :func:`tau`.
    """

    fn: Callable[[float, float], float]
    kappa: float
    convex: bool = True
    analytic_tau: Callable[[float], float] | None = None
    name: str = "loss"

    def __call__(self, y: float, q: float) -> float:
        return float(self.fn(y, q))

    def __post_init__(self):
        grid = np.linspace(-1.0, 1.0, 1001)
        vals = np.array([[self.fn(y, q) for q in grid] for y in (-1.0, 1.0)])
        slope = float((np.abs(np.diff(vals, axis=1)) / (grid[1] - grid[0])).max())
        if slope > self.kappa + 1e-9:
            raise ValueError(f"kappa = {self.kappa} is below the observed grid slope {slope}")
        if self.convex:
            mid = (vals[:, :-2] + vals[:, 2:]) / 2.0
            if (vals[:, 1:-1] > mid + 1e-9).any():
                raise ValueError("loss flagged convex fails the grid convexity check")


def squared_loss() -> LossFunction:
    return LossFunction(lambda y, q: (y - q) ** 2, kappa=4.0, analytic_tau=lambda u: u, name="squared")


def absolute_loss() -> LossFunction:
    return LossFunction(
        lambda y, q: abs(y - q),
        kappa=1.0,
        analytic_tau=lambda u: 1.0 if u >= 0 else -1.0,
        name="absolute",
    )


LOSSES = {"squared": squared_loss, "absolute": absolute_loss}


def tau(loss: LossFunction, u: float) -> float:
    """argmin over q in [-1,1] of E_{y ~ Ber*(u)}[loss(y, q)].

    Uses the analytic map when the loss provides one.  The numeric fallback
    requires a convex loss and returns the lowest minimizer on ties.
    """
    if not -1.0 <= u <= 1.0:
        raise ValueError("u must lie in [-1, 1]")
    if loss.analytic_tau is not None:
        q = float(loss.analytic_tau(u))
        return max(-1.0, min(1.0, q))
    if not loss.convex:
        raise ValueError("numeric tau requires a convex loss")
    probs = ber_star(u)

    def g(q: float) -> float:
        return probs[1] * loss(1.0, q) + probs[-1] * loss(-1.0, q)

    lo, hi = -1.0, 1.0
    while hi - lo > 1e-9:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    qmin = (lo + hi) / 2.0
    gmin = g(qmin)
    # lowest minimizer on ties: g is nonincreasing on [-1, qmin]
    lo, hi = -1.0, qmin
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2.0
        if g(mid) <= gmin + 1e-12:
            hi = mid
        else:
            lo = mid
    return hi


def omni_learn(
    S: RealClass,
    B: RealClass,
    data: Dataset,
    partition: IntervalPartition,
    params: LearnerParams,
    oracle: WeakOracle,
    rng: np.random.Generator | None = None,
    inspector: Callable[[dict], None] | None = None,
) -> RealModel:
    """The calibrated multicalibration loop (pre-rounding, pre-tau).

    Per round: if some sign vector certifies partition-cell miscalibration
    >= 3 eps / 4 on the fresh check split, take a chi_sigma step of length
    eps/2; otherwise run one Algorithm-4-style weak-oracle round.  Stops when
    the oracle round fails to clear 3 gamma / 4 or the budgets run out.

    ``inspector``, if given, receives one dict per round (keys listed in
    :func:`_block_loop`); it is for diagnostics only.
    """
    gamma, eps = params.gamma, params.epsilon
    W, Wp = params.W, params.W_prime
    oracle_step = _sigma_round(S, B, partition, gamma, oracle, rng)
    if not eps > 0:
        raise ValueError("epsilon must be > 0")
    if Wp <= 4.0 / gamma**2:
        raise ValueError("W_prime must exceed 4 / gamma^2")
    if W <= Wp + 4.0 / eps**2:
        raise ValueError("W must exceed W_prime + 4 / eps^2")
    n3 = params.n3

    def calibrate(f, psi3, event):
        cell_means = np.zeros(partition.k)
        for i, total in _level_sums(psi3.ys - f[psi3.xs], partition.cell_indices(f[psi3.xs])):
            cell_means[i] = total / n3
        best_q = event["q_cal"] = float(np.abs(cell_means).sum())
        if best_q >= 3.0 * eps / 4.0:
            sig = np.where(cell_means >= 0, 1, -1).astype(np.int8)
            return proj_interval_arr(f + eps * chi_arr(sig, partition, f) / 2.0)
        return None

    f = _block_loop(
        np.zeros(S.domain.size), data, W, Wp, params.n1, params.n2, n3,
        calibrate, oracle_step, inspector, "omni_learn",
    )
    return RealModel(S.domain, f)


def omnipredict(
    S: RealClass,
    B: RealClass,
    loss: LossFunction,
    data: Dataset,
    partition: IntervalPartition,
    params: LearnerParams,
    oracle: WeakOracle,
    rng: np.random.Generator | None = None,
) -> RealModel:
    """Comparative regression: calibrated MC loop, midpoint rounding, then tau."""
    raw = omni_learn(S, B, data, partition, params, oracle, rng)
    rounded = round_model(raw, partition)
    return RealModel(S.domain, [tau(loss, float(v)) for v in rounded.values])


# ---------------------------------------------------------------------------
# advisory sample planners
# ---------------------------------------------------------------------------


def plan_dcorm_binary(
    S: RealClass,
    B: BinaryClass,
    eps: float,
    eta: float,
    delta: float,
) -> PlannedSamples:
    """Advisory n for the binary-benchmark correlation maximizer.

    Uses the log|H| ERM surrogate for the comparative-learning term; the
    paper's requirement takes a supremum over a base-learner sample
    complexity we do not know tightly, so this is a suggestion only.
    """
    A = agreement_class(binarize_class(S, eta, 0.0), B)
    n_comp = erm_sample_bound(len(A), eps / 4.0, delta / 2.0)
    n_tail = int(math.ceil(8.0 / eps * math.log(1.0 / delta)))
    return PlannedSamples(
        n=max(n_comp, n_tail),
        note="advisory: log|A| ERM surrogate for the comparative-learning term",
    )
