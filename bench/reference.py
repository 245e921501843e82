"""The benchmark's own random streams and computations.

Nothing here calls comparelearn: every check recomputes the answer from the
raw label matrices and distribution arrays with plain numpy.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """The counter-based Philox stream for (seed, key...), as the estimator derives it."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def binary_rows(rng, n: int, members: int, star: float, planted=()) -> np.ndarray:
    """Rows uniform over {-1, *, +1} with the given star share (0 encodes *),
    then 2^d random rows overwritten with every sign pattern on ``planted``."""
    m = rng.choice(np.array([-1, 0, 1], np.int8), size=(members, n),
                   p=[(1 - star) / 2, star, (1 - star) / 2])
    planted = list(planted)
    if planted:
        rows = rng.choice(members, size=2 ** len(planted), replace=False)
        m[np.ix_(rows, planted)] = np.array(list(product((-1, 1), repeat=len(planted))), np.int8)
    return m


# ---------------------------------------------------------------------------
# shattering, fat-shattering and mistake trees
# ---------------------------------------------------------------------------


def shatters(matrix: np.ndarray, subset) -> bool:
    """Do the rows defined on ``subset`` realize all 2^k sign patterns there?"""
    subset = list(subset)
    sub = matrix[:, subset]
    sub = sub[(sub != 0).all(axis=1)]
    codes = ((sub == 1).astype(np.int64) << np.arange(len(subset))).sum(axis=1)
    return np.unique(codes).size == 2 ** len(subset)


def max_mutual_shattered(matrices) -> int:
    """Largest subset shattered by every matrix, by depth-first enumeration.

    Shattering is monotone under subsets, so a branch stops at the first
    subset that some class fails to shatter.
    """
    n = matrices[0].shape[1]
    best = 0

    def dfs(start: int, k: int, states) -> None:
        nonlocal best
        best = max(best, k)
        for x in range(start, n):
            if k + (n - x) <= best:
                return
            nxt = []
            for (codes, alive), m in zip(states, matrices):
                col = m[:, x]
                a = alive & (col != 0)
                c = codes * 2 + (col == 1)
                if np.unique(c[a]).size != 2 ** (k + 1):
                    break
                nxt.append((c, a))
            else:
                dfs(x + 1, k + 1, nxt)

    dfs(0, 0, [(np.zeros(m.shape[0], np.int64), np.ones(m.shape[0], bool)) for m in matrices])
    return best


def fat_shatters(matrix: np.ndarray, subset, eta: float, refs) -> bool:
    """Is ``subset`` fat-shattered at margin ``eta`` around the given references?"""
    subset = list(subset)
    vals = matrix[:, subset]
    refs = np.asarray(refs, dtype=np.float64)
    signs = np.zeros(vals.shape, dtype=np.int8)
    with np.errstate(invalid="ignore"):
        signs[vals - refs > eta] = 1
        signs[vals - refs < -eta] = -1
    return shatters(signs, range(len(subset)))


def tree_node(nodes, path) -> int:
    offset = sum(1 << i for i, y in enumerate(path) if y == 1)
    return nodes[2 ** len(path) - 1 + offset]


def tree_shattered(matrix: np.ndarray, depth: int, nodes) -> bool:
    """Does every root-to-leaf labeling of the tree have a consistent row?"""
    if len(nodes) != 2**depth - 1:
        return False
    for labels in product((-1, 1), repeat=depth):
        alive = np.ones(matrix.shape[0], dtype=bool)
        for i in range(depth):
            alive &= matrix[:, tree_node(nodes, labels[:i])] == labels[i]
        if not alive.any():
            return False
    return True


def littlestone(matrix: np.ndarray) -> int:
    """Littlestone dimension of a binary class by memoized version-space recursion."""
    n_rows, n = matrix.shape
    plus = [sum(1 << int(i) for i in np.flatnonzero(matrix[:, x] == 1)) for x in range(n)]
    minus = [sum(1 << int(i) for i in np.flatnonzero(matrix[:, x] == -1)) for x in range(n)]
    memo: dict[int, int] = {}

    def rec(v: int) -> int:
        if v in memo:
            return memo[v]
        best = 0
        cap = v.bit_count().bit_length() - 1
        for x in range(n):
            vp, vm = v & plus[x], v & minus[x]
            if vp and vm and min(vp.bit_count(), vm.bit_count()) >= 2**best:
                best = max(best, 1 + min(rec(vp), rec(vm)))
                if best >= cap:
                    break
        memo[v] = best
        return best

    return rec((1 << n_rows) - 1)


# ---------------------------------------------------------------------------
# agreement classes and ERM
# ---------------------------------------------------------------------------


def agreement_rows(ms: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Every pairwise agreement row, S-major, with duplicates."""
    eq = (ms[:, None, :] == mb[None, :, :]) & (ms[:, None, :] != 0)
    rows = np.where(eq, ms[:, None, :], 0).astype(np.int8)
    return rows.reshape(-1, ms.shape[1])


def complete(row: np.ndarray) -> np.ndarray:
    return np.where(row == 0, 1, row).astype(np.int8)


def pair_mistakes(ms: np.ndarray, mb: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Empirical mistakes of every agreement pair, with * counted wrong and
    after the * -> +1 completion, as (|S|, |B|) integer matrices."""
    sx, bx = ms[:, xs], mb[:, xs]
    ys = ys.astype(np.int8)
    neg = ys == -1

    def both(a, b):  # count of samples where both indicator rows hold (exact in float64)
        return np.rint(a.astype(np.float64) @ b.astype(np.float64).T).astype(np.int64)

    starred = len(xs) - both(sx == ys, bx == ys)
    # completed rows predict +1 unless s = b there: wrong on y = +1 iff s = b = -1,
    # right on y = -1 iff s = b = -1
    minus_pos = both(sx[:, ~neg] == -1, bx[:, ~neg] == -1)
    completed = minus_pos + int(neg.sum()) - both(sx[:, neg] == -1, bx[:, neg] == -1)
    return starred, completed


def erm_models(matrix: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row of the lowest-index empirical-error minimizer per sample, completed.

    ``xs`` and ``ys`` are (trials, n); * counts as a mistake.
    """
    if xs.shape[1] == 0:
        return np.repeat(complete(matrix[0])[None, :], xs.shape[0], axis=0)
    mism = (matrix[:, xs] != ys[None, :, :]).sum(axis=2)  # (rows, trials)
    return complete(matrix[np.argmin(mism, axis=0)])


# ---------------------------------------------------------------------------
# exact functionals over (xs, ys, ps) arrays
# ---------------------------------------------------------------------------


def error(values: np.ndarray, xs, ys, ps) -> np.ndarray:
    """Pr[h(x) != y] for each row of ``values`` (* counts as a mistake)."""
    return (np.atleast_2d(values)[:, xs] != ys).astype(np.float64) @ ps


def correlation(values: np.ndarray, xs, ys, ps) -> np.ndarray:
    """E[y <> h(x)] per row: the product y h(x), or -|y| where h is *."""
    hx = np.atleast_2d(values)[:, xs]
    star = np.isnan(hx)
    terms = np.where(star, -np.abs(ys), ys * np.where(star, 0.0, hx))
    return terms @ ps


def squared_loss(values: np.ndarray, xs, ys, ps) -> np.ndarray:
    return ((ys - np.atleast_2d(values)[:, xs]) ** 2) @ ps


def mc_error_cells(f: np.ndarray, bench: np.ndarray, k: int, xs, ys, ps) -> float:
    """Multicalibration error over the k-cell interval partition of [-1, 1]."""
    fx = f[xs]
    cells = np.clip(np.ceil((fx + 1.0) * k / 2.0).astype(np.int64), 1, k) - 1
    bx = bench[:, xs]
    star = np.isnan(bx)
    res = fx - ys
    defined = ps * res * np.where(star, 0.0, bx)
    starred = ps * np.abs(res) * star
    total = np.zeros(bench.shape[0])
    for i in range(k):
        m = cells == i
        if m.any():
            total += np.abs(defined[:, m].sum(axis=1)) - starred[:, m].sum(axis=1)
    return float(total.max())


def budget(delta: float, trials: int) -> float:
    """Allowed failure share: delta plus three binomial standard errors."""
    return delta + 3.0 * math.sqrt(max(delta * (1.0 - delta), 0.0025) / trials)


def wilson(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)
