"""Exact combinatorial dimensions of finite hypothesis classes.

Mutual VC, mutual fat-shattering, and mutual Littlestone dimensions of one or
more classes, with hard guards, plus dual packing/covering numbers and a
randomized Gilbert--Varshamov style packing construction.

One kernel serves all three: the members of a class are the bits of an int,
and a set is shattered when every pattern cell (the members realizing one sign
pattern) splits in two at each next point.  Subset searches walk increasing
point tuples depth first; the Littlestone game recurses on version-space
masks.  A single-class dimension is the one-class case of the mutual one.

Conventions
-----------
* An empty class has UNDEFINED dimensions (``DimensionResult.value is None``):
  not even the empty subset is shattered, because no hypothesis realizes the
  vacuous labeling.
* All returned witnesses re-verify under the corresponding check:
  ``is_shattered`` for VC, ``is_fat_shattered`` for fat, and
  ``tree_shattered_by`` for Littlestone.
* Witnesses are deterministic: the lexicographically first maximum subset,
  then per class the first reference combination in candidate order, and for
  trees the first splitting point in index order at every node.
* Fat-shattering takes a supremum over reference functions r: X -> R.  For a
  finite class this supremum is realized on a finite candidate set per point:
  the usable-hypothesis sets change only when r(x) +- eta crosses a defined
  value, so it suffices to test the breakpoints {v - eta, v + eta}, midpoints
  of consecutive breakpoints, and one point beyond each extreme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .core import (
    BinaryClass,
    BinaryModel,
    Domain,
    GuardError,
    GVConstructionError,
    RealClass,
    _binarize_matrix,
    _check_margin,
    _star,
    binarize_class,
)
from .stat_model import _check_mu_x, rng_stream

SUBSET_GUARD = 30
LDIM_CLASS_GUARD = 4096
LDIM_DOMAIN_GUARD = 24
PACKING_EXACT_GUARD = 24
COVERING_EXACT_GUARD = 20


@dataclass(frozen=True)
class DimensionResult:
    """A dimension value with its certifying witness.

    ``value`` is None exactly when the dimension is UNDEFINED (empty class).
    The witness shape depends on the dimension: a tuple of domain indices for
    VC, ``(indices, r1)`` or ``(indices, r1, r2)`` with per-point reference
    values for fat-shattering, and a :class:`MistakeTree` for Littlestone.
    """

    value: int | None
    witness: object | None = None

    @property
    def is_undefined(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class MistakeTree:
    """A complete binary mistake tree of the given depth.

    ``nodes`` lists the individuals in breadth-first order: the node reached
    by following the label path ``zeta`` (a tuple of -1/+1 of length < depth)
    sits at index ``2^len(zeta) - 1 + offset`` where bit i of ``offset`` is 1
    iff ``zeta[i] == +1``.
    """

    depth: int
    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) != 2**self.depth - 1:
            raise ValueError("a depth-m tree has 2^m - 1 nodes")

    def node(self, path: tuple[int, ...]) -> int:
        level = len(path)
        if level >= self.depth:
            raise ValueError("path longer than tree depth")
        offset = 0
        for i, y in enumerate(path):
            if y == 1:
                offset |= 1 << i
        return self.nodes[2**level - 1 + offset]


# ---------------------------------------------------------------------------
# shattering and VC dimension
# ---------------------------------------------------------------------------


def _masks(flags: np.ndarray) -> list[int]:
    """Per column of a (members, columns) boolean array, the member bitmask."""
    packed = np.packbits(flags, axis=0, bitorder="little").T
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _sign_masks(matrix: np.ndarray) -> tuple[list[int], list[int]]:
    """Per column, the members labelling it +1 and the members labelling it -1."""
    return _masks(matrix == 1), _masks(matrix == -1)


def _split(cells: list[int], plus: int, minus: int) -> list[int] | None:
    """Refine the pattern cells by one point; None unless every cell splits in two."""
    out = [c & minus for c in cells] + [c & plus for c in cells]
    return out if all(out) else None


def _shatters(H, plus: list[int], minus: list[int]) -> bool:
    cells = [(1 << len(H)) - 1]
    for p, m in zip(plus, minus):
        if not (cells := _split(cells, p, m)):
            return False
    return True


def _domain_size(classes) -> int:
    if not classes:
        raise ValueError("at least one class is required")
    n = classes[0].domain.size
    if any(H.domain.size != n for H in classes):
        raise ValueError("classes must share a domain")
    return n


def _max_shattered(classes, columns) -> tuple[tuple[int, ...], list[tuple]]:
    """Lexicographically first largest subset that every class shatters.

    ``columns[i][x]`` lists class i's columns ``(reference, plus, minus)`` at
    point x.  The depth-first walk over increasing point tuples keeps, per
    class, every reference prefix (in candidate order) whose pattern cells all
    split, and cuts a branch as soon as one class has none left.  Returns the
    subset and, per class, its first shattering reference combination.
    """
    n = classes[0].domain.size
    # shattering k points takes 2^k distinct members
    upper = min(n, min(len(H) for H in classes).bit_length() - 1)
    best = ((), [()] * len(classes))

    def dfs(subset, alive, start):
        nonlocal best
        for x in range(start, n):
            if len(subset) + n - x <= len(best[0]) or len(best[0]) == upper:
                return
            grown = []
            for prefixes, cols in zip(alive, columns):
                ext = [
                    (refs + (r,), cells)
                    for refs, prev in prefixes
                    for r, plus, minus in cols[x]
                    if (cells := _split(prev, plus, minus))
                ]
                if not ext:
                    break
                grown.append(ext)
            else:
                if len(subset) + 1 > len(best[0]):
                    best = (subset + (x,), [ext[0][0] for ext in grown])
                dfs(subset + (x,), grown, x + 1)

    dfs((), [[((), [(1 << len(H)) - 1])] for H in classes], 0)
    return best


def _domain_points(points, n: int, what: str) -> list[int]:
    """``points`` as ints; ValueError unless each is an integer (not a bool) in [0, n)."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < n for x in points):
        raise ValueError(f"{what} must be points of the domain [0, {n})")
    return [int(x) for x in points]


def _guard_subset(subset, n: int) -> list[int]:
    subset = list(subset)
    if len(subset) > SUBSET_GUARD:
        raise GuardError(f"subset of size {len(subset)} exceeds guard {SUBSET_GUARD}")
    return _domain_points(subset, n, "subset entries")


def is_shattered(H: BinaryClass, subset) -> bool:
    """True iff every +-1 labeling of ``subset`` is realized by some member.

    * never matches a required label.  The empty subset is shattered iff the
    class is nonempty.
    """
    subset = _guard_subset(subset, H.domain.size)
    if H.is_empty:
        return False
    return _shatters(H, *_sign_masks(H.matrix[:, subset]))


def vc(H: BinaryClass) -> DimensionResult:
    """VC dimension of a partial binary class (UNDEFINED for an empty class)."""
    return mutual_vc(H)


def mutual_vc(*classes: BinaryClass) -> DimensionResult:
    """Largest size of a subset shattered by every class simultaneously.

    Takes one or more classes; ``mutual_vc(H)`` is the VC dimension of H.
    UNDEFINED when any class is empty.
    """
    _domain_size(classes)
    if any(H.is_empty for H in classes):
        return DimensionResult(None)
    columns = [[[(None, p, m)] for p, m in zip(*_sign_masks(H.matrix))] for H in classes]
    subset, _ = _max_shattered(classes, columns)
    return DimensionResult(len(subset), subset)


# ---------------------------------------------------------------------------
# fat-shattering
# ---------------------------------------------------------------------------


def reference_candidates(values: np.ndarray, eta: float) -> list[float]:
    """Exact finite candidate set for a reference value at one point.

    ``values`` are the defined hypothesis values at the point.  Candidates are
    the breakpoints {v - eta, v + eta}, midpoints of consecutive breakpoints,
    and one point beyond each extreme.
    """
    vals = np.unique(values)
    if vals.size == 0:
        return []
    bps = np.unique(np.concatenate([vals - eta, vals + eta]))
    cands = [bps[0] - 1.0]
    for i in range(bps.size):
        cands.append(float(bps[i]))
        if i + 1 < bps.size:
            cands.append(float((bps[i] + bps[i + 1]) / 2.0))
    cands.append(bps[-1] + 1.0)
    return cands


def _fat_columns(H: RealClass, eta: float) -> list[list[tuple]]:
    """Per point, the deduplicated binarized columns (r, plus, minus) with both signs."""
    out = []
    for col in H.matrix.T:
        refs = reference_candidates(col[~_star(col)], eta)
        binz = _binarize_matrix(np.repeat(col[:, None], len(refs), axis=1), eta, np.array(refs))
        cols, seen = [], set()
        for r, p, m in zip(refs, *_sign_masks(binz)):
            if p and m and (p, m) not in seen:
                seen.add((p, m))
                cols.append((float(r), p, m))
        out.append(cols)
    return out


def is_fat_shattered(H: RealClass, subset, eta: float, r) -> bool:
    """Is ``subset`` eta-fat shattered by H w.r.t. the given reference?

    ``r`` gives the reference value per subset point (aligned with ``subset``);
    a full-domain array or a scalar is also accepted.  The margin is strict:
    xi(x) * (h(x) - r(x)) > eta, and h must be defined on the subset.
    """
    subset = _guard_subset(subset, H.domain.size)
    _check_margin(eta)
    if H.is_empty:
        return False
    if np.isscalar(r):
        refs = np.full(len(subset), float(r))
    else:
        arr = np.asarray(r, dtype=np.float64)
        if arr.shape == (len(subset),):
            refs = arr
        elif arr.shape == (H.domain.size,):
            refs = arr[subset]
        else:
            raise ValueError("r must align with the subset or the domain")
    return _shatters(H, *_sign_masks(_binarize_matrix(H.matrix[:, subset], eta, refs)))


def _fat_search(classes, etas) -> DimensionResult:
    _domain_size(classes)
    for eta in etas:
        _check_margin(eta)
    if any(H.is_empty for H in classes):
        return DimensionResult(None)
    columns = [_fat_columns(H, eta) for H, eta in zip(classes, etas)]
    subset, refs = _max_shattered(classes, columns)
    return DimensionResult(len(subset), (subset, *refs))


def fat(H: RealClass, eta: float) -> DimensionResult:
    """eta-fat-shattering dimension with the reference supremum made exact."""
    return _fat_search((H,), (eta,))


def mutual_fat2(S: RealClass, B: RealClass, eta1: float, eta2: float) -> DimensionResult:
    """Largest subset eta1-fat shattered by S and eta2-fat shattered by B.

    The two reference functions are searched independently, matching the
    definition of the two-margin mutual dimension.
    """
    return _fat_search((S, B), (eta1, eta2))


def mutual_fat(S: RealClass, B: RealClass, eta: float) -> DimensionResult:
    """Largest subset eta-fat shattered by both classes."""
    return mutual_fat2(S, B, eta, eta)


def theta_candidates(B: RealClass, eta: float) -> list[float]:
    """Exact candidate set for a constant reference theta, pooled over points."""
    vals = B.matrix[~_star(B.matrix)]
    return reference_candidates(vals, eta) if vals.size else [0.0]


def sup_theta_mutual_vc(Sbin: BinaryClass, B: RealClass, eta: float) -> DimensionResult:
    """sup over theta of VC(Sbin, B_eta^theta), exact via pooled breakpoints."""
    best = DimensionResult(None)
    for theta in theta_candidates(B, eta):
        res = mutual_vc(Sbin, binarize_class(B, eta, theta))
        if res.value is not None and (best.value is None or res.value > best.value):
            best = res
    return best


# ---------------------------------------------------------------------------
# Littlestone dimension
# ---------------------------------------------------------------------------


def _next_level(level: list[int], xs, plus, minus) -> list[int]:
    """Split each state at its point: all the -1 halves, then all the +1 halves."""
    return [s & minus[x] for s, x in zip(level, xs)] + [s & plus[x] for s, x in zip(level, xs)]


class LdimGame:
    """The mutual Littlestone game of one or more classes over version spaces.

    A state is one int holding the surviving members of every class, each
    class in its own bit segment followed by a zero guard bit; ``plus[x]`` and
    ``minus[x]`` are the members labelling x with +1 and -1, and ``full`` is
    the starting state.
    """

    def __init__(self, *classes: BinaryClass):
        n = _domain_size(classes)
        for H in classes:
            if len(H) > LDIM_CLASS_GUARD:
                raise GuardError(f"|H| = {len(H)} exceeds Ldim guard {LDIM_CLASS_GUARD}")
        if n > LDIM_DOMAIN_GUARD:
            raise GuardError(f"domain size {n} exceeds Ldim guard {LDIM_DOMAIN_GUARD}")
        guard_row = np.zeros((1, n), dtype=np.int8)
        rows = np.vstack([M for H in classes for M in (H.matrix, guard_row)])
        self.plus, self.minus = _sign_masks(rows)
        offsets = list(accumulate((len(H) + 1 for H in classes), initial=0))
        self._segments = [((1 << len(H)) - 1) << o for H, o in zip(classes, offsets)]
        self.full = sum(self._segments)
        self._guard = sum(1 << (o - 1) for o in offsets[1:])
        # points at which every class has both signs, in index order
        self._points = [
            (x, p, m)
            for x, (p, m) in enumerate(zip(self.plus, self.minus))
            if all(p & seg and m & seg for seg in self._segments)
        ]
        self._memo: dict[int, int] = {}

    def value(self, state: int) -> int:
        """Depth of the deepest mistake tree that every class's part of ``state``
        shatters; -1 when some part is empty."""
        memo, value = self._memo, self.value
        best = memo.get(state)
        if best is not None:
            return best
        one = len(self._segments) == 1
        smallest = (
            state.bit_count() if one else min((state & seg).bit_count() for seg in self._segments)
        )
        cap = smallest.bit_length() - 1  # ldim <= log2 of the smallest part
        best = 0 if cap >= 0 else -1
        full, guard = self.full, self._guard
        for _, plus, minus in self._points:
            sp, sm = state & plus, state & minus
            # with one class two nonzero halves suffice; otherwise each segment
            # plus its all-ones carries into its guard bit iff it is nonzero
            if sp and sm and (one or (sp + full) & guard == guard and (sm + full) & guard == guard):
                dp, dm = value(sp), value(sm)
                d = 1 + (dp if dp < dm else dm)
                if d > best:
                    best = d
                    if best >= cap:
                        break
        memo[state] = best
        return best

    def tree(self, state: int, depth: int) -> MistakeTree:
        """A depth-``depth`` tree that ``state`` shatters; breadth first, each node
        takes the first point in index order whose halves keep the remaining depth."""
        nodes, level = [], [state]
        for d in range(depth - 1, -1, -1):
            xs = [
                next(x for x, p, m in self._points if min(self.value(s & m), self.value(s & p)) >= d)
                for s in level
            ]
            nodes += xs
            level = _next_level(level, xs, self.plus, self.minus)
        return MistakeTree(depth, tuple(nodes))


def ldim(H: BinaryClass) -> DimensionResult:
    """Littlestone dimension with a mistake-tree witness."""
    return mutual_ldim(H)


def mutual_ldim(*classes: BinaryClass) -> DimensionResult:
    """Mutual Littlestone dimension: the joint game where every version space survives.

    Takes one or more classes; ``mutual_ldim(H)`` is the Littlestone dimension
    of H.  UNDEFINED when any class is empty.
    """
    _domain_size(classes)
    if any(H.is_empty for H in classes):
        return DimensionResult(None)
    game = LdimGame(*classes)
    value = game.value(game.full)
    return DimensionResult(value, game.tree(game.full, value))


def tree_shattered_by(H: BinaryClass, tree: MistakeTree) -> bool:
    """Re-verify a mistake tree: every root-to-leaf labeling is realized.

    Reads only the tree's nodes, so no search guard applies; a node outside
    the domain raises ValueError.
    """
    xs = sorted(set(_domain_points(tree.nodes, H.domain.size, "tree nodes")))
    plus, minus = (dict(zip(xs, masks)) for masks in _sign_masks(H.matrix[:, xs]))
    level = [(1 << len(H)) - 1]  # the members on each path, breadth first
    for i in range(tree.depth):
        level = _next_level(level, tree.nodes[2**i - 1 : 2 ** (i + 1) - 1], plus, minus)
        if not all(level):
            return False
    return True


# ---------------------------------------------------------------------------
# dual packing and covering numbers
# ---------------------------------------------------------------------------


def dual_distances(S: RealClass, B: RealClass, mu_x) -> np.ndarray:
    """Pairwise distances sup_b |E_mu[(s_i - s_j) b]| for total classes."""
    if _star(S.matrix).any() or _star(B.matrix).any():
        raise ValueError("packing/covering requires total classes (no *)")
    mu = _check_mu_x(mu_x, S.domain.size)
    P = (S.matrix * mu[None, :]) @ B.matrix.T  # (mS, mB) of E[s_i b]
    return np.abs(P[:, None, :] - P[None, :, :]).max(axis=2)


def _max_clique(adj: list[int], n: int) -> int:
    """Exact maximum clique size over an adjacency bitmask list."""
    best = 0

    def expand(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cand & adj[v], size + 1)

    expand((1 << n) - 1, 0)
    return best


def packing_number(S: RealClass, B: RealClass, mu_x, eps: float) -> int:
    """Maximum size of a subset of S with pairwise dual distance > eps.

    Exact (max clique); guarded to |S| <= 24.
    """
    _check_margin(eps, "eps")
    if S.is_empty:
        return 0
    n = len(S)
    if n > PACKING_EXACT_GUARD:
        raise GuardError(f"|S| = {n} exceeds exact-packing guard {PACKING_EXACT_GUARD}")
    edges = dual_distances(S, B, mu_x) > eps
    adj = [mask & ~(1 << i) for i, mask in enumerate(_masks(edges.T))]
    return _max_clique(adj, n)


def covering_upper(S: RealClass, B: RealClass, mu_x, eps: float) -> int:
    """Greedy set-cover upper bound on the dual covering number."""
    _check_margin(eps, "eps")
    if S.is_empty:
        return 0
    D = dual_distances(S, B, mu_x)
    covers = D <= eps
    n = D.shape[0]
    uncovered = np.ones(n, dtype=bool)
    count = 0
    while uncovered.any():
        gains = (covers & uncovered[None, :]).sum(axis=1)
        i = int(np.argmax(gains))
        if gains[i] == 0:
            raise AssertionError("every point covers itself")
        uncovered &= ~covers[i]
        count += 1
    return count


def covering_number_exact(S: RealClass, B: RealClass, mu_x, eps: float) -> int:
    """Exact dual covering number by exhaustive search; guarded to |S| <= 20."""
    _check_margin(eps, "eps")
    if S.is_empty:
        return 0
    n = len(S)
    if n > COVERING_EXACT_GUARD:
        raise GuardError(f"|S| = {n} exceeds exact-covering guard {COVERING_EXACT_GUARD}")
    D = dual_distances(S, B, mu_x)
    cover_masks = _masks((D <= eps).T)
    everything = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            acc = 0
            for i in combo:
                acc |= cover_masks[i]
            if acc == everything:
                return size
    return n


# ---------------------------------------------------------------------------
# Gilbert--Varshamov style packing
# ---------------------------------------------------------------------------


def gv_packing(
    n: int,
    eps: float,
    seed: int,
    c: float = 1.0,
    max_retries: int = 64,
) -> list[BinaryModel]:
    """Randomized set of total binary models with pairwise distance >= 1/2 - eps.

    Samples N = floor(2^(c * eps^2 * n / 2)) - 1 uniform sign vectors and
    retries until all pairwise normalized Hamming distances reach 1/2 - eps;
    the property is verified exactly before returning.  When N < 2 the two
    constant models (distance 1) are returned instead.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if n < 1:
        raise ValueError("n must be >= 1")
    domain = Domain(n)
    N = int(math.floor(2.0 ** (c * eps * eps * n / 2.0))) - 1
    if N < 2:
        models = [BinaryModel.constant(domain, 1), BinaryModel.constant(domain, -1)]
    else:
        threshold = 2.0 * eps * n  # dist >= 1/2 - eps  <=>  inner product <= 2 eps n
        for attempt in range(max_retries):
            rng = rng_stream(seed, 7901, attempt)
            X = rng.integers(0, 2, size=(N, n)).astype(np.int32) * 2 - 1
            G = X @ X.T
            np.fill_diagonal(G, -n)
            if G.max() <= threshold:
                models = [BinaryModel(domain, X[i].astype(np.int8)) for i in range(N)]
                break
        else:
            raise GVConstructionError(
                f"no valid packing after {max_retries} attempts (n={n}, eps={eps}, N={N})"
            )
    if not verify_pairwise_distance(models, eps):
        raise GVConstructionError(f"packing fails the exact distance check (n={n}, eps={eps})")
    return models


def verify_pairwise_distance(models: list[BinaryModel], eps: float) -> bool:
    """Exact check that all pairs differ on at least a (1/2 - eps) fraction."""
    n = models[0].domain.size
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            dist = int((models[i].values != models[j].values).sum())
            if dist / n < 0.5 - eps:
                return False
    return True
