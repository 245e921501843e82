"""dims: mutual VC, Littlestone and fat-shattering queries on planted pairs.

Each op draws a fresh (S, B) pair from its own stream: random rows plus a
planted mutually shattered set, so the value is known from below.  Stars are
dense enough that random rows rarely shatter more than the planted set, so
the exhaustive searches do comparable work on every seed.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

import reference as ref
from comparelearn.core import BinaryClass, Domain, RealClass
from comparelearn.dimensions import mutual_fat, mutual_ldim, mutual_vc
from harness import require

# kind -> (points, members per class, planted size, star probability)
SIZES = {
    "vc": (14, 512, 5, 0.5),
    "ldim": (12, 384, 6, 0.35),
    "fat": (4, 16, 3, 0.0),
}
ETA = 0.1
# every fat column holds the same values, so every point has the same
# reference candidates; planted rows take +-1/2 around the reference 0
VALUES = np.array([-1.0, -0.75, -0.5, 0.5, 0.75, 1.0])

ROUND = ["vc", "ldim", "fat"]
TAIL_PCT = 80
TRACE_ROUNDS = 4


def setup() -> dict:
    return {}


def _real(rng, n, members, planted) -> np.ndarray:
    m = np.stack([rng.permutation(np.resize(VALUES, members)) for _ in range(n)], axis=1)
    rows = rng.choice(members, size=2 ** len(planted), replace=False)
    others = np.setdiff1d(np.arange(members), rows)
    for x in planted:
        m[others, x] = rng.permutation(np.resize(VALUES, others.size))
    m[np.ix_(rows, planted)] = 0.5 * np.array(list(product((-1.0, 1.0), repeat=len(planted))))
    return m


def make_input(ctx, kind, seed, round_index, slot):
    rng = ref.stream(seed, 0xD1, round_index, slot)
    n, members, d, star = SIZES[kind]
    planted = np.sort(rng.choice(n, size=d, replace=False))
    if kind == "fat":
        S = RealClass(Domain(n), _real(rng, n, members, planted))
        B = RealClass(Domain(n), _real(rng, n, members, planted))
    else:
        S = BinaryClass(Domain(n), ref.binary_rows(rng, n, members, star, planted))
        B = BinaryClass(Domain(n), ref.binary_rows(rng, n, members, star, planted))
    return {"S": S, "B": B, "planted": d}


def run_op(ctx, kind, inp):
    if kind == "vc":
        return mutual_vc(inp["S"], inp["B"])
    if kind == "ldim":
        return mutual_ldim(inp["S"], inp["B"])
    return mutual_fat(inp["S"], inp["B"], ETA)


def succeeded(kind, out) -> bool:
    return out is not None and out.value is not None


def check(ctx, kind, inp, out):
    S, B = inp["S"].matrix, inp["B"].matrix
    d = out.value
    cap = int(math.floor(math.log2(min(len(S), len(B)))))
    require(inp["planted"] <= d <= cap, f"value {d} outside [{inp['planted']}, {cap}]")
    if kind == "vc":
        w = list(out.witness)
        require(len(w) == d and len(set(w)) == d, f"witness {w} for value {d}")
        require(ref.shatters(S, w) and ref.shatters(B, w), f"witness {w} not shattered")
        require(ref.max_mutual_shattered([S, B]) == d, "a larger subset is mutually shattered")
    elif kind == "ldim":
        tree = out.witness
        require(tree.depth == d, f"tree depth {tree.depth} != {d}")
        require(ref.tree_shattered(S, d, tree.nodes) and ref.tree_shattered(B, d, tree.nodes),
                "tree not shattered by both classes")
        require(d >= ref.max_mutual_shattered([S, B]), "mutual Ldim below mutual VC")
    else:
        subset, r1, r2 = out.witness
        require(len(subset) == d, f"witness {subset} for value {d}")
        require(ref.fat_shatters(S, subset, ETA, r1) and ref.fat_shatters(B, subset, ETA, r2),
                f"witness {subset} not fat-shattered")


def check_round(ctx, results):
    pass


def finish(ctx):
    pass
