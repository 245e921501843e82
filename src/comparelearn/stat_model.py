"""Explicit discrete data distributions and exact error functionals.

A distribution is a finite list of (individual, label, mass) atoms.  All
functionals (classification error, correlation, multiaccuracy and
multicalibration errors, calibration, regression loss) are computed by exact
summation over the support; sampling exists only to feed learners.

Random streams are counter-based (Philox) and splittable: derive independent
generators with :func:`rng_stream` and record ``(seed, stream id)`` for
replay.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BinaryHypothesis,
    BinaryModel,
    ConfigError,
    Domain,
    IntervalPartition,
    RealHypothesis,
    RealModel,
    _domain_from_json,
    _Immutable,
    _is_int,
    _json_float,
    _real_view,
    _star,
    gen_product_arr,
    sign_arr,
)

MASS_TOL = 1e-12
_BOOL_TYPES = (bool, np.bool_)

DETERMINISTIC = "deterministic"
BER_STAR = "ber_star"
CUSTOM = "custom"


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """A counter-based generator for (seed, stream id); never share streams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Dataset:
    """Labeled sample: parallel index/label arrays plus replay metadata."""

    xs: np.ndarray
    ys: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.int64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be parallel 1-d arrays")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self):
        return self.xs.shape[0]

    def slice(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.xs[start:stop], self.ys[start:stop], self.meta)


class DiscreteDistribution(_Immutable):
    """Finite-support joint law over (individual index, label).

    Atoms with identical (x, y) are merged; masses must be positive and sum
    to 1 within 1e-12.  ``label_kind`` is "binary" (labels in {-1, +1}) or
    "real" (labels in [-1, 1]).
    """

    __slots__ = ("domain", "xs", "ys", "ps", "label_kind")

    def __init__(self, domain: Domain, atoms, label_kind: str):
        if label_kind not in ("binary", "real"):
            raise ValueError("label_kind must be 'binary' or 'real'")
        merged: dict[tuple[int, float], float] = {}
        for x, y, p in atoms:
            try:  # an int or a NumPy integer; a bool, 0.7 or "0" is refused, not read as a point
                x = operator.index(x if type(x) is not bool else None)
            except TypeError:
                raise ValueError(f"support index must be an integer, got {x!r}") from None
            if type(y) in _BOOL_TYPES:  # float() would read True as +1
                raise ValueError(f"support label must be a number, got {y!r}")
            y = float(y)
            p = float(p)
            if not 0 <= x < domain.size:
                raise ValueError(f"support index {x} outside domain")
            if label_kind == "binary" and y not in (-1.0, 1.0):
                raise ValueError(f"binary label must be -1 or +1, got {y}")
            if not abs(y) <= 1.0:
                raise ValueError(f"label must lie in [-1, 1], got {y}")
            if not p > 0:
                raise ValueError("masses must be positive")
            merged[(x, y + 0.0)] = merged.get((x, y + 0.0), 0.0) + p
        keys = sorted(merged)
        xs = np.array([k[0] for k in keys], dtype=np.int64)
        ys = np.array([k[1] for k in keys], dtype=np.float64)
        ps = np.array([merged[k] for k in keys], dtype=np.float64)
        self._set_arrays(domain, xs, ys, ps, label_kind)

    def _set_arrays(self, domain: Domain, xs, ys, ps, label_kind: str) -> "DiscreteDistribution":
        """Set and freeze the slots from atom arrays sorted by (x, y) with distinct
        atoms and positive masses, after checking that there is an atom and the
        masses sum to 1; returns ``self``."""
        if xs.size == 0:
            raise ValueError("distribution needs at least one atom")
        if abs(ps.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses must sum to 1 within {MASS_TOL}, got {ps.sum()!r}")
        return self._fill(domain, xs, ys, ps, label_kind)

    def marginal_x(self) -> np.ndarray:
        out = np.zeros(self.domain.size)
        np.add.at(out, self.xs, self.ps)
        return out

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        idx = rng.choice(self.xs.shape[0], size=int(n), p=self.ps)
        return Dataset(self.xs[idx], self.ys[idx])

    def to_json(self) -> dict:
        return {
            "domain": {"size": self.domain.size},
            "kind": self.label_kind,
            "support": [
                [int(x), float(y), float(p)]
                for x, y, p in zip(self.xs, self.ys, self.ps)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiscreteDistribution":
        try:
            domain = _domain_from_json(data)
            atoms = []
            for row in data["support"]:
                if not (isinstance(row, list) and len(row) == 3):
                    raise ValueError(f"support row must be a list [x, y, p], got {row!r}")
                x, y, p = row
                if not _is_int(x):
                    raise ValueError(f"support index must be an integer, got {x!r}")
                y = _json_float(y, "support label must be a number")
                atoms.append((x, y, _json_float(p, "support mass must be a number")))
            return cls(domain, atoms, data["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid distribution JSON: {exc}") from exc

    def sha256(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def __repr__(self):
        return (
            f"DiscreteDistribution(|X|={self.domain.size}, atoms={len(self.xs)}, "
            f"kind={self.label_kind!r})"
        )


def ber_star(u: float) -> dict[int, float]:
    """The +-1 distribution with mean u: Pr[+1] = (1+u)/2."""
    if not -1.0 <= u <= 1.0:
        raise ValueError("u must lie in [-1, 1]")
    return {1: (1.0 + u) / 2.0, -1: (1.0 - u) / 2.0}


@dataclass(frozen=True)
class SourceModel:
    """A source hypothesis together with its conditional label law.

    ``law`` is DETERMINISTIC (y = s(x)), BER_STAR (y in {-1,+1} with
    E[y|x] = s(x)), or CUSTOM with an explicit finite conditional law per
    point whose mean must equal s(x) exactly (within 1e-12).
    """

    hypothesis: RealHypothesis | BinaryHypothesis
    law: str = DETERMINISTIC
    conditionals: Mapping[int, Sequence[tuple[float, float]]] | None = None

    def __post_init__(self):
        if self.law not in (DETERMINISTIC, BER_STAR, CUSTOM):
            raise ValueError(f"unknown label law {self.law!r}")
        if self.law == CUSTOM and self.conditionals is None:
            raise ValueError("CUSTOM law requires explicit conditionals")

    def real_values(self) -> np.ndarray:
        return _real_view(self.hypothesis.values)


def _check_mu_x(mu_x, size: int) -> np.ndarray:
    """``mu_x`` as a float64 probability vector over a domain of ``size`` points."""
    mu = np.asarray(mu_x, dtype=np.float64)
    if mu.shape != (size,):
        raise ValueError("mu_x must be an array over the domain")
    if not ((mu >= 0).all() and abs(mu.sum() - 1.0) <= MASS_TOL):  # NaN fails both
        raise ValueError("mu_x must be a probability vector")
    return mu


def _defined_support(mu_x, values: np.ndarray):
    """``mu_x`` checked as a probability vector, and its support, on which every
    row of real ``values`` (NaN = *) must be defined."""
    mu = _check_mu_x(mu_x, values.shape[-1])
    support = np.flatnonzero(mu > 0)
    if _star(values[..., support]).any():
        raise ValueError("source hypothesis must be defined on the support (no *)")
    return mu, support


def _law_rows(domain: Domain, values: np.ndarray, mu_x, law: str) -> list[DiscreteDistribution]:
    """The joint law of (x, y) with x ~ mu_x and y from the DETERMINISTIC or
    BER_STAR law of each row of real ``values`` (NaN = *, no -0.0, as a class
    or hypothesis stores them), one distribution per row, all rows in one
    array pass.

    BER_STAR puts (1 - u)/2 on y = -1 and (1 + u)/2 on y = +1 at a point of
    value u and drops an atom of mass 0; the atoms come out sorted by (x, y).
    """
    mu, support = _defined_support(mu_x, values)
    u = values[:, support]
    if law == DETERMINISTIC:
        xs, ys, q = support, u, np.ones_like(u)
    else:
        xs = np.repeat(support, 2)
        ys = np.tile([-1.0, 1.0], support.size)
        q = np.stack(((1.0 - u) / 2.0, (1.0 + u) / 2.0), axis=-1).reshape(u.shape[0], xs.size)
    xs, ys = np.broadcast_to(xs, q.shape), np.broadcast_to(ys, q.shape)
    ps = mu[xs] * q
    keep = q > 0
    if not ps[keep].all():  # a mass that underflowed to 0
        raise ValueError("masses must be positive")
    binary = (np.abs(ys) == 1.0).all(axis=1)
    return [
        DiscreteDistribution.__new__(DiscreteDistribution)._set_arrays(
            domain, xs[r][keep[r]], ys[r][keep[r]], ps[r][keep[r]], "binary" if binary[r] else "real"
        )
        for r in range(q.shape[0])
    ]


def make_distribution(mu_x, source: SourceModel) -> DiscreteDistribution:
    """Exact joint law of (x, y) with x ~ mu_x and y from the source law."""
    domain = source.hypothesis.domain
    svals = source.real_values()
    if source.law != CUSTOM:
        return _law_rows(domain, svals[None], mu_x, source.law)[0]
    mu, support_x = _defined_support(mu_x, svals)
    atoms = []
    for x in support_x.tolist():
        law = source.conditionals.get(x)  # the conditional law of y at x as (y, q) pairs
        if law is None:
            raise ValueError(f"CUSTOM law missing conditionals for point {x}")
        mean = sum(y * q for y, q in law)
        if abs(sum(q for _, q in law) - 1.0) > MASS_TOL:
            raise ValueError(f"conditional law at {x} must sum to 1")
        if abs(mean - svals[x]) > MASS_TOL:
            raise ValueError(
                f"conditional mean at {x} is {mean}, expected s(x) = {svals[x]}"
            )
        atoms += [(x, float(y), float(mu[x]) * q) for y, q in law if q > 0]
    kind = "binary" if all(abs(y) == 1.0 for _, y, _ in atoms) else "real"
    return DiscreteDistribution(domain, atoms, kind)


# ---------------------------------------------------------------------------
# exact functionals
# ---------------------------------------------------------------------------


def _binary_values(h) -> np.ndarray:
    if isinstance(h, (BinaryHypothesis, BinaryModel)):
        return h.values
    raise TypeError(f"expected a binary hypothesis or model, got {type(h).__name__}")


def _real_values(h) -> np.ndarray:
    if isinstance(h, (BinaryHypothesis, BinaryModel, RealHypothesis, RealModel)):
        return _real_view(h.values)
    raise TypeError(f"expected a hypothesis or model, got {type(h).__name__}")


def _total_values(f) -> np.ndarray:
    """The real values of ``f``, which must be a total model (no *)."""
    vals = _real_values(f)
    if _star(vals).any():
        raise ValueError(f"expected a total model, got * values in {type(f).__name__}")
    return vals


# Row functionals score an (R, |support|) array of values gathered on
# ``dist.xs``, one value per row; the scalar functionals are the one-row case.


def _error_rows(rows: np.ndarray, dist: DiscreteDistribution) -> np.ndarray:
    """Pr[b(x) != y] per row of binary values, with * (0) counting as a mistake."""
    if dist.label_kind != "binary":
        raise ValueError("class_error requires a binary-label distribution")
    return np.where(rows != dist.ys.astype(np.int8), dist.ps, 0.0).sum(axis=1)


def _corr_rows(rows: np.ndarray, dist: DiscreteDistribution) -> np.ndarray:
    """E[y <> b(x)] per row of real values, NaN encoding * (* costs -|y|)."""
    return (dist.ps * gen_product_arr(dist.ys, rows)).sum(axis=1)


def _loss_rows(loss, rows: np.ndarray, dist: DiscreteDistribution) -> np.ndarray:
    """E[loss(y, b(x))] per row of real values, calling ``loss`` once per
    label in {-1, +1} and distinct value."""
    if dist.label_kind != "binary":
        raise ValueError("regression_loss requires a binary-label distribution")
    values, index = np.unique(rows, return_inverse=True)
    table = np.array([[loss(y, q) for q in values] for y in (-1.0, 1.0)])
    return (dist.ps * table[(dist.ys > 0).astype(np.intp), index.reshape(rows.shape)]).sum(axis=1)


def class_error(h, dist: DiscreteDistribution) -> float:
    """Pr[h(x) != y] with * counting as a mistake; binary-label law required."""
    return float(_error_rows(_binary_values(h)[None, dist.xs], dist)[0])


def correlation(f, dist: DiscreteDistribution) -> float:
    """E[y f(x)] for a total model."""
    return float(_corr_rows(_total_values(f)[None, dist.xs], dist)[0])


def corr_partial(b, dist: DiscreteDistribution) -> float:
    """E[y <> b(x)] with the generalized product (* costs -|y|)."""
    return float(_corr_rows(_real_values(b)[None, dist.xs], dist)[0])


def _level_sums(arr: np.ndarray, labels: np.ndarray):
    """Yield (level, arr summed over that level's points) by increasing level;
    ``labels`` gives each point's level, the last axis of ``arr`` the points."""
    for v in np.unique(labels):
        yield v, arr[..., labels == v].sum(axis=-1)


def _calibration_rows(f, rows: np.ndarray, dist: DiscreteDistribution, levels=None) -> float:
    """Max over rows b of the sum over levels of |E[(f - y) b; level]| minus
    E[|f - y|; level, b = *], for a total model ``f``: the sup over a sign per
    level of E[((f - y) sign) <> b], computed exactly.

    ``rows`` holds real values on ``dist.xs`` (NaN = *), one row per benchmark
    member; ``levels`` maps f's values on ``dist.xs`` to each point's level,
    and None means one level.
    """
    fx = _total_values(f)[dist.xs]
    if rows.shape[0] == 0:
        raise ValueError("benchmark class must be nonempty")
    res = fx - dist.ys
    star = _star(rows)
    terms = np.stack([dist.ps * res * np.where(star, 0.0, rows), dist.ps * np.abs(res) * star])
    if levels is None:
        level_terms = [terms.sum(axis=-1)]
    else:
        level_terms = [total for _, total in _level_sums(terms, levels(fx))]
    return float(sum(np.abs(defined) - starred for defined, starred in level_terms).max())


def ma_error(f, B, dist: DiscreteDistribution) -> float:
    """Multiaccuracy error: sup over b and sign of E[((f-y) sigma) <> b(x)];
    MC with one level."""
    return _calibration_rows(f, _real_view(B.matrix[:, dist.xs]), dist)


def mc_error(f, B, dist: DiscreteDistribution) -> float:
    """Multicalibration error over the model's own level sets.

    The sign is chosen per level inside the sum; the sup over members is
    outside.
    """
    return _calibration_rows(f, _real_view(B.matrix[:, dist.xs]), dist, lambda fx: fx)


def mc_error_lambda(
    f, B, dist: DiscreteDistribution, partition: IntervalPartition
) -> float:
    """Multicalibration error over a fixed interval partition of [-1, 1]."""
    return _calibration_rows(f, _real_view(B.matrix[:, dist.xs]), dist, partition.cell_indices)


def cal_error(f, dist: DiscreteDistribution) -> float:
    """Overall calibration error: sum over levels of |E[(y - f)1(f = v)]|;
    MC against the constant member +1."""
    return _calibration_rows(f, np.ones((1, dist.xs.size)), dist, lambda fx: fx)


def sign_cal_error(f, dist: DiscreteDistribution) -> float:
    """|E[(y - f(x)) sign(f(x))]|; MA against sign(f)."""
    return _calibration_rows(f, _real_view(sign_arr(_total_values(f)[dist.xs]))[None], dist)


def regression_loss(f, loss, dist: DiscreteDistribution) -> float:
    """E[loss(y, f(x))] for a binary-label distribution."""
    return float(_loss_rows(loss, _real_values(f)[None, dist.xs], dist)[0])


# ---------------------------------------------------------------------------
# dataset files: CSV body plus JSON sidecar
# ---------------------------------------------------------------------------


def save_dataset(data: Dataset, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("x_index,y\n")
        for x, y in zip(data.xs, data.ys):
            fh.write(f"{int(x)},{float(y)!r}\n")
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(data.meta or {}, fh, indent=2)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    xs, ys = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x_index,y":
            raise ConfigError(f"{path}: expected header 'x_index,y', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            sx, sy = line.split(",")
            xs.append(int(sx))
            ys.append(float(sy))
    meta = None
    try:
        with open(str(path) + ".meta.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    return Dataset(np.array(xs, dtype=np.int64), np.array(ys), meta)
