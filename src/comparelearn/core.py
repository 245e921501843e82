"""Finite domains, partial hypotheses, hypothesis classes, and label transforms.

Everything here is finite and explicit: a domain is a set of indexed
individuals, a hypothesis is a dense label array over the domain, and a class
is a deduplicated list of hypotheses.  Binary labels live in {-1, +1, *} and
real labels in [-1, 1] or *, where * is the undefined label (it counts as a
mistake against any true label).  Binary label arrays are stored as int8 with
0 encoding *, real label arrays as float64 with NaN encoding *.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class GuardError(ToolkitError):
    """A hard size/enumeration guard was exceeded."""


class ConfigError(ToolkitError):
    """Invalid user-supplied configuration or file content."""


class NoConsistentHypothesisError(ToolkitError):
    """Realizable ERM found no member consistent with the data."""


class EnumerationCapError(GuardError):
    """An enumeration would exceed its configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration of {count} candidates exceeds cap {cap}")
        self.count = count
        self.cap = cap


class GVConstructionError(ToolkitError):
    """The randomized packing construction hit its retry cap."""


class _Star:
    """Singleton sentinel for the undefined label."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


STAR = _Star()

_BINARY_STAR = np.int8(0)


@dataclass(frozen=True)
class Domain:
    """A finite set of individuals addressed by index 0..size-1."""

    size: int
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"domain size must be a positive integer, got {self.size!r}")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != self.size:
                raise ValueError("names length must equal domain size")


def _encode_binary(labels, size: int) -> np.ndarray:
    out = np.empty(size, dtype=np.int8)
    labels = list(labels)
    if len(labels) != size:
        raise ValueError(f"expected {size} labels, got {len(labels)}")
    for i, lab in enumerate(labels):
        if lab is STAR or lab == "*":
            out[i] = 0
        elif lab in (-1, 1):
            out[i] = int(lab)
        else:
            raise ValueError(f"binary label must be -1, +1 or *, got {lab!r}")
    return out


def _encode_real(labels, size: int) -> np.ndarray:
    out = np.empty(size, dtype=np.float64)
    labels = list(labels)
    if len(labels) != size:
        raise ValueError(f"expected {size} labels, got {len(labels)}")
    for i, lab in enumerate(labels):
        if lab is STAR or (isinstance(lab, str) and lab == "*"):
            out[i] = np.nan
        else:
            v = float(lab)
            if math.isnan(v):
                out[i] = np.nan
            elif -1.0 <= v <= 1.0:
                out[i] = v + 0.0  # normalizes -0.0 to 0.0
            else:
                raise ValueError(f"real label must lie in [-1, 1], got {v!r}")
    return out


def _is_binary(arr: np.ndarray, star: bool = False) -> np.ndarray:
    """Elementwise: is the label -1 or +1 (or 0, the *, when ``star``)?"""
    ok = (arr == -1) | (arr == 1)
    return ok | (arr == 0) if star else ok


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Immutable:
    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class BinaryHypothesis(_Immutable):
    """A partial binary labeling of a domain; values in {-1, +1, *}."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, labels):
        if isinstance(labels, np.ndarray) and labels.dtype == np.int8:
            arr = labels.copy()
            if arr.shape != (domain.size,):
                raise ValueError("label array length must equal domain size")
            if not _is_binary(arr, star=True).all():
                raise ValueError("binary labels must be -1, +1 or *")
        else:
            arr = _encode_binary(labels, domain.size)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _freeze(arr))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryHypothesis is immutable")

    def label(self, x: int):
        v = int(self.values[x])
        return STAR if v == 0 else v

    def labels(self) -> list:
        return [self.label(x) for x in range(self.domain.size)]

    @property
    def is_total(self) -> bool:
        return bool((self.values != 0).all())

    def __eq__(self, other):
        return (
            isinstance(other, BinaryHypothesis)
            and self.domain.size == other.domain.size
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash((self.domain.size, self.values.tobytes()))

    def __repr__(self):
        return f"BinaryHypothesis({self.labels()})"


class RealHypothesis(_Immutable):
    """A partial real-valued labeling; values in [-1, 1] or * (stored as NaN)."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, labels):
        if isinstance(labels, np.ndarray) and labels.dtype == np.float64:
            arr = labels + 0.0
            if arr.shape != (domain.size,):
                raise ValueError("label array length must equal domain size")
            defined = ~np.isnan(arr)
            if defined.any() and (np.abs(arr[defined]) > 1.0).any():
                raise ValueError("real labels must lie in [-1, 1]")
            arr[~defined] = np.nan
        else:
            arr = _encode_real(labels, domain.size)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _freeze(arr))

    def __setattr__(self, name, value):
        raise AttributeError("RealHypothesis is immutable")

    def label(self, x: int):
        v = float(self.values[x])
        return STAR if math.isnan(v) else v

    def labels(self) -> list:
        return [self.label(x) for x in range(self.domain.size)]

    @property
    def is_total(self) -> bool:
        return not np.isnan(self.values).any()

    def __eq__(self, other):
        return (
            isinstance(other, RealHypothesis)
            and self.domain.size == other.domain.size
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash((self.domain.size, self.values.tobytes()))

    def __repr__(self):
        return f"RealHypothesis({self.labels()})"


def _dedup_rows(matrix: np.ndarray) -> np.ndarray:
    """Drop duplicate rows keeping first occurrences, by exact byte equality.

    Returns ``matrix`` itself when no row is dropped.  Rows are compared as
    opaque byte strings, so NaN rows with the same bits merge.
    """
    if matrix.shape[0] < 2:
        return matrix
    rows = np.ascontiguousarray(matrix)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    if first.size == matrix.shape[0]:
        return matrix
    return matrix[np.sort(first)]


class _BaseClass(_Immutable):
    __slots__ = ("domain", "matrix")

    _hyp_type: type

    def __init__(self, domain: Domain, members, dedup: bool = True):
        if isinstance(members, np.ndarray):
            matrix = members
        else:
            rows = []
            for m in members:
                if isinstance(m, self._hyp_type):
                    if m.domain.size != domain.size:
                        raise ValueError("all members must share the domain")
                    rows.append(m.values)
                else:
                    rows.append(self._hyp_type(domain, m).values)
            matrix = np.stack(rows) if rows else np.empty((0, domain.size))
        if matrix.ndim != 2 or matrix.shape[1] != domain.size:
            raise ValueError("member matrix must be (n_members, domain.size)")
        matrix = self._validated(matrix)
        if dedup:
            matrix = _dedup_rows(matrix)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "matrix", _freeze(matrix))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.matrix.shape[0] == 0

    def member(self, i: int):
        return self._hyp_type(self.domain, self.matrix[i])

    def members(self):
        return [self.member(i) for i in range(len(self))]

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.domain.size == other.domain.size
            and self.matrix.tobytes() == other.matrix.tobytes()
        )

    def __hash__(self):
        return hash((type(self).__name__, self.domain.size, self.matrix.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(|X|={self.domain.size}, members={len(self)})"


class BinaryClass(_BaseClass):
    """A deduplicated finite set of partial binary hypotheses."""

    _hyp_type = BinaryHypothesis

    @staticmethod
    def _validated(matrix):
        """A C-ordered int8 copy, checked before the cast so nothing wraps."""
        if not _is_binary(matrix, star=True).all():
            raise ValueError("binary labels must be -1, +1 or *")
        return np.array(matrix, dtype=np.int8, order="C")


class RealClass(_BaseClass):
    """A deduplicated finite set of partial real-valued hypotheses."""

    _hyp_type = RealHypothesis

    @staticmethod
    def _validated(matrix):
        """A C-ordered float64 copy with -0.0 and every NaN normalized."""
        matrix = np.array(matrix, dtype=np.float64, order="C")
        matrix += 0.0  # normalize -0.0
        defined = ~np.isnan(matrix)
        if defined.any() and (np.abs(matrix[defined]) > 1.0).any():
            raise ValueError("real labels must lie in [-1, 1]")
        matrix[~defined] = np.nan
        return matrix


class BinaryModel(_Immutable):
    """A total binary predictor X -> {-1, +1}."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, values):
        arr = np.asarray(values)
        if arr.shape != (domain.size,):
            raise ValueError("model values length must equal domain size")
        if not _is_binary(arr).all():
            raise ValueError("binary model values must be -1 or +1 (total)")
        arr = arr.astype(np.int8)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _freeze(arr))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryModel is immutable")

    @classmethod
    def constant(cls, domain: Domain, value: int) -> "BinaryModel":
        return cls(domain, np.full(domain.size, value, dtype=np.int8))

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other):
        return (
            isinstance(other, BinaryModel)
            and self.domain.size == other.domain.size
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash(("BinaryModel", self.domain.size, self.values.tobytes()))

    def __repr__(self):
        return f"BinaryModel({list(map(int, self.values))})"


class RealModel(_Immutable):
    """A total real-valued predictor X -> [-1, 1]."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, values):
        arr = np.asarray(values, dtype=np.float64) + 0.0
        if arr.shape != (domain.size,):
            raise ValueError("model values length must equal domain size")
        if np.isnan(arr).any() or (np.abs(arr) > 1.0).any():
            raise ValueError("real model values must lie in [-1, 1] (total)")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _freeze(arr))

    def __setattr__(self, name, value):
        raise AttributeError("RealModel is immutable")

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "RealModel":
        return cls(domain, np.full(domain.size, float(value)))

    def __call__(self, x: int) -> float:
        return float(self.values[x])

    def __eq__(self, other):
        return (
            isinstance(other, RealModel)
            and self.domain.size == other.domain.size
            and self.values.tobytes() == other.values.tobytes()
        )

    def __hash__(self):
        return hash(("RealModel", self.domain.size, self.values.tobytes()))

    def __repr__(self):
        return f"RealModel({list(map(float, self.values))})"


def as_real_hypothesis(h: BinaryHypothesis | RealHypothesis) -> RealHypothesis:
    """View a binary hypothesis as a real-valued one (+-1 values, * kept)."""
    if isinstance(h, RealHypothesis):
        return h
    vals = h.values.astype(np.float64)
    vals[h.values == 0] = np.nan
    return RealHypothesis(h.domain, vals)


def as_real_class(H: BinaryClass | RealClass) -> RealClass:
    """View a binary class as a real-valued one."""
    if isinstance(H, RealClass):
        return H
    vals = H.matrix.astype(np.float64)
    vals[H.matrix == 0] = np.nan
    return RealClass(H.domain, vals, dedup=False)


# ---------------------------------------------------------------------------
# interval partitions and sign vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of [-1, 1] into k cells.

    Cell 1 is [-1, -1 + 2/k]; cell i is (-1 + (2i-2)/k, -1 + 2i/k] for
    i = 2..k.  Every u in [-1, 1] belongs to exactly one cell.  Cell indices
    returned by this class are 0-based.
    """

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("partition size k must be a positive integer")

    def cell_index(self, u: float) -> int:
        if not -1.0 <= u <= 1.0:
            raise ValueError(f"u must lie in [-1, 1], got {u!r}")
        j = math.ceil((u + 1.0) * self.k / 2.0)
        return min(max(j, 1), self.k) - 1

    def cell_indices(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.float64)
        if not (np.abs(arr) <= 1.0).all():  # NaN (*) fails too
            raise ValueError("values must lie in [-1, 1]")
        j = np.ceil((arr + 1.0) * self.k / 2.0).astype(np.int64)
        return np.clip(j, 1, self.k) - 1

    def midpoint(self, i: int) -> float:
        """Midpoint of 0-based cell i: -1 + (2(i+1) - 1)/k."""
        if not 0 <= i < self.k:
            raise ValueError("cell index out of range")
        return -1.0 + (2 * (i + 1) - 1) / self.k

    @property
    def breakpoints(self) -> np.ndarray:
        return -1.0 + 2.0 * np.arange(self.k + 1) / self.k


def validate_sign_vector(sigma, k: int) -> np.ndarray:
    arr = np.asarray(sigma)
    if arr.shape != (k,):
        raise ValueError(f"sign vector must have length {k}")
    if not _is_binary(arr).all():
        raise ValueError("sign vector entries must be -1 or +1")
    return arr.astype(np.int8)


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------


def sign(u: float) -> int:
    """+1 if u >= 0, else -1."""
    return 1 if u >= 0 else -1


def sign_arr(arr: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(arr) >= 0, 1, -1).astype(np.int8)


def gen_product(u1: float, u2) -> float:
    """Generalized product: u1*u2 for defined u2, -|u1| when u2 is *.

    The * case is the worst completion: inf over v in [-1,1] of u1*v.
    """
    if u2 is STAR or (isinstance(u2, float) and math.isnan(u2)):
        return -abs(u1)
    return u1 * u2


def gen_product_arr(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorized generalized product; NaN in ``u2`` encodes *."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    star = np.isnan(u2)
    out = np.where(star, -np.abs(u1), u1 * np.where(star, 0.0, u2))
    return out


def proj_interval(u: float) -> float:
    """Projection of u into [-1, 1]."""
    return max(-1.0, min(1.0, u))


def proj_interval_arr(arr: np.ndarray) -> np.ndarray:
    return np.clip(arr, -1.0, 1.0)


def pi_proj(y: float, u: float) -> float:
    """Projection of u into [0, y] (or [y, 0] when y < 0)."""
    lo, hi = min(0.0, y), max(0.0, y)
    if u < lo:
        return lo
    if u > hi:
        return hi
    return u


def pi_proj_arr(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    lo = np.minimum(0.0, y)
    hi = np.maximum(0.0, y)
    return np.clip(u, lo, hi)


def chi(sigma, partition: IntervalPartition, u: float) -> int:
    """sigma_j for the unique partition cell containing u."""
    arr = validate_sign_vector(sigma, partition.k)
    return int(arr[partition.cell_index(u)])


def chi_arr(sigma, partition: IntervalPartition, arr: np.ndarray) -> np.ndarray:
    sig = validate_sign_vector(sigma, partition.k)
    return sig[partition.cell_indices(arr)]


def discretize_labels(eta1: float) -> np.ndarray:
    """Finite label grid: integer multiples of eta1 clipped to [-1, 1], plus 0.

    Contains 0, covers [-1, 1] within eta1, and has at most ceil(2/eta1) + 1
    points.
    """
    if not 0.0 < eta1 < 1.0:
        raise ValueError("eta1 must lie in (0, 1)")
    m = int(math.floor((1.0 + 1e-12) / eta1))
    vals = {0.0}
    for j in range(-m, m + 1):
        vals.add(proj_interval(j * eta1))
    out = np.array(sorted(vals), dtype=np.float64)
    assert out.size <= math.ceil(2.0 / eta1) + 1
    return out


# ---------------------------------------------------------------------------
# hypothesis and class transforms
# ---------------------------------------------------------------------------


def _reference_array(r, size: int) -> np.ndarray:
    if np.isscalar(r):
        return np.full(size, float(r))
    arr = np.asarray(r, dtype=np.float64)
    if arr.shape != (size,):
        raise ValueError("reference function must be a scalar or a per-point array")
    return arr


def _binarize_matrix(matrix: np.ndarray, eta: float, r: np.ndarray) -> np.ndarray:
    """+1 above r + eta, -1 below r - eta, else 0 (*), at the shape of matrix and r broadcast."""
    out = np.zeros(np.broadcast_shapes(matrix.shape, np.shape(r)), dtype=np.int8)
    with np.errstate(invalid="ignore"):
        out[matrix > r + eta] = 1
        out[matrix < r - eta] = -1
    return out


def binarize_hypothesis(h: RealHypothesis, eta: float, r) -> BinaryHypothesis:
    """The binary hypothesis h_eta^r: +1 above r+eta, -1 below r-eta, * between.

    Comparisons are strict; h(x)=* (and any |h(x)-r(x)| <= eta) maps to *.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    ref = _reference_array(r, h.domain.size)
    vals = _binarize_matrix(h.values[None, :], eta, ref)[0]
    return BinaryHypothesis(h.domain, vals)


def binarize_class(H: RealClass, eta: float, r) -> BinaryClass:
    """Apply binarize_hypothesis to every member and deduplicate.

    ``r`` may be a scalar theta (the constant-reference convenience H_eta^theta)
    or a per-point array.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    ref = _reference_array(r, H.domain.size)
    return BinaryClass(H.domain, _binarize_matrix(H.matrix, eta, ref))


def agreement(s: BinaryHypothesis, b: BinaryHypothesis) -> BinaryHypothesis:
    """The agreement hypothesis: the shared label where s(x)=b(x) in {-1,+1}, else *."""
    if s.domain.size != b.domain.size:
        raise ValueError("hypotheses must share a domain")
    out = np.where((s.values == b.values) & (s.values != 0), s.values, _BINARY_STAR)
    return BinaryHypothesis(s.domain, out.astype(np.int8))


def _agreement_matrix(ms: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """All pairwise agreements of rows of ms with rows of mb (with duplicates)."""
    blocks = []
    for i in range(ms.shape[0]):
        row = ms[i]
        eq = (mb == row) & (row != 0)
        blocks.append(np.where(eq, row, _BINARY_STAR).astype(np.int8))
    if not blocks:
        return np.empty((0, ms.shape[1]), dtype=np.int8)
    return np.concatenate(blocks, axis=0)


def agreement_class(S: BinaryClass, B: BinaryClass) -> BinaryClass:
    """All pairwise agreement hypotheses a_{s,b}, deduplicated."""
    if S.domain.size != B.domain.size:
        raise ValueError("classes must share a domain")
    return BinaryClass(S.domain, _agreement_matrix(S.matrix, B.matrix))


def multi_agreement_class(classes: Sequence[BinaryClass]) -> BinaryClass:
    """Agreement class of a collection: label y at x iff every member labels x with y."""
    classes = list(classes)
    if not classes:
        raise ValueError("at least one class is required")
    domain = classes[0].domain
    for c in classes[1:]:
        if c.domain.size != domain.size:
            raise ValueError("classes must share a domain")
    acc = _dedup_rows(classes[0].matrix)
    for c in classes[1:]:
        acc = _dedup_rows(_agreement_matrix(acc, c.matrix))
    return BinaryClass(domain, acc)


def shift_scale_class(S: RealClass, f: RealModel) -> RealClass:
    """The class (S - f)/2: member x-values (s(x)-f(x))/2, with * passed through."""
    if S.domain.size != f.domain.size:
        raise ValueError("class and model must share a domain")
    matrix = (S.matrix - f.values[None, :]) / 2.0
    defined = ~np.isnan(matrix)
    if defined.any():
        assert (np.abs(matrix[defined]) <= 1.0 + 1e-15).all()
        matrix = np.clip(matrix, -1.0, 1.0)
        matrix[~defined] = np.nan
    return RealClass(S.domain, matrix)


def sigma_mask_class(
    B: RealClass, sigma, f: RealModel, partition: IntervalPartition
) -> RealClass:
    """The class B_{sigma,f}: member x-values chi_sigma(f(x)) * b(x), * preserved."""
    if B.domain.size != f.domain.size:
        raise ValueError("class and model must share a domain")
    mask = chi_arr(sigma, partition, f.values).astype(np.float64)
    return RealClass(B.domain, B.matrix * mask[None, :])


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _label_to_json(v, binary: bool):
    if binary:
        v = int(v)
        return "*" if v == 0 else v
    v = float(v)
    return "*" if math.isnan(v) else v


def _row_to_json(row: np.ndarray, binary: bool) -> list:
    return [_label_to_json(v, binary) for v in row]


def class_to_json(H: BinaryClass | RealClass) -> dict:
    binary = isinstance(H, BinaryClass)
    return {
        "domain": {"size": H.domain.size},
        "kind": "binary" if binary else "real",
        "members": [_row_to_json(H.matrix[i], binary) for i in range(len(H))],
    }


def class_from_json(data: dict) -> BinaryClass | RealClass:
    try:
        domain = Domain(int(data["domain"]["size"]))
        members = data["members"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid class JSON: {exc}") from exc
    kind = data.get("kind")
    if kind is None:
        binary = all(
            lab == "*" or (isinstance(lab, int) and lab in (-1, 1))
            for row in members
            for lab in row
        )
        kind = "binary" if binary else "real"
    if kind == "binary":
        return BinaryClass(domain, [_encode_binary(row, domain.size) for row in members])
    if kind == "real":
        return RealClass(domain, [_encode_real(row, domain.size) for row in members])
    raise ConfigError(f"unknown class kind {kind!r}")


def model_to_json(f: BinaryModel | RealModel, provenance: dict | None = None) -> dict:
    binary = isinstance(f, BinaryModel)
    out = {
        "domain": {"size": f.domain.size},
        "kind": "binary" if binary else "real",
        "values": [int(v) if binary else float(v) for v in f.values],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def model_from_json(data: dict) -> BinaryModel | RealModel:
    try:
        domain = Domain(int(data["domain"]["size"]))
        values = data["values"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid model JSON: {exc}") from exc
    kind = data.get("kind")
    if kind is None:
        kind = "binary" if all(isinstance(v, int) for v in values) else "real"
    if kind == "binary":
        return BinaryModel(domain, values)
    if kind == "real":
        return RealModel(domain, values)
    raise ConfigError(f"unknown model kind {kind!r}")


def load_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
