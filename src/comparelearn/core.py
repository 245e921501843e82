"""Finite domains, partial hypotheses, hypothesis classes, and label transforms.

Everything here is finite and explicit: a domain is a set of indexed
individuals, a hypothesis is a dense label array over the domain, and a class
is a deduplicated list of hypotheses.  Binary labels live in {-1, +1, *} and
real labels in [-1, 1] or *, where * is the undefined label (it counts as a
mistake against any true label).  Binary label arrays are stored as int8 with
0 encoding *, real label arrays as float64 with NaN encoding *; code reads *
only through ``_star`` and ``_real_view``.

All objects are immutable after construction and all operations are pure.
Hypotheses, models and classes are equal when they are of the same type over
the same domain size with the same label bytes.
"""

from __future__ import annotations

import functools
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


def _is_int(value) -> bool:
    """Is ``value`` a JSON integer (a bool is not one)?"""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_margin(value, name: str = "eta") -> None:
    """Refuse a negative margin or radius, and NaN, which fails every comparison."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Domain:
    """A finite set of individuals addressed by index 0..size-1."""

    size: int

    def __post_init__(self):
        if not _is_int(self.size) or self.size < 1:
            raise ValueError(f"domain size must be a positive integer, got {self.size!r}")


def _encode_binary(labels, size: int) -> np.ndarray:
    out = np.empty(size, dtype=np.int8)
    labels = list(labels)
    if len(labels) != size:
        raise ValueError(f"expected {size} labels, got {len(labels)}")
    for i, lab in enumerate(labels):
        if lab is STAR or lab == "*":
            out[i] = 0
        elif not isinstance(lab, bool) and lab in (-1, 1):  # JSON true is not +1
            out[i] = int(lab)
        else:
            raise ValueError(f"binary label must be -1, +1 or *, got {lab!r}")
    return out


def _json_float(value, what: str) -> float:
    """A JSON number as a float: ValueError for a bool, a non-number or an int past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what}, got an integer too large for a float") from None


def _encode_real(labels, size: int) -> np.ndarray:
    out = np.empty(size, dtype=np.float64)
    labels = list(labels)
    if len(labels) != size:
        raise ValueError(f"expected {size} labels, got {len(labels)}")
    for i, lab in enumerate(labels):
        if lab is STAR or (isinstance(lab, str) and lab == "*"):
            out[i] = np.nan
        else:
            v = _json_float(lab, "real label must be a number or *")
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


def _star(arr: np.ndarray) -> np.ndarray:
    """Elementwise: is the label the undefined label * (int8 0, float NaN)?"""
    return arr == 0 if arr.dtype == np.int8 else np.isnan(arr)


def _real_view(arr: np.ndarray) -> np.ndarray:
    """Labels as float64: int8 +-1 with * (0) read as NaN; a float array as is."""
    return np.where(_star(arr), np.nan, arr) if arr.dtype == np.int8 else arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.cache
def _slot_names(cls) -> tuple[str, ...]:
    """Every slot of ``cls``, base classes first."""
    return tuple(name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()))


def _from_slots(cls, values):
    """A ``cls`` whose slots hold ``values`` in order (the unpickling path)."""
    return object.__new__(cls)._fill(*values)


class _Immutable:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fill(self, *values):
        """Set the slots to ``values`` in order, freezing arrays; returns ``self``."""
        for name, value in zip(_slot_names(type(self)), values, strict=True):
            object.__setattr__(self, name, _freeze(value) if isinstance(value, np.ndarray) else value)
        return self

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in _slot_names(type(self)))

    def _key(self) -> tuple:
        """The slot values with each array read as its bytes."""
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in self._slot_values())

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __reduce__(self):
        return _from_slots, (type(self), self._slot_values())

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class _Labeling(_Immutable):
    """A label array over a domain; ``_validated(values, size)`` returns a fresh copy."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, values):
        arr = self._validated(values, domain.size)
        if arr.shape != (domain.size,):
            raise ValueError(self._length_error)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _freeze(arr))


class _Hypothesis(_Labeling):
    __slots__ = ()

    _length_error = "label array length must equal domain size"

    def label(self, x: int):
        v = self.values[x]
        return STAR if _star(v) else v.item()

    def labels(self) -> list:
        return [self.label(x) for x in range(self.domain.size)]

    @property
    def is_total(self) -> bool:
        return not _star(self.values).any()

    def __repr__(self):
        return f"{type(self).__name__}({self.labels()})"


class BinaryHypothesis(_Hypothesis):
    """A partial binary labeling of a domain; values in {-1, +1, *}."""

    __slots__ = ()

    @staticmethod
    def _validated(labels, size):
        if isinstance(labels, np.ndarray) and labels.dtype == np.int8:
            return BinaryClass._validated(labels)
        return _encode_binary(labels, size)


class RealHypothesis(_Hypothesis):
    """A partial real-valued labeling; values in [-1, 1] or * (stored as NaN)."""

    __slots__ = ()

    @staticmethod
    def _validated(labels, size):
        if isinstance(labels, np.ndarray) and labels.dtype == np.float64:
            return RealClass._validated(labels)
        return _encode_real(labels, size)


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

    def __len__(self):
        return self.matrix.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.matrix.shape[0] == 0

    def member(self, i: int):
        return self._hyp_type(self.domain, self.matrix[i])

    def members(self):
        return [self.member(i) for i in range(len(self))]

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
        if (np.abs(matrix) > 1.0).any():  # * (NaN) compares false
            raise ValueError("real labels must lie in [-1, 1]")
        matrix += 0.0  # normalize -0.0
        matrix[_star(matrix)] = np.nan
        return matrix


class _Model(_Labeling):
    __slots__ = ()

    _length_error = "model values length must equal domain size"

    @classmethod
    def constant(cls, domain: Domain, value):
        return cls(domain, np.full(domain.size, value))

    def __call__(self, x: int):
        return self.values[x].item()

    def __repr__(self):
        return f"{type(self).__name__}({self.values.tolist()})"


class BinaryModel(_Model):
    """A total binary predictor X -> {-1, +1}."""

    __slots__ = ()

    @staticmethod
    def _validated(values, size):
        """An int8 copy, checked before the cast so nothing wraps."""
        arr = np.asarray(values)
        if not _is_binary(arr).all():
            raise ValueError("binary model values must be -1 or +1 (total)")
        return arr.astype(np.int8)


class RealModel(_Model):
    """A total real-valued predictor X -> [-1, 1]."""

    __slots__ = ()

    @staticmethod
    def _validated(values, size):
        arr = np.asarray(values, dtype=np.float64) + 0.0
        if np.isnan(arr).any() or (np.abs(arr) > 1.0).any():
            raise ValueError("real model values must lie in [-1, 1] (total)")
        return arr


def as_real_class(H: BinaryClass | RealClass) -> RealClass:
    """View a binary class as a real-valued one."""
    if isinstance(H, RealClass):
        return H
    return RealClass(H.domain, _real_view(H.matrix), dedup=False)


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
        if not _is_int(self.k) or self.k < 1:
            raise ValueError("partition size k must be a positive integer")

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
# elementwise operations
# ---------------------------------------------------------------------------


def sign_arr(arr: np.ndarray) -> np.ndarray:
    """+1 where u >= 0, else -1."""
    return np.where(np.asarray(arr) >= 0, 1, -1).astype(np.int8)


def gen_product_arr(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Generalized product: u1*u2 for defined u2, -|u1| where u2 is * (NaN).

    The * case is the worst completion: inf over v in [-1,1] of u1*v.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    star = np.isnan(u2)
    out = np.where(star, -np.abs(u1), u1 * np.where(star, 0.0, u2))
    return out


def proj_interval_arr(arr: np.ndarray) -> np.ndarray:
    """Projection of u into [-1, 1]."""
    return np.clip(arr, -1.0, 1.0)


def pi_proj_arr(y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Projection of u into [0, y] (or [y, 0] when y < 0)."""
    y = np.asarray(y, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    lo = np.minimum(0.0, y)
    hi = np.maximum(0.0, y)
    return np.clip(u, lo, hi)


def chi_arr(sigma, partition: IntervalPartition, arr: np.ndarray) -> np.ndarray:
    """sigma_j for the unique partition cell j containing each u."""
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
        vals.add(max(-1.0, min(1.0, j * eta1)))
    out = np.array(sorted(vals), dtype=np.float64)
    assert out.size <= math.ceil(2.0 / eta1) + 1
    return out


# ---------------------------------------------------------------------------
# hypothesis and class transforms
# ---------------------------------------------------------------------------


def _binarize_matrix(matrix: np.ndarray, eta: float, r: np.ndarray) -> np.ndarray:
    """+1 above r + eta, -1 below r - eta, else 0 (*), at the shape of matrix and r broadcast."""
    out = np.zeros(np.broadcast_shapes(matrix.shape, np.shape(r)), dtype=np.int8)
    with np.errstate(invalid="ignore"):
        out[matrix > r + eta] = 1
        out[matrix < r - eta] = -1
    return out


def binarize_class(H: RealClass, eta: float, r) -> BinaryClass:
    """The class {h_eta^r}: +1 above r+eta, -1 below r-eta, * between, deduplicated.

    Comparisons are strict; h(x)=* (and any |h(x)-r(x)| <= eta) maps to *.
    ``r`` may be a scalar theta (the constant-reference convenience H_eta^theta)
    or a per-point array.
    """
    _check_margin(eta)
    if np.isscalar(r):
        ref = np.full(H.domain.size, float(r))
    else:
        ref = np.asarray(r, dtype=np.float64)
        if ref.shape != (H.domain.size,):
            raise ValueError("reference function must be a scalar or a per-point array")
    return BinaryClass(H.domain, _binarize_matrix(H.matrix, eta, ref))


def _agreement_matrix(ms: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """All pairwise agreements of rows of ms with rows of mb (with duplicates).

    Row i * len(mb) + j is a_{ms[i], mb[j]}; where both rows are * the kept
    value is * already, so equality alone decides.
    """
    out = np.where(ms[:, None, :] == mb[None, :, :], ms[:, None, :], _BINARY_STAR)
    return out.astype(np.int8, copy=False).reshape(ms.shape[0] * mb.shape[0], ms.shape[1])


def agreement_class(S: BinaryClass, B: BinaryClass) -> BinaryClass:
    """All pairwise agreement hypotheses a_{s,b}, deduplicated.

    a_{s,b}(x) is the shared label where s(x) = b(x) in {-1, +1}, else *.
    """
    if S.domain.size != B.domain.size:
        raise ValueError("classes must share a domain")
    return BinaryClass(S.domain, _agreement_matrix(S.matrix, B.matrix))


def multi_agreement_class(classes: Sequence[BinaryClass]) -> BinaryClass:
    """Agreement class of a collection: label y at x iff every member labels x with y."""
    classes = list(classes)
    if not classes:
        raise ValueError("at least one class is required")
    acc = BinaryClass(classes[0].domain, classes[0].matrix)
    for c in classes[1:]:
        acc = agreement_class(acc, c)
    return acc


def shift_scale_class(S: RealClass, f: RealModel) -> RealClass:
    """The class (S - f)/2: member x-values (s(x)-f(x))/2, with * passed through."""
    if S.domain.size != f.domain.size:
        raise ValueError("class and model must share a domain")
    matrix = (S.matrix - f.values[None, :]) / 2.0
    assert not (np.abs(matrix) > 1.0 + 1e-15).any()  # * (NaN) compares false
    return RealClass(S.domain, np.clip(matrix, -1.0, 1.0))  # clip keeps NaN


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


def _row_to_json(row: np.ndarray) -> list:
    return ["*" if star else v for v, star in zip(row.tolist(), _star(row).tolist())]


def _domain_from_json(data) -> Domain:
    """The domain of a class, model or distribution file: a positive int size."""
    size = data["domain"]["size"]
    if not _is_int(size) or size < 1:
        raise ConfigError(f"domain size must be a positive integer, got {size!r}")
    return Domain(size)


def class_to_json(H: BinaryClass | RealClass) -> dict:
    return {
        "domain": {"size": H.domain.size},
        "kind": "binary" if isinstance(H, BinaryClass) else "real",
        "members": [_row_to_json(row) for row in H.matrix],
    }


def _labels_from_json(data, what: str) -> tuple[Domain, str, np.ndarray]:
    """The domain, kind and encoded label rows of a class or model file.

    A class file's rows are its ``members``; a model file's ``values`` is its
    one row.  Without ``kind``, a file is binary when every label is "*" or a
    JSON integer -1/+1, and real otherwise.
    """
    field = "members" if what == "class" else "values"
    try:
        domain = _domain_from_json(data)
        rows = data[field]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid {what} JSON: {exc}") from exc
    if what == "model":
        if not isinstance(rows, list):
            raise ConfigError("model values must be a list of labels")
        rows = [rows]
    elif not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigError("class members must be a list of label lists")
    kind = data.get("kind")
    if kind is None:
        binary = all(lab == "*" or (_is_int(lab) and lab in (-1, 1)) for row in rows for lab in row)
        kind = "binary" if binary else "real"
    if kind not in ("binary", "real"):
        raise ConfigError(f"unknown {what} kind {kind!r}")
    encode = _encode_binary if kind == "binary" else _encode_real
    try:
        matrix = np.array([encode(row, domain.size) for row in rows]).reshape(len(rows), domain.size)
    except ValueError as exc:
        if what == "class":
            raise
        raise ValueError(f"{kind} model values: {exc}") from exc
    return domain, kind, matrix


def class_from_json(data: dict) -> BinaryClass | RealClass:
    domain, kind, matrix = _labels_from_json(data, "class")
    return (BinaryClass if kind == "binary" else RealClass)(domain, matrix)


def model_to_json(f: BinaryModel | RealModel, provenance: dict | None = None) -> dict:
    out = {
        "domain": {"size": f.domain.size},
        "kind": "binary" if isinstance(f, BinaryModel) else "real",
        "values": f.values.tolist(),
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def model_from_json(data: dict) -> BinaryModel | RealModel:
    """Read a model file: its values are read as the one label row of a class file."""
    domain, kind, matrix = _labels_from_json(data, "model")
    return (BinaryModel if kind == "binary" else RealModel)(domain, matrix[0])


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
