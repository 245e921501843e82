"""The machine's speed, measured by a fixed kernel timed between ops.

The 2-vCPU guest this benchmark was built on changes speed by up to 1.8x
within minutes, so a raw wall time says as much about the minute it was
taken in as about the program.  ``sample()``
times a fixed kernel that does not touch comparelearn: a pure-Python loop
over dicts and lists, many numpy calls on small arrays, and numpy work on a
256 x 256 int8 matrix, the three kinds of work the program does.  A time
measured between two samples is reported at the reference speed, at which
the kernel takes ``REF_MS``: ``raw * REF_MS / kernel_ms``.  A change to the
program moves the reported time as much as the raw one; a change of the
machine's speed moves both the op and the kernel and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed (about its median on a 2-vCPU
# Xeon guest, family 6 model 207, Python 3.11.7, numpy 2.4.6)
REF_MS = 3.0
REPS = 3

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.integers(-1, 2, size=(64, 16)).astype(np.int8)
_MEDIUM = _RNG.integers(-1, 2, size=(256, 256)).astype(np.int8)
_KEYS = [f"k{i}" for i in range(64)]


def _python() -> int:
    table: dict[str, list[int]] = {}
    total = 0
    for i in range(3000):
        key = _KEYS[i & 63]
        row = table.setdefault(key, [])
        row.append(i * 7 % 13)
        total += len(row) + (i ^ (i >> 3))
    return total


def _numpy_small() -> int:
    total = 0
    for i in range(150):
        row = _SMALL[i & 63]
        total += int((row == 1).sum()) + int(np.argmax(row * _SMALL[(i + 1) & 63]))
    return total


def _numpy_medium() -> int:
    a = _MEDIUM
    b = np.roll(a, 1, axis=1)
    agree = (a[:48, None, :] == b[None, :48, :]).sum(axis=2)
    return int(agree.max()) + int(np.unique(a[:, :8], axis=0).shape[0])


def kernel() -> int:
    return _python() + _numpy_small() + _numpy_medium()


def sample() -> float:
    """The kernel's time now, in ms: the least of ``REPS`` repetitions."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def at_reference(raw_s: float, before_ms: float, after_ms: float) -> float:
    """``raw_s`` measured between two samples, at the reference speed."""
    return raw_s * REF_MS * 2.0 / (before_ms + after_ms)
