"""Shared generators for random domains, classes, and distributions."""

import numpy as np
import pytest

from comparelearn import (
    BinaryClass,
    BinaryHypothesis,
    BinaryModel,
    Domain,
    RealClass,
    RealModel,
    rng_stream,
)
from comparelearn.stat_model import DiscreteDistribution


def random_binary_class(rng, n_points, n_members, star_prob=0.2):
    vals = rng.choice([-1, 0, 1], size=(n_members, n_points), p=[
        (1 - star_prob) / 2, star_prob, (1 - star_prob) / 2])
    return BinaryClass(Domain(n_points), vals.astype(np.int8))


def random_real_class(rng, n_points, n_members, grid=None, star_prob=0.15):
    if grid is None:
        grid = np.linspace(-1, 1, 9)
    vals = rng.choice(grid, size=(n_members, n_points)).astype(np.float64)
    stars = rng.random((n_members, n_points)) < star_prob
    vals[stars] = np.nan
    return RealClass(Domain(n_points), vals)


def random_total_real_class(rng, n_points, n_members, grid=None):
    return random_real_class(rng, n_points, n_members, grid=grid, star_prob=0.0)


def random_real_model(rng, n_points, grid=None):
    if grid is None:
        grid = np.linspace(-1, 1, 9)
    return RealModel(Domain(n_points), rng.choice(grid, size=n_points))


def random_binary_model(rng, n_points):
    return BinaryModel(Domain(n_points), rng.choice([-1, 1], size=n_points).astype(np.int8))


def random_binary_distribution(rng, n_points, n_atoms=None):
    """Random joint law over (x, y) with labels in {-1, +1} and dyadic-ish masses."""
    n_atoms = n_atoms or max(2, n_points)
    xs = rng.integers(0, n_points, size=n_atoms)
    ys = rng.choice([-1.0, 1.0], size=n_atoms)
    w = rng.integers(1, 8, size=n_atoms).astype(np.float64)
    ps = w / w.sum()
    return DiscreteDistribution(Domain(n_points), list(zip(xs, ys, ps)), "binary")


def random_real_distribution(rng, n_points, n_atoms=None, grid=None):
    if grid is None:
        grid = np.linspace(-1, 1, 9)
    n_atoms = n_atoms or max(2, n_points)
    xs = rng.integers(0, n_points, size=n_atoms)
    ys = rng.choice(grid, size=n_atoms)
    w = rng.integers(1, 8, size=n_atoms).astype(np.float64)
    ps = w / w.sum()
    return DiscreteDistribution(Domain(n_points), list(zip(xs, ys, ps)), "real")


def feed(h, *parts):
    """Update hash ``h`` with each part: an array's dtype, shape and bytes, else its repr."""
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")


@pytest.fixture
def rng():
    return rng_stream(20240815)
