"""Shared helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setclust.dataset import EmbeddedDataset, TextRecord


def make_dataset(points, labels=None) -> EmbeddedDataset:
    """Build an EmbeddedDataset from raw coordinates and optional labels."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    records = [
        TextRecord(id=i, text=f"text {i}",
                   label=None if labels is None else int(labels[i]))
        for i in range(n)
    ]
    return EmbeddedDataset(points=points, records=records)


def partition(response) -> set[frozenset[int]]:
    """A grouping response's groups as position sets, group and member
    order ignored."""
    return {frozenset(g) for g in response.groups}


def hard_points(rng, n: int, d: int, kind: str, offset: float) -> np.ndarray:
    """Points where readings tie or nearly tie: an integer grid, rows
    duplicated from a few sites, or those rows moved by about 1e-9 of the
    offset (1e-9 at offset 0), all under a common offset."""
    shift = offset * rng.uniform(0.5, 1.0, size=d)
    if kind == "grid":
        return rng.integers(0, 4, size=(n, d)) + shift
    sites = rng.integers(0, 4, size=(max(1, n // 4), d)).astype(float)
    points = sites[rng.integers(0, len(sites), size=n)]
    if kind == "near":
        points = points + rng.integers(-2, 3, size=(n, d)) * (1e-9 * max(offset, 1.0))
    return points + shift


@pytest.fixture
def rng():
    return np.random.default_rng(0)
