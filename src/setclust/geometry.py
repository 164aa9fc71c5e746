"""Distances, Gonzalez k-center, and the level grid used for ML candidates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from setclust.dataset import EmbeddedDataset


@dataclass
class KCenterResult:
    """Indices of the chosen data points and the max point-to-center distance."""

    center_indices: list[int]
    cost: float
    # distance of every point to its nearest chosen center
    nearest_dist: np.ndarray


@dataclass
class GridPartition:
    """Points bucketed into cells per radius level.

    Cells are keyed by (level, leader point index): a point at level j joins
    the first existing cell of that level whose leader is within the level's
    membership radius, otherwise it founds a new cell. The membership radius
    is r_j * sqrt(dim) / 6, so any two members of a cell are at most
    r_j * sqrt(dim) / 3 apart.
    """

    levels: list[float]
    cells: dict[tuple[int, int], list[int]]
    # rows whose distance to their leader lay within 1e-9 (relative) of the
    # radius and were decided by the scalar norm instead
    near_ties: int = 0


def point_dist(X: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``X`` to the point ``c``.

    The operations of ``np.linalg.norm(X - c, axis=1)``, so the same bits,
    but the differences and their squares go into ``out`` (at least as many
    rows as ``X``, same width; it may be ``X`` itself) instead of fresh n×d
    temporaries.
    """
    buf = out[:len(X)]
    np.subtract(X, c, out=buf)
    np.square(buf, out=buf)
    return np.sqrt(buf.sum(axis=1))


def gonzalez_kcenter(data: EmbeddedDataset, k: int, seed: int) -> KCenterResult:
    """Farthest-first traversal (2-approximation for min-max k-center).

    The first center is drawn uniformly at random under ``seed``; each
    subsequent center is the point farthest from the current center set
    (plain Euclidean distance, ties to the lowest index).
    """
    n = data.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    X = data.points
    first = int(np.random.default_rng(seed).integers(n))
    chosen = [first]
    buf = np.empty_like(X)
    nearest = point_dist(X, X[first], buf)
    while len(chosen) < k:
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        np.minimum(nearest, point_dist(X, X[nxt], buf), out=nearest)
    return KCenterResult(center_indices=chosen, cost=float(nearest.max()), nearest_dist=nearest)


# growth of the grid radius from one level to the next
GRID_EPS = 0.1


def grid_levels(cost_kc: float, n: int, dim: int) -> list[float]:
    """Radii r_j = (1+GRID_EPS)^j * sqrt(cost_kc / (10*n*dim)).

    Levels stop at the smallest j with r_j >= 2*cost_kc. A zero cost_kc
    signals fully degenerate data (all points coincident) and gives the
    single level r_0 = 0.
    """
    if cost_kc < 0:
        raise ValueError("cost_kc must be nonnegative")
    if cost_kc == 0:
        return [0.0]
    r = float(np.sqrt(cost_kc / (10.0 * n * dim)))
    levels = [r]
    while levels[-1] < 2.0 * cost_kc:
        r *= 1.0 + GRID_EPS
        levels.append(r)
    return levels


def grid_partition(data: EmbeddedDataset, levels: list[float], kcenter: KCenterResult) -> GridPartition:
    """Bucket every point into exactly one cell.

    A point belongs to the smallest level j whose radius covers its distance
    to the nearest k-center point; within the level, cells are grown around
    leader points with membership radius r_j * sqrt(dim) / 6: the lowest
    unassigned point of the level leads a new cell, and every later
    unassigned point of the level within the radius joins it. This is
    first-fit in index order (a point joins the first earlier leader that
    covers it), one vectorized distance per leader. A row-wise norm may
    differ from the 1-D ``np.linalg.norm`` in the last bit, so rows within
    1e-9 (relative) of the radius are decided by the 1-D norm.
    """
    if not levels:
        raise ValueError("levels must be nonempty")
    dists = kcenter.nearest_dist
    level_of = np.searchsorted(levels, dists, side="left")
    level_of = np.clip(level_of, 0, len(levels) - 1)
    X = data.points
    half_diam = np.sqrt(data.dim) / 6.0
    buf = np.empty_like(X)
    cells: dict[tuple[int, int], list[int]] = {}
    near_ties = 0
    for j in np.unique(level_of).tolist():
        radius = levels[j] * half_diam
        todo = np.flatnonzero(level_of == j)
        while todo.size:
            leader, rest = int(todo[0]), todo[1:]
            d = point_dist(np.take(X, rest, axis=0, out=buf[:rest.size]), X[leader], buf)
            joins = d <= radius
            for pos in np.flatnonzero(np.abs(d - radius) <= 1e-9 * radius).tolist():
                joins[pos] = np.linalg.norm(X[rest[pos]] - X[leader]) <= radius
                near_ties += 1
            cells[(j, leader)] = [leader, *rest[joins].tolist()]
            todo = rest[~joins]
    # cells in order of their leader, as first-fit founds them
    cells = dict(sorted(cells.items(), key=lambda item: item[0][1]))
    return GridPartition(levels=list(levels), cells=cells, near_ties=near_ties)
