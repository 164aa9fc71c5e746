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


def gonzalez_kcenter(data: EmbeddedDataset, k: int, seed: int,
                     first_index: int | None = None) -> KCenterResult:
    """Farthest-first traversal (2-approximation for min-max k-center).

    The first center is drawn uniformly at random under ``seed`` unless
    ``first_index`` pins it; each subsequent center is the point farthest
    from the current center set (plain Euclidean distance, ties to the
    lowest index).
    """
    n = data.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    X = data.points
    if first_index is None:
        first_index = int(np.random.default_rng(seed).integers(n))
    chosen = [first_index]
    nearest = np.linalg.norm(X - X[first_index], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        nearest = np.minimum(nearest, np.linalg.norm(X - X[nxt], axis=1))
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
    leader points (first-fit in index order) with membership radius
    r_j * sqrt(dim) / 6.
    """
    if not levels:
        raise ValueError("levels must be nonempty")
    dists = kcenter.nearest_dist
    level_of = np.searchsorted(levels, dists, side="left")
    level_of = np.clip(level_of, 0, len(levels) - 1)
    X = data.points
    half_diam = np.sqrt(data.dim) / 6.0
    cells: dict[tuple[int, int], list[int]] = {}
    leaders: dict[int, list[int]] = {}  # level -> leader point indices
    for i in range(data.n):
        j = int(level_of[i])
        radius = levels[j] * half_diam
        placed = False
        for leader in leaders.get(j, []):
            if np.linalg.norm(X[i] - X[leader]) <= radius:
                cells[(j, leader)].append(i)
                placed = True
                break
        if not placed:
            leaders.setdefault(j, []).append(i)
            cells[(j, i)] = [i]
    return GridPartition(levels=list(levels), cells=cells)
