"""Distances: the exact squared-distance kernel, the point frame whose readings
pick its candidates, Gonzalez k-center, and the grid used for ML candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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


# float64 entries in the block of rows a distance kernel holds at once (256
# KB): its temporaries stay small and cache-resident for any input size
KERNEL_BLOCK = 1 << 15
_EPS = np.finfo(np.float64).eps


@dataclass
class PointFrame:
    """Points with their mean and each point's squared distance to it, taken
    once by ``point_frame`` for every squared distance read off the points.

    A squared distance ``|x - c|^2`` is read as ``|x - m|^2 - 2 (x.s - m.s)
    + |s|^2`` with ``s = c - m`` (``m`` the mean): one product of the
    unshifted points with shifted centers, so no shifted copy of the points
    is made. ``read`` takes a matrix of centers, ``read_into`` one center
    into a buffer. A reading only picks candidates: callers re-decide by
    exact differences whatever reads within ``margin`` of a decision. The
    product rounds with the points' own magnitudes, so ``margin`` grows with
    ``|m| |s|`` as well as with the squared norms.
    """

    points: np.ndarray
    mean: np.ndarray
    norms: np.ndarray
    # rows ``nearest_center`` re-decided by exact differences, over the
    # frame's life: a dataset's frame serves every run on it, so a run's own
    # count is the difference across the run
    redecided: int = 0

    def __post_init__(self):
        self._ulps = 32.0 * (self.points.shape[1] + 4) * _EPS
        self._reach = float(np.sqrt(self.norms.max(initial=0.0)))
        self._offset = float(np.sqrt(self.mean @ self.mean))

    @cached_property
    def spread(self) -> np.ndarray:
        """Side lengths of the points' bounding box, ``max - min`` per
        coordinate, taken on first use: once per dataset for its frame."""
        return self.points.max(axis=0) - self.points.min(axis=0)

    def margin(self, shift_norm: float) -> float:
        """Rounding margin of readings against centers at most
        ``shift_norm`` from the mean.

        To first order, a reading and the exact form ``sum((x - c) ** 2)``
        differ by at most ``4 (d + 4) eps ((r + t)^2 + |m| t)``, with ``r``
        the largest ``|x - m|`` and ``t = shift_norm``: the product rounds
        with ``|x| |s| <= (r + |m|) t``. The margin, ``32 (d + 4) eps ((r +
        t)^2 + |m| t)``, is four times what two readings can err together, so
        when one distance is exactly at most another its reading is at most
        the other's plus the margin, and a coincident point reads at most
        the margin.
        """
        return self._ulps * ((self._reach + shift_norm) ** 2 + self._offset * shift_norm)

    def read(self, centers: np.ndarray, start: int = 0) -> tuple[np.ndarray, float]:
        """Squared distances of each center (rows) to each point from
        ``start`` on (columns), off one matrix product, and their margin."""
        shifted = centers - self.mean
        shift_norms = np.einsum("ij,ij->i", shifted, shifted)
        reading = (-2.0 * shifted) @ self.points[start:].T
        reading += (shift_norms + 2.0 * (shifted @ self.mean))[:, None]
        reading += self.norms[start:]
        return reading, self.margin(float(np.sqrt(shift_norms.max())))

    def read_into(self, c: np.ndarray, out: np.ndarray) -> float:
        """Squared distance of every point to ``c``, read into ``out`` off
        one matrix-vector product; returns their margin."""
        shifted = c - self.mean
        shift_sq = shifted.dot(shifted)
        self.points.dot(-2.0 * shifted, out=out)
        out += 2.0 * self.mean.dot(shifted) + shift_sq
        out += self.norms
        return self.margin(math.sqrt(shift_sq))


def point_frame(points: np.ndarray) -> PointFrame:
    """The points' mean and squared distances to it, over row blocks, so no
    shifted copy of the points is made."""
    mean = points.mean(axis=0)
    norms = np.empty(points.shape[0])
    step = max(1, KERNEL_BLOCK // max(points.shape[1], 1))
    for lo in range(0, points.shape[0], step):
        p = points[lo:lo + step] - mean
        norms[lo:lo + step] = np.einsum("ij,ij->i", p, p)
    return PointFrame(points, mean, norms)


def sq_dist(points: np.ndarray, centers: np.ndarray,
            rows: np.ndarray | None = None) -> np.ndarray:
    """Squared distance of each point (rows) to each center (columns) by
    exact differences ``sum((x - c) ** 2)``; with ``rows``, of each point
    ``points[rows]``. Row blocks of about ``KERNEL_BLOCK`` elements keep the
    temporaries small; every entry has the bits of the unblocked n×k×d form,
    so a coincident point reads exactly 0."""
    n = points.shape[0] if rows is None else len(rows)
    out = np.empty((n, centers.shape[0]))
    step = max(1, KERNEL_BLOCK // centers.size)
    for lo in range(0, n, step):
        block = points[lo:lo + step] if rows is None else points[rows[lo:lo + step]]
        diff = block[:, None, :] - centers
        np.square(diff, out=diff)
        diff.sum(axis=2, out=out[lo:lo + step])
    return out


def nearest_center(frame: PointFrame, centers: np.ndarray) -> np.ndarray:
    """Index of the center nearest each of the frame's points, ties to the
    lowest index: the argmin of exact differences ``sum((x - c) ** 2)``.

    The squared distances come from the frame's matrix reading. A point with
    more than one center within the margin of its smallest reading is
    re-decided by ``sq_dist`` and counted in ``frame.redecided``; any
    other point's one such center is its exact nearest.
    """
    reading, margin = frame.read(centers)
    bound = reading.min(axis=0)
    bound += margin
    # 1.0 where a center reads within the margin; one product gives each
    # point the sum of their indices (its label when it has one such center)
    # and their count
    within = np.less_equal(reading, bound, out=reading)
    k = centers.shape[0]
    index_sum, count = np.vstack([np.arange(k, dtype=np.float64), np.ones(k)]) @ within
    labels = index_sum.astype(np.int64)
    near = np.flatnonzero(count > 1)
    frame.redecided += near.size
    labels[near] = sq_dist(frame.points, centers, rows=near).argmin(axis=1)
    return labels


def gonzalez_kcenter(data: EmbeddedDataset, k: int, seed: int) -> KCenterResult:
    """Farthest-first traversal (2-approximation for min-max k-center).

    The first center is drawn uniformly at random under ``seed``; each
    subsequent center is the point farthest from the current center set
    (plain Euclidean distance ``point_dist``, ties to the lowest index).

    Each center costs one vector reading of the dataset's frame. Per point the
    smallest reading, its center and the second-smallest reading are kept.
    The farthest point is chosen by exact differences among the points whose
    smallest reading lies within the largest margin so far of the maximum;
    ``nearest_dist`` is exact against each point's reading-nearest center,
    and against every center for a point whose second reading lies within
    the margin. So indices, cost and distances have the bits of one exact
    pass per center.
    """
    n = data.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    X = data.points
    frame = data.frame
    first = int(np.random.default_rng(seed).integers(n))
    chosen = [first]
    reading = np.empty(n)
    margin = frame.read_into(X[first], reading)
    best = reading.copy()  # smallest reading per point
    owner = np.zeros(n, dtype=np.int64)  # its position in ``chosen``
    second = np.full(n, np.inf)  # second-smallest reading per point
    while len(chosen) < k:
        cand = np.flatnonzero(best >= best.max() - margin)
        far = np.sqrt(sq_dist(X, X[chosen], rows=cand).min(axis=1))
        chosen.append(int(cand[np.argmax(far)]))
        margin = max(margin, frame.read_into(X[chosen[-1]], reading))
        np.minimum(second, np.maximum(best, reading), out=second)
        owner[reading < best] = len(chosen) - 1
        np.minimum(best, reading, out=best)
    centers = X[chosen]
    step = max(1, KERNEL_BLOCK // max(X.shape[1], 1))
    nearest = np.empty(n)
    for lo in range(0, n, step):
        diff = centers[owner[lo:lo + step]]
        np.subtract(X[lo:lo + step], diff, out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=nearest[lo:lo + step])
    near = np.flatnonzero(second <= best + margin)
    nearest[near] = sq_dist(X, centers, rows=near).min(axis=1)
    np.sqrt(nearest, out=nearest)
    return KCenterResult(center_indices=chosen, cost=float(nearest.max()), nearest_dist=nearest)


def farther_than(frame: PointFrame, c: np.ndarray, radius: float, rows: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """The entries of ``rows`` whose point lies farther than ``radius`` from
    ``c``: ``point_dist(frame.points[rows], c) > radius``, bit for bit.

    One vector reading into ``out`` (one float per point) decides every row
    whose reading lies farther from ``radius ** 2`` than the margin plus 8
    eps of ``radius ** 2`` (the rounding of the square and of the root);
    ``point_dist`` re-decides the rows within that.
    """
    margin = frame.read_into(c, out)
    reading = out[rows]
    bound = radius * radius
    far = reading > bound
    near = np.flatnonzero(np.abs(reading - bound) <= margin + 8.0 * _EPS * bound)
    if near.size:
        pts = frame.points[rows[near]]
        far[near] = point_dist(pts, c, pts) > radius
    return rows[far]


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
