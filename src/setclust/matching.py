"""Exact min-cost one-sided perfect matching between CL points and centers.

``min_cost_matching`` returns the lexicographically smallest optimal
assignment. It solves one linear-sum assignment (LSA), recovers optimal
assignment duals from that solution (Crouse, IEEE TAES 2016), and uses them
to compute, for every edge, the exact extra cost of the best matching forced
through it. Edges whose extra cost exceeds the tie tolerance (plus a
float-error margin) cannot be chosen by the greedy lexicographic tie-break,
so they are pruned before it runs; with float costs a tie is rare and the
single LSA solution is returned as is. The result, assignment and
``total_cost``, is the same as that of the plain greedy tie-break over every
column.

``without_each_row`` gives ``min_cost_matching`` of the matrix without row p,
for every p, from the full matching and one all-pairs shortest-path table on
its rows: removing a row frees its column, and the best matching of the rest
shifts the rows along the cheapest path into that column, or stays. Where
that optimum is unique by more than the tie margin it is the one
``min_cost_matching`` returns; elsewhere the row falls back to a full solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import NegativeCycleError, floyd_warshall


@dataclass
class Matching:
    """Injective row-to-column assignment with its total cost."""

    assignment: tuple[int, ...]
    total_cost: float


def _tolerances(costs: np.ndarray, best: float) -> tuple[float, float]:
    """Tie tolerance around an optimum of cost ``best``, and the margin that
    adds room for the rounding of sums over ``costs``'s rows."""
    tol = 1e-9 * (1.0 + abs(best))
    margin = 2.0 * tol + 1e-12 * (1.0 + float(np.abs(costs).max())) * costs.shape[0]
    return tol, margin


def _optimal_cost(costs: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


def _forced_edge_excess(costs: np.ndarray, match: np.ndarray, margin: float) -> np.ndarray:
    """Exact extra cost of the best matching through each edge ``(r, c)``,
    wherever it is at most ``margin``; elsewhere the result exceeds ``margin``.

    ``match`` is an optimal assignment of rows to columns. Column potentials
    ``w`` are shortest distances to the unmatched columns (to every column
    when the matrix is square) along edges ``a(i) -> j`` weighted
    ``c[i, j] - c[i, a(i)]``: ``w[a(i)]`` is the cheapest way to push row i
    off its column. With ``u_i = c[i, a(i)] + w[a(i)]`` the reduced costs
    ``c - u + w`` are nonnegative and zero on the matching. Forcing
    ``(r, c)`` then costs ``rc[r, c]`` plus the cheaper of closing an
    alternating cycle from c back to ``a(r)``, or pushing c's row on to a
    free column and refilling ``a(r)`` from some column j at price ``w[j]``.
    """
    rows, cols = costs.shape
    row_idx = np.arange(rows)
    matched = costs[row_idx, match]
    step = costs - matched[:, None]
    w = np.zeros(cols)
    free = np.ones(cols, dtype=bool)
    free[match] = False
    if free.any():
        w[match] = np.inf
    # Bellman-Ford; a simple path has at most ``rows`` edges.
    for _ in range(rows + 1):
        relaxed = np.minimum(w[match], (step + w[None, :]).min(axis=1))
        if np.array_equal(relaxed, w[match]):
            break
        w[match] = relaxed
    u = matched + w[match]
    rc = np.maximum(costs - u[:, None] + w[None, :], 0.0)
    # All-pairs distances along edges a(i) -> j weighted rc[i, j]. Every term
    # is nonnegative, so a path within ``margin`` uses only edges within it.
    # A sparse graph keeps the zero-weight edges that a dense one would drop.
    near = rc <= margin
    near[row_idx, match] = False
    tail, head = np.nonzero(near)
    graph = csr_array((rc[tail, head], (match[tail], head)), shape=(cols, cols))
    dist = floyd_warshall(graph, directed=True)
    refill = (w[:, None] + dist).min(axis=0)
    to_free = dist[:, free].min(axis=1) if free.any() else np.full(cols, np.inf)
    closing = np.minimum(dist[:, match].T, to_free[None, :] + refill[match][:, None])
    delta = rc + closing
    delta[row_idx, match] = 0.0
    return delta


def min_cost_matching(costs: np.ndarray) -> Matching:
    """Match every row to a distinct column minimizing the summed cost.

    Requires rows <= cols and finite entries. Among optimal matchings the
    lexicographically smallest assignment vector is returned, which makes the
    result deterministic for identical inputs: rows are fixed in order to the
    smallest column whose completion stays within ``tol`` of the optimum.

    A column that this greedy test accepts for row r lies in a matching whose
    cost is within ``tol`` (plus rounding) of the optimum, so its exact excess
    from ``_forced_edge_excess`` is at most ``margin``; columns with a larger
    excess are never accepted and are skipped. If only the LSA edges survive,
    the optimum is unique and the greedy would pick exactly those, so the LSA
    assignment is returned without further solves.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    rows, cols = costs.shape
    if rows > cols:
        raise ValueError(f"rows ({rows}) must not exceed cols ({cols})")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix has non-finite entries")
    if rows == 0:
        return Matching(assignment=(), total_cost=0.0)
    lsa_rows, lsa_cols = linear_sum_assignment(costs)
    best = float(costs[lsa_rows, lsa_cols].sum())
    tol, margin = _tolerances(costs, best)
    survives = _forced_edge_excess(costs, lsa_cols, margin) <= margin
    if np.count_nonzero(survives) == rows:
        assignment = [int(c) for c in lsa_cols]
    else:
        assignment = _greedy_lex(costs, survives, best + tol)
    total = float(sum(costs[i, j] for i, j in enumerate(assignment)))
    return Matching(assignment=tuple(assignment), total_cost=total)


def without_each_row(costs: np.ndarray, full: Matching) -> list[Matching]:
    """``min_cost_matching(np.delete(costs, p, axis=0))`` for every row p,
    given ``full = min_cost_matching(costs)``; equal bit for bit.

    On the rows of the full matching M (row i in column ``a(i)``), the edge
    ``i -> j`` weighs ``c[i, a(j)] - c[i, a(i)]``: row i moves into j's
    column. Against M without row p, a matching of the other rows is at most
    one path of moves ending in p's freed column, plus cycles of moves and
    chains of moves that end in a column M leaves free. If every cycle and
    every chain costs more than the tie margin, M is unique and the best
    matching without p shifts the rows along the shortest path into p, or
    keeps them all where they are when no path is negative. That choice is
    what ``min_cost_matching`` returns when every other one costs more than
    the margin above it; otherwise the row is solved in full.
    """
    costs = np.asarray(costs, dtype=np.float64)
    rows, cols = costs.shape
    if rows == 0:
        return []

    def solved(p: int) -> Matching:
        return min_cost_matching(np.delete(costs, p, axis=0))

    a = np.asarray(full.assignment, dtype=np.int64)
    # a matching without one row costs within max|c| of the full one, so
    # this margin is at least that of every sub-problem
    _, margin = _tolerances(costs, abs(full.total_cost) + float(np.abs(costs).max()))
    step = costs - costs[np.arange(rows), a][:, None]
    moves = step[:, a]
    np.fill_diagonal(moves, np.inf)
    free = np.ones(cols, dtype=bool)
    free[a] = False
    to_free = step[:, free].min(axis=1) if free.any() else np.full(rows, np.inf)
    # every move is an edge, zero-weight ones too, which a dense graph would drop
    off = ~np.eye(rows, dtype=bool)
    others = np.nonzero(off)[1].reshape(rows, rows - 1)
    graph = csr_array((moves[off], others.ravel(), np.arange(rows + 1) * (rows - 1)),
                      shape=(rows, rows))
    try:
        dist, pred = floyd_warshall(graph, directed=True, return_predecessors=True)
    except NegativeCycleError:
        return [solved(p) for p in range(rows)]
    arrive = dist.min(axis=0)  # cheapest walk into each row; 0 is staying put
    if (moves + dist.T).min() <= margin or (arrive + to_free).min() <= margin:
        return [solved(p) for p in range(rows)]
    assign, unique = _best_shifts(a, moves, dist, pred, arrive, margin)
    assign = assign[off].reshape(rows, rows - 1)
    paid = costs[others, assign]
    # each total summed in row order, as ``min_cost_matching`` sums it
    return [Matching(assignment=tuple(cols_p), total_cost=float(sum(paid_p))) if unique[p]
            else solved(p)
            for p, (cols_p, paid_p) in enumerate(zip(assign.tolist(), paid.tolist()))]


# entries of the (p, x, y) bound array held at once (256 KB), so that its
# temporaries stay small for any number of rows
_BOUND_BLOCK = 1 << 15


def _best_shifts(a: np.ndarray, moves: np.ndarray, dist: np.ndarray, pred: np.ndarray,
                 arrive: np.ndarray, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Row p of the result: every row's column in the best matching without
    row p, and whether every other choice costs more than ``margin`` above
    it. The rivals of a shift along the path ``s -> ... -> p``: staying, a
    proper suffix of the path, and any path that leaves it through another
    edge ``x -> y``, which costs at least the cheapest arrival at x plus the
    move plus the distance from y to p."""
    rows = a.size
    into = dist.copy()
    np.fill_diagonal(into, np.inf)
    src = into.argmin(axis=0)
    best = np.minimum(into[src, np.arange(rows)], 0.0)
    # walk every negative path back from p to its start
    edges: list[tuple[int, int, int]] = []  # (p, tail, tip)
    unique = np.ones(rows, dtype=bool)
    steps = pred.tolist()
    for p in np.flatnonzero(best < 0.0).tolist():
        start, tip = int(src[p]), p
        for _ in range(rows):
            if tip == start:
                break
            tail = steps[start][tip]
            edges.append((p, tail, tip))
            tip = tail
        else:
            unique[p] = False  # a predecessor walk that never closed
    on_p, tail, tip = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    assign = np.tile(a, (rows, 1))
    assign[on_p, tail] = a[tip]
    rival = np.where(best < 0.0, 0.0, np.inf)  # staying, if a path was chosen
    # a proper suffix of the path, from x on, costs dist[x, p]
    inner = tail != src[on_p]
    np.minimum.at(rival, on_p[inner], dist[tail[inner], on_p[inner]])
    # any other path into p leaves the chosen one through an edge x -> y
    base = arrive[:, None] + moves
    chunk = max(1, _BOUND_BLOCK // rows**2)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        bound = base[None, :, :] + dist.T[lo:hi, None, :]
        bound[np.arange(hi - lo), np.arange(lo, hi), :] = np.inf  # p itself moves nowhere
        here = (on_p >= lo) & (on_p < hi)
        bound[on_p[here] - lo, tail[here], tip[here]] = np.inf
        np.minimum(rival[lo:hi], bound.min(axis=(1, 2)), out=rival[lo:hi])
    unique &= rival - best > margin
    return assign, unique


def _greedy_lex(costs: np.ndarray, candidates: np.ndarray, bound: float) -> list[int]:
    """Fix rows in order to the smallest candidate column that keeps the
    completed matching's cost within ``bound``."""
    rows, cols = costs.shape
    assignment: list[int] = []
    used: list[int] = []
    for r in range(rows):
        remaining_rows = list(range(r + 1, rows))
        for c in np.flatnonzero(candidates[r]).tolist():
            if c in used:
                continue
            free_cols = [j for j in range(cols) if j not in used and j != c]
            sub = costs[np.ix_(remaining_rows, free_cols)] if remaining_rows else np.zeros((0, 0))
            partial = sum(costs[i, j] for i, j in zip(range(r), assignment))
            rest = _optimal_cost(sub) if remaining_rows else 0.0
            if partial + costs[r, c] + rest <= bound:
                assignment.append(c)
                used.append(c)
                break
        else:  # pragma: no cover - cannot happen with a finite matrix
            raise RuntimeError("failed to extend optimal matching")
    return assignment
