"""Exact min-cost one-sided perfect matching between CL points and centers.

``min_cost_matching`` returns the lexicographically smallest optimal
assignment. It solves one linear-sum assignment (LSA), recovers optimal
assignment duals from that solution, and uses them to compute, for every edge,
the exact extra cost of the best matching forced through it. Edges whose
extra cost exceeds the tie tolerance (plus a float-error margin) cannot be
chosen by the greedy lexicographic tie-break, so they are pruned before it
runs; with float costs a tie is rare and the single LSA solution is returned
as is. The result, assignment and ``total_cost``, is the same as that of the
plain greedy tie-break over every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import floyd_warshall


@dataclass
class Matching:
    """Injective row-to-column assignment with its total cost."""

    assignment: tuple[int, ...]
    total_cost: float


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
    tol = 1e-9 * (1.0 + abs(best))
    margin = 2.0 * tol + 1e-12 * (1.0 + float(np.abs(costs).max())) * rows
    survives = _forced_edge_excess(costs, lsa_cols, margin) <= margin
    if np.count_nonzero(survives) == rows:
        assignment = [int(c) for c in lsa_cols]
    else:
        assignment = _greedy_lex(costs, survives, best + tol)
    total = float(sum(costs[i, j] for i, j in enumerate(assignment)))
    return Matching(assignment=tuple(assignment), total_cost=total)


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
