"""Exact min-cost one-sided perfect matching between CL points and centers.

``min_cost_matching`` is one linear-sum assignment (LSA) solve (Crouse, IEEE
TAES 2016). Among tied optima it returns whichever one the solver finds,
which is deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class Matching:
    """Injective row-to-column assignment with its total cost."""

    assignment: tuple[int, ...]
    total_cost: float


def min_cost_matching(costs: np.ndarray) -> Matching:
    """Match every row to a distinct column minimizing the summed cost.

    Requires rows <= cols and finite entries. ``total_cost`` is summed in row
    order.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("cost matrix must be 2-D")
    rows, cols = costs.shape
    if rows > cols:
        raise ValueError(f"rows ({rows}) must not exceed cols ({cols})")
    if not np.all(np.isfinite(costs)):
        raise ValueError("cost matrix has non-finite entries")
    _, assignment = linear_sum_assignment(costs)
    total = float(sum(costs[np.arange(rows), assignment].tolist()))
    return Matching(assignment=tuple(assignment.tolist()), total_cost=total)
