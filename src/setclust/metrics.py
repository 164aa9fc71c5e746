"""Clustering evaluation: aligned accuracy, RI, ARI, NMI, and the pairwise
agreement score of a constraint collection with ground truth.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linear_sum_assignment


def _as_labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("label vectors must be 1-D and of equal length")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    return pred, truth


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def acc_hungarian(pred, truth) -> float:
    """Accuracy after the optimal injective cluster-to-class relabeling."""
    pred, truth = _as_labels(pred, truth)
    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / pred.size


def _pairs(counts: np.ndarray) -> np.ndarray:
    """C(count, 2): the pairs inside groups of each count."""
    return counts * (counts - 1) // 2


def _pair_counts(pred, truth) -> tuple[float, float, float, float]:
    """Point pairs together in both labelings, together in ``pred``,
    together in ``truth``, and all pairs."""
    pred, truth = _as_labels(pred, truth)
    n = pred.size
    table = _contingency(pred, truth)
    sum_ij = float(_pairs(table).sum())
    sum_a = float(_pairs(table.sum(axis=1)).sum())
    sum_b = float(_pairs(table.sum(axis=0)).sum())
    return sum_ij, sum_a, sum_b, n * (n - 1) / 2


def rand_index(pred, truth) -> float:
    """Fraction of point pairs on which the two labelings agree."""
    sum_ij, sum_a, sum_b, total = _pair_counts(pred, truth)
    if total == 0:
        return 1.0
    disagreements = sum_a + sum_b - 2 * sum_ij
    return (total - disagreements) / total


def ari(pred, truth) -> float:
    """Adjusted Rand Index via the contingency-table formula."""
    sum_ij, sum_a, sum_b, total = _pair_counts(pred, truth)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def nmi(pred, truth) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    When both labelings are single-cluster the 0/0 case is defined as 1.0.
    """
    pred, truth = _as_labels(pred, truth)
    n = pred.size
    table = _contingency(pred, truth).astype(np.float64)
    p_joint = table / n
    p_rows = p_joint.sum(axis=1)
    p_cols = p_joint.sum(axis=0)
    h_pred = -float(np.sum(p_rows[p_rows > 0] * np.log(p_rows[p_rows > 0])))
    h_truth = -float(np.sum(p_cols[p_cols > 0] * np.log(p_cols[p_cols > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    nz = p_joint > 0
    outer = np.outer(p_rows, p_cols)
    mi = float(np.sum(p_joint[nz] * np.log(p_joint[nz] / outer[nz])))
    value = mi / ((h_pred + h_truth) / 2.0)
    # guard against tiny negative round-off
    return float(min(max(value, 0.0), 1.0))


def constraint_ri(collection, truth) -> float:
    """Agreement of constraint-implied pair verdicts with ground truth.

    Every pair inside an ML set predicts same-class; every pair inside a CL
    set predicts different-class. Returns the consistent fraction over all
    implied pairs (counted per set occurrence); 1.0 for an empty collection.
    """
    sets = [s.members for s in collection.ml_sets] + [s.members for s in collection.cl_sets]
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    members = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                          count=int(sizes.sum()))
    # same-class pairs per set: members keyed by (set, class), counts choose 2
    _, label = np.unique(np.asarray(truth, dtype=np.int64)[members], return_inverse=True)
    width = label.size + 1
    keys, counts = np.unique(np.repeat(np.arange(len(sets)), sizes) * width + label,
                             return_counts=True)
    same = np.zeros(len(sets), dtype=np.int64)
    np.add.at(same, keys // width, _pairs(counts))
    pairs = _pairs(sizes)
    total = int(pairs.sum())
    if total == 0:
        return 1.0
    n_ml = len(collection.ml_sets)
    return int(same[:n_ml].sum() + (pairs[n_ml:] - same[n_ml:]).sum()) / total
