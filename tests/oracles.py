"""Independent reference implementations used to check the package under test.

Everything here is deliberately written in the most direct way possible
(scalar loops, exhaustive enumeration, exact rational arithmetic) so the
implementations share no code — and ideally no algorithmic idea — with the
package. Slow is fine; these only run on tiny instances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# geometry


def pdist_broadcast(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared point-to-center distances by broadcasting exact differences
    (an n x k x d temporary)."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def grid_first_fit(points: np.ndarray, levels: list[float],
                   nearest_dist: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Grid cells by first-fit over (point, leader) pairs: each point, in
    index order, joins the first leader of its level within
    r_j * sqrt(dim) / 6 (1-D ``np.linalg.norm``), else leads a new cell."""
    level_of = np.clip(np.searchsorted(levels, nearest_dist, side="left"), 0, len(levels) - 1)
    half_diam = np.sqrt(points.shape[1]) / 6.0
    cells: dict[tuple[int, int], list[int]] = {}
    leaders: dict[int, list[int]] = {}
    for i in range(len(points)):
        j = int(level_of[i])
        radius = levels[j] * half_diam
        for leader in leaders.get(j, []):
            if np.linalg.norm(points[i] - points[leader]) <= radius:
                cells[(j, leader)].append(i)
                break
        else:
            leaders.setdefault(j, []).append(i)
            cells[(j, i)] = [i]
    return cells


def locality_order_pop(points: np.ndarray, cell: list[int]) -> list[int]:
    """Nearest-neighbor chain from the lowest index by popping the closest
    remaining member (ties to the lowest index) off a sorted list."""
    remaining = sorted(cell)
    order = [remaining.pop(0)]
    while remaining:
        dists = np.linalg.norm(points[remaining] - points[order[-1]], axis=1)
        order.append(remaining.pop(int(np.argmin(dists))))
    return order


def cut_segments_loop(points: np.ndarray, order: list[int], tau: float) -> list[list[int]]:
    """Chain cut one point at a time: a point starts a new segment when its
    1-D ``np.linalg.norm`` distance to the previous point exceeds tau."""
    segments: list[list[int]] = []
    for idx in order:
        if (not segments
                or np.linalg.norm(points[idx] - points[segments[-1][-1]]) > tau):
            segments.append([idx])
        else:
            segments[-1].append(idx)
    return segments


def kcenter_loop(points: np.ndarray, k: int, seed: int):
    """Farthest-first traversal with one full exact pass per center: the
    first center drawn by ``seed``, each next one the first argmax of every
    point's ``np.linalg.norm`` distance to its nearest center. Returns
    (center indices, cost, nearest distances)."""
    first = int(np.random.default_rng(seed).integers(len(points)))
    chosen = [first]
    nearest = np.linalg.norm(points - points[first], axis=1)
    while len(chosen) < k:
        chosen.append(int(np.argmax(nearest)))
        nearest = np.minimum(nearest, np.linalg.norm(points - points[chosen[-1]], axis=1))
    return chosen, float(nearest.max()), nearest


def kcenter_brute_force(points: np.ndarray, k: int) -> float:
    """Optimal min-max k-center cost by enumerating every k-subset."""
    n = len(points)
    best = math.inf
    for subset in itertools.combinations(range(n), k):
        cost = max(
            min(math.dist(points[i], points[c]) for c in subset)
            for i in range(n)
        )
        best = min(best, cost)
    return best


# ---------------------------------------------------------------------------
# matching


def matching_brute_force(costs: np.ndarray) -> float:
    """Minimum total cost over every injective row-to-column map."""
    rows, cols = costs.shape
    best = math.inf
    for perm in itertools.permutations(range(cols), rows):
        total = sum(costs[r, c] for r, c in enumerate(perm))
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# metrics


def acc_brute_force(pred, truth) -> float:
    """Accuracy maximized over every injective cluster-to-class map.

    Tries injections in both directions so it also covers predictions with
    more clusters than classes.
    """
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    p_ids = sorted(set(pred))
    t_ids = sorted(set(truth))
    best = 0
    if len(p_ids) <= len(t_ids):
        for images in itertools.permutations(t_ids, len(p_ids)):
            mapping = dict(zip(p_ids, images))
            best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[p] == t))
    else:
        for images in itertools.permutations(p_ids, len(t_ids)):
            mapping = dict(zip(t_ids, images))
            best = max(best, sum(1 for p, t in zip(pred, truth) if mapping[t] == p))
    return best / n


def rand_index_pairs(pred, truth) -> float:
    """Rand index by explicit enumeration of all point pairs."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    if n < 2:
        return 1.0
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (pred[i] == pred[j]) == (truth[i] == truth[j]):
                agree += 1
    return agree / total


def ari_rational(pred, truth) -> float:
    """Adjusted Rand index with exact rational arithmetic."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)

    def comb2(x):
        return Fraction(x * (x - 1), 2)

    cells: dict[tuple[int, int], int] = {}
    row_sums: dict[int, int] = {}
    col_sums: dict[int, int] = {}
    for p, t in zip(pred, truth):
        cells[(p, t)] = cells.get((p, t), 0) + 1
        row_sums[p] = row_sums.get(p, 0) + 1
        col_sums[t] = col_sums.get(t, 0) + 1
    sum_ij = sum(comb2(v) for v in cells.values())
    sum_a = sum(comb2(v) for v in row_sums.values())
    sum_b = sum(comb2(v) for v in col_sums.values())
    total = comb2(n)
    if total == 0:
        return 1.0
    expected = Fraction(sum_a * sum_b, 1) / total
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def nmi_direct(pred, truth) -> float:
    """NMI (arithmetic-mean normalization) by direct joint-histogram sums."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    joint: dict[tuple[int, int], int] = {}
    pc: dict[int, int] = {}
    tc: dict[int, int] = {}
    for p, t in zip(pred, truth):
        joint[(p, t)] = joint.get((p, t), 0) + 1
        pc[p] = pc.get(p, 0) + 1
        tc[t] = tc.get(t, 0) + 1
    h_p = -sum((c / n) * math.log(c / n) for c in pc.values())
    h_t = -sum((c / n) * math.log(c / n) for c in tc.values())
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    mi = 0.0
    for (p, t), c in joint.items():
        mi += (c / n) * math.log((c / n) / ((pc[p] / n) * (tc[t] / n)))
    return min(max(mi / ((h_p + h_t) / 2.0), 0.0), 1.0)


def constraint_ri_pairs(ml_member_lists, cl_member_lists, truth) -> float:
    """Constraint pair agreement by explicit enumeration."""
    truth = list(truth)
    agree = 0
    total = 0
    for members in ml_member_lists:
        for a, b in itertools.combinations(members, 2):
            total += 1
            agree += truth[a] == truth[b]
    for members in cl_member_lists:
        for a, b in itertools.combinations(members, 2):
            total += 1
            agree += truth[a] != truth[b]
    return 1.0 if total == 0 else agree / total


# ---------------------------------------------------------------------------
# constraint generation


def generate_cl_sets_loop(data, oracle, cost_kc, k, seed, max_sets=None, m_max=10):
    """Radius-gated CL growth in rounds of one grouping query, over sets of
    indices that are re-sorted on every draw, with each gap measured by
    ``np.linalg.norm``; returns (sets, rejections)."""
    from setclust.constraints import CLSet
    from setclust.oracle import MLGroupQuery

    rng = np.random.default_rng(seed)
    X = data.points
    size = min(k, m_max)

    def far_from(ids, point):
        ids = sorted(ids)
        gaps = np.linalg.norm(X[ids] - X[point], axis=1)
        return {i for i, gap in zip(ids, gaps) if gap > cost_kc}

    uncovered = set(range(data.n))
    cl_sets = []
    rejections = 0
    while uncovered:
        if max_sets is not None and len(cl_sets) >= max_sets:
            break
        seed_point = int(rng.choice(sorted(uncovered)))
        members = [seed_point]
        pool = far_from(uncovered - {seed_point}, seed_point)
        while len(members) < size and pool:
            cands = set(pool)
            fresh = []
            while len(members) + len(fresh) < size and cands:
                fresh.append(int(rng.choice(sorted(cands))))
                cands = far_from(cands - {fresh[-1]}, fresh[-1])
            ids = tuple(members + fresh)
            response = oracle.query_ml_group(
                MLGroupQuery(ids=ids, texts=tuple(data.text(i) for i in ids)), kind="cl")
            joined = []
            for pos in range(len(members), len(ids)):
                group = next(g for g in response.groups if pos in g)
                if min(group) == pos:
                    joined.append(ids[pos])
                else:
                    rejections += 1
            members += joined
            if len(joined) == len(fresh):
                pool = cands
            else:
                pool -= set(fresh)
                for cand in joined:
                    pool = far_from(pool, cand)
        uncovered.difference_update(members)
        if len(members) >= 2:
            cl_sets.append(CLSet(members=tuple(members)))
    return cl_sets, rejections


# ---------------------------------------------------------------------------
# transitive closure


def components_bfs(n: int, edges) -> list[list[int]]:
    """Connected components of the undirected graph on 0..n-1 by
    breadth-first search: members ascending, components by smallest member."""
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen: set[int] = set()
    components = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for node in queue:
            for other in neighbors[node] - seen:
                seen.add(other)
                queue.append(other)
        components.append(sorted(queue))
    return components


# ---------------------------------------------------------------------------
# oracle noise model


def sim_oracle_groups_reference(labels, ids, flip) -> set[frozenset[int]]:
    """Reference partition: pairwise label-equality verdicts, each possibly
    flipped by the supplied predicate, closed transitively.

    ``flip(lo, hi)`` says whether the unordered id pair's verdict flips.
    Returns the canonical partition of query positions.
    """
    m = len(ids)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            same = labels[ids[i]] == labels[ids[j]]
            lo, hi = min(ids[i], ids[j]), max(ids[i], ids[j])
            if flip(lo, hi):
                same = not same
            if same:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


# ---------------------------------------------------------------------------
# clustering


def kmeanspp_seed_exact(coords: np.ndarray, weights: np.ndarray, k: int,
                        seed: int) -> tuple[np.ndarray, bool]:
    """Weighted D^2 seeding with exact per-center differences (three passes
    over an m x d buffer per center): the reference for ``kmeanspp_seed``,
    which reads each center's distances off one matrix-vector product."""
    coords = np.asarray(coords, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() < k:
        raise ValueError("total weight must be at least k")
    rng = np.random.default_rng(seed)
    m = coords.shape[0]
    first = int(rng.choice(m, p=weights / weights.sum()))
    centers = [coords[first]]
    degenerate = False
    diff = np.empty_like(coords)

    def sq_dist(center: np.ndarray) -> np.ndarray:
        np.subtract(coords, center, out=diff)
        np.square(diff, out=diff)
        return diff.sum(axis=1)

    d2 = sq_dist(centers[0])
    while len(centers) < k:
        mass = weights * d2
        total = mass.sum()
        if total <= 0:
            degenerate = True
            idx = int(rng.choice(m, p=weights / weights.sum()))
        else:
            idx = int(rng.choice(m, p=mass / total))
        centers.append(coords[idx])
        d2 = np.minimum(d2, sq_dist(coords[idx]))
    return np.vstack(centers), degenerate


def nearest_exact(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest center of each point by broadcast exact differences
    ``sum((x - c) ** 2)``, ties to the lowest index."""
    return pdist_broadcast(points, centers).argmin(axis=1)


def seed_compact_exact(frame, hard, k: int, seed: int) -> tuple[np.ndarray, bool]:
    """k-means++ over the hard blocks' mass centers (member sums in member
    order over the size) and the points outside them, copied into one array
    and seeded with exact per-center differences: the reference for
    ``clustering._seed``. A drop-in for it."""
    members, offsets = hard
    X = frame.points
    free = np.setdiff1d(np.arange(X.shape[0]), members)
    heads = [sum(X[members[lo:hi]], np.zeros(X.shape[1])) / (hi - lo)
             for lo, hi in zip(offsets[:-1], offsets[1:])]
    coords = np.vstack(heads + [X[free]]) if heads else X
    weights = np.concatenate([np.diff(offsets), np.ones(free.size)])
    return kmeanspp_seed_exact(coords, weights, k, seed)


def kmeans_baseline_loop(data, k: int, seed: int, convergence=None):
    """Unconstrained k-means++ seeding plus Lloyd iterations in a loop of its
    own: the reference for ``kmeans_baseline``, which runs the constrained
    loop with no constraint sets."""
    from setclust.clustering import (
        ClusteringResult, Convergence, _objective, _update_centers, kmeanspp_seed)
    from setclust.geometry import nearest_center, point_frame

    if not 1 <= k <= data.n:
        raise ValueError(f"k must be in [1, {data.n}]")
    conv = convergence if convergence is not None else Convergence()
    X = data.points
    if conv.tol is None:
        spread = X.max(axis=0) - X.min(axis=0)
        tol = 1e-4 * float(spread @ spread)
    else:
        tol = conv.tol
    frame = point_frame(X)
    centers, degenerate = kmeanspp_seed(frame, np.ones(data.n), k, seed)
    iterations = 0
    converged = False
    for _ in range(conv.max_iters):
        labels = nearest_center(frame, centers)
        new_centers = _update_centers(X, labels, centers)
        displacement = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        iterations += 1
        if displacement <= tol:
            converged = True
            break
    labels = nearest_center(frame, centers)
    return ClusteringResult(labels=labels, centers=centers,
                            objective=_objective(X, labels, centers),
                            iterations=iterations, converged=converged,
                            degenerate_seeding=degenerate)


def partition_soft_set(points: np.ndarray, members: list[int], centers: np.ndarray,
                       w_ml: float) -> list[list[int]]:
    """Split one soft ML set by nearest center, then merge while profitable.

    Merging two partitions is accepted when the kept-split cost plus the
    per-point penalties exceeds the cost of assigning the merged block to the
    center nearest its mass center. Passes repeat until none merges. This is
    the set-by-set reference for ``build_groups``, which runs the same passes
    over every soft set at once.
    """
    near = np.argmin(pdist_broadcast(points[members], centers), axis=1)
    parts = [[m for m, c in zip(members, near) if c == cid]
             for cid in sorted(set(near.tolist()))]

    def nearest(part: list[int]) -> tuple[int, float]:
        """Center nearest the part's mass center, and its cost."""
        d = pdist_broadcast(points[part].mean(axis=0)[None, :], centers)[0]
        c = int(np.argmin(d))
        return c, float(d[c])

    changed = True
    while changed and len(parts) > 1:
        changed = False
        order = sorted(range(len(parts)), key=lambda t: (-len(parts[t]), t))
        alive: list[list[int] | None] = list(parts)
        # nearest cost of each live part, updated when a merge changes it
        cost = [nearest(p)[1] for p in parts]
        for a in order:
            for b in order:
                if b == a or alive[a] is None or alive[b] is None:
                    continue
                pa, pb = alive[a], alive[b]
                union = pa + pb
                cij, union_cost = nearest(union)
                merged_cost = float(pdist_broadcast(points[union], centers[cij][None, :]).sum())
                if (w_ml + cost[b]) * len(pb) + (w_ml + cost[a]) * len(pa) > merged_cost:
                    alive[a], alive[b], cost[a] = union, None, union_cost
                    changed = True
        parts = [p for p in alive if p is not None]
    return parts


def cl_local_search_loop(elements, cl_element_sets, centers, w_cl, gain_trace=None):
    """CL local search written out plainly, with broadcast costs and one full
    matching of the other rows per release candidate: the reference for
    ``cl_local_search``."""
    from setclust.clustering import _GAIN_TOL, InvariantError
    from setclust.matching import Matching, min_cost_matching

    centroids, weights = elements
    assignment: dict[int, int] = {}
    k = centers.shape[0]
    for eset in cl_element_sets:
        Y = [e for e in eset if e not in assignment]
        if len(Y) > k:
            raise ValueError(f"CL set has {len(Y)} blocks but only {k} centers")
        while Y:
            w = np.asarray(weights[Y], dtype=np.float64)
            costs = pdist_broadcast(centroids[Y], centers) * w[:, None]
            matching = min_cost_matching(costs)
            nearest_cols = np.argmin(costs, axis=1)
            gains = np.empty(len(Y))
            nums = np.empty(len(Y))
            for pos in range(len(Y)):
                rest = [q for q in range(len(Y)) if q != pos]
                if rest:
                    sub = min_cost_matching(costs[rest])
                else:
                    sub = Matching(assignment=(), total_cost=0.0)
                changed = sum(
                    w[q] for out_pos, q in enumerate(rest)
                    if matching.assignment[q] != sub.assignment[out_pos]
                )
                g = matching.total_cost - sub.total_cost - float(costs[pos, nearest_cols[pos]])
                if g < -_GAIN_TOL * (1.0 + abs(matching.total_cost)):
                    raise InvariantError(f"negative release gain {g}")
                if gain_trace is not None:
                    gain_trace.append(g)
                gains[pos] = max(g, 0.0)
                nums[pos] = w[pos] + changed
            tie = 1e-9 * (1.0 + abs(matching.total_cost))
            star = int(np.flatnonzero(gains >= gains.max() - tie)[0])
            if gains[star] < nums[star] * w_cl:
                for q, e in enumerate(Y):
                    assignment[e] = int(matching.assignment[q])
                break
            assignment[Y[star]] = int(nearest_cols[star])
            Y.pop(star)
    return assignment


# ---------------------------------------------------------------------------
# clustering algorithm micro-traces (hand-executed, written down independently)

# Alg-1 style merge test on the 1-D instance: centers {0, 10},
# soft set X = {1, 9}, squared distance.
#   split: point 1 -> center 0 (cost 1), point 9 -> center 10 (cost 1)
#   merged: mass center 5, equidistant -> lowest-index center 0,
#           cost 1 + 81 = 82
#   merge condition: (w_m + 1)*1 + (w_m + 1)*1 > 82
ALG1_TRACE_STAY_SPLIT_WM = 0.0      # 2 > 82 is false
ALG1_TRACE_MERGE_WM = 41.0          # 84 > 82 is true

# Alg-2 release-gain trace on the 1-D instance: centers {0, 10}, Y = {1, 2},
# squared distance, unit weights.
#   M = {1 -> 0 (cost 1), 2 -> 10 (cost 64)}, total 65.
#   Release y=2: M' = {1 -> 0} cost 1; nearest(2) = 0 at cost 4.
#     g_2 = 65 - 1 - 4 = 60; no survivor changes -> num_2 = 1.
#   Release y=1: M' = {2 -> 0} cost 4; nearest(1) = 0 at cost 1.
#     g_1 = 65 - 4 - 1 = 60; survivor 2 moves 10 -> 0 -> num_1 = 1 + 1 = 2.
#   Ties in argmax g break to the lowest index, so y* = 1 with num = 2.
ALG2_TRACE_GAINS = {1: 60.0, 2: 60.0}
ALG2_TRACE_NUMS = {1: 2, 2: 1}
# commit happens iff g_{y*} < num_{y*} * w_cl = 2 * w_cl:
ALG2_TRACE_COMMIT_WCL = 31.0        # 60 < 62  -> commit M: 1->0, 2->10
ALG2_TRACE_RELEASE_WCL = 29.0       # 60 >= 58 -> release 1 to 0, then 2 to 0


def threshold_linear_scan(diameters, passes) -> float:
    """Largest diameter whose probe passes, by linear scan; 0 if none pass.

    Assumes the same monotone world the binary search assumes.
    """
    best = 0.0
    for d in sorted(diameters):
        if passes(d):
            best = d
    return best


def consistency_repeat_all(oracle, query, alpha: int) -> bool:
    """The one-group repeat rule asking every repeat: all ``alpha`` repeats
    are asked, then the verdict is whether each returned a single group.
    The reference for ``consistency_repeat``, which stops at the first
    repeat that does not."""
    answers = [oracle.query_ml_group(query, repeat=rep, kind="consistency")
               for rep in range(alpha)]
    return all(len(answer.groups) == 1 for answer in answers)
