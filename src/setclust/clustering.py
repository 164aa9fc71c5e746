"""Penalty-based constrained clustering.

Pipeline: weighted k-means++ seeding with hard ML representatives, per-set
partitioning and penalty-tested merging of soft ML sets, matching-based local
search for CL sets, then alternating constrained assignment and center
updates until the centers stabilize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_array

from setclust.constraints import ConstraintCollection, MLSet, connected_groups
from setclust.dataset import EmbeddedDataset
from setclust.geometry import PointFrame, nearest_center, point_frame, sq_dist
from setclust.matching import min_cost_matching


class InvariantError(AssertionError):
    """An algorithm invariant (e.g. nonnegative release gain) was violated."""


@dataclass
class Penalties:
    """Per-point violation penalties, in squared-distance units."""

    w_ml: float
    w_cl: float

    def __post_init__(self):
        if not (self.w_ml >= 0 and self.w_cl >= 0):  # also rejects NaN
            raise ValueError("penalties must be nonnegative")


@dataclass
class Convergence:
    """Outer-loop stopping rule.

    Stop once the max squared center displacement is at most ``tol``; None
    selects 1e-4 times the squared bounding-box diagonal of the data, read
    off the bounding box the data's frame takes once.
    """

    tol: float | None = None
    max_iters: int = 100

    def resolve_tol(self, frame: PointFrame) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-4 * float(frame.spread @ frame.spread)


@dataclass
class Groups:
    """Blocks of points moved as one unit each, as flat arrays.

    Block ``g`` is ``members[offsets[g]:offsets[g + 1]]`` in ascending order;
    it is represented by its mass center ``centroids[g]`` and weighs its
    member count.
    """

    members: np.ndarray
    offsets: np.ndarray
    centroids: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.offsets)


@dataclass
class ClusteringResult:
    labels: np.ndarray
    centers: np.ndarray
    objective: float
    iterations: int
    converged: bool
    degenerate_seeding: bool = False
    penalties: Penalties | None = None
    # release-gain values observed during CL local search, for auditing
    min_gain_seen: float = field(default=np.inf)
    # rows the nearest-center kernel re-decided by exact differences, for auditing
    redecided: int = 0


# index blocks as flat arrays: block i is members[offsets[i]:offsets[i + 1]]
Blocks = tuple[np.ndarray, np.ndarray]


def _flatten(blocks) -> Blocks:
    """Concatenated members of a list of index lists, and their offsets."""
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks)),
              out=offsets[1:])
    members = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.int64,
                          count=int(offsets[-1]))
    return members, offsets


def _run_offsets(keys: np.ndarray) -> np.ndarray:
    """Offsets of the runs of equal values in ``keys``, plus its length."""
    if keys.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])


def _segment_sums(points: np.ndarray, members: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of ``points[members]`` over each segment, in member order.

    A sparse product with the blocks' 0/1 indicator matrix, so the member
    rows are never copied out.
    """
    if members.size == 0:  # spares building an empty sparse matrix
        return np.zeros((offsets.size - 1, points.shape[1]))
    indicator = csr_array((np.ones(members.size), members, offsets),
                          shape=(offsets.size - 1, points.shape[0]))
    return indicator @ points


def kmeanspp_seed(frame: PointFrame, weights: np.ndarray, k: int, seed: int,
                  heads: np.ndarray | None = None,
                  free: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Weighted D^2 seeding over ``heads`` (rows of their own, drawn first)
    and then the frame's points at ``free`` (all of them when None).

    The first center is sampled proportionally to weight; each next center
    proportionally to weight times squared distance to the nearest chosen
    center. When fewer distinct points than k exist, sampling falls back to
    weight-proportional duplicates and the result is flagged degenerate.

    A center's squared distances to the frame's points are the frame's
    vector reading; rows that read within its margin of 0 are recomputed by
    exact differences, so a coincident point reads exactly 0. Distances to
    the heads are exact differences.
    """
    X = frame.points
    if heads is None:
        heads = X[:0]
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() < k:
        raise ValueError("total weight must be at least k")
    rng = np.random.default_rng(seed)
    m = weights.size
    h = heads.shape[0]

    def row(idx: int) -> np.ndarray:
        if idx < h:
            return heads[idx]
        return X[idx - h if free is None else free[idx - h]]

    reading = np.empty(X.shape[0])

    def dist_to(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        margin = frame.read_into(c, reading)
        np.maximum(reading, 0.0, out=reading)
        near = np.flatnonzero(reading <= margin)
        diff = X[near] - c
        np.square(diff, out=diff)
        reading[near] = diff.sum(axis=1)
        if free is None:
            out[h:] = reading
        else:
            np.take(reading, free, out=out[h:])
        if h:
            diff = heads - c
            np.square(diff, out=diff)
            out[:h] = diff.sum(axis=1)
        return out

    first = int(rng.choice(m, p=weights / weights.sum()))
    chosen = [first]
    degenerate = False
    d2 = dist_to(row(first), np.empty(m))
    buf = np.empty(m)
    while len(chosen) < k:
        mass = weights * d2
        total = mass.sum()
        if total <= 0:
            degenerate = True
            idx = int(rng.choice(m, p=weights / weights.sum()))
        else:
            idx = int(rng.choice(m, p=mass / total))
        chosen.append(idx)
        np.minimum(d2, dist_to(row(idx), buf), out=d2)
    return np.array([row(idx) for idx in chosen]), degenerate


def _merge_hard_sets(ml_sets: list[MLSet]) -> Blocks:
    """Hard sets that share members merged into one block (ML is transitive),
    blocks ordered by their smallest member."""
    hard = [s.members for s in ml_sets if s.hard]
    points = sorted({m for members in hard for m in members})
    index = {p: i for i, p in enumerate(points)}
    pairs = [(index[members[0]], index[m]) for members in hard for m in members[1:]]
    return _flatten([[points[i] for i in g] for g in connected_groups(len(points), pairs)])


def _soft_members(ml_sets: list[MLSet], claimed: set[int]) -> Blocks:
    """Members of each soft set not already claimed by a hard block or an
    earlier soft set; sets left with fewer than 2 members are dropped.
    Flattened once here, for every grouping round of a run to reuse.
    """
    members: list[int] = []
    offsets = [0]
    taken = set(claimed)
    for s in ml_sets:
        if s.hard:
            continue
        kept = [m for m in s.members if m not in taken]
        if len(kept) >= 2:
            members.extend(kept)
            offsets.append(len(members))
            taken.update(kept)
    return np.array(members, dtype=np.int64), np.array(offsets, dtype=np.int64)


def _merge_parts(sums: np.ndarray, cost_to: np.ndarray, size: np.ndarray,
                 part_set: np.ndarray, centers: np.ndarray,
                 w_ml: float) -> tuple[np.ndarray, np.ndarray]:
    """The part each part ends up in after the merge passes, run in lockstep
    over every set split two or more ways, and the coordinate sums with each
    surviving part's absorbed parts added in.

    A pass visits a set's live parts by decreasing size, then by index, as
    ``a`` and, for each, as ``b``; ``a`` absorbs ``b`` when keeping them
    split (each part at the center nearest its mass center, plus ``w_ml``
    per point) costs more than sending the union to the center nearest its
    mass center. Passes repeat until one merges nothing.

    Per part: the sum of its members' coordinates, their summed cost to each
    center, its size, and its set (a set's parts are adjacent, in the order
    of their nearest center); ``sums`` and ``cost_to`` are updated in place.
    Step ``(i, j)`` of a pass tests, in every set at once, whether the set's
    ``i``-th part in pass order absorbs its ``j``-th, so a test needs no pass
    over members.
    """
    n = size.size
    # entry n is a dead part that pads sets with fewer parts than the widest
    size = np.r_[size, 0]
    alive = np.r_[np.ones(n, dtype=bool), False]
    root = np.arange(n + 1)
    bounds = _run_offsets(part_set)
    first, count = bounds[:-1], np.diff(bounds)
    first, count = first[count >= 2], count[count >= 2]
    if first.size == 0:
        return root[:n], sums
    width = int(count.max())
    cols = np.arange(width)
    slots = np.where(cols < count[:, None], first[:, None] + cols, n)
    near = np.zeros(n + 1)  # cost from each part's mass center to its nearest center
    split = slots[slots < n]
    near[split] = sq_dist(sums[split] / size[split, None], centers).min(axis=1)
    running = np.ones(first.size, dtype=bool)
    while running.any():
        rows = np.flatnonzero(running)
        # pass order: live parts by decreasing size, then by index; dead ones last
        live = slots[rows]
        order = np.take_along_axis(
            live, np.argsort(np.where(alive[live], -size[live], 1), axis=1, kind="stable"), axis=1)
        changed = np.zeros(rows.size, dtype=bool)
        for i, j in itertools.permutations(range(width), 2):
            a, b = order[:, i], order[:, j]
            active = np.flatnonzero(alive[a] & alive[b])
            if active.size == 0:
                continue
            a, b = a[active], b[active]
            union_size = size[a] + size[b]
            union_sum = sums[a] + sums[b]
            d = sq_dist(union_sum / union_size[:, None], centers)
            target = d.argmin(axis=1)
            merged_cost = cost_to[a, target] + cost_to[b, target]
            merge = (w_ml + near[b]) * size[b] + (w_ml + near[a]) * size[a] > merged_cost
            a, b = a[merge], b[merge]
            size[a], sums[a] = union_size[merge], union_sum[merge]
            near[a] = d[merge, target[merge]]
            cost_to[a] += cost_to[b]
            alive[b] = False
            into = np.arange(n + 1)
            into[b] = a
            root = into[root]
            changed[active[merge]] = True
        running[rows] = changed & (alive[order].sum(axis=1) > 1)
    return root[:n], sums


def _soft_groups(points: np.ndarray, soft: Blocks, centers: np.ndarray,
                 w_ml: float) -> tuple[np.ndarray, np.ndarray]:
    """Group label of each soft member, the part of its set it ends up in,
    and the coordinate sum of each group by label.

    Parts are numbered by (set, nearest center); a label is the number of
    the part that absorbed the member's own part.
    """
    members, offsets = soft
    if members.size == 0:  # the baseline, and runs whose ML sets are all hard
        return np.empty(0, dtype=np.int64), np.empty((0, points.shape[1]))
    set_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    dist = sq_dist(points, centers, rows=members)
    key = set_of * centers.shape[0] + dist.argmin(axis=1)
    # parts: the members of one set nearest one center
    order = np.argsort(key, kind="stable")
    part_off = _run_offsets(key[order])
    size = np.diff(part_off)
    cost_to = _segment_sums(dist, order, part_off)
    del dist  # the largest array here; the merge passes need only the sums
    root, sums = _merge_parts(_segment_sums(points, members[order], part_off), cost_to, size,
                              set_of[order[part_off[:-1]]], centers, w_ml)
    label = np.empty(members.size, dtype=np.int64)
    label[order] = np.repeat(root, size)
    return label, sums


def build_groups(points: np.ndarray, hard: Blocks, soft: Blocks, centers: np.ndarray,
                 w_ml: float) -> Groups:
    """Hard blocks pass through; soft sets are partitioned and merge-tested.

    Each soft set is split by its members' nearest centers and its parts
    merged while profitable, batched over all soft sets: one kernel call
    finds every member's nearest center, a set whose members share it stays
    one block, and the sets split two or more ways run the merge passes in
    lockstep.
    """
    hard, hard_off = hard
    n_hard = hard_off.size - 1
    soft_label, soft_sums = _soft_groups(points, soft, centers, w_ml)
    members = np.concatenate([hard, soft[0]])
    labels = np.concatenate([np.repeat(np.arange(n_hard), np.diff(hard_off)),
                             n_hard + soft_label])
    by_group = np.lexsort((members, labels))
    members, labels = members[by_group], labels[by_group]
    offsets = _run_offsets(labels)
    sums = np.concatenate([_segment_sums(points, hard, hard_off),
                           soft_sums[labels[offsets[n_hard:-1]] - n_hard]])
    return Groups(members=members, offsets=offsets,
                  centroids=sums / np.diff(offsets)[:, None])


@dataclass
class Start:
    """Seeded centers and their grouping, where the constrained loop starts,
    plus the ML blocks every later grouping reuses."""

    hard: Blocks
    soft: Blocks
    centers: np.ndarray
    degenerate: bool
    groups: Groups


def seed_and_group(data: EmbeddedDataset, ml_sets: list[MLSet], penalties: Penalties,
                   k: int, seed: int) -> Start:
    """Seed centers with hard-ML representatives and group the ML sets
    against them: the start of ``lsck_hc`` and ``lsck``."""
    hard = _merge_hard_sets(ml_sets)
    soft = _soft_members(ml_sets, set(hard[0].tolist()))
    centers, degenerate = _seed(data.frame, hard, k, seed)
    groups = build_groups(data.points, hard, soft, centers, penalties.w_ml)
    return Start(hard=hard, soft=soft, centers=centers, degenerate=degenerate, groups=groups)


def _seed(frame: PointFrame, hard: Blocks, k: int, seed: int) -> tuple[np.ndarray, bool]:
    """k-means++ over each hard block's mass center, weighted by its size,
    and every point outside the hard blocks; the free points are read in
    place, not copied out."""
    X = frame.points
    members, offsets = hard
    if members.size == 0:
        return kmeanspp_seed(frame, np.ones(X.shape[0]), k, seed)
    sizes = np.diff(offsets)
    heads = _segment_sums(X, members, offsets) / sizes[:, None]
    free = np.ones(X.shape[0], dtype=bool)
    free[members] = False
    weights = np.concatenate([sizes, np.ones(X.shape[0] - members.size, dtype=np.int64)])
    return kmeanspp_seed(frame, weights, k, seed, heads, np.flatnonzero(free))


_GAIN_TOL = 1e-6


def cl_local_search(elements: tuple[np.ndarray, np.ndarray], cl_element_sets: list[list[int]],
                    centers: np.ndarray, w_cl: float,
                    gain_trace: list[float] | None = None) -> dict[int, int]:
    """Assign CL elements to centers by repeated min-cost matching.

    ``elements`` holds the elements' mass centers (rows) and weights; the
    sets index into them. For each set, the matching M pins every element to
    a distinct center. Releasing element y re-matches the rest (M'); the
    release gain g_y = cost(M) - cost(M') - cost(y, nearest center) is
    always nonnegative and is compared against num_y * w_cl, where num_y
    counts the points whose matched center changes plus the points y itself
    carries. The argmax element is released to its nearest center until the
    gain no longer beats the penalty, then M is committed. Matching costs and
    num_y are both scaled by element weight, so w_cl stays a per-point
    penalty when an element is a multi-point block. A round solves M and
    then one M' per element, each by its own ``min_cost_matching``.
    """
    centroids, weights = elements
    assignment: dict[int, int] = {}
    k = centers.shape[0]
    for eset in cl_element_sets:
        Y = [e for e in eset if e not in assignment]
        if len(Y) > k:
            raise ValueError(f"CL set has {len(Y)} blocks but only {k} centers")
        while Y:
            w = np.asarray(weights[Y], dtype=np.float64)
            costs = sq_dist(centroids[Y], centers) * w[:, None]
            matching = min_cost_matching(costs)
            nearest_cols = np.argmin(costs, axis=1)
            gains = np.empty(len(Y))
            nums = np.empty(len(Y))
            for pos in range(len(Y)):
                sub = min_cost_matching(np.delete(costs, pos, axis=0))
                rest = [q for q in range(len(Y)) if q != pos]
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
            # two elements competing for one center tie exactly, but their
            # gains are differences of sums rounded in different orders, so
            # gains within 1e-9 relative of the round's cost count as equal;
            # the lowest index wins
            tie = 1e-9 * (1.0 + abs(matching.total_cost))
            star = int(np.flatnonzero(gains >= gains.max() - tie)[0])
            if gains[star] < nums[star] * w_cl:
                for q, e in enumerate(Y):
                    assignment[e] = int(matching.assignment[q])
                break
            assignment[Y[star]] = int(nearest_cols[star])
            Y.pop(star)
    return assignment


def _assign(frame: PointFrame, groups: Groups, cl_sets, centers: np.ndarray, pen: Penalties,
            gain_trace: list[float] | None = None) -> np.ndarray:
    """Labels of one constrained assignment round against fixed centers.

    An element is a group or a point outside every group. Elements of CL
    sets are placed by the CL local search; every other element goes to the
    center nearest its mass center by ``nearest_center``, so exact ties go
    to the lowest index for groups as for free points. ML wins over CL: CL
    members that fall in one block of this round's grouping (a hard block or
    a merged soft set) count as one element, and a CL set left with fewer
    than two elements is ignored for the round.
    """
    X = frame.points
    n_groups = groups.offsets.size - 1
    # the element of each point: its group, or n_groups + i for a free point i
    point_elem = np.arange(n_groups, n_groups + X.shape[0])
    point_elem[groups.members] = np.repeat(np.arange(n_groups), groups.weights)
    elem_center = nearest_center(frame, centers)
    if n_groups:
        group_frame = point_frame(groups.centroids)
        elem_center = np.concatenate([nearest_center(group_frame, centers), elem_center])
        # the run's count covers the groups' re-decided rows too
        frame.redecided += group_frame.redecided
    # CL sets over the elements they touch, which get rows 0, 1, ... in order
    row: dict[int, int] = {}
    cl_element_sets = []
    for cl in cl_sets:
        elems = dict.fromkeys(point_elem[list(cl.members)].tolist())
        if len(elems) >= 2:
            cl_element_sets.append([row.setdefault(e, len(row)) for e in elems])
    elem = np.fromiter(row, dtype=np.int64, count=len(row))
    grouped = elem < n_groups
    coords = np.empty((elem.size, X.shape[1]))
    coords[grouped] = groups.centroids[elem[grouped]]
    coords[~grouped] = X[elem[~grouped] - n_groups]
    weights = np.ones(elem.size, dtype=np.int64)
    weights[grouped] = groups.weights[elem[grouped]]
    assignment = cl_local_search((coords, weights), cl_element_sets, centers, pen.w_cl, gain_trace)
    elem_center[elem[list(assignment)]] = list(assignment.values())
    return elem_center[point_elem]


def _update_centers(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Mean of each center's points, summed in point order; a center with
    no points keeps its place."""
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # the same permutation as sorting the labels themselves; numpy radix-sorts
    # integers of 16 bits or less
    order = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")
    sums = _segment_sums(X, order, offsets)
    new = centers.copy()
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    return new


def _objective(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """Sum of squared point-to-assigned-center distances, in one n x d buffer."""
    buf = np.take(centers, labels, axis=0)
    np.subtract(X, buf, out=buf)
    np.square(buf, out=buf)
    return float(buf.sum())


def resolve_penalties(data: EmbeddedDataset, k: int, seed: int,
                      convergence: Convergence | None = None) -> Penalties:
    """Scale-aware defaults from one unconstrained baseline run on the same
    data and seed.

    w_ml is the mean squared point-to-assigned-center distance. w_cl is one
    cluster's share of the baseline objective (objective / k): breaking a CL
    pin is only worth it when the matching overpays by more than a typical
    cluster's entire cost per pinned point, so a cannot-link block can drag
    a duplicated center out of an overcrowded region instead of being
    released back to it.
    """
    base = kmeans_baseline(data, k, seed, convergence)
    return Penalties(w_ml=base.objective / data.n, w_cl=base.objective / k)


def _run(data: EmbeddedDataset, collection: ConstraintCollection,
         penalties: Penalties | None, k: int, seed: int,
         convergence: Convergence | None, use_hard: bool) -> ClusteringResult:
    if not 1 <= k <= data.n:
        raise ValueError(f"k must be in [1, {data.n}]")
    conv = convergence if convergence is not None else Convergence()
    X = data.points
    frame = data.frame
    tol = conv.resolve_tol(frame)
    pen = penalties
    if pen is None:
        # the baseline runs on the same data, so it reuses the resolved tol
        pen = resolve_penalties(data, k, seed, Convergence(tol=tol, max_iters=conv.max_iters))
    # the frame serves every run on the data: this run counts from here
    redecided = frame.redecided

    ml_sets = collection.ml_sets
    if not use_hard:
        ml_sets = [replace(s, hard=False) for s in ml_sets]
    start = seed_and_group(data, ml_sets, pen, k, seed)
    centers, groups = start.centers, start.groups

    gain_trace: list[float] = []
    iterations = 0
    converged = False
    for _ in range(conv.max_iters):
        labels = _assign(frame, groups, collection.cl_sets, centers, pen, gain_trace)
        new_centers = _update_centers(X, labels, centers)
        displacement = float(((new_centers - centers) ** 2).sum(axis=1).max())
        centers = new_centers
        groups = build_groups(X, start.hard, start.soft, centers, pen.w_ml)
        iterations += 1
        if displacement <= tol:
            converged = True
            break
    # final assignment against the final centers, so the reported labels and
    # centers are mutually consistent
    labels = _assign(frame, groups, collection.cl_sets, centers, pen, gain_trace)
    return ClusteringResult(
        labels=labels,
        centers=centers,
        objective=_objective(X, labels, centers),
        iterations=iterations,
        converged=converged,
        degenerate_seeding=start.degenerate,
        penalties=pen,
        min_gain_seen=float(min(gain_trace)) if gain_trace else np.inf,
        redecided=frame.redecided - redecided,
    )


def lsck_hc(data: EmbeddedDataset, collection: ConstraintCollection,
            penalties: Penalties | None, k: int, seed: int,
            convergence: Convergence | None = None) -> ClusteringResult:
    """Full constrained clustering with hard and soft ML plus CL sets."""
    return _run(data, collection, penalties, k, seed, convergence, use_hard=True)


def lsck(data: EmbeddedDataset, collection: ConstraintCollection,
         penalties: Penalties | None, k: int, seed: int,
         convergence: Convergence | None = None) -> ClusteringResult:
    """Variant treating every ML set as soft (no hard seeding representatives)."""
    return _run(data, collection, penalties, k, seed, convergence, use_hard=False)


def kmeans_baseline(data: EmbeddedDataset, k: int, seed: int,
                    convergence: Convergence | None = None) -> ClusteringResult:
    """Unconstrained k-means++ seeding plus Lloyd iterations: the constrained
    loop with no constraint sets."""
    return _run(data, ConstraintCollection(), Penalties(0.0, 0.0), k, seed, convergence,
                use_hard=True)
