"""Constraint set generation: grid-driven ML candidates, binary-searched
hard/soft diameter thresholds, radius-gated CL growth, and ratio-controlled
mixing for experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from setclust.dataset import EmbeddedDataset
from setclust.geometry import (KERNEL_BLOCK, GridPartition, farther_than, point_dist, point_frame,
                               sq_dist)
from setclust.oracle import MLGroupQuery, consistency_repeat

ALPHA_PAIR = 5
ALPHA_SET = 10
DEFAULT_M_MAX = 10


@dataclass(frozen=True)
class MLSet:
    """Points encouraged (soft) or required (hard) to share one cluster."""

    members: tuple[int, ...]
    hard: bool = False
    diameter: float = 0.0
    level: int | None = None

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("an ML set needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("ML set members must be distinct")


@dataclass(frozen=True)
class CLSet:
    """Points to be placed in pairwise distinct clusters; size bounded by k."""

    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a CL set needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("CL set members must be distinct")


@dataclass(frozen=True)
class ThresholdResult:
    """Max hard diameters per arity class (2-point sets vs size >= 3)."""

    psi_pair: float
    psi_set: float


@dataclass
class ConstraintCollection:
    ml_sets: list[MLSet] = field(default_factory=list)
    cl_sets: list[CLSet] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


# sets of at least this many points take set_diameter's Gram form; below it
# the fixed cost of the frame and the re-check outweighs the saved arithmetic
# (on a 2-vCPU x86-64 host the two took the same time at about 20 points,
# dim 16 and 64)
DIAMETER_GRAM_MIN = 20


def set_diameter(points: np.ndarray, members: tuple[int, ...]) -> float:
    """Largest pairwise distance among ``members``.

    The result has the bits of the unblocked m×m×d form: the largest
    ``sqrt(sum((a - b) ** 2))`` over pairs. A set of fewer than
    ``DIAMETER_GRAM_MIN`` points takes the root of the largest ``sq_dist``
    of the set to itself (sqrt is monotone). A larger set takes the matrix
    reading of its own ``PointFrame``, a block of rows against the rows from
    the block on, and recomputes by exact differences every pair that reads
    within the margin of the largest value read so far; the farthest pair is
    always among them. Either way the temporaries hold about
    ``KERNEL_BLOCK`` elements (one row's worth when that is larger).
    """
    sub = points[list(members)]
    m, d = sub.shape
    if m < DIAMETER_GRAM_MIN:
        return float(np.sqrt(sq_dist(sub, sub).max()))
    best = 0.0
    frame = point_frame(sub)
    step = max(1, KERNEL_BLOCK // m)
    pair_step = max(1, KERNEL_BLOCK // d)
    top = -np.inf  # largest squared distance read so far
    # the largest margin so far, which covers the reading of top's pair too
    margin = 0.0
    for lo in range(0, m, step):
        block, block_margin = frame.read(sub[lo:lo + step], lo)
        margin = max(margin, block_margin)
        top = max(top, float(block.max()))
        rows, cols = np.nonzero(block >= top - margin)
        rows += lo
        cols += lo
        for at in range(0, rows.size, pair_step):
            diffs = sub[rows[at:at + pair_step]] - sub[cols[at:at + pair_step]]
            np.square(diffs, out=diffs)
            best = max(best, float(np.sqrt(diffs.sum(axis=1)).max()))
    return best


def _query(data: EmbeddedDataset, ids) -> MLGroupQuery:
    """The grouping query listing the texts of ``ids`` in that order."""
    ids = tuple(ids)
    return MLGroupQuery(ids=ids, texts=tuple(data.text(i) for i in ids))


def _chunks(seq: list[int], size: int):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _locality_order(points: np.ndarray, cell: list[int]) -> tuple[list[int], np.ndarray | None]:
    """Greedy nearest-neighbor chain so chunk boundaries respect locality.

    Starts from the lowest index and always appends the unvisited member
    closest to the last one (ties to the lowest index), keeping mutually
    close points inside the same chunk when a large cell is split.

    A cell of fewer than ``DIAMETER_GRAM_MIN`` points takes one matrix of
    exact distances, the roots of ``sq_dist`` of the cell to itself (members
    ascending), and each step is the first ``argmin`` of the last point's
    row with visited columns at +inf. Roots, because two squared sums one
    ulp apart can share a root, and then the lower index must win. That
    matrix is returned with the chain, so a subset's diameter is the
    largest entry over its members, with the bits of ``set_diameter``.

    A larger cell returns None for the matrix. Each step is the vector
    reading of the cell's own ``PointFrame`` against the last point, with
    visited rows at +inf. Only rows within the reading's margin of the
    smallest can be the exact nearest; when there are several,
    ``point_dist`` re-decides among them, so the chain is the one exact
    differences give.
    """
    ids = sorted(cell)
    sub = points[ids]
    order = [0]
    if len(ids) < DIAMETER_GRAM_MIN:
        dist = np.sqrt(sq_dist(sub, sub))
        unvisited = dist.copy()
        unvisited[:, 0] = np.inf
        for _ in range(len(ids) - 1):
            order.append(int(unvisited[order[-1]].argmin()))
            unvisited[:, order[-1]] = np.inf
        return [ids[pos] for pos in order], dist
    frame = point_frame(sub)
    reading = np.empty(len(ids))
    for _ in range(len(ids) - 1):
        last = order[-1]
        # the frame is the chain's own, so a visited row's norm turns +inf
        frame.norms[last] = np.inf
        margin = frame.read_into(sub[last], reading)
        nearest = int(reading.argmin())
        bound = reading[nearest] + margin
        if np.count_nonzero(reading <= bound) > 1:
            near = np.flatnonzero(reading <= bound)
            rows = sub[near]
            nearest = int(near[np.argmin(point_dist(rows, sub[last], rows))])
        order.append(nearest)
    return [ids[pos] for pos in order], None


def generate_ml_sets(data: EmbeddedDataset, oracle, grid: GridPartition,
                     m_max: int = DEFAULT_M_MAX) -> list[MLSet]:
    """Query the oracle once per grid-cell chunk and keep multi-text groups.

    Cells larger than ``m_max`` are chunked; cells (and trailing chunks) of a
    single point are skipped, since a one-text query carries no information.
    Each resulting set records the grid level that produced it; the
    constraint file keeps it, and the threshold search groups candidate
    diameters by arity only. A set's diameter is read off the exact distance
    matrix of its cell when ``_locality_order`` took one, and is
    ``set_diameter`` otherwise; both have the same bits. The sets are
    pairwise disjoint: the grid's cells partition the points, chunks
    partition a cell and the oracle's groups partition a chunk.
    """
    if m_max < 2:
        raise ValueError("m_max >= 2 required")
    ml_sets: list[MLSet] = []
    for (level, _leader), cell in sorted(grid.cells.items()):
        if len(cell) < 2:
            continue
        order, dist = _locality_order(data.points, cell)
        ids = np.sort(cell)
        for chunk in _chunks(order, m_max):
            if len(chunk) < 2:
                continue
            for group in oracle.query_ml_group(_query(data, chunk)).groups:
                if len(group) < 2:
                    continue
                members = tuple(sorted(chunk[pos] for pos in group))
                if dist is None:
                    diameter = set_diameter(data.points, members)
                else:
                    at = np.searchsorted(ids, members)
                    diameter = float(dist[np.ix_(at, at)].max())
                ml_sets.append(MLSet(members=members, hard=False, diameter=diameter,
                                     level=level))
    return ml_sets


ALPHA_MERGE = 3
MAX_MERGE_ROUNDS = 8


def _cut_segments(points: np.ndarray, order: list[int], tau: float):
    """Cut a locality-ordered chain into segments at distance jumps > tau.

    The cut keeps each segment spatially tight, so a segment is very
    unlikely to straddle two well-separated groups. The jumps are row-wise
    norms of consecutive differences; one may differ from the 1-D
    ``np.linalg.norm`` in the last bit, so jumps within 1e-9 (relative) of
    tau are decided by the 1-D norm, as in ``grid_partition``.
    """
    gaps = np.diff(points[order], axis=0)
    np.square(gaps, out=gaps)
    gaps = np.sqrt(gaps.sum(axis=1))
    cuts = gaps > tau
    for pos in np.flatnonzero(np.abs(gaps - tau) <= 1e-9 * tau).tolist():
        cuts[pos] = np.linalg.norm(points[order[pos + 1]] - points[order[pos]]) > tau
    bounds = [0, *(np.flatnonzero(cuts) + 1).tolist(), len(order)]
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def connected_groups(n: int, pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the undirected graph on 0..n-1 with edges
    ``pairs``: members ascending, groups ordered by smallest member, which is
    the order in which ``connected_components`` labels them."""
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    graph = coo_array((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    order = np.argsort(labels, kind="stable")
    return [g.tolist() for g in np.split(order, np.cumsum(np.bincount(labels)))[:-1]]


def consolidate_ml_sets(data: EmbeddedDataset, oracle, ml_sets: list[MLSet],
                        cost_kc: float, m_max: int = DEFAULT_M_MAX) -> list[MLSet]:
    """Merge ML sets whose representatives the oracle groups together.

    The blocks are the input sets plus a one-point block for each point no
    input set covers. Each round takes one representative per block (the
    lowest member index), orders representatives by locality, and cuts the
    chain into segments at distance jumps above ``0.8 * cost_kc``. A segment
    longer than ``m_max`` is asked as a sequence of grouping queries that
    overlap by one text, so its merges chain through the shared
    representative; each of these queries is asked once. Pairs of
    chain-adjacent segments are bridged with two-text queries, merging only
    when ``consistency_repeat`` finds the two texts one group in each of
    ``ALPHA_MERGE`` repeats; asking stops at the first "two groups".
    A segment is kept spatially tight on purpose: a query containing two
    different multi-member topics would be glued into one group by a single
    noisy pairwise verdict, and because any such verdict produces the same
    glued partition, repetition cannot detect it. Tight segments make the
    true partition of every multi-text query a single group, and restrict
    cross-topic decisions to two-text bridges, where a wrong "one group"
    verdict must repeat ``ALPHA_MERGE`` times to pass. Rounds repeat until no
    merge happens, up to ``MAX_MERGE_ROUNDS`` — an unbounded loop would keep
    re-rolling oracle noise until some spurious merge eventually passed.
    An input set no round merges comes back as the same object; a merged
    block becomes a soft set, priced by one ``set_diameter`` call after the
    last round; a one-point block still alone is dropped.
    """
    covered = {m for s in ml_sets for m in s.members}
    blocks = [s.members for s in ml_sets] + [(i,) for i in range(data.n) if i not in covered]
    # the input set each block still is, or None once it has merged
    unmerged: list[MLSet | None] = list(ml_sets) + [None] * (len(blocks) - len(ml_sets))
    tau = 0.8 * cost_kc if cost_kc > 0 else float("inf")
    for _round in range(MAX_MERGE_ROUNDS):
        if len(blocks) < 2:
            break
        reps = [min(block) for block in blocks]
        rep_to_block = {rep: i for i, rep in enumerate(reps)}
        pairs: list[tuple[int, int]] = []
        segments = _cut_segments(data.points, _locality_order(data.points, reps)[0], tau)
        for segment in segments:
            # overlap by one so merges chain through the shared text
            for start in range(0, len(segment) - 1, m_max - 1):
                ids = segment[start:start + m_max]
                for group in oracle.query_ml_group(_query(data, ids)).groups:
                    pairs.extend((rep_to_block[ids[group[0]]], rep_to_block[ids[pos]])
                                 for pos in group[1:])
        for left, right in zip(segments, segments[1:]):
            if consistency_repeat(oracle, _query(data, (left[-1], right[0])), ALPHA_MERGE):
                pairs.append((rep_to_block[left[-1]], rep_to_block[right[0]]))
        merged = connected_groups(len(blocks), pairs)
        if len(merged) == len(blocks):
            break
        unmerged = [unmerged[group[0]] if len(group) == 1 else None for group in merged]
        blocks = [tuple(sorted({m for i in group for m in blocks[i]})) for group in merged]
    return [s if s is not None else MLSet(members=block,
                                          diameter=set_diameter(data.points, block))
            for s, block in zip(unmerged, blocks) if len(block) >= 2]


MAX_THRESHOLD_PROBES = 16


def _search_class(data, oracle, candidates: list[MLSet], alpha: int) -> float:
    if not candidates:
        return 0.0
    by_diameter: dict[float, MLSet] = {}
    for cand in candidates:
        by_diameter.setdefault(cand.diameter, cand)
    psis = sorted(by_diameter)
    if len(psis) > MAX_THRESHOLD_PROBES:
        # subsample to evenly spaced quantiles so the repeated-query budget
        # stays bounded no matter how many candidate diameters exist
        idx = np.linspace(0, len(psis) - 1, MAX_THRESHOLD_PROBES).round().astype(int)
        psis = [psis[i] for i in sorted(set(int(i) for i in idx))]
    lo, hi = 0, len(psis) - 1
    best = -1
    # assumes consistency is monotone in the diameter
    while lo <= hi:
        mid = (lo + hi) // 2
        if consistency_repeat(oracle, _query(data, by_diameter[psis[mid]].members), alpha):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return psis[best] if best >= 0 else 0.0


def compute_hard_thresholds(data: EmbeddedDataset, oracle,
                            candidates: list[MLSet]) -> ThresholdResult:
    """Binary search the largest diameter per arity class whose candidate the
    oracle keeps answering as one group.

    Candidates of each class are ordered by distinct diameter; a probe is
    ``consistency_repeat`` of the candidate's members with ``ALPHA_PAIR``
    (pairs) or ``ALPHA_SET`` (larger sets) repeats, and passes only when
    every repeat returns the whole set as one group. A class with no
    candidates, or whose smallest diameter already fails, gets threshold 0.
    """
    pairs = [c for c in candidates if len(c.members) == 2]
    sets_ = [c for c in candidates if len(c.members) >= 3]
    return ThresholdResult(
        psi_pair=_search_class(data, oracle, pairs, ALPHA_PAIR),
        psi_set=_search_class(data, oracle, sets_, ALPHA_SET),
    )


def classify_hard_soft(ml_sets: list[MLSet], thresholds: ThresholdResult) -> list[MLSet]:
    """Flag sets hard when their diameter is within their class threshold."""
    out = []
    for s in ml_sets:
        psi = thresholds.psi_pair if len(s.members) == 2 else thresholds.psi_set
        out.append(replace(s, hard=s.diameter <= psi))
    return out


def generate_cl_sets(data: EmbeddedDataset, oracle, cost_kc: float, k: int, seed: int,
                     max_sets: int | None = None,
                     m_max: int = DEFAULT_M_MAX) -> tuple[list[CLSet], int]:
    """Grow CL sets from uncovered points gated by the k-center radius, one
    grouping query per round.

    A set starts from a random uncovered point; its pool is the uncovered
    points farther than ``cost_kc`` from it. Each round draws fresh texts
    uniformly from a working copy of the pool, gating the copy by every
    draw, until the set and the draws reach ``min(k, m_max)`` texts or the
    copy runs dry. One grouping query (ledger kind ``"cl"``) lists the
    members in join order and then the draws; a draw joins when no earlier
    position shares its group (the group's smallest position is its own).
    When every draw joined, the pool is the gated copy; otherwise the draws
    leave the pool, which is gated by the ones that joined only. The set
    closes at ``min(k, m_max)`` members or when its pool is empty; a set of
    one member is discarded (its seed still counts as covered so generation
    terminates). ``max_sets`` caps the number of kept sets (None grows sets
    until every point is covered). Returns the kept sets and the number of
    draws that did not join. The gate is ``farther_than``: one reading of the
    dataset's frame per gating point.
    """
    if k < 2:
        raise ValueError("k >= 2 required")
    if m_max < 2:
        raise ValueError("m_max >= 2 required")
    size = min(k, m_max)
    rng = np.random.default_rng(seed)
    frame = data.frame
    reading = np.empty(data.n)
    uncovered = np.ones(data.n, dtype=bool)
    cl_sets: list[CLSet] = []
    rejections = 0

    def far_from(eligible: np.ndarray, point: int) -> np.ndarray:
        return farther_than(frame, data.points[point], cost_kc, eligible, reading)

    while uncovered.any():
        if max_sets is not None and len(cl_sets) >= max_sets:
            break
        # ascending uncovered points not yet drawn for this set and farther
        # than cost_kc from every member; it only shrinks while the set grows
        pool = np.flatnonzero(uncovered)
        pos = int(rng.integers(pool.size))
        members = [int(pool[pos])]
        pool = far_from(np.delete(pool, pos), members[0])
        while len(members) < size and pool.size:
            cands, fresh = pool, []
            while len(members) + len(fresh) < size and cands.size:
                pos = int(rng.integers(cands.size))
                fresh.append(int(cands[pos]))
                cands = far_from(np.delete(cands, pos), fresh[-1])
            ids = (*members, *fresh)
            response = oracle.query_ml_group(_query(data, ids), kind="cl")
            first = [0] * len(ids)  # smallest position of each position's group
            for group in response.groups:
                low = min(group)
                for at in group:
                    first[at] = low
            joined = [cand for at, cand in enumerate(fresh, len(members)) if first[at] == at]
            members += joined
            rejections += len(fresh) - len(joined)
            if len(joined) == len(fresh):
                pool = cands
            else:
                pool = np.setdiff1d(pool, fresh, assume_unique=True)
                for cand in joined:
                    pool = far_from(pool, cand)
        uncovered[members] = False
        if len(members) >= 2:
            cl_sets.append(CLSet(members=tuple(members)))
    return cl_sets, rejections


def mix_constraints(ml_sets: list[MLSet], cl_sets: list[CLSet], target_ratio: float,
                    n: int, seed: int) -> ConstraintCollection:
    """Select constraints until the constrained-instance ratio is reached.

    Repeatedly picks an unused CL set at random, then pulls in ML sets
    sharing a member with it one at a time, stopping as soon as the target
    is reached; once CL sets run out, tops up with random unused ML sets.
    The constrained-instance ratio is the fraction of distinct points
    appearing in at least one selected constraint; ``meta`` records the
    target and the ratio achieved, which stays below the target when all
    constraints run out first.
    """
    if not 0.0 <= target_ratio <= 1.0:
        raise ValueError("target_ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    chosen_ml: list[MLSet] = []
    chosen_cl: list[CLSet] = []
    covered: set[int] = set()
    unused_cl = list(cl_sets)
    unused_ml = list(ml_sets)

    def ratio() -> float:
        return len(covered) / n

    while ratio() < target_ratio and unused_cl:
        pick = unused_cl.pop(int(rng.integers(len(unused_cl))))
        chosen_cl.append(pick)
        covered.update(pick.members)
        related = [s for s in unused_ml if set(s.members) & set(pick.members)]
        for s in related:
            if ratio() >= target_ratio:
                break
            unused_ml.remove(s)
            chosen_ml.append(s)
            covered.update(s.members)
    while ratio() < target_ratio and unused_ml:
        pick = unused_ml.pop(int(rng.integers(len(unused_ml))))
        chosen_ml.append(pick)
        covered.update(pick.members)
    return ConstraintCollection(
        ml_sets=chosen_ml,
        cl_sets=chosen_cl,
        meta={"target_ratio": target_ratio, "achieved_ratio": ratio()},
    )


def save_constraints(collection: ConstraintCollection, path: str | Path) -> None:
    doc = {
        "ml": [{"members": list(s.members), "hard": s.hard,
                "diameter": s.diameter, "level": s.level} for s in collection.ml_sets],
        "cl": [{"members": list(s.members)} for s in collection.cl_sets],
        "meta": collection.meta,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _members(entry, keys: tuple[str, ...]) -> tuple[int, ...]:
    """Members of a constraint-file entry holding ``keys``, each an int >= 0."""
    if not (isinstance(entry, dict) and all(key in entry for key in keys)):
        raise ValueError(f"constraint entry needs keys {', '.join(keys)}, got {entry!r}")
    if not isinstance(entry.get("hard", False), bool):
        raise ValueError(f"hard must be true or false, got {entry['hard']!r}")
    members = entry["members"]
    if not (isinstance(members, list) and all(type(m) is int and m >= 0 for m in members)):
        raise ValueError(f"constraint members must be nonnegative integers, got {members!r}")
    return tuple(members)


def load_constraints(path: str | Path) -> ConstraintCollection:
    """A constraint file; members beyond the data are the caller's to reject."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"a constraint file holds a JSON object, got {type(doc).__name__}")
    ml = [MLSet(members=_members(e, ("members", "hard")), hard=e["hard"],
                diameter=float(e.get("diameter", 0.0)), level=e.get("level"))
          for e in doc.get("ml", [])]
    cl = [CLSet(members=_members(e, ("members",))) for e in doc.get("cl", [])]
    return ConstraintCollection(ml_sets=ml, cl_sets=cl, meta=doc.get("meta", {}))
