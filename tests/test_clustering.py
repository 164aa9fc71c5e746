"""Seeding, soft-set partitioning, CL local search, and the full pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hard_points, make_dataset
from oracles import (
    ALG1_TRACE_MERGE_WM,
    ALG1_TRACE_STAY_SPLIT_WM,
    ALG2_TRACE_COMMIT_WCL,
    ALG2_TRACE_GAINS,
    ALG2_TRACE_RELEASE_WCL,
    cl_local_search_loop,
    kmeans_baseline_loop,
    kmeanspp_seed_exact,
    nearest_exact,
    partition_soft_set,
    seed_compact_exact,
)
from setclust import clustering
from setclust.clustering import (
    Convergence,
    Penalties,
    _GAIN_TOL,
    _assign,
    _flatten,
    _merge_hard_sets,
    _objective,
    _seed,
    _update_centers,
    build_groups,
    cl_local_search,
    kmeans_baseline,
    kmeanspp_seed,
    lsck,
    lsck_hc,
    resolve_penalties,
    seed_and_group,
)
from setclust.constraints import CLSet, ConstraintCollection, MLSet
from setclust.dataset import SyntheticSpec, generate_synthetic
from setclust.geometry import nearest_center, point_frame
from setclust.matching import min_cost_matching


class TestKmeansppSeed:
    def test_k_equals_points(self):
        coords = np.array([[0.0], [3.0], [7.0]])
        centers, degenerate = kmeanspp_seed(point_frame(coords), np.ones(3), 3, seed=0)
        assert sorted(centers[:, 0].tolist()) == [0.0, 3.0, 7.0]
        assert not degenerate

    def test_heavy_point_dominates_first_draw(self):
        coords = np.array([[0.0], [100.0]])
        weights = np.array([1.0, 1000.0])
        hits = sum(
            kmeanspp_seed(point_frame(coords), weights, 1, seed=s)[0][0, 0] == 100.0
            for s in range(1000)
        )
        assert hits > 985  # expected ~999

    def test_degenerate_when_fewer_distinct_points(self):
        centers, degenerate = kmeanspp_seed(point_frame(np.zeros((3, 2))), np.ones(3), 3, seed=0)
        assert degenerate
        assert centers.shape == (3, 2)

    def test_degenerate_with_offset_duplicates(self, rng):
        # exact differences: duplicates far from the origin still read 0
        coords = np.repeat(rng.normal(size=(2, 8)) + 1e6, 3, axis=0)
        _, degenerate = kmeanspp_seed(point_frame(coords), np.ones(6), 3, seed=0)
        assert degenerate

    def test_insufficient_weight(self):
        with pytest.raises(ValueError):
            kmeanspp_seed(point_frame(np.zeros((2, 1))), np.ones(2), 3, seed=0)

    def test_deterministic(self, rng):
        coords = rng.normal(size=(30, 2))
        a, _ = kmeanspp_seed(point_frame(coords), np.ones(30), 4, seed=9)
        b, _ = kmeanspp_seed(point_frame(coords), np.ones(30), 4, seed=9)
        assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), dim=st.integers(1, 40),
       levels=st.integers(0, 5), offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       data=st.data())
def test_seeding_matches_exact_differences(seed, m, dim, levels, offset, data):
    # m rows drawn with replacement from a few distinct ones, so some
    # instances run out of distinct points (degenerate) before k centers;
    # the distinct rows lie on an integer grid, or (levels 0) are floats
    # whose norm expansion leaves rounding residue on coincident points
    rng = np.random.default_rng(seed)
    distinct = data.draw(st.integers(1, m), label="distinct")
    if levels:
        rows = rng.integers(0, levels, size=(distinct, dim)).astype(np.float64)
    else:
        rows = rng.normal(size=(distinct, dim)) * 10
    coords = rows[rng.integers(0, distinct, size=m)] + offset * rng.uniform(0.5, 1.0, size=dim)
    weights = rng.integers(1, 5, size=m)
    k = data.draw(st.integers(1, m), label="k")
    got, got_degenerate = kmeanspp_seed(point_frame(coords), weights, k, seed)
    want, want_degenerate = kmeanspp_seed_exact(coords, weights, k, seed)
    assert np.array_equal(got, want)
    assert got_degenerate == want_degenerate


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60), dim=st.integers(1, 64),
       levels=st.integers(0, 4), offset=st.sampled_from([0.0, 1e3, 1e6]), data=st.data())
def test_nearest_center_matches_exact_differences(seed, m, dim, levels, offset, data):
    # points drawn with replacement from a few distinct rows on an integer
    # grid (levels 1-4: many exact ties) or of floats (levels 0); centers
    # are grid rows, some of them coinciding with points; all share one
    # large common offset
    rng = np.random.default_rng(seed)
    distinct = data.draw(st.integers(1, m), label="distinct")
    if levels:
        rows = rng.integers(0, levels + 1, size=(distinct + m, dim)).astype(np.float64)
    else:
        rows = rng.normal(size=(distinct + m, dim)) * 10
    shift = offset * rng.uniform(0.5, 1.0, size=dim)
    points = rows[rng.integers(0, distinct, size=m)] + shift
    k = data.draw(st.integers(1, m), label="k")
    centers = rows[rng.integers(0, distinct + m, size=k)] + shift
    on_points = rng.random(k) < 0.5
    centers[on_points] = points[rng.integers(0, m, size=int(on_points.sum()))]
    got = nearest_center(point_frame(points), centers)
    assert np.array_equal(got, nearest_exact(points, centers))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), dim=st.integers(1, 8),
       levels=st.integers(0, 4), offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       data=st.data())
def test_seed_matches_compact_exact(seed, m, dim, levels, offset, data):
    # hard blocks cover anywhere from two points to all of them; their mass
    # centers come first in the draw order, then the free points
    rng = np.random.default_rng(seed)
    if levels:
        points = rng.integers(0, levels + 1, size=(m, dim)).astype(np.float64)
    else:
        points = rng.normal(size=(m, dim)) * 10
    points += offset * rng.uniform(0.5, 1.0, size=dim)
    covered = rng.permutation(m)[:data.draw(st.integers(2, m), label="covered")]
    n_sets = data.draw(st.integers(1, covered.size // 2), label="sets")
    ml = [MLSet(members=tuple(sorted(part.tolist())), hard=True)
          for part in np.array_split(covered, n_sets)]
    hard = _merge_hard_sets(ml)
    k = data.draw(st.integers(1, n_sets + m - covered.size), label="k")
    frame = point_frame(points)
    got, got_degenerate = _seed(frame, hard, k, seed)
    want, want_degenerate = seed_compact_exact(frame, hard, k, seed)
    assert np.array_equal(got, want)
    assert got_degenerate == want_degenerate


@pytest.mark.parametrize("algorithm", [lsck_hc, lsck])
@pytest.mark.parametrize("data_seed", range(4))
def test_runs_match_center_dist_rule(monkeypatch, algorithm, data_seed):
    # continuous floats, where no two centers tie for a point: the runs
    # give the labels of the broadcast exact argmin and compact exact seeding
    rng = np.random.default_rng(data_seed)
    points = rng.normal(size=(600, 12)) + rng.integers(0, 6, size=(600, 1)) * 3.0 + 1e3
    ml = [MLSet(members=tuple(sorted(rng.choice(600, 8, replace=False).tolist())),
                hard=bool(i % 2)) for i in range(12)]
    cl = [CLSet(members=tuple(sorted(rng.choice(600, 3, replace=False).tolist())))
          for _ in range(4)]
    collection = ConstraintCollection(ml_sets=ml, cl_sets=cl)
    data = make_dataset(points)
    got = algorithm(data, collection, resolve_penalties(data, 6, data_seed), 6, data_seed)
    monkeypatch.setattr(clustering, "nearest_center",
                        lambda frame, centers: nearest_exact(frame.points, centers))
    monkeypatch.setattr(clustering, "_seed", seed_compact_exact)
    want = algorithm(data, collection, resolve_penalties(data, 6, data_seed), 6, data_seed)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centers, want.centers)
    assert got.iterations == want.iterations


# the soft blocks of a collection whose ML sets are all hard
NO_SOFT = (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 30), dim=st.integers(1, 8),
       k=st.integers(2, 8), offset=st.sampled_from([0.0, 1e3, 1e6]))
def test_group_labels_are_exact_nearest(seed, m, dim, k, offset):
    # hard blocks of two coincident points on an integer grid, where exact
    # ties are common: a block goes to its members' exact nearest center,
    # ties to the lowest index, as a free point does
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(0.5, 1.0, size=dim)
    base = rng.integers(0, 4, size=(m, dim)).astype(np.float64)
    points = np.vstack([base, base]) + shift  # point i + m coincides with point i
    centers = rng.integers(0, 4, size=(k, dim)) + shift
    ml = [MLSet(members=(int(i), int(i) + m), hard=True)
          for i in rng.permutation(m)[:(m + 1) // 2]]
    groups = build_groups(points, _merge_hard_sets(ml), NO_SOFT, centers, 0.0)
    labels = _assign(point_frame(points), groups, [], centers, Penalties(0.0, 0.0))
    assert np.array_equal(labels, nearest_exact(points, centers))


class TestRedecided:
    def test_counts_groups(self):
        # a hard block of two points midway between two centers: its members
        # and its mass center each tie, and go to the lower index
        points = np.array([[0.0], [0.0], [3.0]])
        centers = np.array([[1.0], [-1.0]])
        ml = [MLSet(members=(0, 1), hard=True)]
        groups = build_groups(points, _merge_hard_sets(ml), NO_SOFT, centers, 0.0)
        frame = point_frame(points)
        labels = _assign(frame, groups, [], centers, Penalties(0.0, 0.0))
        assert labels.tolist() == [0, 0, 0]
        assert frame.redecided == 3

    def test_positive_on_integer_grid(self):
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        res = kmeans_baseline(make_dataset(np.vstack([grid, grid])), k=4, seed=0)
        assert res.redecided > 0

    def test_zero_on_blobs20k(self):
        # the benchmark's blobs20k-cluster dataset, with a few hard ML sets
        data = generate_synthetic(SyntheticSpec(k_true=10, n=20000, dim=64, separation=3.0,
                                                seed=0))
        labels = data.labels()
        ml = [MLSet(members=tuple(np.flatnonzero(labels == c)[:10].tolist()), hard=True)
              for c in range(10)]
        assert kmeans_baseline(data, k=10, seed=1).redecided == 0
        pen = resolve_penalties(data, 10, 1)
        assert lsck_hc(data, ConstraintCollection(ml_sets=ml), pen, 10, 1).redecided == 0


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_objective_bit_equal_to_broadcast(rng, offset):
    X = rng.normal(size=(3000, 17)) + offset
    centers = rng.normal(size=(9, 17)) + offset
    labels = rng.integers(0, 7, size=3000)  # two centers hold no point
    assert _objective(X, labels, centers) == float(((X - centers[labels]) ** 2).sum())


class TestSoftSetPartition:
    # 1-D instance: centers {0, 10}, soft set {1, 9}; split costs 1 + 1,
    # merged block (mass center 5) costs 82 at center 0
    POINTS = np.array([[1.0], [9.0]])
    CENTERS = np.array([[0.0], [10.0]])

    def test_stays_split_at_zero_penalty(self):
        parts = partition_soft_set(self.POINTS, [0, 1], self.CENTERS,
                                   ALG1_TRACE_STAY_SPLIT_WM)
        assert sorted(sorted(p) for p in parts) == [[0], [1]]

    def test_merges_above_break_even(self):
        parts = partition_soft_set(self.POINTS, [0, 1], self.CENTERS,
                                   ALG1_TRACE_MERGE_WM)
        assert sorted(sorted(p) for p in parts) == [[0, 1]]

    def test_huge_penalty_always_single_block(self, rng):
        points = rng.normal(size=(8, 2)) * 5
        centers = rng.normal(size=(3, 2)) * 5
        parts = partition_soft_set(points, list(range(8)), centers, 1e12)
        assert sorted(sorted(p) for p in parts) == [list(range(8))]

    def test_tight_set_near_one_center_untouched(self):
        points = np.array([[0.1], [-0.1]])
        parts = partition_soft_set(points, [0, 1], self.CENTERS, 0.0)
        assert sorted(sorted(p) for p in parts) == [[0, 1]]

    def test_partition_preserves_members(self, rng):
        points = rng.normal(size=(10, 2)) * 3
        centers = rng.normal(size=(4, 2)) * 3
        for w_ml in (0.0, 1.0, 50.0):
            parts = partition_soft_set(points, list(range(10)), centers, w_ml)
            assert sorted(m for p in parts for m in p) == list(range(10))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(0, 12), n_hard=st.integers(0, 3),
       k=st.integers(1, 6), dim=st.integers(1, 4), w_ml=st.floats(0.0, 60.0),
       grid_offset=st.sampled_from([None, 0.0, 1e3, 1e6]))
def test_batched_groups_match_set_by_set(seed, n_sets, n_hard, k, dim, w_ml, grid_offset):
    # floats (grid_offset None), or points on an integer grid and centers
    # on its even nodes, shifted by a common offset, so that members often
    # lie midway between two centers and tie
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 9, size=n_sets)
    ids = rng.permutation(int(sizes.sum()) + 3 * n_hard + 4).tolist()
    if grid_offset is None:
        points = rng.normal(size=(len(ids), dim)) * 3
        centers = rng.normal(size=(k, dim)) * 3
    else:
        points = rng.integers(0, 5, size=(len(ids), dim)) + grid_offset
        centers = 2 * rng.integers(0, 3, size=(k, dim)) + grid_offset
    hard = [tuple(sorted(ids[3 * i:3 * i + 3])) for i in range(n_hard)]
    ends = np.cumsum(sizes) + 3 * n_hard
    soft = [ids[end - size:end] for end, size in zip(ends, sizes)]
    got = build_groups(points, _flatten(hard), _flatten(soft), centers, w_ml)
    bounds = got.offsets.tolist()
    blocks = [tuple(got.members[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]
    want = hard + [tuple(sorted(part)) for members in soft
                   for part in partition_soft_set(points, members, centers, w_ml)]
    assert sorted(blocks) == sorted(want)
    assert got.weights.tolist() == [len(b) for b in blocks]
    centroids = [points[list(b)].mean(axis=0) for b in blocks]
    assert np.allclose(got.centroids, np.reshape(centroids, (len(blocks), dim)))


def singleton_elements(coords):
    coords = np.asarray(coords, dtype=float)
    return coords, np.ones(len(coords), dtype=np.int64)


class TestCLLocalSearch:
    # 1-D instance: centers {0, 10}, CL elements at {1, 2}; the min-cost
    # matching is 1->0 (cost 1), 2->10 (cost 64); both release gains are 60
    CENTERS = np.array([[0.0], [10.0]])
    ELEMENTS = singleton_elements([[1.0], [2.0]])

    def test_commit_keeps_matching(self):
        got = cl_local_search(self.ELEMENTS, [[0, 1]], self.CENTERS,
                              ALG2_TRACE_COMMIT_WCL)
        assert got == {0: 0, 1: 1}

    def test_release_collapses_to_nearest(self):
        got = cl_local_search(self.ELEMENTS, [[0, 1]], self.CENTERS,
                              ALG2_TRACE_RELEASE_WCL)
        assert got == {0: 0, 1: 0}

    def test_gain_trace_matches_hand_values(self):
        trace: list[float] = []
        cl_local_search(self.ELEMENTS, [[0, 1]], self.CENTERS,
                        ALG2_TRACE_COMMIT_WCL, gain_trace=trace)
        assert trace[:2] == [ALG2_TRACE_GAINS[1], ALG2_TRACE_GAINS[2]]

    def test_zero_penalty_gives_nearest_assignment(self):
        got = cl_local_search(self.ELEMENTS, [[0, 1]], self.CENTERS, 0.0)
        assert got == {0: 0, 1: 0}

    def test_single_element_set_goes_nearest(self):
        got = cl_local_search(singleton_elements([[7.0]]), [[0]], self.CENTERS, 5.0)
        assert got == {0: 1}

    def test_huge_penalty_pins_distinct_centers(self, rng):
        coords = rng.normal(size=(3, 2))
        centers = rng.normal(size=(4, 2)) * 10
        got = cl_local_search(singleton_elements(coords), [[0, 1, 2]],
                              centers, 1e12)
        assert len(set(got.values())) == 3

    def test_more_blocks_than_centers_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            cl_local_search(singleton_elements([[0.0], [1.0], [2.0]]),
                            [[0, 1, 2]], self.CENTERS, 1.0)

    def test_gains_never_negative(self, rng):
        # the invariant check would raise; assert the traced values directly
        for trial in range(20):
            coords = rng.normal(size=(4, 3))
            centers = rng.normal(size=(5, 3))
            trace: list[float] = []
            cl_local_search(singleton_elements(coords), [[0, 1, 2, 3]],
                            centers, float(rng.random()), gain_trace=trace)
            assert all(g >= -1e-9 for g in trace)

    @pytest.mark.parametrize("kind", ["grid", "near_ties", "offset", "floats"])
    def test_matches_one_matching_per_candidate(self, kind):
        # integer grids and near ties make tied gains and tied matchings
        rng = np.random.default_rng(["grid", "near_ties", "offset", "floats"].index(kind))
        for _ in range(60):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(n, n + 4))
            dim = int(rng.integers(1, 3))
            if kind == "offset":
                coords = 1e6 + rng.normal(size=(n, dim))
                centers = 1e6 + rng.normal(size=(k, dim))
            elif kind == "floats":
                coords, centers = rng.normal(size=(n, dim)), rng.normal(size=(k, dim))
            else:
                coords = rng.integers(0, 4, (n, dim)).astype(float)
                centers = rng.integers(0, 4, (k, dim)).astype(float)
                if kind == "near_ties":
                    coords += rng.choice([0.0, 1e-13, 1e-10, 1e-8, 1e-6], size=(n, dim))
            elements = (coords, rng.integers(1, 5, n))
            sets = [rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist()
                    for _ in range(int(rng.integers(1, 4)))]
            w_cl = float(rng.choice([0.0, 0.1, 1.0, 10.0, 1e3, 1e12]))
            got_trace: list[float] = []
            want_trace: list[float] = []
            got = cl_local_search(elements, sets, centers, w_cl, got_trace)
            want = cl_local_search_loop(elements, sets, centers, w_cl, want_trace)
            assert got == want
            assert got_trace == want_trace

    def test_round_makes_one_matching_per_element(self, rng, monkeypatch):
        calls = []

        def counting(costs):
            calls.append(costs.shape)
            return min_cost_matching(costs)

        monkeypatch.setattr(clustering, "min_cost_matching", counting)
        got = cl_local_search(singleton_elements(rng.normal(size=(20, 4))), [list(range(20))],
                              rng.normal(size=(30, 4)), 1e12)
        # one round that commits: M, then M' without each of the 20 elements
        assert calls == [(20, 30)] + [(19, 30)] * 20
        assert len(set(got.values())) == 20

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_release_gains_nonnegative(self, data):
        # integer grids and centers stacked on a few sites tie matchings and
        # gains everywhere; ties go to whichever optimum the solver returns
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(n, n + 3))
        dim = data.draw(st.integers(1, 2))
        offset = data.draw(st.sampled_from([0.0, 1e3, 1e6]))
        grid = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
        coords = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)), float) + offset
        sites = np.array(data.draw(st.lists(grid, min_size=1, max_size=3)), float) + offset
        centers = sites[data.draw(st.lists(st.integers(0, len(sites) - 1),
                                           min_size=k, max_size=k))]
        weights = np.array(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)))
        cut = data.draw(st.integers(1, n - 1))
        sets = [order[:cut], order[cut:]]
        w_cl = data.draw(st.sampled_from([0.0, 1.0, 1e12]))
        floors: list[float] = []  # per traced gain, the floor its round's M allows
        pending = 0

        def recording(costs):
            nonlocal pending
            m = min_cost_matching(costs)
            if pending:
                pending -= 1
            else:  # a round's M; one M' per element follows
                pending = costs.shape[0]
                floors.extend([-_GAIN_TOL * (1.0 + abs(m.total_cost))] * pending)
            return m

        trace: list[float] = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "min_cost_matching", recording)
            got = cl_local_search((coords, weights), sets, centers, w_cl, trace)
        assert len(trace) == len(floors)
        assert all(g >= floor for g, floor in zip(trace, floors))
        if w_cl == 1e12:
            assert all(len({got[e] for e in s}) == len(s) for s in sets)


def blocks(groups) -> list[tuple[int, ...]]:
    bounds = groups.offsets.tolist()
    return [tuple(groups.members[lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])]


class TestMlPenaltyCluster:
    def test_hard_sets_become_blocks(self):
        data = make_dataset([[0.0], [0.1], [10.0], [10.1]])
        ml = [MLSet(members=(0, 1), hard=True), MLSet(members=(2, 3), hard=True)]
        start = seed_and_group(data, ml, Penalties(1.0, 1.0), k=2, seed=0)
        assert sorted(blocks(start.groups)) == [(0, 1), (2, 3)]
        assert start.centers.shape == (2, 1)

    def test_overlapping_hard_sets_merge(self):
        data = make_dataset([[0.0], [0.1], [0.2]])
        ml = [MLSet(members=(0, 1), hard=True), MLSet(members=(1, 2), hard=True)]
        start = seed_and_group(data, ml, Penalties(1.0, 1.0), k=1, seed=0)
        assert blocks(start.groups)[0] == (0, 1, 2)
        assert start.groups.weights[0] == 3

    def test_merged_hard_blocks_ordered_by_smallest_member(self):
        ml = [MLSet(members=(5, 7), hard=True), MLSet(members=(2, 9), hard=True),
              MLSet(members=(0, 4)), MLSet(members=(3, 7), hard=True)]
        members, offsets = _merge_hard_sets(ml)
        assert members.tolist() == [2, 9, 3, 5, 7]
        assert offsets.tolist() == [0, 2, 5]


class TestFullPipeline:
    def _blobs(self, seed=0, n_per=20, sep=40.0):
        rng = np.random.default_rng(seed)
        pts, labels = [], []
        for c in range(3):
            pts.append(rng.normal(size=(n_per, 2)) + [c * sep, 0.0])
            labels += [c] * n_per
        return make_dataset(np.vstack(pts), labels=labels)

    def test_empty_constraints_match_baseline(self):
        data = self._blobs()
        constrained = lsck_hc(data, ConstraintCollection(), Penalties(1.0, 1.0),
                              k=3, seed=5)
        baseline = kmeans_baseline(data, k=3, seed=5)
        assert np.array_equal(constrained.labels, baseline.labels)
        assert constrained.objective == pytest.approx(baseline.objective)

    def test_hard_ml_always_co_clustered(self):
        data = self._blobs(seed=1)
        ml = [MLSet(members=(0, 1, 2), hard=True), MLSet(members=(20, 21), hard=True)]
        res = lsck_hc(data, ConstraintCollection(ml_sets=ml), Penalties(1.0, 1.0),
                      k=3, seed=2)
        assert len(set(res.labels[[0, 1, 2]])) == 1
        assert res.labels[20] == res.labels[21]

    def test_huge_cl_penalty_separates(self):
        data = self._blobs(seed=2)
        cl = [CLSet(members=(0, 20, 40))]
        res = lsck_hc(data, ConstraintCollection(cl_sets=cl),
                      Penalties(1.0, 1e12), k=3, seed=3)
        assert len(set(res.labels[[0, 20, 40]])) == 3

    def test_hard_ml_wins_over_cl(self):
        # 0, 1 and 2 share a blob; the hard block {0, 1} is one CL element,
        # so the CL set pins that block and point 2 to distinct centers
        data = self._blobs(seed=6)
        coll = ConstraintCollection(ml_sets=[MLSet(members=(0, 1), hard=True)],
                                    cl_sets=[CLSet(members=(0, 1, 2))])
        res = lsck_hc(data, coll, Penalties(1.0, 1e12), k=3, seed=1)
        assert res.labels[0] == res.labels[1] != res.labels[2]

    def test_cl_set_inside_one_hard_block_is_ignored(self):
        data = self._blobs(seed=7)
        ml = [MLSet(members=(0, 1, 2, 20), hard=True)]
        alone = lsck_hc(data, ConstraintCollection(ml_sets=ml), Penalties(1.0, 1e12),
                        k=3, seed=2)
        cl = [CLSet(members=(0, 2, 20))]
        both = lsck_hc(data, ConstraintCollection(ml_sets=ml, cl_sets=cl), Penalties(1.0, 1e12),
                       k=3, seed=2)
        assert np.array_equal(both.labels, alone.labels)
        assert both.objective == alone.objective
        assert both.min_gain_seen == np.inf  # no CL set reached the local search

    def test_lsck_equals_lsck_hc_without_hard_sets(self):
        data = self._blobs(seed=3)
        coll = ConstraintCollection(
            ml_sets=[MLSet(members=(0, 1), hard=False)],
            cl_sets=[CLSet(members=(0, 20))])
        a = lsck(data, coll, Penalties(1.0, 1.0), k=3, seed=4)
        b = lsck_hc(data, coll, Penalties(1.0, 1.0), k=3, seed=4)
        assert np.array_equal(a.labels, b.labels)

    def test_min_gain_seen_nonnegative(self):
        data = self._blobs(seed=4)
        coll = ConstraintCollection(cl_sets=[CLSet(members=(0, 20, 40))])
        res = lsck_hc(data, coll, Penalties(1.0, 1.0), k=3, seed=0)
        assert res.min_gain_seen >= -1e-9

    def test_deterministic(self):
        data = self._blobs(seed=5)
        coll = ConstraintCollection(
            ml_sets=[MLSet(members=(0, 1), hard=True)],
            cl_sets=[CLSet(members=(0, 20))])
        a = lsck_hc(data, coll, Penalties(1.0, 1.0), k=3, seed=6)
        b = lsck_hc(data, coll, Penalties(1.0, 1.0), k=3, seed=6)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective == b.objective

    def test_k_out_of_range(self):
        data = self._blobs()
        with pytest.raises(ValueError):
            lsck_hc(data, ConstraintCollection(), Penalties(1.0, 1.0),
                    k=0, seed=0)


class TestUpdateCenters:
    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_matches_per_center_mean(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(30):
            n, k = int(rng.integers(1, 400)), int(rng.integers(1, 12))
            points = 1e6 * rng.integers(0, 2) + rng.normal(size=(n, dim))
            labels = rng.integers(0, k, n)
            centers = rng.normal(size=(k, dim))
            want = centers.copy()
            for c in np.unique(labels):
                want[c] = points[labels == c].mean(axis=0)
            got = _update_centers(points, labels, centers)
            if dim > 1:
                # both sum each center's rows in point order: equal bits
                assert np.array_equal(got, want)
            else:
                # numpy sums a single column pairwise; tolerance fixed from
                # float64 rounding of a sum of n terms near 1e6
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            empty = np.setdiff1d(np.arange(k), labels)
            assert np.array_equal(got[empty], centers[empty])


class TestKmeansBaseline:
    def test_k1_is_global_mean(self, rng):
        pts = rng.normal(size=(15, 3))
        data = make_dataset(pts)
        res = kmeans_baseline(data, k=1, seed=0)
        assert np.allclose(res.centers[0], pts.mean(axis=0))
        assert res.objective == pytest.approx(((pts - pts.mean(axis=0)) ** 2).sum())

    def test_more_iterations_never_worse(self, rng):
        data = make_dataset(rng.normal(size=(40, 2)) * 5)
        short = kmeans_baseline(data, k=3, seed=1,
                                convergence=Convergence(max_iters=1))
        long = kmeans_baseline(data, k=3, seed=1,
                               convergence=Convergence(max_iters=100))
        assert long.objective <= short.objective + 1e-9

    def test_converged_flag(self, rng):
        data = make_dataset(rng.normal(size=(30, 2)))
        res = kmeans_baseline(data, k=2, seed=0)
        assert res.converged

    @pytest.mark.parametrize("run", [kmeans_baseline, kmeans_baseline_loop])
    def test_zero_tol_stops_at_fixed_point(self, rng, run):
        # blobs with tol 0, and coincident points, whose resolved tol is 0:
        # a run stops once the centers no longer move
        blobs = rng.normal(size=(500, 2)) + rng.integers(0, 3, size=(500, 1)) * 40.0
        res = run(make_dataset(blobs), 3, 0, Convergence(tol=0.0))
        assert res.converged and res.iterations < 100
        res = run(make_dataset(np.ones((20, 3))), 2, 0)
        assert res.converged and res.iterations == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), dim=st.integers(1, 8),
       levels=st.integers(0, 5), offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
       max_iters=st.sampled_from([0, 1, 3, 100]), data=st.data())
def test_baseline_matches_its_own_loop(seed, m, dim, levels, offset, max_iters, data):
    # rows drawn with replacement from a few distinct ones (on an integer
    # grid, or floats at levels 0) plus a common offset, so some instances
    # have fewer distinct points than k and seed degenerately
    rng = np.random.default_rng(seed)
    distinct = data.draw(st.integers(1, m), label="distinct")
    if levels:
        rows = rng.integers(0, levels, size=(distinct, dim)).astype(np.float64)
    else:
        rows = rng.normal(size=(distinct, dim)) * 10
    points = rows[rng.integers(0, distinct, size=m)] + offset * rng.uniform(0.5, 1.0, size=dim)
    k = data.draw(st.integers(1, m), label="k")
    conv = Convergence(max_iters=max_iters)
    got = kmeans_baseline(make_dataset(points), k, seed, conv)
    want = kmeans_baseline_loop(make_dataset(points), k, seed, conv)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.centers, want.centers)
    assert got.objective == want.objective
    assert (got.iterations, got.converged, got.degenerate_seeding) == (
        want.iterations, want.converged, want.degenerate_seeding)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), d=st.sampled_from([1, 3, 64]),
       kind=st.sampled_from(["grid", "dup", "near"]),
       offset=st.sampled_from([0.0, 1e3, 1e6]))
def test_resolved_tol_has_the_bits_of_one_bounding_box_pass(seed, n, d, kind, offset):
    # the dataset's frame takes the bounding box once, on first use, and the
    # tolerance keeps the bits of the scan each run used to take, under
    # offsets and duplicated rows
    points = hard_points(np.random.default_rng(seed), n, d, kind, offset)
    spread = points.max(axis=0) - points.min(axis=0)
    data = make_dataset(points)
    assert Convergence().resolve_tol(data.frame) == 1e-4 * float(spread @ spread)
    assert data.frame.spread is data.frame.spread
    assert Convergence(tol=0.5).resolve_tol(data.frame) == 0.5


class TestPenalties:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Penalties(-1.0, 0.0)

    def test_auto_resolution_squared(self, rng):
        data = make_dataset(rng.normal(size=(25, 2)) * 3)
        base = kmeans_baseline(data, k=4, seed=2)
        pen = resolve_penalties(data, k=4, seed=2)
        assert pen.w_ml == pytest.approx(base.objective / 25)
        assert pen.w_cl == pytest.approx(base.objective / 4)
