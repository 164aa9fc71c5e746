"""Gonzalez k-center, grid levels, and the cell partition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import hard_points, make_dataset
from oracles import grid_first_fit, kcenter_brute_force, kcenter_loop, pdist_broadcast
from setclust import geometry
from setclust.geometry import (
    KCenterResult,
    farther_than,
    gonzalez_kcenter,
    grid_levels,
    grid_partition,
    point_dist,
    point_frame,
    sq_dist,
)


class TestPointDist:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: st.tuples(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.just(d)),
                   elements=st.floats(-1e6, 1e6)),
        hnp.arrays(np.float64, d, elements=st.floats(-1e6, 1e6)))))
    def test_bit_equal_to_norm(self, case):
        X, c = case
        expected = np.linalg.norm(X - c, axis=1).tobytes()
        assert point_dist(X, c, np.empty_like(X)).tobytes() == expected
        # a reused buffer with spare rows, then X's own copy as the buffer
        spare = np.full((len(X) + 3, X.shape[1]), np.nan)
        assert point_dist(X, c, spare).tobytes() == expected
        assert point_dist(X, c, spare).tobytes() == expected
        Y = X.copy()
        assert point_dist(Y, c, Y).tobytes() == expected

    def test_single_point_and_single_dimension(self):
        X = np.array([[3.0]])
        assert point_dist(X, np.array([-1.5]), np.empty((1, 1))).tolist() == [4.5]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), d=st.integers(1, 64),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]), exponent=st.floats(-3.0, 3.0))
def test_frame_readings_within_an_eighth_of_the_margin(seed, n, d, offset, exponent):
    # the first-order bound of PointFrame.margin: one reading errs by at most
    # an eighth of the margin, against centers on points and off them
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    shift = offset * rng.uniform(0.5, 1.0, size=d)
    points = rng.normal(size=(n, d)) * scale + shift
    centers = np.vstack([points[rng.integers(0, n, size=3)],
                         rng.normal(size=(3, d)) * scale + shift])
    exact = ((points[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
    frame = point_frame(points)
    reading, margin = frame.read(centers)
    assert np.all(np.abs(reading - exact) <= margin / 8)
    out = np.empty(n)
    for c, want in zip(centers, exact):
        margin = frame.read_into(c, out)
        assert np.all(np.abs(out - want) <= margin / 8)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 8),
       d=st.integers(1, 40), levels=st.integers(0, 4),
       offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]), rows_per_block=st.integers(1, 5))
def test_sq_dist_bit_equal_to_broadcast(seed, n, k, d, levels, offset, rows_per_block):
    # floats (levels 0) or an integer grid, under a common offset; some
    # centers are points; the kernel block is cut to a few rows, so blocks
    # end inside the points and inside ``rows``, which come in any order
    # and may repeat
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(0.5, 1.0, size=d)
    if levels:
        points = rng.integers(0, levels + 1, size=(n, d)) + shift
        centers = rng.integers(0, levels + 1, size=(k, d)) + shift
    else:
        points = rng.normal(size=(n, d)) * 10 + shift
        centers = rng.normal(size=(k, d)) * 10 + shift
    on_point = rng.integers(0, n, size=k)
    coincide = rng.random(k) < 0.5
    centers[coincide] = points[on_point[coincide]]
    rows = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "KERNEL_BLOCK", rows_per_block * k * d)
        got = sq_dist(points, centers)
        got_rows = sq_dist(points, centers, rows=rows)
    assert np.array_equal(got, pdist_broadcast(points, centers))
    assert np.array_equal(got_rows, pdist_broadcast(points[rows], centers))
    assert np.all(got[on_point[coincide], np.flatnonzero(coincide)] == 0.0)


class TestGonzalezKCenter:
    def test_k_equals_n(self):
        data = make_dataset([[0.0], [5.0], [9.0]])
        result = gonzalez_kcenter(data, 3, seed=0)
        assert result.cost == 0.0

    def test_one_d_instance(self):
        # whichever point comes first (seeds 0-11 draw each of the three), the
        # isolated point 10 is a center and the other center covers 0 and 1
        data = make_dataset([[0.0], [1.0], [10.0]])
        for seed in range(12):
            result = gonzalez_kcenter(data, 2, seed=seed)
            assert 2 in result.center_indices
            assert result.cost == pytest.approx(1.0)
        # brute force confirms 1.0 is optimal, within the 2x guarantee
        assert kcenter_brute_force(data.points, 2) == pytest.approx(1.0)

    def test_two_approximation(self, rng):
        for trial in range(20):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(1, min(n, 4) + 1))
            pts = rng.normal(size=(n, 2)) * 5
            data = make_dataset(pts)
            result = gonzalez_kcenter(data, k, seed=trial)
            opt = kcenter_brute_force(pts, k)
            assert result.cost <= 2.0 * opt + 1e-9

    def test_deterministic(self):
        data = make_dataset(np.random.default_rng(1).normal(size=(30, 3)))
        a = gonzalez_kcenter(data, 5, seed=42)
        b = gonzalez_kcenter(data, 5, seed=42)
        assert a.center_indices == b.center_indices
        assert a.cost == b.cost

    def test_k_out_of_range(self):
        data = make_dataset([[0.0], [1.0]])
        with pytest.raises(ValueError):
            gonzalez_kcenter(data, 3, seed=0)


class TestGridLevels:
    def test_first_level(self):
        levels = grid_levels(1.0, 10, 1)
        assert levels[0] == pytest.approx(0.1)

    def test_second_level(self):
        levels = grid_levels(1.0, 10, 1)
        assert levels[1] == pytest.approx(0.11)

    def test_strictly_increasing_geometric(self):
        levels = grid_levels(3.0, 100, 8)
        ratios = [b / a for a, b in itertools.pairwise(levels)]
        assert all(r == pytest.approx(1.1) for r in ratios)
        # stops at the smallest level >= 2 * cost_kc
        assert levels[-1] >= 2 * 3.0
        assert levels[-2] < 2 * 3.0

    def test_zero_cost_degenerate(self):
        assert grid_levels(0.0, 5, 2) == [0.0]


class TestGridPartition:
    def test_all_points_identical(self):
        data = make_dataset(np.zeros((6, 2)))
        kcr = gonzalez_kcenter(data, 2, seed=0)
        grid = grid_partition(data, [0.0], kcr)
        assert len(grid.cells) == 1
        (cell,) = grid.cells.values()
        assert sorted(cell) == list(range(6))

    def test_distant_points_in_different_cells(self):
        data = make_dataset([[0.0, 0.0], [100.0, 0.0]])
        kcr = gonzalez_kcenter(data, 1, seed=0)
        levels = grid_levels(kcr.cost, data.n, data.dim)
        grid = grid_partition(data, levels, kcr)
        cells = [sorted(c) for c in grid.cells.values()]
        assert [0] in cells and [1] in cells

    def test_partition_covers_each_point_once(self, rng):
        data = make_dataset(rng.normal(size=(20, 3)) * 4)
        kcr = gonzalez_kcenter(data, 3, seed=0)
        levels = grid_levels(kcr.cost, data.n, data.dim)
        grid = grid_partition(data, levels, kcr)
        seen = sorted(i for cell in grid.cells.values() for i in cell)
        assert seen == list(range(20))

    def test_cell_diameter_bound(self, rng):
        # max pairwise distance within a cell at level j is <= r_j * sqrt(dim)
        data = make_dataset(rng.normal(size=(20, 3)) * 4)
        kcr = gonzalez_kcenter(data, 3, seed=0)
        levels = grid_levels(kcr.cost, data.n, data.dim)
        grid = grid_partition(data, levels, kcr)
        for (level, _leader), cell in grid.cells.items():
            bound = levels[level] * np.sqrt(data.dim)
            for a, b in itertools.combinations(cell, 2):
                assert np.linalg.norm(data.points[a] - data.points[b]) <= bound + 1e-9


@st.composite
def integer_grids(draw):
    """Small-integer points (many duplicates) with levels whose membership
    radius r * sqrt(dim) / 6 is an integer r up to rounding, so many points
    lie exactly on a leader's radius; dims 1, 4, 9, 16 have integer roots."""
    dim = draw(st.sampled_from([1, 4, 9, 16]))
    n = draw(st.integers(1, 30))
    coords = draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
    radii = sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    levels = [6.0 * r / np.sqrt(dim) for r in radii]
    nearest = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return np.array(coords, dtype=np.float64).reshape(n, dim), levels, np.array(nearest)


class TestGridMatchesFirstFit:
    @staticmethod
    def check(points, levels, nearest):
        kcr = KCenterResult(center_indices=[0], cost=float(nearest.max()),
                            nearest_dist=nearest)
        grid = grid_partition(make_dataset(points), levels, kcr)
        # same cells, same members in the same order, same dict order
        assert list(grid.cells.items()) == list(grid_first_fit(points, levels,
                                                               nearest).items())
        return grid

    @settings(max_examples=300, deadline=None)
    @given(integer_grids())
    def test_integer_grids(self, instance):
        self.check(*instance)

    def test_points_on_the_radius_are_near_ties(self):
        # 1-D, radius 1: points 1 and 3 lie exactly on the radius of
        # leaders 0 and 2, and join them
        points = np.array([[0.0], [1.0], [2.0], [3.0]])
        grid = self.check(points, [6.0], np.full(4, 6.0))
        assert grid.cells == {(0, 0): [0, 1], (0, 2): [2, 3]}
        assert grid.near_ties == 2

    def test_last_bit_disagreements_follow_the_scalar_norm(self):
        # points scaled onto the radius, where the row-wise and the 1-D norm
        # land on different sides of it in some draws
        dim, level = 16, 1.0
        radius = level * (np.sqrt(dim) / 6.0)
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(200):
            u = rng.normal(size=dim)
            x = u * (radius / np.linalg.norm(u))
            scalar = bool(np.linalg.norm(x) <= radius)
            if scalar == bool(np.sqrt(np.square(x).sum()) <= radius):
                continue
            seen.add(scalar)
            grid = self.check(np.vstack([np.zeros(dim), x]), [level], np.full(2, level))
            assert (grid.cells == {(0, 0): [0, 1]}) == scalar
            assert grid.near_ties == 1
        assert seen == {True, False}

    def test_zero_cost_single_level(self):
        points = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        data = make_dataset(points)
        kcr = gonzalez_kcenter(data, 2, seed=0)
        assert kcr.cost == 0.0
        grid = self.check(points, grid_levels(kcr.cost, data.n, data.dim), kcr.nearest_dist)
        assert grid.cells == {(0, 0): [0, 2], (0, 1): [1, 3]}

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_random_blobs(self, dim):
        rng = np.random.default_rng(dim)
        for trial in range(30):
            n = int(rng.integers(2, 200))
            points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10)
            data = make_dataset(points)
            kcr = gonzalez_kcenter(data, int(rng.integers(1, min(n, 10) + 1)), seed=trial)
            self.check(points, grid_levels(kcr.cost, n, dim), kcr.nearest_dist)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 64),
       kind=st.sampled_from(["grid", "dup", "near"]), offset=st.sampled_from([0.0, 1e3, 1e6]),
       k_frac=st.floats(0.0, 1.0))
def test_kcenter_bit_equal_to_loop(seed, n, d, kind, offset, k_frac):
    # the frame-read traversal against one exact pass per center: same
    # centers, and the same bits of the cost and of every nearest distance
    rng = np.random.default_rng(seed)
    points = hard_points(rng, n, d, kind, offset)
    k = 1 + int(k_frac * (n - 1))
    got = gonzalez_kcenter(make_dataset(points), k, seed=seed)
    chosen, cost, nearest = kcenter_loop(points, k, seed)
    assert got.center_indices == chosen
    assert got.cost.hex() == cost.hex()
    assert got.nearest_dist.tobytes() == nearest.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 64),
       kind=st.sampled_from(["grid", "dup", "near"]), offset=st.sampled_from([0.0, 1e3, 1e6]))
def test_farther_than_bit_equal_to_point_dist(seed, n, d, kind, offset):
    # radii are actual distances from the center, so exact ties sit at the
    # gate; the center is a point or a grid node off the points
    rng = np.random.default_rng(seed)
    points = hard_points(rng, n, d, kind, offset)
    frame = point_frame(points)
    rows = np.flatnonzero(rng.random(n) < 0.7)
    c = points[rng.integers(n)] if rng.random() < 0.5 else points[rng.integers(n)] + 1.0
    dist = point_dist(points, c, np.empty_like(points))
    for radius in [*dist[rng.integers(0, n, size=3)], 0.0]:
        got = farther_than(frame, c, radius, rows, np.empty(n))
        assert np.array_equal(got, rows[dist[rows] > radius])
