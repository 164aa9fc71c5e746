"""Gonzalez k-center, grid levels, and the cell partition."""

import itertools

import numpy as np
import pytest

from conftest import make_dataset
from oracles import kcenter_brute_force
from setclust.geometry import (
    gonzalez_kcenter,
    grid_levels,
    grid_partition,
)


class TestGonzalezKCenter:
    def test_k_equals_n(self):
        data = make_dataset([[0.0], [5.0], [9.0]])
        result = gonzalez_kcenter(data, 3, seed=0)
        assert result.cost == 0.0

    def test_one_d_instance(self):
        data = make_dataset([[0.0], [1.0], [10.0]])
        result = gonzalez_kcenter(data, 2, seed=0, first_index=0)
        assert sorted(result.center_indices) == [0, 2]
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
        kcr = gonzalez_kcenter(data, 1, seed=0, first_index=0)
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
