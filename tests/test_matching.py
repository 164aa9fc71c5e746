"""Exact min-cost one-sided perfect matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matching_brute_force
from setclust import matching
from setclust.matching import min_cost_matching


@st.composite
def cost_matrices(draw):
    """Small matrices: tie-heavy integers, uniform floats, or 0/1 entries
    scaled from 1e-9 to 1e9."""
    rows = draw(st.integers(1, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(rows, 5))
    cells = rows * cols
    kind = draw(st.sampled_from(["ties", "floats", "scaled"]))
    if kind == "ties":
        values = draw(st.lists(st.integers(0, 2), min_size=cells, max_size=cells))
    elif kind == "floats":
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells))
    else:
        scale = draw(st.sampled_from([1e-9, 1.0, 1e9]))
        values = [scale * v for v in
                  draw(st.lists(st.integers(0, 1), min_size=cells, max_size=cells))]
    return np.array(values, dtype=np.float64).reshape(rows, cols)


class TestMinCostMatching:
    def test_single_row_argmin(self):
        costs = np.array([[4.0, 1.0, 3.0, 2.0]])
        m = min_cost_matching(costs)
        assert m.assignment == (1,)
        assert m.total_cost == 1.0

    def test_identity_like(self):
        costs = np.ones((3, 3))
        np.fill_diagonal(costs, 0.0)
        m = min_cost_matching(costs)
        assert m.assignment == (0, 1, 2)
        assert m.total_cost == 0.0

    def test_random_matches_brute_force(self, rng):
        for _ in range(100):
            costs = rng.random((4, 6))
            m = min_cost_matching(costs)
            assert m.total_cost == pytest.approx(matching_brute_force(costs), abs=1e-9)
            # assignment consistency
            assert len(set(m.assignment)) == 4
            assert m.total_cost == pytest.approx(
                sum(costs[r, c] for r, c in enumerate(m.assignment)))

    def test_same_assignment_on_repeat_and_copy(self, rng):
        # every assignment of a constant matrix is optimal; tied integer
        # matrices have several optima each
        tied = [np.full((3, 5), 2.5)] + [rng.integers(0, 3, size=(3, 4)).astype(float)
                                         for _ in range(20)]
        for costs in tied:
            m = min_cost_matching(costs)
            assert min_cost_matching(costs) == m
            assert min_cost_matching(costs.copy()) == m

    def test_rows_exceed_cols(self):
        with pytest.raises(ValueError, match="rows"):
            min_cost_matching(np.ones((3, 2)))

    def test_non_finite_entry(self):
        costs = np.ones((2, 3))
        costs[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            min_cost_matching(costs)

    def test_deterministic(self, rng):
        costs = rng.random((5, 7))
        assert min_cost_matching(costs).assignment == min_cost_matching(costs).assignment

    def test_removing_row_never_increases_remaining_cost(self, rng):
        # cost(matching without row r) <= cost(full) - cost of r's match;
        # this is the feasibility fact behind nonnegative release gains. On
        # uniform costs, weighted squared distances as the CL search makes
        # them, and a 1e6 offset, where every sum rounds
        for kind in ("uniform", "weighted", "offset"):
            for _ in range(60):
                rows = int(rng.integers(1, 13))
                cols = int(rng.integers(rows, rows + 5))
                if kind == "weighted":
                    points, centers = rng.normal(size=(rows, 3)), rng.normal(size=(cols, 3))
                    costs = ((points[:, None] - centers[None]) ** 2).sum(axis=2)
                    costs *= rng.integers(1, 5, rows)[:, None]
                else:
                    costs = rng.random((rows, cols)) + (1e6 if kind == "offset" else 0.0)
                full = min_cost_matching(costs)
                for r in range(rows):
                    sub = min_cost_matching(np.delete(costs, r, axis=0))
                    bound = full.total_cost - costs[r, full.assignment[r]]
                    assert sub.total_cost <= bound + 1e-9 * (1.0 + abs(full.total_cost))

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_property_optimal_against_brute_force(self, costs):
        m = min_cost_matching(costs)
        best = matching_brute_force(costs)
        assert abs(m.total_cost - best) <= 1e-12 * (1.0 + abs(best))
        assert len(set(m.assignment)) == costs.shape[0]
        assert all(0 <= c < costs.shape[1] for c in m.assignment)
        assert m.total_cost == float(sum(costs[r, c] for r, c in enumerate(m.assignment)))

    def test_tie_free_matrix_needs_one_solve(self, rng, monkeypatch):
        solves = []
        lsa = matching.linear_sum_assignment

        def counting(costs):
            solves.append(costs.shape)
            return lsa(costs)

        monkeypatch.setattr(matching, "linear_sum_assignment", counting)
        costs = rng.random((20, 30))
        m = min_cost_matching(costs)
        assert solves == [(20, 30)]
        assert m.assignment == tuple(lsa(costs)[1])

    def test_empty_matrix(self):
        assert min_cost_matching(np.zeros((0, 3))) == matching.Matching(assignment=(),
                                                                         total_cost=0.0)


class TestWithoutEachRow:
    """The remove-one matchings that a CL round solves: for each row r,
    ``min_cost_matching`` on the matrix without r."""

    @pytest.mark.parametrize("kind", ["weighted", "offset"])
    def test_random_matches_matching_without_the_row(self, kind):
        # weighted squared distances, as the CL search makes them, and a 1e6
        # offset, where every sum rounds. Each remove-one matching is checked
        # against the same problem posed with row r kept and parked on a
        # column only it can take for free, and against brute force when small
        rng = np.random.default_rng(["weighted", "offset"].index(kind))
        for _ in range(200):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(rows, rows + 5))
            if kind == "weighted":
                points, centers = rng.normal(size=(rows, 3)), rng.normal(size=(cols, 3))
                costs = ((points[:, None] - centers[None]) ** 2).sum(axis=2)
                costs *= rng.integers(1, 5, rows)[:, None]
            else:
                costs = 1e6 + rng.random((rows, cols))
            for r in range(rows):
                reduced = np.delete(costs, r, axis=0)
                sub = min_cost_matching(reduced)
                tol = 1e-12 * (1.0 + abs(sub.total_cost))
                assert len(set(sub.assignment)) == rows - 1
                assert sub.total_cost == float(
                    sum(reduced[q, c] for q, c in enumerate(sub.assignment)))
                parked = np.full((rows, 1), 2.0 * costs.sum() + 1.0)
                parked[r, 0] = 0.0
                kept = min_cost_matching(np.hstack([costs, parked]))
                assert kept.assignment[r] == cols
                assert abs(kept.total_cost - sub.total_cost) <= tol
                if rows <= 5:
                    assert abs(sub.total_cost - matching_brute_force(reduced)) <= tol
