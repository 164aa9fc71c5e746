"""Exact min-cost one-sided perfect matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matching_brute_force, matching_brute_force_lex
from setclust import matching
from setclust.matching import min_cost_matching, without_each_row


@st.composite
def cost_matrices(draw):
    """Small matrices: tie-heavy integers, uniform floats, or 0/1 entries
    scaled to sit at either edge of the tie tolerance."""
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

    def test_lexicographic_tie_break(self, rng):
        # constant matrix: every assignment optimal; lexicographically
        # smallest vector is (0, 1, 2)
        m = min_cost_matching(np.full((3, 5), 2.5))
        assert m.assignment == (0, 1, 2)
        # random tied matrices agree with the brute-force lex oracle
        for _ in range(20):
            costs = rng.integers(0, 3, size=(3, 4)).astype(float)
            assert min_cost_matching(costs).assignment == matching_brute_force_lex(costs)

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
        # this is the feasibility fact behind nonnegative release gains
        for _ in range(20):
            costs = rng.random((4, 5))
            full = min_cost_matching(costs)
            for r in range(4):
                keep = [q for q in range(4) if q != r]
                sub = min_cost_matching(costs[keep])
                assert sub.total_cost <= full.total_cost - costs[r, full.assignment[r]] + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_property_matches_brute_force_lex(self, costs):
        m = min_cost_matching(costs)
        assert m.assignment == matching_brute_force_lex(costs)
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


class TestWithoutEachRow:
    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_property_matches_matching_without_the_row(self, costs):
        got = without_each_row(costs, min_cost_matching(costs))
        assert len(got) == costs.shape[0]
        for p, sub in enumerate(got):
            want = min_cost_matching(np.delete(costs, p, axis=0))
            assert sub.assignment == want.assignment
            assert sub.total_cost == want.total_cost

    @pytest.mark.parametrize("kind", ["weighted", "offset"])
    def test_random_matches_matching_without_the_row(self, kind):
        # weighted squared distances, as the CL search makes them, with rows
        # enough for a pairwise sum to differ from a sequential one; a 1e6
        # offset, whose wide tie tolerance lets the full matching sit a
        # little above the optimum
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
            got = without_each_row(costs, min_cost_matching(costs))
            assert got == [min_cost_matching(np.delete(costs, p, axis=0)) for p in range(rows)]

    def test_tie_free_matrix_needs_no_further_matching(self, rng, monkeypatch):
        calls = []
        solve = matching.min_cost_matching
        costs = rng.random((20, 30))
        full = solve(costs)
        monkeypatch.setattr(matching, "min_cost_matching", lambda c: calls.append(c) or solve(c))
        got = without_each_row(costs, full)
        assert calls == []
        assert got == [solve(np.delete(costs, p, axis=0)) for p in range(20)]

    def test_tied_rows_fall_back_to_a_full_solve(self, monkeypatch):
        # rows 0 and 1 can swap columns 0 and 1 at no cost: M is not unique
        costs = np.array([[0.0, 1.0, 5.0], [0.0, 1.0, 5.0], [0.0, 0.0, 0.0]])
        full = min_cost_matching(costs)
        solved = []
        monkeypatch.setattr(matching, "min_cost_matching",
                            lambda c: solved.append(c.shape) or min_cost_matching(c))
        got = without_each_row(costs, full)
        assert solved == [(2, 3)] * 3
        assert got == [min_cost_matching(np.delete(costs, p, axis=0)) for p in range(3)]

    def test_empty_and_single_row(self):
        assert without_each_row(np.zeros((0, 3)), min_cost_matching(np.zeros((0, 3)))) == []
        costs = np.array([[3.0, 1.0, 2.0]])
        assert without_each_row(costs, min_cost_matching(costs)) == [
            matching.Matching(assignment=(), total_cost=0.0)]
