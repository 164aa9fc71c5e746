"""Constraint generation: ML candidates, thresholds, CL growth, mixing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hard_points, make_dataset
from oracles import (
    components_bfs,
    cut_segments_loop,
    generate_cl_sets_loop,
    locality_order_pop,
    pdist_broadcast,
    threshold_linear_scan,
)
from setclust import constraints, geometry
from setclust.constraints import (
    CLSet,
    MLSet,
    ThresholdResult,
    classify_hard_soft,
    compute_hard_thresholds,
    connected_groups,
    consolidate_ml_sets,
    generate_cl_sets,
    generate_ml_sets,
    mix_constraints,
    set_diameter,
)
from setclust.dataset import SyntheticSpec, generate_synthetic
from setclust.oracle import MLGroupResponse, RemoteOracle, SimulatedOracle


def sim_oracle(data, p=0.0, seed=0):
    return SimulatedOracle({r.id: r.label for r in data.records},
                           error_rate=p, seed=seed)


class TestMLSetValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            MLSet(members=(3,))

    def test_duplicates(self):
        with pytest.raises(ValueError):
            CLSet(members=(1, 1))


LAYOUTS = ("normal", "grid", "duplicates", "near-duplicates")


def layout_points(rng, n: int, d: int, layout: str, offset: float) -> np.ndarray:
    """n points in d dimensions plus a common offset: normal at a random
    scale, on an integer grid (distance ties), a few normal rows each
    repeated (coincident points), or integer rows repeated and then moved
    by about 1e-13 of themselves (distances that differ in the last bits)."""
    if layout == "normal":
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    elif layout == "grid":
        points = np.round(rng.normal(size=(n, d)) * 2)
    elif layout == "duplicates":
        points = rng.normal(size=(n, d))[rng.integers(0, max(1, n // 3), size=n)]
    else:
        points = np.round(rng.normal(size=(n, d)))[rng.integers(0, n, size=n)]
        points *= 1.0 + 1e-13 * rng.normal(size=(n, d))
    return points + offset


class TestSetDiameter:
    @pytest.mark.parametrize("block", [geometry.KERNEL_BLOCK, 1])
    def test_bit_equal_to_broadcast(self, monkeypatch, block):
        # block 1 takes one row per block on every set
        monkeypatch.setattr(constraints, "KERNEL_BLOCK", block)
        monkeypatch.setattr(geometry, "KERNEL_BLOCK", block)
        rng = np.random.default_rng(block)
        gram_sets = 0
        for trial in range(240):
            n, d = int(rng.integers(2, 120)), int(rng.integers(1, 70))
            points = layout_points(rng, n, d, LAYOUTS[trial % 4],
                                   [0.0, 1e3, 1e6][trial % 3])
            members = tuple(rng.permutation(n)[:int(rng.integers(2, n + 1))].tolist())
            gram_sets += len(members) >= constraints.DIAMETER_GRAM_MIN
            sub = points[list(members)]
            want = float(np.sqrt(pdist_broadcast(sub, sub)).max())
            assert set_diameter(points, members) == want
        assert gram_sets >= 100  # the Gram form is well covered

    def test_set_larger_than_a_block(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(300, 64))
        members = tuple(range(300))
        assert 300 * 300 * 64 > geometry.KERNEL_BLOCK  # more than one block
        want = float(np.sqrt(pdist_broadcast(points, points)).max())
        assert set_diameter(points, members) == want


class TestLocalityOrder:
    def test_same_chain_as_popping_reference(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            # rounded coordinates give distance ties, broken to the lowest index
            points = np.round(rng.normal(size=(n + 5, d)) * 2)
            cell = rng.permutation(n + 5)[:n].tolist()
            assert constraints._locality_order(points, cell)[0] == locality_order_pop(points, cell)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), d=st.integers(1, 64),
           layout=st.sampled_from(LAYOUTS), offset=st.sampled_from([0.0, 1e3, 1e6]))
    def test_same_chain_as_popping_reference_at_scale(self, seed, n, d, layout, offset):
        rng = np.random.default_rng(seed)
        points = layout_points(rng, n + 5, d, layout, offset)
        cell = rng.permutation(n + 5)[:n].tolist()
        assert constraints._locality_order(points, cell)[0] == locality_order_pop(points, cell)

    @pytest.mark.parametrize("size", [3, 19, 20, 21])
    def test_both_sides_of_the_matrix_split(self, size):
        # below DIAMETER_GRAM_MIN the chain walks one exact distance matrix,
        # from it on, the cell's frame; ties and one-ulp differences on both
        rng = np.random.default_rng(size)
        small = size < constraints.DIAMETER_GRAM_MIN
        for layout in ("grid", "duplicates", "near-duplicates"):
            for offset in (0.0, 1e3, 1e6):
                for d in (1, 3, 16, 64):
                    points = layout_points(rng, size + 5, d, layout, offset)
                    cell = rng.permutation(size + 5)[:size].tolist()
                    order, dist = constraints._locality_order(points, cell)
                    assert order == locality_order_pop(points, cell)
                    assert (dist is not None) == small
                    if small:
                        sub = points[sorted(cell)]
                        assert np.array_equal(dist, np.sqrt(pdist_broadcast(sub, sub)))

    @pytest.mark.parametrize("far", [0, 20])
    def test_equal_roots_go_to_the_lower_index(self, far):
        # point 1 is farther from point 0 than point 2 by two ulps of the
        # squared distance, but both roots are 5.000000000000002: the chain
        # compares roots, so the lower index comes first
        points = np.array([[0.0, 0.0], [3.000000000000002, 4.000000000000001],
                           [3.0, 4.000000000000002], *([[100.0, 100.0]] * far)])
        squares = pdist_broadcast(points[:3], points[:3])[0]
        assert squares[1] > squares[2] and np.sqrt(squares[1]) == np.sqrt(squares[2])
        cell = list(range(len(points)))
        assert constraints._locality_order(points, cell)[0][:3] == [0, 1, 2]


class TestCutSegments:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), d=st.integers(1, 64),
           layout=st.sampled_from(LAYOUTS), offset=st.sampled_from([0.0, 1e3, 1e6]),
           tau=st.sampled_from(["gap", "quantile", "zero", "inf"]))
    def test_same_cuts_as_loop(self, seed, n, d, layout, offset, tau):
        rng = np.random.default_rng(seed)
        points = layout_points(rng, n, d, layout, offset)
        order = rng.permutation(n).tolist()
        gaps = [float(np.linalg.norm(points[b] - points[a])) for a, b in zip(order, order[1:])]
        if tau == "gap" and gaps:
            # some gaps are exactly tau; a row-wise norm may read them a bit above
            tau = gaps[int(rng.integers(len(gaps)))]
        elif tau == "quantile" and gaps:
            tau = float(np.quantile(gaps, rng.uniform()))
        else:
            tau = float("inf") if tau == "inf" else 0.0
        want = cut_segments_loop(points, order, tau)
        assert constraints._cut_segments(points, order, tau) == want


class TestGenerateMLSets:
    def test_label_pure_cell_becomes_one_set(self):
        data = make_dataset(np.zeros((4, 2)), labels=[7, 7, 7, 7])
        oracle = sim_oracle(data)
        kcr = geometry.gonzalez_kcenter(data, 1, seed=0)
        grid = geometry.grid_partition(data, [0.0], kcr)
        sets = generate_ml_sets(data, oracle, grid)
        assert len(sets) == 1
        assert sets[0].members == (0, 1, 2, 3)
        assert not sets[0].hard  # hardness decided later
        assert sets[0].level == 0

    def test_noiseless_sets_are_label_pure(self, rng):
        labels = rng.integers(0, 3, size=30)
        pts = rng.normal(size=(30, 2)) + labels[:, None] * 10.0
        data = make_dataset(pts, labels=labels)
        oracle = sim_oracle(data)
        kcr = geometry.gonzalez_kcenter(data, 3, seed=0)
        levels = geometry.grid_levels(kcr.cost, data.n, data.dim)
        grid = geometry.grid_partition(data, levels, kcr)
        for s in generate_ml_sets(data, oracle, grid):
            assert len({labels[m] for m in s.members}) == 1

    def test_seven_point_cell_chunked_into_two_queries(self):
        data = make_dataset(np.zeros((7, 1)), labels=[1] * 7)
        oracle = sim_oracle(data)
        kcr = geometry.gonzalez_kcenter(data, 1, seed=0)
        grid = geometry.grid_partition(data, [0.0], kcr)
        generate_ml_sets(data, oracle, grid, m_max=5)
        assert oracle.ledger.ml_queries == 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 64),
           layout=st.sampled_from(LAYOUTS), offset=st.sampled_from([0.0, 1e3, 1e6]),
           m_max=st.integers(2, 25), p=st.sampled_from([0.1, 0.3]))
    def test_diameters_are_set_diameter(self, seed, d, layout, offset, m_max, p):
        # cells on both sides of DIAMETER_GRAM_MIN, chunked when above m_max,
        # and a noisy oracle, so that groups are proper subsets of chunks
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, constraints.DIAMETER_GRAM_MIN)),
                 int(rng.integers(constraints.DIAMETER_GRAM_MIN, 45)),
                 *rng.integers(2, 45, size=3).tolist()]
        points = layout_points(rng, sum(sizes), d, layout, offset)
        data = make_dataset(points, labels=rng.integers(0, 3, size=len(points)))
        perm = rng.permutation(len(points))
        cells = {}
        for lo, hi in zip(np.cumsum([0, *sizes[:-1]]), np.cumsum(sizes)):
            cell = sorted(perm[lo:hi].tolist())
            cells[(0, cell[0])] = cell
        sets = generate_ml_sets(data, sim_oracle(data, p=p, seed=seed),
                                geometry.GridPartition([0.0], cells), m_max=m_max)
        assert sets
        for s in sets:
            assert s.diameter == set_diameter(points, s.members)

    def test_m_max_too_small(self):
        data = make_dataset(np.zeros((3, 1)), labels=[0] * 3)
        grid = geometry.grid_partition(data, [0.0],
                                       geometry.gonzalez_kcenter(data, 1, seed=0))
        with pytest.raises(ValueError):
            generate_ml_sets(data, sim_oracle(data), grid, m_max=1)


class _ThresholdStubOracle:
    """Consistency passes iff the queried set's diameter <= cutoff."""

    def __init__(self, data, cutoff):
        self.data = data
        self.cutoff = cutoff
        self.probes = 0

    def query_ml_group(self, query, repeat=0, kind="ml"):
        if repeat == 0:
            self.probes += 1
        diameter = set_diameter(self.data.points, query.ids)
        if diameter <= self.cutoff or repeat == 0:
            groups = (tuple(range(len(query.ids))),)
        else:  # disagree with repeat 0 -> consistency fails
            groups = tuple((i,) for i in range(len(query.ids)))
        return MLGroupResponse(groups=groups)


class TestComputeHardThresholds:
    def _pair_candidates(self, data, diameters):
        # points are laid out so pair (2i, 2i+1) has the requested diameter
        return [
            MLSet(members=(2 * i, 2 * i + 1),
                  diameter=set_diameter(data.points, (2 * i, 2 * i + 1)),
                  level=0)
            for i in range(len(diameters))
        ]

    def _pair_data(self, diameters):
        pts = []
        for i, d in enumerate(diameters):
            base = 10.0 * i
            pts += [[base], [base + d]]
        return make_dataset(pts, labels=[0] * (2 * len(diameters)))

    def test_noiseless_threshold_is_max_diameter(self):
        diameters = [0.1, 0.3, 0.4, 0.6, 0.9]
        data = self._pair_data(diameters)
        res = compute_hard_thresholds(data, sim_oracle(data),
                                      self._pair_candidates(data, diameters), m_max=10)
        assert res.psi_pair == pytest.approx(0.9)
        assert res.psi_set == 0.0  # no size->=3 candidates

    def test_stub_cutoff_binary_search(self):
        diameters = [0.1, 0.3, 0.4, 0.6, 0.9]
        data = self._pair_data(diameters)
        stub = _ThresholdStubOracle(data, cutoff=0.5)
        res = compute_hard_thresholds(data, stub,
                                      self._pair_candidates(data, diameters), m_max=10)
        assert res.psi_pair == pytest.approx(0.4)
        # at most ceil(log2(5)) + 1 probes
        assert stub.probes <= 4
        # linear-scan reference agrees
        expected = threshold_linear_scan(diameters, lambda d: d <= 0.5)
        assert res.psi_pair == pytest.approx(expected)

    def test_all_fail_gives_zero(self):
        diameters = [0.3, 0.6]
        data = self._pair_data(diameters)
        stub = _ThresholdStubOracle(data, cutoff=0.05)
        res = compute_hard_thresholds(data, stub,
                                      self._pair_candidates(data, diameters), m_max=10)
        assert res.psi_pair == 0.0

    def test_empty_candidates(self):
        data = make_dataset([[0.0], [1.0]], labels=[0, 1])
        res = compute_hard_thresholds(data, sim_oracle(data), [], m_max=10)
        assert res.psi_pair == 0.0 and res.psi_set == 0.0

    @pytest.mark.parametrize("m_max", [2, 3, 10])
    def test_probes_send_at_most_m_max_texts(self, m_max):
        # one set of 40 members and one pair; the threshold is still the
        # large candidate's own diameter
        rng = np.random.default_rng(m_max)
        data = make_dataset(rng.normal(size=(42, 3)), labels=[0] * 42)
        big = tuple(range(40))
        cands = [MLSet(members=big, diameter=set_diameter(data.points, big)),
                 MLSet(members=(40, 41), diameter=set_diameter(data.points, (40, 41)))]
        oracle = sim_oracle(data)
        sent = []
        ask = oracle.query_ml_group

        def spy(query, repeat=0, kind="ml"):
            sent.append(query.ids)
            return ask(query, repeat=repeat, kind=kind)

        oracle.query_ml_group = spy
        res = compute_hard_thresholds(data, oracle, cands, m_max=m_max)
        assert res.psi_set == cands[0].diameter
        assert res.psi_pair == cands[1].diameter
        probe = constraints._probe_ids(data.points, big, m_max)
        assert len(probe) == m_max
        assert set(sent) == {probe, (40, 41)}


def _probe_points(rng, n: int, d: int, layout: str, offset: float) -> np.ndarray:
    if layout == "same":  # every point coincides
        return np.broadcast_to(offset + rng.normal(size=d), (n, d)).copy()
    return hard_points(rng, n, d, layout, offset)


class TestProbeIds:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), d=st.integers(1, 6),
           layout=st.sampled_from(["grid", "dup", "near", "same"]),
           offset=st.sampled_from([0.0, 1e3, 1e6]), m_max=st.integers(2, 12),
           data=st.data())
    def test_farthest_first_subset(self, seed, n, d, layout, offset, m_max, data):
        rng = np.random.default_rng(seed)
        points = _probe_points(rng, n, d, layout, offset)
        size = data.draw(st.integers(2, n))
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        probe = constraints._probe_ids(points, members, m_max)
        assert len(probe) == len(set(probe)) == min(m_max, size)
        assert list(probe) == sorted(probe)
        assert set(probe) <= set(members)
        assert probe[0] == members[0]
        if size <= m_max:
            assert probe == members
        # farthest-first: the second pick alone is at least half the
        # diameter away from the first (up to rounding of the two readings)
        assert 2 * set_diameter(points, probe) >= set_diameter(points, members) * (1 - 1e-12)
        assert constraints._probe_ids(points, members, m_max) == probe

    def test_ties_go_to_the_lowest_position(self):
        # every point coincides, so each pick is a tie among the unchosen
        points = np.zeros((30, 4))
        assert constraints._probe_ids(points, tuple(range(5, 30)), 10) == tuple(range(5, 15))


class TestClassifyHardSoft:
    def test_zero_diameter_pair_always_hard(self):
        sets = classify_hard_soft([MLSet(members=(0, 1), diameter=0.0)],
                                  ThresholdResult(psi_pair=0.0, psi_set=0.0))
        assert sets[0].hard

    def test_zero_psi_set_makes_positive_diameter_soft(self):
        sets = classify_hard_soft([MLSet(members=(0, 1, 2), diameter=0.5)],
                                  ThresholdResult(psi_pair=1.0, psi_set=0.0))
        assert not sets[0].hard

    def test_matches_comparator(self, rng):
        thresholds = ThresholdResult(psi_pair=0.4, psi_set=0.7)
        batch = []
        for _ in range(30):
            size = int(rng.integers(2, 5))
            members = tuple(range(size))
            batch.append(MLSet(members=members, diameter=float(rng.random())))
        flagged = classify_hard_soft(batch, thresholds)
        for s in flagged:
            psi = 0.4 if len(s.members) == 2 else 0.7
            assert s.hard == (s.diameter <= psi)

    def test_monotone_in_psi(self, rng):
        batch = [MLSet(members=(0, 1), diameter=float(d))
                 for d in rng.random(20)]
        loose = classify_hard_soft(batch, ThresholdResult(0.8, 0.8))
        tight = classify_hard_soft(batch, ThresholdResult(0.3, 0.3))
        for a, b in zip(tight, loose):
            # shrinking psi never turns a soft set hard
            assert not (a.hard and not b.hard)


class TestGenerateCLSets:
    def test_three_blobs_first_set_spans_all(self):
        pts = [[0.0], [0.5], [100.0], [100.5], [200.0], [200.5]]
        data = make_dataset(pts, labels=[0, 0, 1, 1, 2, 2])
        sets, rejections = generate_cl_sets(data, sim_oracle(data),
                                            cost_kc=1.0, k=3, seed=0)
        assert len(sets[0].members) == 3
        assert rejections == 0
        for s in sets:
            labels = [data.records[m].label for m in s.members]
            assert len(set(labels)) == len(labels)

    def test_size_never_exceeds_k(self):
        pts = [[i * 50.0] for i in range(8)]
        data = make_dataset(pts, labels=list(range(8)))
        sets, _ = generate_cl_sets(data, sim_oracle(data), cost_kc=1.0, k=3, seed=1)
        assert all(len(s.members) <= 3 for s in sets)

    def test_same_label_candidate_rejected_and_counted(self):
        # two far-apart points with one label: the membership probe matches,
        # the candidate is rejected, and the singleton set is discarded
        data = make_dataset([[0.0], [100.0]], labels=[5, 5])
        sets, rejections = generate_cl_sets(data, sim_oracle(data),
                                            cost_kc=1.0, k=2, seed=0)
        assert sets == []
        assert rejections == 1

    def test_m_max_too_small(self):
        data = make_dataset([[0.0], [100.0]], labels=[0, 1])
        with pytest.raises(ValueError, match="m_max >= 2"):
            generate_cl_sets(data, sim_oracle(data), cost_kc=1.0, k=2, seed=0, m_max=1)

    def test_max_sets_cap(self):
        pts = [[i * 50.0] for i in range(8)]
        data = make_dataset(pts, labels=list(range(8)))
        sets, _ = generate_cl_sets(data, sim_oracle(data), cost_kc=1.0, k=2,
                                   seed=0, max_sets=2)
        assert len(sets) <= 2

    def test_deterministic(self):
        pts = [[i * 30.0] for i in range(10)]
        data = make_dataset(pts, labels=list(range(10)))
        a, _ = generate_cl_sets(data, sim_oracle(data), cost_kc=1.0, k=4, seed=3)
        b, _ = generate_cl_sets(data, sim_oracle(data), cost_kc=1.0, k=4, seed=3)
        assert [s.members for s in a] == [s.members for s in b]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("max_sets", [None, 1, 3])
    def test_same_sets_as_reference_loop(self, seed, max_sets):
        # noisy labels, so both accepted and rejected probes occur
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 6, size=120)
        pts = rng.normal(size=(120, 3)) + 4.0 * labels[:, None]
        data = make_dataset(pts, labels=labels)
        cost_kc = 2.0 + seed
        got = generate_cl_sets(data, sim_oracle(data, p=0.1, seed=seed), cost_kc=cost_kc,
                               k=6, seed=seed, max_sets=max_sets)
        want = generate_cl_sets_loop(data, sim_oracle(data, p=0.1, seed=seed),
                                     cost_kc, 6, seed, max_sets=max_sets)
        assert [s.members for s in got[0]] == [s.members for s in want[0]]
        assert got[1] == want[1]

    @staticmethod
    def _same_as_loop(data, cost_kc, k, seed, p=0.0, max_sets=None, m_max=10):
        got = generate_cl_sets(data, sim_oracle(data, p=p, seed=seed), cost_kc=cost_kc,
                               k=k, seed=seed, max_sets=max_sets, m_max=m_max)
        want = generate_cl_sets_loop(data, sim_oracle(data, p=p, seed=seed),
                                     cost_kc, k, seed, max_sets=max_sets, m_max=m_max)
        assert [s.members for s in got[0]] == [s.members for s in want[0]]
        assert got[1] == want[1]
        return got

    @pytest.mark.parametrize("m_max", [2, 3, 5])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_m_max_below_k_same_as_reference_loop(self, m_max, p):
        # sets of k=8 capped at m_max texts; on this instance every
        # combination has dropped draws and sets that take a refill round
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, size=150)
        data = make_dataset(rng.normal(size=(150, 3)) + 4.0 * labels[:, None], labels=labels)
        sets, rejections = self._same_as_loop(data, 2.0, k=8, seed=0, p=p, m_max=m_max)
        oracle = sim_oracle(data, p=p, seed=0)
        generate_cl_sets(data, oracle, cost_kc=2.0, k=8, seed=0, m_max=m_max)
        assert all(len(s.members) <= m_max for s in sets)
        assert rejections > 0
        assert oracle.ledger.cl_queries > len(sets)

    def test_remote_groups_in_any_order_give_the_simulated_sets(self):
        # a backend that lists the groups, and each group's positions, in
        # descending order: a draw joins only when its group's smallest
        # position is its own, wherever the backend puts it
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 6, size=80)
        data = make_dataset(rng.normal(size=(80, 2)) * 10.0, labels=labels)

        def send(payload):
            items = payload["messages"][0]["content"].split("\n\n", 1)[1].splitlines()
            groups: dict[int, list[int]] = {}
            for line in items:
                pos, text = line.split(". ", 1)
                groups.setdefault(labels[int(text.split()[-1])], []).append(int(pos))
            listed = sorted((sorted(g, reverse=True) for g in groups.values()), reverse=True)
            return "\n".join("GROUP: " + ", ".join(map(str, g)) for g in listed)

        remote = RemoteOracle(model="m", send=send, backoff=0.0)
        sim = sim_oracle(data)
        for m_max in (3, 10):
            got = generate_cl_sets(data, remote, cost_kc=3.0, k=8, seed=2, m_max=m_max)
            want = generate_cl_sets(data, sim, cost_kc=3.0, k=8, seed=2, m_max=m_max)
            assert [s.members for s in got[0]] == [s.members for s in want[0]]
            assert got[1] == want[1] > 0
        assert remote.ledger.cl_queries == sim.ledger.cl_queries

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noiseless_same_as_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 6, size=120)
        pts = rng.normal(size=(120, 3)) + 4.0 * labels[:, None]
        self._same_as_loop(make_dataset(pts, labels=labels), 2.0 + seed, k=6, seed=seed)

    @pytest.mark.parametrize("cost_kc", [1.0, 2.0, 5.0])
    def test_points_exactly_cost_kc_apart_stay_ineligible(self, cost_kc):
        # integer lattice: many gaps equal cost_kc exactly (1, 2, and 3-4-5)
        rng = np.random.default_rng(4)
        pts = np.array([[x, y] for x in range(8) for y in range(8)], dtype=float)
        labels = rng.integers(0, 10, size=len(pts))
        data = make_dataset(pts, labels=labels)
        sets, _ = self._same_as_loop(data, cost_kc, k=5, seed=1, p=0.1)
        for s in sets:
            sub = pts[list(s.members)]
            gaps = np.linalg.norm(sub[:, None] - sub[None], axis=2)
            assert (gaps[np.triu_indices(len(sub), 1)] > cost_kc).all()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 50), d=st.integers(1, 16),
           kind=st.sampled_from(["grid", "dup", "near"]),
           offset=st.sampled_from([0.0, 1e3, 1e6]), k=st.integers(2, 6),
           p=st.sampled_from([0.0, 0.1]))
    def test_cost_at_a_pairwise_distance_same_as_loop(self, seed, n, d, kind, offset, k, p):
        # cost_kc is the distance of two of the points, so pairs exactly
        # cost_kc apart sit at the gate, under offsets that blur the readings
        rng = np.random.default_rng(seed)
        pts = hard_points(rng, n, d, kind, offset)
        a, b = rng.integers(0, n, size=2)
        cost_kc = float(np.linalg.norm(pts[a] - pts[b]))
        data = make_dataset(pts, labels=rng.integers(0, 8, size=n))
        self._same_as_loop(data, cost_kc, k=k, seed=seed % 1000, p=p)

    @pytest.mark.parametrize("cost_kc", [0.0, 0.5])
    def test_coincident_points(self, cost_kc):
        # five sites, each holding eight points of mixed labels
        rng = np.random.default_rng(5)
        pts = np.repeat(rng.normal(size=(5, 2)) * 10.0, 8, axis=0)
        labels = rng.integers(0, 7, size=len(pts))
        self._same_as_loop(make_dataset(pts, labels=labels), cost_kc, k=4, seed=2, p=0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_k_above_topic_count(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=60)
        pts = rng.normal(size=(60, 2)) * 20.0
        sets, rejections = self._same_as_loop(make_dataset(pts, labels=labels), 1.0,
                                              k=8, seed=seed)
        assert rejections > 0
        assert all(len(s.members) <= 3 for s in sets)

    def test_benchmark_sized_instance(self):
        data = generate_synthetic(SyntheticSpec(k_true=30, n=1000, dim=16, separation=3.0,
                                                seed=0))
        cost_kc = geometry.gonzalez_kcenter(data, 30, 1).cost
        self._same_as_loop(data, cost_kc, k=30, seed=1, max_sets=30)


def _edge_list(n: int):
    node = st.integers(0, max(n - 1, 0))
    return st.tuples(st.just(n), st.lists(st.tuples(node, node), max_size=60 if n else 0))


edge_lists = st.integers(0, 30).flatmap(_edge_list)


class TestConnectedGroups:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists)
    @example((0, []))  # no points: ``_merge_hard_sets`` with no hard sets
    @example((5, []))
    @example((5, [(2, 2), (4, 1), (1, 4), (4, 1), (3, 3)]))  # self-loops, repeats
    def test_matches_breadth_first_search(self, case):
        n, edges = case
        assert connected_groups(n, edges) == components_bfs(n, edges)

    def test_groups_ordered_by_smallest_member(self):
        assert connected_groups(5, [(4, 3), (3, 1)]) == [[0], [1, 3, 4], [2]]


class TestConsolidateMLSets:
    def _data(self, coords, labels):
        return make_dataset([[c] for c in coords], labels=labels)

    def test_same_topic_sets_merge(self):
        data = self._data([0.0, 0.1, 0.2, 0.3], [1, 1, 1, 1])
        sets = [MLSet(members=(0, 1), level=2), MLSet(members=(2, 3), level=2)]
        out = consolidate_ml_sets(data, sim_oracle(data), sets, cost_kc=1.0)
        assert len(out) == 1
        assert out[0].members == (0, 1, 2, 3)

    def test_different_topic_sets_stay_apart(self):
        data = self._data([0.0, 0.1, 10.0, 10.1], [0, 0, 1, 1])
        sets = [MLSet(members=(0, 1), level=2), MLSet(members=(2, 3), level=5)]
        out = consolidate_ml_sets(data, sim_oracle(data), sets, cost_kc=1.0)
        assert sorted(s.members for s in out) == [(0, 1), (2, 3)]
        # untouched sets keep their metadata
        assert sorted(s.level for s in out) == [2, 5]

    def test_uncovered_point_joins_nearby_set(self):
        data = self._data([0.0, 0.1, 0.2, 10.0], [1, 1, 1, 2])
        sets = [MLSet(members=(0, 1), level=0)]
        out = consolidate_ml_sets(data, sim_oracle(data), sets, cost_kc=1.0)
        # uncovered point 2 joins the same-topic set; lone point 3 is dropped
        assert len(out) == 1
        assert out[0].members == (0, 1, 2)

    def test_two_singletons_can_found_a_set(self):
        data = self._data([0.0, 0.2], [4, 4])
        out = consolidate_ml_sets(data, sim_oracle(data), [], cost_kc=1.0)
        assert len(out) == 1
        assert out[0].members == (0, 1)

    def test_ledger_grows_by_merge_queries(self):
        data = self._data([0.0, 0.1, 0.2, 0.3], [1, 1, 1, 1])
        oracle = sim_oracle(data)
        sets = [MLSet(members=(0, 1)), MLSet(members=(2, 3))]
        consolidate_ml_sets(data, oracle, sets, cost_kc=1.0)
        assert oracle.ledger.total > 0


def _disjoint(ml_sets) -> bool:
    members = [m for s in ml_sets for m in s.members]
    return len(set(members)) == len(members)


class TestCandidateSetsDisjoint:
    """Grid cells, chain chunks and oracle groups partition the points, so
    neither generation nor consolidation returns a set nested in another."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), d=st.integers(1, 8),
           kind=st.sampled_from(["grid", "dup", "near"]),
           offset=st.sampled_from([0.0, 1e3, 1e6]), k=st.integers(1, 6),
           m_max=st.integers(2, 25), p=st.sampled_from([0.0, 0.1, 0.3]))
    def test_generated_and_consolidated_sets_disjoint(self, seed, n, d, kind, offset, k,
                                                      m_max, p):
        rng = np.random.default_rng(seed)
        data = make_dataset(hard_points(rng, n, d, kind, offset),
                            labels=rng.integers(0, 4, size=n))
        oracle = sim_oracle(data, p=p, seed=seed % 1000)
        kcr = geometry.gonzalez_kcenter(data, min(k, n), seed=seed % 1000)
        grid = geometry.grid_partition(data, geometry.grid_levels(kcr.cost, n, d), kcr)
        sets = generate_ml_sets(data, oracle, grid, m_max=m_max)
        assert _disjoint(sets)
        assert _disjoint(consolidate_ml_sets(data, oracle, sets, kcr.cost, m_max=m_max))


class TestMixConstraints:
    def test_zero_target_empty(self):
        mixed = mix_constraints([MLSet(members=(0, 1))], [CLSet(members=(2, 3))],
                                0.0, 10, seed=0)
        assert mixed.ml_sets == [] and mixed.cl_sets == []

    def test_hand_trace(self):
        ml = [MLSet(members=(1, 2))]
        cl = [CLSet(members=(0, 1))]
        mixed = mix_constraints(ml, cl, 0.3, 10, seed=0)
        assert mixed.cl_sets == cl and mixed.ml_sets == ml
        assert mixed.meta["achieved_ratio"] == pytest.approx(0.3)

    def test_achieves_target_when_possible(self, rng):
        ml = [MLSet(members=(2 * i, 2 * i + 1)) for i in range(10)]
        cl = [CLSet(members=(0, 2, 4))]
        for target in (0.2, 0.5, 0.9):
            mixed = mix_constraints(ml, cl, target, 20, seed=1)
            assert mixed.meta["achieved_ratio"] >= target

    def test_shortfall_flagged(self):
        mixed = mix_constraints([MLSet(members=(0, 1))], [], 0.9, 10, seed=0)
        assert mixed.meta["achieved_ratio"] < mixed.meta["target_ratio"]

    def test_deterministic(self):
        ml = [MLSet(members=(2 * i, 2 * i + 1)) for i in range(6)]
        cl = [CLSet(members=(0, 2)), CLSet(members=(4, 6))]
        a = mix_constraints(ml, cl, 0.5, 12, seed=7)
        b = mix_constraints(ml, cl, 0.5, 12, seed=7)
        assert [s.members for s in a.ml_sets] == [s.members for s in b.ml_sets]
        assert [s.members for s in a.cl_sets] == [s.members for s in b.cl_sets]

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            mix_constraints([], [], 1.5, 10, seed=0)
