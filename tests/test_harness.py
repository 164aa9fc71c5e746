"""Experiment harness: constraint generation, runs, evaluation, reports."""

import csv
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hard_points, make_dataset
from oracles import consistency_repeat_all, probe_ids_whole
from setclust import clustering, constraints, geometry, harness
from setclust.constraints import (
    CLSet,
    ConstraintCollection,
    MLSet,
    load_constraints,
    save_constraints,
)
from setclust.dataset import EmbeddedDataset, SyntheticSpec, generate_synthetic
from setclust.harness import ExperimentConfig
from setclust.oracle import RemoteOracle, SimulatedOracle


@pytest.fixture(scope="module")
def blob_data():
    return generate_synthetic(SyntheticSpec(k_true=3, n=60, dim=4,
                                            separation=60.0, seed=0))


def sim_config(**kw):
    defaults = dict(k=3, ratios=[0.5], seeds=[0, 1], penalties="auto")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    @pytest.mark.parametrize("k", [0, -1, 2.0, True, "3", None])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            ExperimentConfig(k=k)

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=3, algorithm="dbscan")

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=3, ratios=[1.5])

    def test_empty_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(k=3, seeds=[])

    @pytest.mark.parametrize("name,value", [
        *[("ratios", v) for v in ([], "0.2", ["0.2"], [True], [float("nan")], 0.2, None)],
        *[("seeds", v) for v in (5, "0", [0.5], ["1"], [True], [-1], None)],
        *[("max_iters", v) for v in ("5", 2.0, True, -1, None)],
        *[("tol", v) for v in ("0.1", -1, -1e-9, float("nan"), float("inf"), True)],
        *[("mix_seed", v) for v in ("a", 1.5, True, -1, None)],
    ])
    def test_bad_sweep_setting(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(k=3, **{name: value})

    @pytest.mark.parametrize("name, value, named", [
        ("seeds", [0, 0, 1], "0"), ("seeds", [3, 1, 3, 1], "1, 3"),
        ("ratios", [0.2, 0.2], "0.20"), ("ratios", [0.201, 0.204, 0.5], "0.20"),
        ("ratios", [0.0, 0.001], "0.00"),
    ])
    def test_repeated_result_file_rejected(self, name, value, named):
        # two runs named by one result file would overwrite each other
        with pytest.raises(ValueError, match=f"{name} must name distinct result files, "
                                             f"got {named} more than once"):
            ExperimentConfig(k=3, **{name: value})

    def test_good_sweep_settings(self):
        config = ExperimentConfig(k=3, ratios=(0, 0.5, 1), seeds=[0, 7], tol=0,
                                  max_iters=0, mix_seed=3)
        assert (config.tol, config.max_iters) == (0, 0)
        assert ExperimentConfig(k=3, tol=1e-3).tol == 1e-3

    @pytest.mark.parametrize("penalties", ["bogus", "", (1.0,), (1.0, 2.0, 3.0), 1.0,
                                           (-1.0, 2.0), (1.0, float("nan")), ("1", "2"),
                                           (True, 1.0), None])
    def test_bad_penalties(self, penalties):
        with pytest.raises(ValueError, match="penalties"):
            ExperimentConfig(k=3, penalties=penalties)

    @pytest.mark.parametrize("penalties", ["auto", (0.0, 0.0), (1, 2.5), [1e12, 1e12]])
    def test_good_penalties(self, penalties):
        assert ExperimentConfig(k=3, penalties=penalties).penalties == penalties


class TestMakeOracle:
    def test_sim_backend(self, blob_data):
        oracle = harness.make_oracle(sim_config(), blob_data)
        assert isinstance(oracle, SimulatedOracle)

    def test_remote_backend(self, blob_data):
        oracle = harness.make_oracle(sim_config(oracle_backend="remote",
                                                oracle_model="m"), blob_data)
        assert isinstance(oracle, RemoteOracle)

    def test_sim_needs_labels(self, blob_data):
        unlabeled = generate_synthetic(
            SyntheticSpec(k_true=2, n=10, dim=2, separation=10.0, seed=0))
        for r in unlabeled.records:
            object.__setattr__(r, "label", None)
        with pytest.raises(ValueError):
            harness.make_oracle(sim_config(), unlabeled)

    def test_unknown_backend(self, blob_data):
        with pytest.raises(ValueError):
            harness.make_oracle(sim_config(oracle_backend="psychic"), blob_data)


class TestGenerateConstraints:
    def test_noiseless_constraints_are_label_true(self, blob_data):
        oracle = harness.make_oracle(sim_config(), blob_data)
        coll = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
        truth = blob_data.labels()
        for s in coll.ml_sets:
            assert len({truth[m] for m in s.members}) == 1
        for s in coll.cl_sets:
            labels = [truth[m] for m in s.members]
            assert len(set(labels)) == len(labels)

    def test_meta_ledger_matches_oracle(self, blob_data):
        oracle = harness.make_oracle(sim_config(), blob_data)
        coll = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
        assert coll.meta["ml_queries"] == oracle.ledger.ml_queries
        assert coll.meta["cl_queries"] == oracle.ledger.cl_queries
        assert coll.meta["consistency_queries"] == oracle.ledger.consistency_queries
        # failed backend attempts are not queries and do not reach the constraint file
        assert "failed_attempts" not in coll.meta

    @pytest.mark.parametrize("n,k,separation,p,seed", [
        (200, 4, 1.5, 0.3, 1), (200, 12, 3.0, 0.05, 0), (300, 8, 2.0, 0.1, 2)])
    def test_early_exit_matches_asking_every_repeat(self, monkeypatch, n, k, separation, p,
                                                     seed):
        # stopping at the first split answer moves no other draw, so only the
        # ledger changes, and it can only shrink
        data = generate_synthetic(SyntheticSpec(k_true=k, n=n, dim=8,
                                                separation=separation, seed=seed))
        config = sim_config(k=k, oracle_error_rate=p, oracle_seed=seed)
        runs = []
        for rule in (constraints.consistency_repeat, consistency_repeat_all):
            monkeypatch.setattr(constraints, "consistency_repeat", rule)
            oracle = harness.make_oracle(config, data)
            runs.append((harness.generate_constraints(data, oracle, k=k, seed=seed),
                         oracle.ledger.total))
        (early, early_total), (every, every_total) = runs
        assert early.ml_sets == every.ml_sets
        assert early.cl_sets == every.cl_sets
        ledger_keys = {"ml_queries", "cl_queries", "consistency_queries"}
        assert ({key: v for key, v in early.meta.items() if key not in ledger_keys}
                == {key: v for key, v in every.meta.items() if key not in ledger_keys})
        assert early_total <= every_total

    def test_cl_sets_capped_at_k_by_default(self, blob_data):
        oracle = harness.make_oracle(sim_config(), blob_data)
        coll = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
        assert len(coll.cl_sets) <= 3

    def test_deterministic(self, blob_data):
        colls = []
        for _ in range(2):
            oracle = harness.make_oracle(sim_config(), blob_data)
            colls.append(harness.generate_constraints(blob_data, oracle, k=3, seed=1))
        assert [s.members for s in colls[0].ml_sets] == [s.members for s in colls[1].ml_sets]
        assert [s.members for s in colls[0].cl_sets] == [s.members for s in colls[1].cl_sets]
        assert colls[0].meta == colls[1].meta

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(6, 80), k=st.integers(2, 8), m_max=st.integers(2, 12),
           p=st.sampled_from([0.0, 0.1, 0.3]), seed=st.integers(0, 1000))
    def test_ledger_records_largest_query(self, n, k, m_max, p, seed):
        # the largest text count among the transcript's lines, each of
        # which lists its texts (a CL round's line too)
        data = generate_synthetic(SyntheticSpec(k_true=4, n=n, dim=3, separation=2.0,
                                                seed=seed))
        k = min(k, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            oracle = harness.make_oracle(sim_config(oracle_error_rate=p, oracle_seed=seed),
                                         data, transcript_path=str(path))
            harness.generate_constraints(data, oracle, k=k, seed=seed, m_max=m_max)
            lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert oracle.ledger.max_query_texts == max(len(e["ids"]) for e in lines)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 6),
           layout=st.sampled_from(["grid", "dup", "near"]),
           offset=st.sampled_from([0.0, 1e3, 1e6]), k=st.integers(2, 30),
           m_max=st.integers(2, 12), p=st.sampled_from([0.0, 0.1, 0.3]),
           whole=st.booleans())
    def test_cl_queries_within_budget(self, seed, n, d, layout, offset, k, m_max, p, whole):
        # CL rounds spied on at the oracle, in the whole generation (cost_kc
        # the k-center radius) or in CL growth alone (cost_kc the distance of
        # two of the points, so some gaps sit exactly at the gate)
        rng = np.random.default_rng(seed)
        points = hard_points(rng, n, d, layout, offset)
        labels = rng.integers(0, 8, size=n)
        data = make_dataset(points, labels=labels)
        k = min(k, n)
        oracle = SimulatedOracle(dict(enumerate(labels.tolist())), error_rate=p,
                                 seed=seed % 1000)
        sent = []
        ask = oracle.query_ml_group

        def spy(query, repeat=0, kind="ml"):
            if kind == "cl":
                sent.append(len(query.ids))
            return ask(query, repeat=repeat, kind=kind)

        oracle.query_ml_group = spy
        if whole:
            coll = harness.generate_constraints(data, oracle, k=k, seed=seed % 1000,
                                                m_max=m_max)
            cl_sets, cost_kc = coll.cl_sets, coll.meta["cost_kc"]
            assert coll.meta["cl_queries"] == len(sent)
        else:
            a, b = rng.integers(0, n, size=2)
            cost_kc = float(np.linalg.norm(points[a] - points[b]))
            cl_sets, _ = constraints.generate_cl_sets(data, oracle, cost_kc, k, seed % 1000,
                                                      m_max=m_max)
        assert all(2 <= texts <= m_max for texts in sent)
        assert len(sent) == oracle.ledger.cl_queries
        for s in cl_sets:
            members = list(s.members)
            assert len(members) <= min(k, m_max)
            gaps = np.linalg.norm(points[members][:, None] - points[members][None], axis=2)
            assert (gaps[np.triu_indices(len(members), 1)] > cost_kc).all()
            if p == 0:
                assert len(set(labels[members].tolist())) == len(members)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 6),
           layout=st.sampled_from(["grid", "dup", "near"]),
           offset=st.sampled_from([0.0, 1e3, 1e6]), k=st.integers(2, 30),
           m_max=st.integers(2, 12), p=st.sampled_from([0.0, 0.1, 0.3]))
    def test_every_query_within_budget(self, seed, n, d, layout, offset, k, m_max, p):
        # every query of the whole generation spied on at the oracle: grid
        # chunks, consolidation segments and bridges, threshold probes and
        # CL rounds
        rng = np.random.default_rng(seed)
        points = hard_points(rng, n, d, layout, offset)
        labels = rng.integers(0, 8, size=n)
        data = make_dataset(points, labels=labels)
        oracle = SimulatedOracle(dict(enumerate(labels.tolist())), error_rate=p,
                                 seed=seed % 1000)
        sent = []
        ask = oracle.query_ml_group

        def spy(query, repeat=0, kind="ml"):
            sent.append(len(query.ids))
            return ask(query, repeat=repeat, kind=kind)

        oracle.query_ml_group = spy
        harness.generate_constraints(data, oracle, k=min(k, n), seed=seed % 1000, m_max=m_max)
        assert len(sent) == oracle.ledger.total
        assert all(2 <= texts <= m_max for texts in sent)
        assert oracle.ledger.max_query_texts <= m_max

    def test_capped_probes_pass_fewer_impure_hard_sets(self, monkeypatch):
        # under pairwise noise closed transitively, a whole two-topic
        # candidate is glued into one group and passes as a probe; an m_max
        # subset of it has fewer cross-topic pairs to glue it. Every cell of
        # the grid, capped probes against whole-candidate probes: no cell
        # holds more hard ML sets that span two labels, and the grid fewer
        def impure_hard(n, k, separation, p, seed):
            data = generate_synthetic(SyntheticSpec(k_true=k, n=n, dim=16,
                                                    separation=separation, seed=seed))
            oracle = harness.make_oracle(sim_config(k=k, oracle_error_rate=p,
                                                    oracle_seed=seed), data)
            truth = data.labels()
            coll = harness.generate_constraints(data, oracle, k=k, seed=seed)
            return sum(len({truth[m] for m in s.members}) > 1 for s in coll.ml_sets if s.hard)

        capped, whole = [], []
        for cell in itertools.product([300], [6, 30], [1.5, 2.0], [0.05, 0.1, 0.2, 0.3],
                                      [0, 1]):
            capped.append(impure_hard(*cell))
            with monkeypatch.context() as patch:
                patch.setattr(constraints, "_probe_ids", probe_ids_whole)
                whole.append(impure_hard(*cell))
        assert len(capped) == 32
        assert all(c <= w for c, w in zip(capped, whole))
        assert sum(capped) < sum(whole)

    @pytest.mark.parametrize("k, m_max", [(1, 10), (3, 1)])
    def test_bad_k_or_m_max_rejected_before_any_query(self, blob_data, k, m_max):
        oracle = harness.make_oracle(sim_config(), blob_data)
        with pytest.raises(ValueError, match=">= 2 required"):
            harness.generate_constraints(blob_data, oracle, k=k, seed=0, m_max=m_max)
        assert oracle.ledger.total == 0


class TestFscEquivalentQueries:
    def test_binomial_counts(self):
        ml = [MLSet(members=(0, 1, 2, 3))]          # C(4,2) = 6
        cl = [CLSet(members=(4, 5, 6))]             # C(3,2) = 3
        assert harness.fsc_equivalent_queries(ml, cl, cl_rejections=2) == 11

    def test_empty(self):
        assert harness.fsc_equivalent_queries([], []) == 0

    def test_random_sizes(self, rng):
        sizes = [int(rng.integers(2, 7)) for _ in range(5)]
        ml = [MLSet(members=tuple(range(10 * i, 10 * i + s)))
              for i, s in enumerate(sizes)]
        assert harness.fsc_equivalent_queries(ml, []) == sum(
            s * (s - 1) // 2 for s in sizes)


@pytest.fixture(scope="module")
def run_dir(blob_data, tmp_path_factory):
    oracle = harness.make_oracle(sim_config(), blob_data)
    pool = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
    out = tmp_path_factory.mktemp("results")
    config = sim_config(ratios=[0.0, 0.5])
    harness.run_experiment(blob_data, pool, config, out)
    harness.evaluate_results(blob_data, out)
    return out


class TestRunAndEvaluate:
    def test_one_file_per_ratio_seed(self, run_dir):
        results = [p for p in run_dir.glob("result_*.json")
                   if not p.name.endswith(".metrics.json")]
        assert len(results) == 4  # 2 ratios x 2 seeds

    def test_ratio_zero_has_no_constraints(self, run_dir):
        doc = json.loads((run_dir / "result_lsck_hc_r0.00_s0.json").read_text())
        assert doc["mixed_ml"] == [] and doc["mixed_cl"] == []

    def test_well_separated_blobs_recovered(self, run_dir, blob_data):
        side = json.loads(
            (run_dir / "result_lsck_hc_r0.50_s0.metrics.json").read_text())
        assert side["acc"] >= 0.95
        assert side["constraint_ri"] == 1.0

    def test_metrics_sidecar_schema(self, run_dir):
        side = json.loads(
            (run_dir / "result_lsck_hc_r0.50_s1.metrics.json").read_text())
        for key in ("acc", "nmi", "ri", "ari", "constraint_ri", "objective",
                    "fsc_equiv_queries", "ledger_total", "algorithm", "ratio",
                    "seed"):
            assert key in side

    def test_report_csv_schema(self, run_dir, tmp_path):
        out = tmp_path / "report.csv"
        rows = harness.write_report(run_dir, out)
        with open(out, newline="") as fh:
            read_back = list(csv.DictReader(fh))
        assert len(read_back) == len(rows)
        assert set(read_back[0]) == {"algorithm", "ratio", "metric", "mean",
                                     "stddev", "n_seeds"}
        metrics_seen = {r["metric"] for r in read_back}
        assert {"acc", "nmi", "ri", "ari", "objective",
                "query_reduction", "constraint_ri"} <= metrics_seen
        for r in read_back:
            float(r["mean"])  # 4-decimal numeric strings
            assert r["n_seeds"] == "2"

    def test_distinct_points_seed_normally(self, run_dir):
        paths = list(run_dir.glob("result_*_s?.json"))
        assert len(paths) == 4
        for path in paths:
            assert json.loads(path.read_text())["degenerate_seeding"] is False

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_degenerate_seeding_reported(self, tmp_path, algorithm):
        # two distinct locations cannot seed three distinct centers
        data = make_dataset([[0.0, 0.0]] * 4 + [[5.0, 5.0]] * 3, labels=[0] * 4 + [1] * 3)
        config = sim_config(algorithm=algorithm, ratios=[0.0], seeds=[0])
        harness.run_experiment(data, ConstraintCollection(), config, tmp_path)
        doc = json.loads(next(tmp_path.glob("result_*.json")).read_text())
        assert doc["degenerate_seeding"] is True

    def test_rerun_byte_identical(self, run_dir, blob_data, tmp_path):
        oracle = harness.make_oracle(sim_config(), blob_data)
        pool = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
        again = tmp_path / "again"
        config = sim_config(ratios=[0.0, 0.5])
        harness.run_experiment(blob_data, pool, config, again)
        for path in again.glob("result_*.json"):
            assert path.read_bytes() == (run_dir / path.name).read_bytes()


class TestAutoPenaltiesPerSeed:
    def test_baseline_runs_once_per_seed(self, blob_data, tmp_path, monkeypatch):
        oracle = harness.make_oracle(sim_config(), blob_data)
        pool = harness.generate_constraints(blob_data, oracle, k=3, seed=0)
        ratios, seeds = [0.0, 0.5, 1.0], [0, 1]
        for ratio in ratios:
            for seed in seeds:
                harness.run_experiment(blob_data, pool,
                                       sim_config(ratios=[ratio], seeds=[seed]),
                                       tmp_path / "one_at_a_time")
        calls = []
        real = clustering.kmeans_baseline

        def counting(data, k, seed, convergence=None):
            calls.append(seed)
            return real(data, k, seed, convergence)

        monkeypatch.setattr(clustering, "kmeans_baseline", counting)
        written = harness.run_experiment(blob_data, pool,
                                         sim_config(ratios=ratios, seeds=seeds),
                                         tmp_path / "sweep")
        assert calls == seeds
        assert len(written) == 6
        for path in written:
            assert path.read_bytes() == (tmp_path / "one_at_a_time" / path.name).read_bytes()
            assert json.loads(path.read_text())["config"]["penalties"] == "auto"

    @pytest.mark.parametrize("algorithm", ["lsck_hc", "lsck"])
    def test_auto_is_the_explicit_resolved_pair(self, algorithm):
        data = grid_data()
        pool = harness.generate_constraints(data, harness.make_oracle(sim_config(), data),
                                            k=4, seed=0)
        conv = clustering.Convergence(tol=None, max_iters=100)
        for seed in (0, 2):
            got = harness.run_algorithm(data, pool, sim_config(k=4, algorithm=algorithm), seed)
            pen = clustering.resolve_penalties(data, 4, seed, conv)
            want = getattr(clustering, algorithm)(data, pool, pen, 4, seed, conv)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.centers, want.centers)
            assert (got.objective, got.redecided, got.penalties) == (
                want.objective, want.redecided, want.penalties)

    def test_baseline_resolves_no_penalties(self, blob_data, tmp_path, monkeypatch):
        calls = {"resolve_penalties": 0, "kmeans_baseline": 0}
        for name in calls:
            real = getattr(clustering, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(clustering, name, counting)
        pool = harness.generate_constraints(blob_data, harness.make_oracle(sim_config(), blob_data),
                                            k=3, seed=0)
        written = harness.run_experiment(
            blob_data, pool, sim_config(algorithm="kmeanspp", ratios=[0.0, 0.5]), tmp_path)
        assert len(written) == 4
        assert calls == {"resolve_penalties": 0, "kmeans_baseline": 4}


def grid_data(points=None) -> EmbeddedDataset:
    """A doubled 5x5 integer grid, labelled by quadrant: nearest-center ties
    abound, so runs on it re-decide rows (``redecided > 0``)."""
    if points is None:
        grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
        points = np.vstack([grid, grid])
    labels = (points[:, 0] >= 2) * 2 + (points[:, 1] >= 2)
    return make_dataset(points, labels=labels)


class TestSharedFrame:
    """One ``PointFrame`` per dataset serves every run on it."""

    CONFIG = dict(k=4, ratios=[0.0, 0.5], seeds=[0, 1])

    def sweep(self, data, out):
        oracle = harness.make_oracle(sim_config(**self.CONFIG), data)
        pool = harness.generate_constraints(data, oracle, k=4, seed=0)
        return harness.run_experiment(data, pool, sim_config(**self.CONFIG), out)

    def test_sweeps_on_one_dataset_match_a_fresh_one(self, tmp_path):
        shared = grid_data()
        first = self.sweep(shared, tmp_path / "first")
        second = self.sweep(shared, tmp_path / "second")
        fresh = self.sweep(grid_data(), tmp_path / "fresh")
        assert len(fresh) == 4
        for a, b, want in zip(first, second, fresh):
            assert a.read_bytes() == want.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("algorithm", ["lsck_hc", "lsck", "kmeans_baseline"])
    def test_each_run_counts_its_own_redecided_rows(self, algorithm):
        shared = grid_data()
        pool = harness.generate_constraints(shared, harness.make_oracle(sim_config(), shared),
                                            k=4, seed=0)
        run = getattr(clustering, algorithm)
        counts = []
        for seed in (0, 2, 0):
            if algorithm == "kmeans_baseline":
                got, want = run(shared, 4, seed), run(grid_data(), 4, seed)
            else:
                fresh = grid_data()
                got = run(shared, pool, clustering.resolve_penalties(shared, 4, seed), 4, seed)
                want = run(fresh, pool, clustering.resolve_penalties(fresh, 4, seed), 4, seed)
            assert got.redecided == want.redecided
            counts.append(got.redecided)
        assert min(counts) > 0
        assert counts[0] == counts[2]

    def test_reassigned_points_take_a_new_frame(self):
        data = grid_data()
        empty, zero = ConstraintCollection(), clustering.Penalties(0.0, 0.0)
        clustering.lsck_hc(data, empty, zero, 4, 0)  # takes the frame of the grid
        data.points = data.points[:, ::-1] * 3.0 + 1e3
        fresh = grid_data(data.points.copy())
        for run in (lambda d: clustering.lsck_hc(d, empty, zero, 4, 0),
                    lambda d: clustering.kmeans_baseline(d, 4, 1)):
            got, want = run(data), run(fresh)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.centers, want.centers)
            assert (got.objective, got.redecided) == (want.objective, want.redecided)
        got, want = geometry.gonzalez_kcenter(data, 4, 0), geometry.gonzalez_kcenter(fresh, 4, 0)
        assert (got.center_indices, got.cost) == (want.center_indices, want.cost)


def test_one_frame_of_the_data_per_generation_and_sweep(tmp_path, monkeypatch):
    # a host-independent work count: generation and a whole sweep take the
    # mean and row norms of the data once (at 20000x64 a frame costs about 3 ms)
    data = generate_synthetic(SyntheticSpec(k_true=3, n=300, dim=4, separation=8.0, seed=0))
    real = geometry.point_frame
    full = []

    def counting(points):
        full.append(points.shape[0] == data.n)
        return real(points)

    for name, module in list(sys.modules.items()):
        if name.startswith("setclust") and hasattr(module, "point_frame"):
            monkeypatch.setattr(module, "point_frame", counting)
    config = sim_config(ratios=[0.2], seeds=[0, 1, 2])
    pool = harness.generate_constraints(data, harness.make_oracle(config, data), k=3, seed=0)
    harness.run_experiment(data, pool, config, tmp_path)
    assert sum(full) == 1
    assert len(full) > 1  # the guard sees the private frames too


def test_consolidation_prices_each_merged_set_once(monkeypatch):
    # a host-independent work count: consolidation calls set_diameter once
    # for each merged set it returns, and never for an input set it returns
    # unchanged
    data = generate_synthetic(SyntheticSpec(k_true=10, n=300, dim=4, separation=3.0, seed=1))
    real_diameter, real_consolidate = constraints.set_diameter, constraints.consolidate_ml_sets
    inside, priced, merged = [False], [], []

    def diameter(points, members):
        if inside[0]:
            priced.append(tuple(members))
        return real_diameter(points, members)

    def consolidate(data, oracle, ml_sets, *args, **kwargs):
        inside[0] = True
        try:
            out = real_consolidate(data, oracle, ml_sets, *args, **kwargs)
        finally:
            inside[0] = False
        merged.extend(s.members for s in out if not any(s is t for t in ml_sets))
        return out

    monkeypatch.setattr(constraints, "set_diameter", diameter)
    monkeypatch.setattr(constraints, "consolidate_ml_sets", consolidate)
    harness.generate_constraints(data, harness.make_oracle(sim_config(), data), k=10, seed=0)
    assert len(merged) == 10
    assert priced == merged


class TestBaselineAlgorithm:
    def test_kmeanspp_ignores_constraints(self, blob_data, tmp_path):
        pool = ConstraintCollection(cl_sets=[CLSet(members=(0, 1))])
        config = sim_config(algorithm="kmeanspp", ratios=[1.0], seeds=[0])
        harness.run_experiment(blob_data, pool, config, tmp_path)
        doc = json.loads(next(tmp_path.glob("result_kmeanspp_*.json")).read_text())
        from setclust.clustering import kmeans_baseline
        base = kmeans_baseline(blob_data, k=3, seed=0)
        assert doc["assignment"] == base.labels.tolist()


class TestConstraintRoundTrip:
    def test_save_load(self, tmp_path):
        coll = ConstraintCollection(
            ml_sets=[MLSet(members=(0, 1), hard=True, diameter=0.5, level=2)],
            cl_sets=[CLSet(members=(2, 3))],
            meta={"k": 3},
        )
        path = tmp_path / "c.json"
        save_constraints(coll, path)
        loaded = load_constraints(path)
        assert loaded.ml_sets == coll.ml_sets
        assert loaded.cl_sets == coll.cl_sets
        assert loaded.meta == coll.meta
