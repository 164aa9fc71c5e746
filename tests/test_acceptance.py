"""Acceptance suite: eleven criteria, one printed pass/fail line each.

The benchmark fixtures are module-scoped so the constraint pools and
clustering sweeps are computed once and shared across criteria.
"""

import time

import numpy as np
import pytest

from oracles import (
    acc_brute_force,
    ari_rational,
    matching_brute_force,
    nmi_direct,
    rand_index_pairs,
)
from setclust import clustering, harness, metrics
from setclust.clustering import Penalties
from setclust.constraints import (
    CLSet,
    ConstraintCollection,
    MLSet,
    mix_constraints,
    save_constraints,
)
from setclust.dataset import SyntheticSpec, generate_synthetic
from setclust.harness import ExperimentConfig
from setclust.matching import min_cost_matching

K = 10
N = 1000
DIM = 16
SEEDS = list(range(10))


def _announce(capfd, number, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"criterion {number:2d} ({label}): {verdict} [{detail}]")
    assert passed, f"criterion {number} ({label}) failed: {detail}"


def _instance(seed):
    """One seed-replicated benchmark instance (overlapping 10-blob data)."""
    return generate_synthetic(
        SyntheticSpec(k_true=K, n=N, dim=DIM, separation=3.0, seed=seed))


@pytest.fixture(scope="module")
def bench():
    return _instance(0)


def _make_pool(data, error_rate, seed):
    config = ExperimentConfig(k=K, oracle_error_rate=error_rate,
                              oracle_seed=seed)
    oracle = harness.make_oracle(config, data)
    return harness.generate_constraints(data, oracle, k=K, seed=seed)


@pytest.fixture(scope="module")
def sweep():
    """Per-seed probe of the clean benchmark: every replicate generates its
    own instance, constraint pool, constrained runs, and baseline."""
    start = time.perf_counter()
    rows = []
    for seed in SEEDS:
        data = _instance(seed)
        truth = data.labels()
        pool = _make_pool(data, error_rate=0.0, seed=seed)
        meta = pool.meta
        ledger = (meta["ml_queries"] + meta["cl_queries"]
                  + meta["consistency_queries"])
        base = clustering.kmeans_baseline(data, K, seed)
        row = {
            "base_acc": metrics.acc_hungarian(base.labels, truth),
            "constraint_ri": metrics.constraint_ri(pool, truth),
            "min_gain": np.inf,
        }
        pen = clustering.resolve_penalties(data, K, seed)
        for ratio in (0.1, 0.2, 0.4):
            mixed = mix_constraints(pool.ml_sets, pool.cl_sets, ratio,
                                    data.n, seed=0)
            res = clustering.lsck_hc(data, mixed, pen, K, seed)
            row[f"acc{int(100 * ratio)}"] = metrics.acc_hungarian(res.labels, truth)
            row["min_gain"] = min(row["min_gain"], res.min_gain_seen)
            if ratio == 0.2:
                fsc = harness.fsc_equivalent_queries(
                    mixed.ml_sets, mixed.cl_sets, meta["cl_rejections"])
                row["query_reduction"] = fsc / ledger
                row["fsc"] = fsc
                row["ledger"] = ledger
        rows.append(row)
    return {"rows": rows, "elapsed": time.perf_counter() - start}


def _mean(sweep, key):
    return float(np.mean([row[key] for row in sweep["rows"]]))


def test_criterion_1_matching_optimality(rng, capfd):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(rows, 8))
        costs = rng.random((rows, cols)) * 10
        got = min_cost_matching(costs).total_cost
        worst = max(worst, abs(got - matching_brute_force(costs)))
    elapsed = time.perf_counter() - start
    _announce(capfd, 1, "matching optimality",
              worst < 1e-9 and elapsed < 10.0,
              f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_metric_oracles(rng, capfd):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pred = rng.integers(0, 4, size=n).tolist()
        truth = rng.integers(0, 4, size=n).tolist()
        worst = max(
            worst,
            abs(metrics.acc_hungarian(pred, truth) - acc_brute_force(pred, truth)),
            abs(metrics.rand_index(pred, truth) - rand_index_pairs(pred, truth)),
            abs(metrics.ari(pred, truth) - ari_rational(pred, truth)),
            abs(metrics.nmi(pred, truth) - nmi_direct(pred, truth)),
        )
    same = [0, 1, 2, 1]
    identity_ok = all(m(same, same) == pytest.approx(1.0) for m in
                      (metrics.acc_hungarian, metrics.rand_index,
                       metrics.ari, metrics.nmi))
    _announce(capfd, 2, "metric oracles",
              worst < 1e-9 and identity_ok,
              f"max deviation {worst:.2e}")


def _label_true_constraints(data):
    truth = data.labels()
    by_label = {}
    for i, lab in enumerate(truth):
        by_label.setdefault(int(lab), []).append(i)
    ml = []
    for members in by_label.values():
        for i in range(0, len(members) - 2, 3):
            ml.append(MLSet(members=tuple(members[i:i + 3]), hard=False))
    cl = [CLSet(members=tuple(m[j] for m in by_label.values()))
          for j in range(3)]
    return ConstraintCollection(ml_sets=ml, cl_sets=cl)


def test_criterion_3_penalty_limit_enforcement(bench, capfd):
    coll = _label_true_constraints(bench)
    ml_viol = cl_viol = 0
    for seed in (0, 1, 2):
        res = clustering.lsck_hc(bench, coll, Penalties(1e12, 1e12), K, seed)
        for s in coll.ml_sets:
            if len(set(res.labels[list(s.members)])) > 1:
                ml_viol += 1
        for s in coll.cl_sets:
            if len(set(res.labels[list(s.members)])) < len(s.members):
                cl_viol += 1
    _announce(capfd, 3, "penalty-limit enforcement",
              ml_viol == 0 and cl_viol == 0,
              f"{ml_viol} ML / {cl_viol} CL violations over 3 seeds")


def test_criterion_4_zero_penalty_degeneracy(bench, capfd):
    coll = _label_true_constraints(bench)
    coll = ConstraintCollection(ml_sets=[s for s in coll.ml_sets],
                                cl_sets=coll.cl_sets)
    mismatches = 0
    for seed in (0, 1, 2):
        res = clustering.lsck_hc(bench, coll, Penalties(0.0, 0.0), K, seed)
        d2 = ((bench.points[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        point_cost = d2[np.arange(bench.n), res.labels]
        nearest_cost = d2[np.arange(bench.n), nearest]
        mismatches += int((point_cost > nearest_cost + 1e-9).sum())
    _announce(capfd, 4, "zero-penalty degeneracy", mismatches == 0,
              f"{mismatches} non-nearest assignments over 3 seeds")


def test_criterion_5_release_gain_nonnegative(sweep, capfd):
    min_gain = min(row["min_gain"] for row in sweep["rows"])
    _announce(capfd, 5, "release gain nonnegative", min_gain >= -1e-9,
              f"min gain seen {min_gain:.3e}")


def test_criterion_6_improvement_over_unconstrained(sweep, capfd):
    base = _mean(sweep, "base_acc")
    margins = {r: _mean(sweep, f"acc{r}") - base for r in (10, 20, 40)}
    ok = (all(m >= 0 for m in margins.values())
          and margins[20] >= 0.01 and margins[40] >= 0.01
          and sweep["elapsed"] < 300)
    detail = ", ".join(f"{100 * m:+.2f}pt@{r}%"
                       for r, m in sorted(margins.items()))
    _announce(capfd, 6, "improvement over unconstrained", ok,
              f"baseline {base:.4f}, {detail}, {sweep['elapsed']:.0f}s")


def test_criterion_7_query_reduction(sweep, capfd):
    reductions = [row["query_reduction"] for row in sweep["rows"]]
    mean = float(np.mean(reductions))
    _announce(capfd, 7, "query reduction >= 20x", mean >= 20.0,
              f"pairwise-equivalent/ledger ratio over 10 seeds: "
              f"mean {mean:.1f}x, min {min(reductions):.1f}x")


def test_criterion_8_constraint_quality(sweep, capfd):
    clean_min = min(row["constraint_ri"] for row in sweep["rows"])
    noisy_ris = []
    for seed in SEEDS:
        data = _instance(seed)
        pool = _make_pool(data, error_rate=0.05, seed=seed)
        noisy_ris.append(metrics.constraint_ri(pool, data.labels()))
    noisy_mean = float(np.mean(noisy_ris))
    ok = clean_min == 1.0 and noisy_mean >= 0.90
    _announce(capfd, 8, "constraint quality", ok,
              f"p=0 min: {clean_min:.4f}, p=0.05 over 10 seeds: "
              f"mean {noisy_mean:.4f}, min {min(noisy_ris):.4f}")


def test_criterion_9_noise_robustness(sweep, capfd):
    soft, hard = [], []
    for seed in SEEDS:
        data = _instance(seed)
        truth = data.labels()
        pool = _make_pool(data, error_rate=0.2, seed=seed)
        mixed = mix_constraints(pool.ml_sets, pool.cl_sets, 0.2, data.n, seed=0)
        res = clustering.lsck_hc(data, mixed, clustering.resolve_penalties(data, K, seed), K, seed)
        soft.append(metrics.acc_hungarian(res.labels, truth))
        res = clustering.lsck_hc(data, mixed, Penalties(1e12, 1e12), K, seed)
        hard.append(metrics.acc_hungarian(res.labels, truth))
    base = _mean(sweep, "base_acc")
    soft_mean, hard_mean = float(np.mean(soft)), float(np.mean(hard))
    ok = soft_mean >= hard_mean and soft_mean >= base - 0.02
    _announce(capfd, 9, "noise robustness", ok,
              f"soft {soft_mean:.4f} vs hard-enforcement {hard_mean:.4f}, "
              f"baseline {base:.4f}")


def test_criterion_10_scaling(capfd):
    sizes = (1000, 2000, 4000)
    instances = []
    for n in sizes:
        data = generate_synthetic(
            SyntheticSpec(k_true=K, n=n, dim=DIM, separation=3.0, seed=1))
        ml = _label_true_constraints(data).ml_sets
        clustering.seed_and_group(data, ml, Penalties(1.0, 1.0), K, seed=99)
        instances.append((data, ml))
    # every repetition times each size once, so a burst of host load spreads
    # over all sizes instead of landing on one
    times = [[] for _ in sizes]
    for rep in range(5):
        for (data, ml), timed in zip(instances, times):
            start = time.perf_counter()
            clustering.seed_and_group(data, ml, Penalties(1.0, 1.0), K, seed=rep)
            timed.append(time.perf_counter() - start)
    medians = [float(np.median(timed)) for timed in times]
    ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
    ok = all(r <= 2.5 for r in ratios)
    _announce(capfd, 10, "near-linear scaling in n", ok,
              "doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_11_determinism(tmp_path, capfd):
    data = generate_synthetic(
        SyntheticSpec(k_true=5, n=200, dim=8, separation=3.0, seed=0))
    artifacts = []
    for name in ("a", "b"):
        config = ExperimentConfig(k=5, ratios=[0.2], seeds=[0, 1])
        oracle = harness.make_oracle(config, data)
        pool = harness.generate_constraints(data, oracle, k=5, seed=0)
        cons_path = tmp_path / f"constraints_{name}.json"
        save_constraints(pool, cons_path)
        out = tmp_path / f"results_{name}"
        harness.run_experiment(data, pool, config, out)
        harness.evaluate_results(data, out)
        csv_path = tmp_path / f"report_{name}.csv"
        harness.write_report(out, csv_path)
        artifacts.append((cons_path.read_bytes(), csv_path.read_bytes()))
    ok = artifacts[0] == artifacts[1]
    _announce(capfd, 11, "byte-identical reruns", ok,
              "constraint file and metric CSV compared across two runs")
