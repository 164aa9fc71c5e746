"""Clustering metrics against brute-force and direct-formula references."""

import numpy as np
import pytest

from oracles import (
    acc_brute_force,
    ari_rational,
    constraint_ri_pairs,
    nmi_direct,
    rand_index_pairs,
)
from setclust.constraints import CLSet, ConstraintCollection, MLSet
from setclust.metrics import acc_hungarian, ari, constraint_ri, nmi, rand_index


def random_instance(rng):
    n = int(rng.integers(2, 9))
    pred = rng.integers(0, 4, size=n).tolist()
    truth = rng.integers(0, 4, size=n).tolist()
    return pred, truth


class TestAccHungarian:
    def test_identical(self):
        assert acc_hungarian([0, 1, 2], [0, 1, 2]) == 1.0

    def test_relabel_symmetry(self):
        assert acc_hungarian([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            pred, truth = random_instance(rng)
            assert acc_hungarian(pred, truth) == pytest.approx(
                acc_brute_force(pred, truth), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            acc_hungarian([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            acc_hungarian([], [])


class TestRandIndex:
    def test_identical(self):
        assert rand_index([0, 1, 1], [0, 1, 1]) == 1.0

    def test_known_value(self):
        # 6 pairs, 2 agreements
        assert rand_index([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(1 / 3)

    def test_matches_pair_enumeration(self, rng):
        for _ in range(100):
            pred, truth = random_instance(rng)
            assert rand_index(pred, truth) == pytest.approx(
                rand_index_pairs(pred, truth), abs=1e-9)


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_single_cluster_vs_balanced(self):
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_matches_rational_formula(self, rng):
        for _ in range(100):
            pred, truth = random_instance(rng)
            assert ari(pred, truth) == pytest.approx(
                ari_rational(pred, truth), abs=1e-12)


class TestNmi:
    def test_identical_multi_cluster(self):
        assert nmi([0, 1, 2], [0, 1, 2]) == pytest.approx(1.0)

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, size=10_000)
        truth = rng.integers(0, 2, size=10_000)
        assert nmi(pred, truth) < 0.05

    def test_matches_direct_summation(self, rng):
        for _ in range(100):
            pred, truth = random_instance(rng)
            assert nmi(pred, truth) == pytest.approx(
                nmi_direct(pred, truth), abs=1e-12)


class TestRelabelInvariance:
    def test_all_metrics_invariant(self, rng):
        for _ in range(20):
            pred, truth = random_instance(rng)
            perm = {v: 17 - v for v in set(pred)}
            relabeled = [perm[v] for v in pred]
            for metric in (acc_hungarian, rand_index, ari, nmi):
                assert metric(pred, truth) == pytest.approx(
                    metric(relabeled, truth), abs=1e-12)


class TestRanges:
    def test_bounds(self, rng):
        for _ in range(50):
            pred, truth = random_instance(rng)
            assert 0.0 <= acc_hungarian(pred, truth) <= 1.0
            assert 0.0 <= rand_index(pred, truth) <= 1.0
            assert 0.0 <= nmi(pred, truth) <= 1.0
            assert ari(pred, truth) <= 1.0

    def test_acc_at_least_inverse_k(self, rng):
        # balanced truth with k classes and at most k predicted clusters:
        # alignment gives at least 1/k
        truth = [0] * 4 + [1] * 4
        for _ in range(20):
            pred = rng.integers(0, 2, size=8).tolist()
            assert acc_hungarian(pred, truth) >= 1 / 2 - 1e-12


class TestConstraintRi:
    def test_label_true_collection(self):
        truth = [0, 0, 1, 1]
        coll = ConstraintCollection(
            ml_sets=[MLSet(members=(0, 1)), MLSet(members=(2, 3))],
            cl_sets=[CLSet(members=(0, 2))])
        assert constraint_ri(coll, truth) == 1.0

    def test_single_wrong_ml_pair(self):
        coll = ConstraintCollection(ml_sets=[MLSet(members=(0, 1))])
        assert constraint_ri(coll, [0, 1]) == 0.0

    def test_empty_collection(self):
        assert constraint_ri(ConstraintCollection(), [0, 1]) == 1.0

    def test_matches_pair_enumeration(self, rng):
        for trial in range(60):
            truth = rng.integers(0, 3, size=10).tolist()
            ml = [tuple(rng.choice(10, size=3, replace=False).tolist()) for _ in range(2)]
            cl = [tuple(rng.choice(10, size=3, replace=False).tolist())]
            if trial >= 30:
                # CL sets larger than 3, and ML sets sharing members
                ml += [tuple(dict.fromkeys(ml[0][:2] + ml[1][:2])),
                       tuple(rng.choice(10, size=6, replace=False).tolist())]
                cl += [tuple(rng.choice(10, size=int(rng.integers(4, 11)), replace=False).tolist())]
            coll = ConstraintCollection(
                ml_sets=[MLSet(members=m) for m in ml],
                cl_sets=[CLSet(members=c) for c in cl])
            assert constraint_ri(coll, truth) == pytest.approx(
                constraint_ri_pairs(ml, cl, truth), abs=1e-12)
