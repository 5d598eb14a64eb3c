import json
import random

import numpy as np
import pytest

from multisent import classifiers
from multisent.classifiers import TreeConfig
from multisent.errors import ConfigurationError, DataError
from multisent.evaluation import (ConfusionCounts, class_metrics,
                                  confusion, run_cv, stratified_kfold)
from multisent.features import Dataset, Variant
from multisent.util import make_rng

import oracles


class TestStratifiedKfold:
    def test_balanced_500_into_5(self):
        labels = np.array([1] * 250 + [0] * 250)
        folds = stratified_kfold(labels, k=5, seed=7)
        for f in range(5):
            test_mask = folds == f
            assert test_mask.sum() == 100
            assert labels[test_mask].sum() == 50          # 50 positive
            assert (1 - labels[test_mask]).sum() == 50    # 50 negative
            train_mask = ~test_mask
            assert labels[train_mask].sum() == 200
            assert (1 - labels[train_mask]).sum() == 200

    def test_small_round_robin(self):
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        folds = stratified_kfold(labels, k=2, seed=1)
        for f in range(2):
            mask = folds == f
            assert mask.sum() == 4
            assert labels[mask].sum() == 2

    def test_folds_partition_everything(self):
        labels = np.array([0, 1] * 30)
        folds = stratified_kfold(labels, k=4, seed=3)
        assert set(folds.tolist()) == {0, 1, 2, 3}
        assert len(folds) == 60

    def test_unbalanced_counts_differ_by_at_most_one(self):
        labels = np.array([0] * 13 + [1] * 7)
        folds = stratified_kfold(labels, k=3, seed=5)
        for cls in (0, 1):
            per_fold = [int(np.sum((folds == f) & (labels == cls)))
                        for f in range(3)]
            assert max(per_fold) - min(per_fold) <= 1

    def test_same_seed_identical_bytes(self):
        labels = np.array([1] * 50 + [0] * 50)
        a = stratified_kfold(labels, k=5, seed=11)
        b = stratified_kfold(labels, k=5, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        labels = np.array([1] * 50 + [0] * 50)
        a = stratified_kfold(labels, k=5, seed=11)
        b = stratified_kfold(labels, k=5, seed=12)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_folds_match_the_member_by_member_deal(self, seed):
        rng = random.Random(seed)
        labels = [rng.choice([0, 1, 1]) for _ in range(rng.randint(20, 300))]
        k = rng.randint(2, 7)
        assert stratified_kfold(labels, k, seed).tolist() == \
            oracles.stratified_kfold(labels, k, seed)

    def test_class_smaller_than_k(self):
        with pytest.raises(DataError, match="fewer than k"):
            stratified_kfold(np.array([0, 0, 0, 1]), k=2, seed=0)

    def test_class_of_exactly_k_puts_one_member_in_each_fold(self):
        labels = np.array([0, 1, 1, 0, 1, 0, 1])
        folds = stratified_kfold(labels, k=3, seed=0)
        assert sorted(folds[labels == 0].tolist()) == [0, 1, 2]

    def test_k_below_two(self):
        with pytest.raises(ConfigurationError):
            stratified_kfold(np.array([0, 1]), k=1, seed=0)


class TestConfusion:
    def test_perfect_classifier(self):
        c = confusion([1] * 10 + [0] * 10, [1] * 10 + [0] * 10)
        assert (c.tp, c.fp, c.tn, c.fn) == (10, 0, 10, 0)

    def test_inverted_classifier(self):
        c = confusion([0] * 10 + [1] * 10, [1] * 10 + [0] * 10)
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 10, 0, 10)

    def test_three_pair_enumeration(self):
        c = confusion([1, 1, 0], [1, 0, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1], [1, 0])


class TestClassMetrics:
    def test_hand_checked_values(self):
        m = class_metrics(ConfusionCounts(tp=45, fp=5, tn=0, fn=10))
        assert m["pos"]["p"] == pytest.approx(0.9, abs=1e-5)
        assert m["pos"]["r"] == pytest.approx(0.81818, abs=1e-5)
        assert m["pos"]["f"] == pytest.approx(0.85714, abs=1e-5)

    def test_perfect_counts(self):
        m = class_metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
        assert (m["pos"]["p"], m["pos"]["r"], m["pos"]["f"]) == (1.0, 1.0, 1.0)
        assert (m["neg"]["p"], m["neg"]["r"], m["neg"]["f"]) == (1.0, 1.0, 1.0)
        assert m["flags"] == []

    def test_inverted_counts_all_zero(self):
        m = class_metrics(ConfusionCounts(tp=0, fp=10, tn=0, fn=10))
        assert (m["pos"]["p"], m["pos"]["r"], m["pos"]["f"]) == (0.0, 0.0, 0.0)
        assert (m["neg"]["p"], m["neg"]["r"], m["neg"]["f"]) == (0.0, 0.0, 0.0)

    def test_zero_denominator_flagged(self):
        m = class_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
        assert m["pos"]["p"] == 0.0
        assert "precision_pos" in m["flags"]
        assert "recall_pos" in m["flags"]
        assert m["flags"] == ["f_pos", "precision_pos", "recall_pos"]

    def test_matches_oracle_on_random_counts(self):
        rng = random.Random(404)
        for _ in range(500):
            tp, fp, tn, fn = (rng.randint(0, 40) for _ in range(4))
            if tp + fp + tn + fn == 0:
                continue
            m = class_metrics(ConfusionCounts(tp, fp, tn, fn))
            want = oracles.metrics(tp, fp, tn, fn)
            assert m["pos"]["p"] == pytest.approx(want["p_pos"], abs=1e-12)
            assert m["pos"]["r"] == pytest.approx(want["r_pos"], abs=1e-12)
            assert m["pos"]["f"] == pytest.approx(want["f_pos"], abs=1e-12)
            assert m["neg"]["p"] == pytest.approx(want["p_neg"], abs=1e-12)
            assert m["neg"]["r"] == pytest.approx(want["r_neg"], abs=1e-12)
            assert m["neg"]["f"] == pytest.approx(want["f_neg"], abs=1e-12)

    def test_f_is_a_harmonic_mean(self):
        rng = random.Random(201)
        for _ in range(500):
            tp, fp, fn = rng.randint(1, 50), rng.randint(0, 50), rng.randint(0, 50)
            m = class_metrics(ConfusionCounts(tp, fp, 1, fn))
            p, r, f = m["pos"]["p"], m["pos"]["r"], m["pos"]["f"]
            assert f <= max(p, r) + 1e-12
            assert f >= min(p, r) - 1e-12 or f == 0.0
            if p == r:
                assert f == pytest.approx(p, abs=1e-12)

    def test_swapping_class_roles_swaps_metrics(self):
        rng = random.Random(77)
        for _ in range(200):
            tp, fp, tn, fn = (rng.randint(0, 30) for _ in range(4))
            m = class_metrics(ConfusionCounts(tp, fp, tn, fn))
            # swapping class roles maps tp<->tn and fp<->fn
            swapped = class_metrics(ConfusionCounts(tp=tn, fp=fn,
                                                    tn=tp, fn=fp))
            assert m["pos"]["p"] == swapped["neg"]["p"]
            assert m["pos"]["r"] == swapped["neg"]["r"]
            assert m["pos"]["f"] == swapped["neg"]["f"]


def _separable_dataset(n=60, seed=5):
    rng = make_rng(seed)
    labels = np.array([0, 1] * (n // 2))
    rows = np.zeros((n, 8))
    for i, label in enumerate(labels):
        count = rng.integers(3, 20)
        if label == 1:
            rows[i, 0] = count
            rows[i, 2] = count * 0.4
            rows[i, 4] = 0.4
        else:
            rows[i, 1] = count
            rows[i, 3] = -count * 0.4
            rows[i, 5] = -0.4
    return Dataset(rows=rows, labels=labels, variant=Variant.TERM8)


class TestRunCv:
    def test_separable_data_scores_perfectly(self):
        ds = _separable_dataset()
        report = run_cv(ds, "dtree", TreeConfig(), k=5, seed=3)
        avg = report.average()
        assert avg["test"]["pos"]["f"] == pytest.approx(1.0)
        assert avg["test"]["neg"]["f"] == pytest.approx(1.0)
        assert len(report.folds) == 5
        assert len(report.models) == 5

    def test_deterministic_reports(self):
        ds = _separable_dataset()
        r1 = run_cv(ds, "dtree", TreeConfig(), k=4, seed=9)
        r2 = run_cv(ds, "dtree", TreeConfig(), k=4, seed=9)
        assert json.dumps(r1.to_dict(), sort_keys=True) \
            == json.dumps(r2.to_dict(), sort_keys=True)

    def test_average_lies_between_fold_extremes(self):
        ds = _separable_dataset(n=40)
        report = run_cv(ds, "dtree", TreeConfig(min_leaf=4), k=4, seed=2)
        per_fold = [f["test"]["pos"]["f"] for f in report.folds]
        avg = report.average()["test"]["pos"]["f"]
        assert min(per_fold) - 1e-12 <= avg <= max(per_fold) + 1e-12

    def test_report_structure(self):
        ds = _separable_dataset(n=24)
        report = run_cv(ds, "dtree", TreeConfig(), k=3, seed=1,
                        meta={"variant": "TERM8"})
        doc = report.to_dict()
        assert doc["meta"]["classifier"] == "dtree"
        assert doc["meta"]["k"] == 3
        assert doc["meta"]["variant"] == "TERM8"
        for fold in doc["folds"]:
            for part in ("train", "test"):
                for side in ("pos", "neg"):
                    assert set(fold[part][side]) == {"p", "r", "f"}
        assert set(doc["average"]) == {"train", "test"}

    def test_unknown_classifier(self):
        with pytest.raises(ConfigurationError):
            run_cv(_separable_dataset(n=20), "nope", None, k=2, seed=0)

    def test_each_fold_trains_on_the_rows_outside_it(self, monkeypatch):
        ds, jobs = _separable_dataset(n=30), []
        train_many = classifiers.train_many

        def recorded(kind, fold_jobs):
            fold_jobs = list(fold_jobs)   # run_cv hands over an iterator
            jobs.extend(fold_jobs)
            return train_many(kind, fold_jobs)

        monkeypatch.setattr(classifiers, "train_many", recorded)
        run_cv(ds, "dtree", TreeConfig(), k=3, seed=4)
        folds = stratified_kfold(ds.labels, 3, 4)
        assert len(jobs) == 3
        for f, (rows, labels, _) in enumerate(jobs):
            assert np.array_equal(rows, ds.rows[folds != f])
            assert np.array_equal(labels, ds.labels[folds != f])
