import dataclasses
import functools
import itertools
import json
import math
import operator
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest

from multisent import classifiers
from multisent.classifiers import (AnnConfig, SvmConfig, SvmModel,
                                   TreeConfig, decision_values, load_model,
                                   predict_labels, save_model, train)
from multisent.classifiers import ann, svm, tree
from multisent.classifiers.io import model_from_dict, model_to_dict
from multisent.classifiers.normalize import NormalizationParams
from multisent.classifiers.tree import TreeModel, added_errors
from multisent.errors import ConfigurationError, DataError
from multisent.features import Variant
from multisent.lexicon import PriorFormula
from multisent.pipeline import PipelineConfig, build_dataset, load_inputs
from multisent.synth import SynthConfig, generate
from multisent.util import derive_seed, make_rng

import oracles
from conftest import capped_address_space, traced_peak


def separable_blobs(n_per_class=20, gap=4.0, n_features=2, seed=123):
    rng = make_rng(seed)
    a = rng.normal(size=(n_per_class, n_features)) * 0.5 - gap / 2
    b = rng.normal(size=(n_per_class, n_features)) * 0.5 + gap / 2
    rows = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return rows, labels


def accuracy(model, rows, labels):
    return float((predict_labels(model, rows) == labels).mean())


def overlapping_blobs():
    return separable_blobs(20, gap=1.0, n_features=3, seed=31)


def duplicated_rows():
    """Blobs with exact duplicate rows, some of them with the other label."""
    rows, labels = separable_blobs(15, gap=1.5, seed=32)
    return (np.vstack([rows, rows[:6], rows[20:24]]),
            np.concatenate([labels, labels[:6], 1 - labels[20:24]]))


def one_feature_rows():
    rows, labels = separable_blobs(18, gap=1.0, n_features=1, seed=33)
    return np.vstack([rows, rows[:3]]), np.concatenate([labels, labels[:3]])


def near_duplicate_rows():
    """Blobs plus ten rows moved by 1e-4 down to 1e-8 from a row of the
    other label, so that eta is close to 0 and the screen's slack huge."""
    rows, labels = separable_blobs(15, gap=1.5, seed=34)
    shifts = np.array([1e-4, 1e-5, 1e-6, 1e-7, 1e-8])[:, None]
    return (np.vstack([rows, rows[:5] + shifts, rows[20:25] - shifts]),
            np.concatenate([labels, 1 - labels[:5], 1 - labels[20:25]]))


def wide_rows():
    return separable_blobs(100, gap=1.5, n_features=8, seed=35)


@functools.cache
def term8_rows():
    """300 TERM8 rows with rules of a corpus shaped like the SVM
    benchmark's: the classes overlap, so one training makes hundreds of
    moves between the sweeps' fresh error products."""
    return synth_rows(docs_per_class=150, rule_fraction=0.2, seed=12)


SVM_PROBLEMS = [overlapping_blobs, duplicated_rows, one_feature_rows,
                near_duplicate_rows, wide_rows, term8_rows]


def oracle_svm(rows, labels, cfg):
    """(model, moves) that the scalar SMO of ``oracles.smo`` reaches."""
    norm = NormalizationParams(rows.min(axis=0), rows.max(axis=0))
    x = norm.apply(rows)
    y = 2.0 * labels - 1.0
    gamma = cfg.gamma if cfg.gamma is not None else 1.0 / x.shape[1]
    kernel = oracles.rbf_kernel(x, x, gamma)
    alphas, b, moves = oracles.smo(kernel, y, cfg.c, cfg.tol, cfg.max_passes,
                                   make_rng(derive_seed(cfg.seed, "svm")))
    support = alphas > 0.0
    model = SvmModel(support_vectors=x[support],
                     coefficients=(alphas * y)[support], bias=b, gamma=gamma,
                     normalization=norm, config=cfg, alphas=alphas,
                     train_labels_pm=y)
    return model, moves


def walked(model, rows):
    """Leaf scores of ``rows`` walked one at a time through the tree."""
    leaves = [oracles.tree_walk(model.nodes, row)["counts"] for row in rows]
    return np.array([pos / (neg + pos) - 0.5 for neg, pos in leaves])


def ann_problem(n, n_features, seed):
    """Normalized-range rows with noisy +/-1 targets."""
    rng = make_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, n_features))
    targets = np.where(x.sum(axis=1) + rng.normal(size=n) > 0, 1.0, -1.0)
    return x, targets


def assert_same_run(got, want):
    """Bit-equal weights and final error, or both runs diverged."""
    if got is None or want is None:
        assert got is want
        return
    (a, w2, b2), error = got
    (o_w1, o_b1, o_w2, o_b2), o_error = want
    assert np.array_equal(a[:-1].T, o_w1) and np.array_equal(a[-1], o_b1)
    assert np.array_equal(w2, o_w2)
    assert b2 == o_b2 and error == o_error


def counted_runs(monkeypatch, x, targets, cfg, run_seed):
    """Both trainers' runs, the oracle's epochs, the distinct weights it
    took gradients at, and the trainer's backward passes."""
    weights, passes = [], []
    oracle_gradients, backward = oracles.ann_loss_gradients, ann._backward

    def gradients(w1, *args):
        weights.append(w1.tobytes())
        return oracle_gradients(w1, *args)

    def counted_backward(*args):
        passes.append(1)
        return backward(*args)

    monkeypatch.setattr(oracles, "ann_loss_gradients", gradients)
    monkeypatch.setattr(ann, "_backward", counted_backward)
    want = oracles.ann_run_once(x, targets, cfg, run_seed)
    got = ann._run_once(x, targets, cfg, run_seed)
    return got, want, len(weights), len(set(weights)), len(passes)


class TestAnn:
    def test_fits_linearly_separable_data(self):
        rows, labels = separable_blobs(20)
        model = train("ann", rows, labels, AnnConfig(seed=3))
        assert accuracy(model, rows, labels) == 1.0

    def test_fits_xor(self):
        rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        model = train("ann", rows, labels,
                      AnnConfig(max_epochs=4000, lr=0.05, seed=11))
        assert accuracy(model, rows, labels) == 1.0

    def test_same_seed_is_bit_identical(self):
        rows, labels = separable_blobs(10)
        cfg = AnnConfig(max_epochs=60, seed=42)
        m1 = train("ann", rows, labels, cfg)
        m2 = train("ann", rows, labels, cfg)
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.w2, m2.w2)
        assert m1.b2 == m2.b2
        assert m1.final_error == m2.final_error

    def test_different_seeds_differ(self):
        rows, labels = separable_blobs(10)
        m1 = train("ann", rows, labels, AnnConfig(max_epochs=30, seed=1))
        m2 = train("ann", rows, labels, AnnConfig(max_epochs=30, seed=2))
        assert not np.array_equal(m1.a, m2.a)

    def test_single_class_rejected(self):
        rows = np.zeros((4, 2))
        with pytest.raises(DataError, match="single class"):
            train("ann", rows, np.array([1, 1, 1, 1]))

    def test_hidden_width_default_is_fifteen(self):
        rows, labels = separable_blobs(5)
        model = train("ann", rows, labels, AnnConfig(max_epochs=5, seed=0))
        assert model.a.shape[1] == 15

    def test_backprop_matches_central_finite_differences(self):
        rng = make_rng(2718)
        x = rng.normal(size=(3, 4))
        targets = np.array([1.0, -1.0, 1.0])
        w1 = rng.normal(size=(5, 4)) * 0.7
        b1 = rng.normal(size=5) * 0.3
        w2 = rng.normal(size=5) * 0.7
        b2 = 0.2

        _, (g_w1, g_b1, g_w2, g_b2) = oracles.ann_loss_gradients(
            w1, b1, w2, b2, x, targets)

        h = 1e-6

        def check(analytic, array, index):
            bumped = array.copy()
            bumped[index] += h
            up = oracles.ann_mse_loss(*_subst(array, bumped), x, targets)
            bumped[index] -= 2 * h
            down = oracles.ann_mse_loss(*_subst(array, bumped), x, targets)
            numeric = (up - down) / (2 * h)
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            assert rel <= 1e-4, (index, numeric, analytic)

        def _subst(original, replacement):
            return tuple(replacement if arr is original else arr
                         for arr in (w1, b1, w2, b2))

        for idx in np.ndindex(w1.shape):
            check(g_w1[idx], w1, idx)
        for idx in range(len(b1)):
            check(g_b1[idx], b1, idx)
        for idx in range(len(w2)):
            check(g_w2[idx], w2, idx)
        # scalar bias via direct evaluation
        up = oracles.ann_mse_loss(w1, b1, w2, b2 + h, x, targets)
        down = oracles.ann_mse_loss(w1, b1, w2, b2 - h, x, targets)
        numeric = (up - down) / (2 * h)
        assert abs(numeric - g_b2) / max(abs(numeric), abs(g_b2), 1e-8) <= 1e-4

    @pytest.mark.parametrize("n", [2, 37, 400])
    @pytest.mark.parametrize("n_features", [1, 7, 8])
    @pytest.mark.parametrize("hidden", [1, 2, 15, 16])
    def test_run_matches_three_pass_oracle(self, hidden, n_features, n):
        for seed in range(3):
            x, targets = ann_problem(n, n_features, seed)
            cfg = AnnConfig(hidden=hidden, max_epochs=200)
            run_seed = derive_seed(seed, "ann", 0)
            assert_same_run(ann._run_once(x, targets, cfg, run_seed),
                            oracles.ann_run_once(x, targets, cfg, run_seed))

    @pytest.mark.parametrize("n", [2, 3, 9, 400, 1601])
    @pytest.mark.parametrize("hidden", [1, 2, 15, 16])
    def test_column_sums_match_numpy_sum_bit_for_bit(self, hidden, n):
        rng = make_rng(n * 100 + hidden)
        # Magnitudes over 2**-10..2**10, so the order of the adds shows in
        # the rounding of most draws; then -0.0 columns, whose sign bit
        # must match too.
        wide = [rng.normal(size=(n, hidden))
                * 2.0 ** rng.integers(-10, 11, size=(n, hidden))
                for _ in range(30)]
        zero_col = wide[0].copy()
        zero_col[:, -1] = -0.0
        for a in [*wide, zero_col, np.full((n, hidden), -0.0)]:
            want = a.sum(axis=0)
            got = ann._column_sums(a, np.empty(hidden))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 400, 1601])
    @pytest.mark.parametrize("n_features", [1, 7, 8])
    @pytest.mark.parametrize("hidden", [1, 2, 15, 16])
    def test_first_layer_matches_numpy_bit_for_bit(self, hidden, n_features,
                                                   n):
        rng = make_rng(n * 1000 + n_features * 100 + hidden)

        def draw(*shape):
            # Magnitudes over 2**-10..2**0 per factor, so the order of the
            # adds shows in the rounding while tanh, short of saturation,
            # keeps the last bits; and -0.0 entries, whose sign bit must
            # match too.
            a = rng.normal(size=shape) * 2.0 ** rng.integers(-10, 1, shape)
            a[rng.random(shape) < 0.1] = -0.0
            return a

        rows = rng.normal(size=(n, n_features))
        norm = NormalizationParams(rows.min(axis=0), rows.max(axis=0))
        for draws in range(10):
            x, w1, b1, w2 = (draw(n, n_features), draw(hidden, n_features),
                             draw(hidden), draw(hidden))
            if draws == 0:
                x[0], b1[:] = -0.0, -0.0
            _, (a, _, _) = ann._flat(hidden, n_features)
            a[:-1], a[-1] = w1.T, b1
            got, _ = ann.forward(a, w2, 0.5, ann._with_ones(x))
            assert got.tobytes() == np.tanh(x @ w1.T + b1).tobytes()
            # Predictions go through the same forward pass.
            model = ann.AnnModel(a=a, w2=w2, b2=0.5, normalization=norm,
                                 config=AnnConfig(hidden=hidden),
                                 final_error=0.0)
            want = oracles.ann_forward(w1, b1, w2, 0.5, norm.apply(rows))
            assert model.decision_values(rows).tobytes() == want.tobytes()

    def test_run_stopping_at_goal_matches_oracle(self, monkeypatch):
        x, targets = ann_problem(37, 7, 4)
        cfg = AnnConfig(max_epochs=500, goal=0.2)
        got, want, epochs, _, _ = counted_runs(monkeypatch, x, targets,
                                               cfg, 9)
        assert 0 < epochs < cfg.max_epochs
        assert want[1] <= cfg.goal
        assert_same_run(got, want)

    def test_run_stops_at_an_error_equal_to_the_goal(self, monkeypatch):
        # The goal is met when the error reaches it, not only below it: a
        # goal equal to the error after 20 epochs stops the run there.
        x, targets = ann_problem(37, 7, 4)
        _, error = ann._run_once(x, targets,
                                 AnnConfig(max_epochs=20, goal=0.0), 9)
        got, want, _, _, _ = counted_runs(
            monkeypatch, x, targets, AnnConfig(max_epochs=500, goal=error), 9)
        assert got[1] == error
        assert_same_run(got, want)

    def test_rejected_epochs_reuse_gradients(self, monkeypatch):
        x, targets = ann_problem(400, 7, 5)
        cfg = AnnConfig(max_epochs=300, lr=5.0)
        got, want, epochs, distinct, passes = counted_runs(
            monkeypatch, x, targets, cfg, 3)
        # The oracle took gradients at unchanged weights after each
        # rejection; the trainer backpropagates once per weight setting.
        assert epochs == cfg.max_epochs and distinct < epochs
        assert passes == distinct
        assert_same_run(got, want)

    def test_non_finite_error_returns_none_from_both(self):
        x, targets = ann_problem(37, 7, 6)
        targets = targets * 1e200   # the squared error overflows
        cfg = AnnConfig(max_epochs=20)
        with np.errstate(over="ignore"):
            assert ann._run_once(x, targets, cfg, 1) is None
            assert oracles.ann_run_once(x, targets, cfg, 1) is None

    @pytest.mark.parametrize("option", [
        {"max_epochs": 0}, {"max_epochs": -3}, {"lr": 0.0}, {"lr": -1.0},
        {"lr": float("nan")}, {"lr": float("inf")}, {"momentum": -0.1},
        {"momentum": 1.0}, {"momentum": float("nan")}, {"lr_up": 0.9},
        {"lr_up": float("inf")}, {"lr_down": 0.0}, {"lr_down": 1.0},
        {"goal": -1e-3}, {"goal": float("nan")}, {"goal": float("inf")},
    ])
    def test_out_of_range_options_are_config_errors(self, option):
        with pytest.raises(ConfigurationError, match=next(iter(option))):
            classifiers.make_config("ann", **option)

    def test_sign_rule(self):
        rows, labels = separable_blobs(10)
        model = train("ann", rows, labels, AnnConfig(max_epochs=80, seed=5))
        scores = decision_values(model, rows)
        assert predict_labels(model, rows).tolist() \
            == [1 if score >= 0 else 0 for score in scores]


def train_on_cpus(on_cpus, cpus, rows, labels, cfg):
    """An ANN trained as on ``cpus`` CPUs, and the number of helpers it
    started; none may outlive it, whether it returns or raises."""
    try:
        with on_cpus(cpus) as forks:
            model = train("ann", rows, labels, cfg)
    finally:
        assert forks[0] <= min(cpus, cfg.restarts) - 1
    return model, forks[0]


def restart_problem(cfg):
    """Rows and labels, and every restart's oracle run on them."""
    rows, labels = separable_blobs(12, gap=1.0, n_features=3,
                                   seed=cfg.hidden)
    x = NormalizationParams(rows.min(axis=0), rows.max(axis=0)).apply(rows)
    targets = 2.0 * labels - 1.0
    runs = [oracles.ann_run_once(x, targets, cfg,
                                 derive_seed(cfg.seed, "ann", r))
            for r in range(cfg.restarts)]
    return rows, labels, runs


def model_run(model):
    return (model.a, model.w2, model.b2), model.final_error


def model_bytes(model):
    return [np.float64(v).tobytes() for v in (
        model.a, model.w2, model.b2, model.final_error)]


class TestAnnRestartBlocks:
    @pytest.mark.parametrize("restarts", [1, 2, 3, 5])
    @pytest.mark.parametrize("hidden", [1, 2, 15])
    def test_parallel_training_matches_serial_and_oracle(
            self, on_cpus, hidden, restarts):
        cfg = AnnConfig(hidden=hidden, restarts=restarts, max_epochs=60,
                        seed=restarts)
        rows, labels, runs = restart_problem(cfg)
        want = oracles.ann_best_run(runs)
        serial = None
        for cpus in (1, 2, 4):
            model, helpers = train_on_cpus(on_cpus, cpus, rows, labels,
                                           cfg)
            assert helpers == min(cpus, restarts) - 1
            assert_same_run(model_run(model), want)
            serial = serial or model_bytes(model)
            assert model_bytes(model) == serial

    # At seed 7 the best of 4 restarts is restart 1, in a helper's share
    # at 2 and at 4 CPUs, so a lost share would change the model.
    def test_diverged_restarts_in_helper_blocks_are_skipped(
            self, monkeypatch, on_cpus):
        cfg = AnnConfig(restarts=4, max_epochs=40, seed=7)
        rows, labels, runs = restart_problem(cfg)
        seeds = [derive_seed(cfg.seed, "ann", r) for r in range(4)]
        best = [run is oracles.ann_best_run(runs) for run in runs].index(True)
        assert best == 1
        run_once = ann._run_once
        diverged = {seeds[best]}
        monkeypatch.setattr(
            ann, "_run_once", lambda x, t, c, seed:
            None if seed in diverged else run_once(x, t, c, seed))
        want = oracles.ann_best_run(None if r == best else run
                                    for r, run in enumerate(runs))
        for cpus in (1, 2, 4):
            model, _ = train_on_cpus(on_cpus, cpus, rows, labels, cfg)
            assert_same_run(model_run(model), want)
        diverged.update(seeds)
        for cpus in (1, 2, 4):
            with pytest.raises(DataError,
                               match="all training restarts diverged"):
                train_on_cpus(on_cpus, cpus, rows, labels, cfg)

    def test_first_of_equally_good_restarts_is_kept(self):
        rows, labels = separable_blobs(6)
        _, _, finish = ann.plan_ann(rows, labels, AnnConfig(restarts=3))
        runs = [None] + [((np.full((3, 15), w), np.zeros(15), 0.0), 0.5)
                         for w in (1.0, 2.0)]
        assert oracles.ann_best_run(runs) is runs[1]
        assert finish(runs).a[0, 0] == 1.0

    def test_a_huge_restart_count_starts_at_once(self, monkeypatch, on_cpus):
        # Runs are looked up by index, so 10**12 restarts build no list.
        class Stop(Exception):
            pass

        def stop(x, targets, cfg, seed):
            raise Stop(seed)

        monkeypatch.setattr(ann, "_run_once", stop)
        rows, labels = separable_blobs(6)
        cfg = AnnConfig(restarts=10**12, seed=4)
        # A list of every run would grow until memory runs out; with the
        # address space capped, such a list fails fast with MemoryError.
        with capped_address_space():
            for cpus in (1, 2):
                with pytest.raises(Stop) as stopped, on_cpus(cpus) as forks:
                    classifiers.train_many("ann", [(rows, labels, cfg)] * 2)
                assert forks == [cpus - 1]
                assert stopped.value.args == (derive_seed(4, "ann", 0),)

    def test_memory_error_in_a_helper_block_is_a_configuration_error(
            self, monkeypatch, on_cpus):
        cfg = AnnConfig(restarts=4, max_epochs=40, seed=2)
        rows, labels, _ = restart_problem(cfg)
        too_big, run_once = derive_seed(cfg.seed, "ann", 3), ann._run_once

        def allocate(x, targets, cfg, seed):
            if seed == too_big:
                raise MemoryError
            return run_once(x, targets, cfg, seed)

        monkeypatch.setattr(ann, "_run_once", allocate)
        for cpus in (1, 2):
            with pytest.raises(ConfigurationError,
                               match="15 hidden units does not fit"):
                train_on_cpus(on_cpus, cpus, rows, labels, cfg)


def tied_rows():
    """Symmetric labels over a feature, its copy and its mirror, so cuts
    and features tie exactly in ratio and gain."""
    x = np.arange(12.0)
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0])
    return np.column_stack([x, x, -x, np.full(12, 5.0)]), labels


def coarse_rows():
    """Few distinct values per feature, so rows and cuts repeat."""
    rng = make_rng(41)
    rows = rng.integers(0, 4, size=(70, 3)).astype(float)
    labels = (rows[:, 0] + rng.integers(0, 3, size=70) > 2).astype(int)
    return rows, labels


def near_gain_eps_rows(n, k, a, b):
    """One cut of ``n`` rows whose gain lies one rounding step from
    ``_GAIN_EPS``: ``a`` of the ``k`` rows at 0 and ``b`` of the rest
    at 1 are positive, beside a constant feature."""
    labels = np.zeros(n, dtype=int)
    labels[:a] = 1
    labels[k:k + b] = 1
    x = np.repeat([0.0, 1.0], [k, n - k])
    return np.column_stack([np.full(n, -2.0), x]), labels


def synth_rows(docs_per_class=40, rule_fraction=0.3, seed=7):
    """TERM8 rows with rules of a noisy synthetic corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = generate(SynthConfig(docs_per_class=docs_per_class,
                                     purity=0.8, rule_fraction=rule_fraction,
                                     seed=seed), tmp)
        cfg = PipelineConfig(corpus_dir=str(paths.corpus_dir),
                             lexicon_path=str(paths.lexicon),
                             lemma_dict_path=str(paths.lemma_dict),
                             out_dir=tmp, negations_path=str(paths.negations),
                             intensifiers_path=str(paths.intensifiers))
        corpus, priors, rule_cfg = load_inputs(cfg, [PriorFormula.MAX_SUB],
                                               True)
        dataset = build_dataset(corpus, priors[PriorFormula.MAX_SUB],
                                Variant.TERM8, rule_cfg)
    return dataset.rows, dataset.labels


SPLIT_PROBLEMS = {
    "blobs": overlapping_blobs, "duplicates": duplicated_rows,
    "one_feature": one_feature_rows, "ties": tied_rows,
    "coarse": coarse_rows, "synth": synth_rows,
    "gain_below_eps": lambda: near_gain_eps_rows(1909, 900, 289, 324),
    "gain_above_eps": lambda: near_gain_eps_rows(2614, 1173, 569, 699),
}


def split(**change) -> list:
    """A valid three-node tree on two features, with ``change`` made to
    its root."""
    return [{"counts": [1, 1], "feature": 0, "threshold": 0.5, "left": 1,
             "right": 2, **change}, {"counts": [1, 0]}, {"counts": [0, 1]}]


def same_split(got, want) -> bool:
    """Same feature and a bit-equal threshold, or both None."""
    if got is None or want is None:
        return got is want
    return got[0] == want[0] and \
        np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


class TestTree:
    def test_pure_data_is_a_single_leaf(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        model = train("dtree", rows, np.array([1, 1, 1]))
        assert model.nodes == [{"counts": [0, 3]}]
        assert predict_labels(model, [[9.0]]).tolist() == [1]

    def test_threshold_separable_gives_depth_one(self):
        rows = np.array([[x] for x in (1.0, 2.0, 3.0, 10.0, 11.0, 12.0)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = train("dtree", rows, labels)
        root, left, right = model.nodes
        assert root["left"] == 1 and root["right"] == 2
        assert "left" not in left and "left" not in right
        assert 3.0 < root["threshold"] < 10.0
        assert accuracy(model, rows, labels) == 1.0

    def test_min_leaf_two_blocks_one_row_children(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1])
        model = train("dtree", rows, labels, TreeConfig(min_leaf=2))
        assert len(model.nodes) == 1

    def test_unpruned_min_leaf_one_memorizes_conflict_free_data(self):
        rng = make_rng(77)
        rows = rng.normal(size=(60, 3))
        labels = (rng.random(60) < 0.5).astype(int)
        labels[0] = 0
        labels[1] = 1   # both classes present
        model = train("dtree", rows, labels,
                      TreeConfig(min_leaf=1, prune=False))
        assert accuracy(model, rows, labels) == 1.0

    def test_pruning_shrinks_noise_trees(self):
        rng = make_rng(123)
        rows = rng.normal(size=(40, 2))
        labels = (rng.random(40) < 0.5).astype(int)
        labels[:2] = [0, 1]
        grown = train("dtree", rows, labels,
                      TreeConfig(min_leaf=2, prune=False))
        pruned = train("dtree", rows, labels,
                       TreeConfig(min_leaf=2, prune=True))
        assert len(pruned.nodes) < len(grown.nodes)

    def test_pruning_computes_its_quantile_once_per_confidence(
            self, monkeypatch):
        quantiles = []
        inv_cdf = tree.NormalDist.inv_cdf

        def counted(self, p):
            quantiles.append(p)
            return inv_cdf(self, p)

        monkeypatch.setattr(tree.NormalDist, "inv_cdf", counted)
        tree._quantile.cache_clear()
        rng = make_rng(123)
        rows = rng.normal(size=(40, 2))
        labels = (rng.random(40) < 0.5).astype(int)
        for confidence in (0.3, 0.3, 0.1):
            train("dtree", rows, labels,
                  TreeConfig(min_leaf=2, confidence=confidence))
        assert quantiles == [0.7, 0.9]

    @pytest.mark.parametrize("seed", range(3))
    def test_one_walk_matches_grow_then_prune(self, seed):
        # Gaussian, small-integer and rounded rows, ten datasets a test,
        # each at every setting the node lists can depend on. The oracle
        # shares the split search, which the scalar-oracle tests pin.
        rng = make_rng(seed)
        for trial in range(10):
            n, width = int(rng.integers(2, 400)), int(rng.integers(1, 9))
            rows = [rng.normal(size=(n, width)),
                    rng.integers(0, 4, size=(n, width)).astype(float),
                    np.round(rng.normal(size=(n, width)), 1)][trial % 3]
            noise = rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
            labels = (rows[:, 0] + noise > 0).astype(int)
            for min_leaf, confidence, prune in itertools.product(
                    (1, 2, 5), (0.01, 0.25, 0.5, 0.9), (True, False)):
                cfg = TreeConfig(confidence=confidence, min_leaf=min_leaf,
                                 prune=prune)
                want = oracles.tree_grow_then_prune(
                    rows, labels, min_leaf, confidence, prune,
                    split=tree._best_split)
                got = train("dtree", rows, labels, cfg).nodes
                assert json.dumps(got) == json.dumps(want), (trial, cfg)

    def test_leaf_score_is_positive_proportion(self):
        model = TreeModel(nodes=[{"counts": [1, 3]}],
                          config=TreeConfig(), n_features=1)
        assert decision_values(model, [[0.0]]).tolist() == [0.25]
        assert predict_labels(model, [[0.0]]).tolist() == [1]

    def test_deterministic_without_seed(self):
        rows, labels = separable_blobs(15)
        m1 = train("dtree", rows, labels)
        m2 = train("dtree", rows, labels)
        assert classifiers.model_to_dict(m1) == classifiers.model_to_dict(m2)

    def test_adjacent_float_values_split_cleanly(self):
        # midpoint of two consecutive floats rounds onto one of them;
        # the split must still separate exactly the sorted prefix. Ties
        # round to even: 1.0's midpoint with the next float rounds down
        # onto 1.0, and the next pair's rounds up onto the larger value.
        after_one = np.nextafter(1.0, 2.0)
        for lo, hi in ((1.0, after_one),
                       (after_one, np.nextafter(after_one, 2.0))):
            rows = np.array([[lo], [lo], [hi], [hi]])
            labels = np.array([0, 0, 1, 1])
            model = train("dtree", rows, labels,
                          TreeConfig(min_leaf=1, prune=False))
            assert accuracy(model, rows, labels) == 1.0

    @pytest.mark.parametrize("min_leaf", [1, 2, 3, 5])
    @pytest.mark.parametrize("problem", sorted(SPLIT_PROBLEMS))
    def test_best_split_matches_scalar_oracle(self, monkeypatch, problem,
                                              min_leaf):
        rows, labels = SPLIT_PROBLEMS[problem]()
        screened = tree._best_split
        searched = []

        def checked(rows, labels, min_leaf):
            got = screened(rows, labels, min_leaf)
            want = oracles.best_split(rows, labels, min_leaf)
            searched.append(len(labels))
            assert same_split(got, want), (len(labels), got, want)
            return got

        monkeypatch.setattr(tree, "_best_split", checked)
        train("dtree", rows, labels,
              TreeConfig(min_leaf=min_leaf, prune=False))
        assert searched
        # Growth meets only the sizes its splits make; ask for the
        # smallest, and those too small for two children, directly.
        for n in range(1, min(2 * min_leaf + 2, len(labels)) + 1):
            checked(rows[:n], labels[:n], min_leaf)

    def test_split_grid_meets_ties_and_the_gain_floor(self):
        rows, labels = tied_rows()
        assert tree._best_split(rows, labels, 2) == (0, 2.5)
        rows, labels = near_gain_eps_rows(1909, 900, 289, 324)
        assert tree._best_split(rows, labels, 2) is None
        rows, labels = near_gain_eps_rows(2614, 1173, 569, 699)
        assert tree._best_split(rows, labels, 2) == (1, 0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_prediction_routes_rows_like_the_node_walk(self, seed):
        rng = make_rng(seed)
        rows = rng.integers(0, 5, size=(150, 3)).astype(float)
        labels = (rows[:, 0] + rows[:, 1] + rng.integers(0, 4, size=150)
                  > 5).astype(int)
        # Half-integers hit the thresholds exactly; nan goes right.
        queries = np.vstack([rows, rng.integers(-2, 12, size=(60, 3)) / 2])
        queries[rng.random(queries.shape) < 0.15] = np.nan
        for cfg in (TreeConfig(min_leaf=1, prune=False), TreeConfig()):
            model = train("dtree", rows, labels, cfg)
            assert len(model.nodes) > 1
            assert np.array_equal(model.decision_values(queries),
                                  walked(model, queries))
        assert model.decision_values(queries[:0]).shape == (0,)

    def test_deep_tree_trains_and_round_trips(self):
        rows = np.arange(3000.0)[:, None]
        labels = np.arange(3000) % 2
        model = train("dtree", rows, labels, TreeConfig(prune=False))
        depth, todo = 0, [(0, 0)]
        while todo:
            i, d = todo.pop()
            depth = max(depth, d)
            if "left" in model.nodes[i]:
                todo += [(model.nodes[i]["left"], d + 1),
                         (model.nodes[i]["right"], d + 1)]
        assert depth > 990
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model),
                                                     indent=2)))
        assert model_to_dict(back) == model_to_dict(model)
        assert np.array_equal(predict_labels(back, rows),
                              predict_labels(model, rows))
        queries = rows[::5].copy()
        queries[::7] = np.nan
        assert np.array_equal(model.decision_values(queries),
                              walked(model, queries))
        assert len(train("dtree", rows, labels).nodes) == 1
        # repr and == read the flat node list, at any depth.
        assert repr(model).startswith("TreeModel(nodes=[{'counts': [")
        assert back == model and back.nodes is not model.nodes

    def test_nodes_serialize_flat_in_pre_order(self):
        rows = np.array([[x] for x in (1.0, 2.0, 3.0, 10.0, 11.0, 12.0)])
        doc = model_to_dict(train("dtree", rows,
                                  np.array([0, 0, 0, 1, 1, 1])))
        assert doc["format_version"] == 2
        assert doc["nodes"] == [
            {"counts": [3, 3], "feature": 0, "threshold": 6.5,
             "left": 1, "right": 2},
            {"counts": [3, 0]}, {"counts": [0, 3]}]

    @pytest.mark.parametrize("nodes,message", [
        ([], "no nodes"),
        ([{"counts": [1, 1], "feature": 0, "threshold": 0.5,
           "left": 0, "right": 1}, {"counts": [1, 0]}], "node 0: left child index 0 is not"),
        ([{"counts": [1, 1], "feature": 0, "threshold": 0.5,
           "left": 1, "right": 3}, {"counts": [1, 0]}, {"counts": [0, 1]}],
         "node 0: right child index 3 is not"),
        ([{"counts": [2, 1], "feature": 0, "threshold": 0.5,
           "left": 1, "right": 2},
          {"counts": [1, 1], "feature": 0, "threshold": 0.2,
           "left": 2, "right": 3},
          {"counts": [1, 0]}, {"counts": [0, 1]}], "node 1: left child index 2 is not"),
        ([{"counts": [1, 1], "feature": 0, "threshold": 0.5,
           "left": "1", "right": 2}, {"counts": [1, 0]}, {"counts": [0, 1]}],
         "malformed dtree model"),
        # Each of these, if it loaded, would fail only at prediction or
        # (feature -1) silently read the last column.
        ([{"counts": [0, 0]}], r"node 0: counts \[0, 0\] are not"),
        ([{"counts": [1]}], r"node 0: counts \[1\] are not"),
        ([{"counts": [2, -1]}], r"node 0: counts \[2, -1\] are not"),
        ([{"counts": [1, 1.0]}], r"node 0: counts \[1, 1.0\] are not"),
        ([{"counts": [True, 1]}], r"node 0: counts \[True, 1\] are not"),
        (split(feature=5),
         r"node 0: split 5 <= 0.5 needs a feature in \[0, 2\) and a finite"),
        (split(feature=-1), "node 0: split -1 <= 0.5 needs"),
        (split(feature=1.0), "node 0: split 1.0 <= 0.5 needs"),
        (split(feature=False), "node 0: split False <= 0.5 needs"),
        (split(threshold="x"), "node 0: split 0 <= 'x' needs"),
        (split(threshold=None), "node 0: split 0 <= None needs"),
        (split(threshold=True), "node 0: split 0 <= True needs"),
        (split(threshold=math.nan), "node 0: split 0 <= nan needs"),
        (split(threshold=-math.inf), "node 0: split 0 <= -inf needs"),
        (split(threshold=10 ** 400), "node 0: split 0 <= 1000.* needs"),
        ([{"counts": [1, 1], "left": 1, "right": 2}, {"counts": [1, 0]},
          {"counts": [0, 1]}], r"missing keys: \['feature'\]"),
        ([{"counts": [1, 1], "feature": 0, "threshold": 0.5, "left": 1},
          {"counts": [1, 0]}, {"counts": [0, 1]}],
         r"missing keys: \['right'\]"),
        ([{"counts": [1, 1]}, {"counts": [1, 0]}], "node 1 is no node's child"),
        (split() + [{"counts": [1, 0]}], "node 3 is no node's child"),
    ])
    def test_bad_node_lists_are_data_errors(self, nodes, message):
        rows, labels = separable_blobs(6, gap=3.0)
        doc = model_to_dict(train("dtree", rows, labels))
        with pytest.raises(DataError, match=message):
            model_from_dict({**doc, "nodes": nodes})

    def test_checked_node_lists_load_and_serialize_unchanged(self):
        rows, labels = separable_blobs(6, gap=3.0)
        doc = model_to_dict(train("dtree", rows, labels))
        for nodes in (split(), split(feature=1, threshold=-2),
                      [{"counts": [0, 1]}]):
            want = {**doc, "nodes": nodes}
            model = model_from_dict(json.loads(json.dumps(want)))
            assert model_to_dict(model) == want
            assert predict_labels(model, rows).shape == (len(rows),)

    def test_version_one_models_are_refused(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "dtree", "n_features": 1,
            "hyperparameters": {"confidence": 0.25, "min_leaf": 2,
                                "prune": True},
            "normalization": None,
            "nodes": {"counts": [1, 1], "feature": 0, "threshold": 0.5,
                      "left": {"counts": [1, 0]},
                      "right": {"counts": [0, 1]}}}), encoding="utf-8")
        with pytest.raises(DataError,
                           match="unsupported model format version: 1"):
            load_model(path)

    def test_quantile_reference_value(self):
        # The upper bound of (e + 0.5) / n at the 0.75 normal quantile.
        z = 0.6744897501960817
        for n, e in [(10, 1), (40, 7), (200, 150)]:
            f = (e + 0.5) / n
            upper = (f + z * z / (2 * n) + z * math.sqrt(
                f / n - f * f / n + z * z / (4 * n * n))) / (1 + z * z / n)
            assert added_errors(n, e, 0.25) \
                == pytest.approx(upper * n - e, rel=1e-12)

    def test_added_errors_zero_error_case(self):
        # exact binomial bound at e = 0
        assert added_errors(10, 0, 0.25) \
            == pytest.approx(10 * (1 - 0.25 ** 0.1), abs=1e-12)
        assert added_errors(10, 0, 0.25) > 0

    @pytest.mark.parametrize("n", [1, 10])
    def test_added_errors_all_error_case(self, n):
        # The upper bound on the error count is n, so a node whose every
        # row is an error adds none.
        assert added_errors(n, n, 0.25) == 0.0


class TestSvm:
    def test_smo_stops_after_a_sweep_that_moves_no_pair(self, monkeypatch):
        # Such a sweep leaves every alpha, b and error as they were, so a
        # later sweep could only repeat it: a larger sweep budget must
        # draw no more partner orders. On these rows a sweep ends with
        # violators that no partner can move.
        draws, seeded = [], svm.make_rng

        class Counted:
            def __init__(self, seed):
                self.rng = seeded(seed)

            def permutation(self, n):
                draws.append(n)
                return self.rng.permutation(n)

        monkeypatch.setattr(svm, "make_rng", Counted)
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(80, 4))
        labels = (rows[:, 0] + 0.8 * rng.normal(size=80) > 0).astype(int)
        counts = []
        for max_passes in (200, 2000):
            draws.clear()
            train("svm", rows, labels, SvmConfig(max_passes=max_passes))
            counts.append(len(draws))
        assert counts[0] == counts[1] > 0

    def test_screen_slack_uses_the_float64_unit_roundoff(self):
        # 64 n u (sum(alphas) + |b| + 1) with u = 2**-53: a smaller u
        # would let the screens skip partners whose step rounding hid.
        assert svm._screen_slack(np.array([0.5, 1.0, 0.0]), -2.0) == (
            64 * 3 * 2.0 ** -53 * 4.5)

    def test_separable_blobs(self):
        rows, labels = separable_blobs(30, gap=5.0)
        model = train("svm", rows, labels, SvmConfig(seed=1))
        assert accuracy(model, rows, labels) >= 0.95

    def test_two_point_problem(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1])
        model = train("svm", rows, labels, SvmConfig(seed=2))
        assert predict_labels(model, rows).tolist() == [0, 1]

    def test_default_gamma_is_one_over_features(self):
        rows = np.hstack([separable_blobs(10)[0]] * 4)   # 8 features
        labels = separable_blobs(10)[1]
        model = train("svm", rows, labels, SvmConfig(seed=3))
        assert model.gamma == pytest.approx(0.125)

    def test_dual_feasibility_at_convergence(self):
        rows, labels = separable_blobs(25, gap=3.0)
        cfg = SvmConfig(c=1.0, seed=4)
        model = train("svm", rows, labels, cfg)
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= cfg.c + 1e-12)
        assert abs(float(model.alphas @ model.train_labels_pm)) <= 1e-6

    def test_same_seed_reproducible(self):
        rows, labels = separable_blobs(12)
        m1 = train("svm", rows, labels, SvmConfig(seed=9))
        m2 = train("svm", rows, labels, SvmConfig(seed=9))
        assert np.array_equal(m1.alphas, m2.alphas)
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            train("svm", np.zeros((3, 2)), np.array([0, 0, 0]))

    def test_sign_rule(self):
        rows, labels = separable_blobs(10, gap=5.0)
        model = train("svm", rows, labels, SvmConfig(seed=5))
        scores = decision_values(model, rows)
        assert predict_labels(model, rows).tolist() \
            == [1 if score >= 0 else 0 for score in scores]

    @pytest.mark.parametrize("problem", SVM_PROBLEMS)
    # At c = 0.05 many alphas sit at a bound, so the box clips at both
    # ends for partners of either class.
    @pytest.mark.parametrize("c", [0.05, 0.5, 1.0, 10.0, 100.0, 1e4])
    def test_matches_scalar_oracle_bit_for_bit(self, problem, c):
        rows, labels = problem()
        # Seeds 0-5 meet every (max_passes, gamma) and (max_passes, tol)
        # pair once.
        for seed in range(6):
            cfg = SvmConfig(c=c, gamma=(None, 2.5)[seed % 2],
                            max_passes=(1, 3, 200)[seed % 3],
                            tol=(1e-3, 0.0)[seed // 3], seed=seed)
            got = train("svm", rows, labels, cfg)
            want, _ = oracle_svm(rows, labels, cfg)
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
            assert np.array_equal(np.signbit(got.alphas),
                                  np.signbit(want.alphas))
            assert got.bias == want.bias

    @pytest.mark.parametrize("problem", SVM_PROBLEMS)
    @pytest.mark.parametrize("c", [0.05, 1.0, 1e4])
    def test_trains_without_floating_point_warnings(self, problem, c):
        # The screen divides by eta at every partner and masks the
        # entries with eta >= 0; none of their warnings may leak.
        rows, labels = problem()
        with warnings.catch_warnings(), np.errstate(divide="raise",
                                                    invalid="raise",
                                                    over="raise"):
            warnings.simplefilter("error")
            for seed in range(3):
                model = train("svm", rows, labels,
                              SvmConfig(c=c, seed=seed))
                assert np.all(np.isfinite(model.alphas))

    @pytest.mark.parametrize("c", [1.0, 100.0])
    def test_pair_steps_get_only_movable_pairs(self, monkeypatch, c):
        rows, labels = duplicated_rows()
        cfg = SvmConfig(c=c, seed=3)
        real_step = svm._pair_step
        calls, moves = [], 0

        def recording(i, j, e_j, lo, hi, eta, alphas, ay, y, kernel, b, c):
            nonlocal moves
            a_i, a_j = alphas[i], alphas[j]
            if y[i] != y[j]:
                box = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
            else:
                box = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
            calls.append((i, j, lo, hi, eta, box,
                          2.0 * kernel[i, j] - kernel[i, i] - kernel[j, j],
                          e_j, float(kernel[j] @ (alphas * y) + b - y[j]),
                          np.array_equal(ay, alphas * y)))
            b, moved = real_step(i, j, e_j, lo, hi, eta, alphas, ay, y,
                                 kernel, b, c)
            moves += moved
            return b, moved

        monkeypatch.setattr(svm, "_pair_step", recording)
        train("svm", rows, labels, cfg)
        assert calls
        for i, j, lo, hi, eta, box, eta_want, e_j, e_want, ay_ok in calls:
            assert i != j
            assert (lo, hi) == box and hi - lo >= svm._STEP_EPS
            assert eta == eta_want and eta < 0
            assert e_j == e_want and ay_ok
        assert moves == oracle_svm(rows, labels, cfg)[1]
        # The cached errors screen out nearly every partner that fails.
        assert len(calls) <= 1.25 * moves

    @pytest.mark.parametrize("problem", SVM_PROBLEMS)
    @pytest.mark.parametrize("c", [0.5, 1.0, 10.0, 100.0, 1e4])
    def test_cached_errors_stay_within_their_bound(self, monkeypatch,
                                                   problem, c):
        rows, labels = problem()
        y = 2.0 * labels - 1.0
        real_move = svm._move_errors
        last = None   # (ay, b, per-row dots) after the last move
        moves = 0

        def per_row_dots(kernel, ay, b):
            return np.array([float(kernel[k] @ ay + b - y[k])
                             for k in range(len(y))])

        def checked(errors, drift, slack, kernel, alphas, ay, b, i, j, old):
            nonlocal last, moves
            ay_i, ay_j, b_old = old
            ay_old = ay.copy()
            ay_old[i], ay_old[j] = ay_i, ay_j
            if last is None or not (np.array_equal(last[0], ay_old)
                                    and last[1] == b_old):
                last = ay_old, b_old, per_row_dots(kernel, ay_old, b_old)
            assert np.all(np.abs(errors - last[2]) <= drift + slack)
            cached = errors.copy()
            new_drift, new_slack = real_move(errors, drift, slack, kernel,
                                             alphas, ay, b, i, j, old)
            last = ay.copy(), b, per_row_dots(kernel, ay, b)
            assert np.all(np.abs(errors - last[2]) <= new_drift + new_slack)
            # The update's own rounding, exactly, where it is largest.
            grown = Fraction(new_drift) - Fraction(drift)
            for k in {i, j, *np.argsort(-np.abs(errors))[:2].tolist()}:
                exact = (Fraction(cached[k])
                         + (Fraction(ay[i]) - Fraction(ay_i))
                         * Fraction(kernel[k, i])
                         + (Fraction(ay[j]) - Fraction(ay_j))
                         * Fraction(kernel[k, j])
                         + Fraction(b) - Fraction(b_old))
                assert abs(Fraction(errors[k]) - exact) <= grown
            moves += 1
            return new_drift, new_slack

        monkeypatch.setattr(svm, "_move_errors", checked)
        train("svm", rows, labels, SvmConfig(c=c, seed=4))
        assert moves

    @pytest.mark.parametrize("n", [2, 37, 400, 2000])
    def test_screen_slack_covers_product_error_gap(self, n):
        for seed in range(3):
            rng = make_rng(seed)
            x = rng.uniform(-1.0, 1.0, size=(n, 4))
            kernel = svm.rbf_kernel(x, x, rng.uniform(0.05, 5.0))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            for c in (1.0, 1e3, 1e6):
                alphas = rng.uniform(0.0, c, n) * (rng.random(n) < 0.7)
                alphas[rng.random(n) < 0.2] = c
                ay = alphas * y
                for b in (0.0, rng.uniform(-c, c)):
                    product = kernel @ ay + b - y
                    rows = [float(kernel[j] @ ay + b - y[j])
                            for j in range(n)]
                    gap = np.abs(product - rows)
                    assert np.all(gap <= svm._screen_slack(alphas, b))

    @pytest.mark.parametrize("problem", [overlapping_blobs,
                                         near_duplicate_rows, term8_rows])
    def test_an_asymmetric_kernel_is_read_by_columns(self, monkeypatch,
                                                     problem):
        # Training reads kernel[:, i] as the contiguous row kernel[i] only
        # when the kernel is symmetric; a kernel one ulp off above its
        # diagonal must train as the scalar SMO does on that same kernel.
        real_kernel, kernels = svm.rbf_kernel, []

        def nudged(a, b, gamma):
            kernel = real_kernel(a, b, gamma)
            upper = np.triu_indices(len(kernel), 1)
            kernel[upper] = np.nextafter(kernel[upper], 0.0)
            kernels.append(kernel)
            return kernel

        monkeypatch.setattr(svm, "rbf_kernel", nudged)
        rows, labels = problem()
        y = 2.0 * labels - 1.0
        for c in (0.5, 10.0):
            cfg = SvmConfig(c=c, seed=2)
            got = train("svm", rows, labels, cfg)
            kernel = kernels.pop()
            assert not np.array_equal(kernel, kernel.T)
            alphas, b, _ = oracles.smo(kernel, y, c, cfg.tol, cfg.max_passes,
                                       make_rng(derive_seed(cfg.seed, "svm")))
            assert got.alphas.tobytes() == alphas.tobytes()
            assert got.bias == b

    def test_training_holds_the_kernel_and_o_of_n_more(self):
        # The kernel build's block of row sums and a few dozen vectors of
        # n floats come on top of the 8 n^2-byte kernel; any n x n
        # temporary, even of bools, would not fit under the bound.
        n = 1200
        rng = make_rng(8)
        rows = rng.uniform(-1.0, 1.0, size=(n, 8))
        labels = (rows[:, 0] + rng.normal(scale=0.3, size=n) > 0).astype(int)
        cfg = SvmConfig(seed=1, max_passes=2)
        model, peak = traced_peak(lambda: train("svm", rows, labels, cfg))
        assert np.count_nonzero(model.alphas)
        assert peak <= 8 * n * n + 8 * (svm._KERNEL_BLOCK + 48) * n


class TestRbfKernel:
    BLOCK = svm._KERNEL_BLOCK

    @staticmethod
    def grid_rows(n, seed):
        """``n`` rows of 8 features in [-1, 1], the later third of them
        copies of earlier rows, exact or moved by 1e-9 to 1e-7."""
        rng = make_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, 8))
        for k in range(2 * n // 3, n):
            x[k] = x[k % 5] + (0.0, 1e-9, 1e-8, 1e-7)[k % 4] * x[k - 1]
        return x

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 400])
    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 289])
    def test_matches_the_three_temporary_formula_bit_for_bit(self, n, m):
        a, b = self.grid_rows(n, 1), self.grid_rows(m, 2)
        for gamma in (1e-3, 0.125, 1.0, 2.5, 40.0):
            for x, z in ((a, b), (a, a)):
                got, want = svm.rbf_kernel(x, z, gamma), \
                    oracles.rbf_kernel(x, z, gamma)
                assert got.shape == want.shape == (len(x), len(z))
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_the_grid_meets_zero_and_clamped_distances(self):
        # Exact copies give a squared distance of exactly 0, and near
        # copies one that rounds below 0 before the clamp.
        x = self.grid_rows(400, 1)
        sq = (np.sum(x * x, axis=1)[:, None] + np.sum(x * x, axis=1)
              - 2.0 * x @ x.T)
        off_diagonal = ~np.eye(len(x), dtype=bool)
        assert np.any((sq == 0.0) & off_diagonal)
        assert np.any(sq < 0.0)
        kernel = svm.rbf_kernel(x, x, 1.0)
        assert np.all(kernel[sq <= 0.0] == 1.0)

    def test_peak_memory_is_about_its_output(self):
        x = make_rng(3).uniform(-1.0, 1.0, size=(1000, 8))
        kernel, peak = traced_peak(lambda: svm.rbf_kernel(x, x, 0.125))
        assert kernel.nbytes == 8 * 1000 * 1000
        # A full-size temporary would put the peak at 2x or more.
        assert peak <= 1.1 * kernel.nbytes

    @pytest.mark.parametrize("at", [(0, 1), (BLOCK + 1, 2 * BLOCK + 3)],
                             ids=["first-block", "later-block"])
    def test_symmetric_sees_one_unequal_pair_in_any_block(self, at):
        kernel = make_rng(4).uniform(size=(3 * self.BLOCK, 3 * self.BLOCK))
        kernel += kernel.T
        assert svm._symmetric(kernel)
        kernel[at] = np.nextafter(kernel[at], 9.0)
        assert not svm._symmetric(kernel)

    def test_a_kernel_beyond_memory_is_a_configuration_error(self, on_cpus):
        # 20,000 rows make a 3.2 GB kernel, which the capped address space
        # cannot hold, in training (each of two jobs, one on a helper when
        # there are 2 CPUs) and in scoring 20,000 rows.
        rows, labels = separable_blobs(10_000)
        model = train("svm", rows[::500], labels[::500], SvmConfig(seed=1))
        model = dataclasses.replace(
            model, support_vectors=model.normalization.apply(rows),
            coefficients=np.zeros(len(rows)))
        message = r"RBF kernel of 20000 x 20000 rows needs " \
            r"3,200,000,000 bytes, which do not fit in memory"
        with capped_address_space():
            for cpus in (1, 2):
                with pytest.raises(ConfigurationError, match=message), \
                        on_cpus(cpus) as forks:
                    classifiers.train_many("svm", [(rows, labels, None)] * 2)
                assert forks == [cpus - 1]
            with pytest.raises(ConfigurationError, match=message):
                predict_labels(model, rows)


class TestSharedSurface:
    def test_each_job_trains_its_runs_once(self, monkeypatch, on_cpus):
        # One SMO and one tree fit per job, and one run per ANN restart:
        # a plan that ran a job twice would pass every bit-for-bit test.
        calls = []
        for module, name in ((svm, "_smo"), (tree, "_fit"),
                             (ann, "_run_once")):
            def counted(*args, run=getattr(module, name), name=name):
                calls.append(name)
                return run(*args)
            monkeypatch.setattr(module, name, counted)
        rows, labels = separable_blobs(8)
        ann_cfg = AnnConfig(restarts=3, max_epochs=5)
        with on_cpus(1):
            for kind, cfg in (("svm", None), ("dtree", None),
                              ("ann", ann_cfg)):
                classifiers.train_many(kind, [(rows, labels, cfg)] * 3)
        assert [calls.count(name) for name in ("_smo", "_fit", "_run_once")] \
            == [3, 3, 3 * ann_cfg.restarts]

    def test_width_mismatch_rejected(self):
        rows, labels = separable_blobs(6)
        model = train("dtree", rows, labels)
        with pytest.raises(DataError, match="rows must be a 2-D array with "
                                            "2 columns"):
            predict_labels(model, [[1.0, 2.0, 3.0]])

    def test_normalization_fitted_on_training_rows_only(self):
        rows = np.array([[0.0, 5.0], [10.0, 15.0], [2.0, 9.0], [8.0, 11.0]])
        labels = np.array([0, 1, 0, 1])
        model = train("ann", rows, labels, AnnConfig(max_epochs=5, seed=1))
        assert model.normalization.minimum.tolist() == [0.0, 5.0]
        assert model.normalization.maximum.tolist() == [10.0, 15.0]
        # predicting far outside the training range must not refit
        predict_labels(model, [[100.0, -100.0]])
        assert model.normalization.maximum.tolist() == [10.0, 15.0]

    def test_degenerate_feature_maps_to_zero(self):
        rows = np.array([[1.0, 3.0], [1.0, 5.0]])
        params = NormalizationParams(rows.min(axis=0), rows.max(axis=0))
        out = params.apply(np.array([[1.0, 4.0], [7.0, 5.0]]))
        assert out[0, 0] == 0.0 and out[1, 0] == 0.0
        assert out[0, 1] == 0.0 and out[1, 1] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_non_finite_training_rows_are_data_errors(self, kind, bad):
        rows, labels = separable_blobs(20, n_features=3)
        rows[7, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            classifiers.train(kind, rows, labels)

    @pytest.mark.parametrize("rows,labels,message", [
        (np.zeros(4), [0, 1, 0, 1], "2-D array"),
        (np.zeros((4, 0)), [0, 1, 0, 1], "at least one column"),
        (np.eye(4), [0, 1, 0], "one label per row"),
        (np.eye(4), [0, 1, 2, 1], r"must be 0 or 1, got \[2\]"),
    ], ids=["1-D rows", "no columns", "3 labels for 4 rows", "label 2"])
    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_malformed_training_input_is_a_data_error(self, kind, rows,
                                                     labels, message):
        with pytest.raises(DataError, match=message):
            classifiers.train(kind, rows, labels)

    @pytest.mark.parametrize("labels,message", [
        ([0.7, 1, 0.2, 1], r"got \[0\.7, 0\.2\]"),
        ([0, 1, float("nan"), 1], r"got \[nan\]"),
        (["1", "0", "1", "0"], r"got \['1', '0'\]"),
        ([0, None, 1, 1], r"got \[None\]"),
    ], ids=["fractions", "NaN", "strings", "None"])
    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_labels_are_checked_before_any_cast(self, kind, labels, message):
        # A cast to int first trained on [0, 1, 0, 1] for the fractions.
        with pytest.raises(DataError, match="labels must be 0 or 1, "
                                            + message):
            classifiers.train(kind, np.eye(4), labels)

    @pytest.mark.parametrize("kind,config", [
        ("ann", AnnConfig(max_epochs=20, seed=6)),
        ("dtree", TreeConfig()),
        ("svm", SvmConfig(seed=6)),
    ])
    def test_bool_labels_train_as_one_and_zero(self, kind, config):
        rows, labels = separable_blobs(6)
        as_bools = classifiers.train(kind, rows, labels.astype(bool), config)
        assert model_to_dict(as_bools) == model_to_dict(
            classifiers.train(kind, rows, labels, config))

    @pytest.mark.parametrize("rows,message", [
        ([[1.0, 2.0, 3.0]], r"2 columns, got shape \(1, 3\)"),
        ([["1.0", "2.0"]], "rows must be numbers"),
        ([[1.0, None]], "rows must be numbers"),
        ([[1.0, 2.0], [3.0]], "unequal lengths"),
        (np.zeros((2, 2, 2)), "2-D array"),
    ], ids=["wrong width", "strings", "None", "ragged", "3-D"])
    def test_bad_prediction_rows_are_data_errors(self, rows, message):
        model = train("dtree", *separable_blobs(6))
        for predict in (predict_labels, classifiers.decision_values):
            with pytest.raises(DataError, match=message):
                predict(model, rows)

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_prediction_takes_one_row_and_no_rows(self, kind):
        rows, labels = separable_blobs(6)
        model = train(kind, rows, labels)
        assert predict_labels(model, rows[3]).tolist() == \
            predict_labels(model, rows[3:4]).tolist()
        assert predict_labels(model, []).shape == (0,)
        # A NaN feature is refused, not scored.
        with pytest.raises(DataError, match="non-finite"):
            classifiers.decision_values(model, [[np.nan, 0.0]])

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_rows_are_a_data_error(self, kind, value):
        # NaN scored NaN (label 0) under the ANN and the SVM and went
        # right (label 1) in the tree; infinities scored as they fell.
        rows, labels = separable_blobs(6)
        model = train(kind, rows, labels)
        bad = rows.copy()
        bad[4, 1] = value
        for predict in (classifiers.decision_values, predict_labels):
            with pytest.raises(DataError, match="prediction rows contain "
                                                "non-finite values"):
                predict(model, bad)
            with pytest.raises(DataError, match="non-finite"):
                predict(model, bad[4])

    @pytest.mark.parametrize("kind", ["ann", "svm"])
    def test_a_feature_near_the_float_maximum_normalizes_into_range(self,
                                                                      kind):
        # Doubling before dividing overflowed a span near the maximum.
        rows, labels = separable_blobs(6)
        rows[3, 0] = 1e308
        model = train(kind, rows, labels)
        x = model.normalization.apply(rows)
        assert np.isfinite(x).all() and np.abs(x).max() == 1.0

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_a_feature_range_beyond_the_float_maximum_is_a_data_error(
            self, kind):
        rows, labels = separable_blobs(6)
        rows[3, 0], rows[8, 0] = 1e308, -1e308
        with pytest.raises(DataError, match="feature range wider than the "
                                            "largest float"):
            train(kind, rows, labels)

    @pytest.mark.parametrize("kind", classifiers.KINDS)
    def test_huge_prediction_rows_score_without_warnings(self, kind):
        # A feature near the float maximum overflows in the SVM's kernel;
        # warnings are errors in this suite.
        model = train(kind, *separable_blobs(6))
        rows = [[1e308, -1e308], [-1.7e308, 1.7e308], [1e308, 0.0]]
        assert classifiers.decision_values(model, rows).shape == (3,)
        assert predict_labels(model, rows).shape == (3,)

    @pytest.mark.parametrize("kind,config", [
        ("ann", AnnConfig(max_epochs=40, seed=6)),
        ("dtree", TreeConfig()),
        ("svm", SvmConfig(seed=6)),
    ])
    def test_serialization_round_trip(self, tmp_path, kind, config):
        rows, labels = separable_blobs(12, gap=3.0)
        model = classifiers.train(kind, rows, labels, config)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(predict_labels(back, rows),
                              predict_labels(model, rows))
        assert np.allclose(classifiers.decision_values(back, rows),
                           classifiers.decision_values(model, rows))

    @pytest.mark.parametrize("make,message", [
        (lambda p: p.mkdir(), r"cannot read \S*model\.json: Is a directory"),
        (lambda p: p.write_bytes(b'{"kind": "caf\xe9"}'),
         r"model file is not valid UTF-8: \S*model\.json \(invalid"),
        (lambda p: p.write_text("{", encoding="utf-8"),
         "model file is not valid JSON"),
        (lambda p: p.write_text('{"n_features": ' + "9" * 5000 + "}",
                                encoding="utf-8"),
         r"model file is not valid JSON: \S*model\.json \(Exceeds"),
        (lambda p: None, "model file not found"),
    ], ids=["directory", "latin1", "json", "long-int", "missing"])
    def test_unreadable_model_files_are_data_errors(self, tmp_path, make,
                                                    message):
        path = tmp_path / "model.json"
        make(path)
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("kind,config,keys", [
        ("ann", AnnConfig(max_epochs=5, seed=6),
         ("hyperparameters", "normalization", "weights", "final_error")),
        ("dtree", TreeConfig(), ("hyperparameters", "nodes", "n_features")),
        ("svm", SvmConfig(seed=6),
         ("hyperparameters", "normalization", "support_vectors",
          "coefficients", "bias", "gamma", "alphas", "train_labels_pm")),
    ])
    def test_missing_model_keys_are_data_errors(self, tmp_path, kind, config,
                                                keys):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"format_version": 2, "kind": kind}),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"{kind} model is missing keys"):
            load_model(path)
        rows, labels = separable_blobs(6, gap=3.0)
        doc = model_to_dict(classifiers.train(kind, rows, labels, config))
        for key in keys:
            partial = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(DataError, match=repr(key)):
                model_from_dict(partial)

    def test_malformed_model_documents_are_data_errors(self):
        with pytest.raises(DataError, match="JSON object"):
            model_from_dict([1, 2])
        for kind in (None, "forest", ["svm"]):
            with pytest.raises(DataError, match="unknown model kind"):
                model_from_dict({"format_version": 2, "kind": kind})
        rows, labels = separable_blobs(6, gap=3.0)
        docs = {kind: model_to_dict(classifiers.train(kind, rows, labels,
                                                      config))
                for kind, config in (("ann", AnnConfig(max_epochs=5)),
                                     ("dtree", None), ("svm", None))}
        svm_params = {**docs["svm"]["hyperparameters"], "kernel": "rbf"}
        ann_weights, svm_doc = docs["ann"]["weights"], docs["svm"]
        for kind, change, message in [
                ("ann", {"weights": {}}, r"missing keys: \['w1'\]"),
                ("dtree", {"nodes": [{}]}, r"missing keys: \['counts'\]"),
                ("svm", {"hyperparameters": svm_params}, "kernel"),
                ("ann", {"normalization": None}, "malformed ann model"),
                ("ann", {"weights": {**ann_weights, "w2": [0.5, 0.5]}},
                 "malformed ann model: b1 and w2"),
                ("ann", {"weights": {**ann_weights, "b1": [0.0]}},
                 "malformed ann model: b1 and w2"),
                ("ann", {"weights": {**ann_weights,
                                     "w1": ann_weights["w1"][0]}},
                 "malformed ann model: w1 must be 2-D"),
                ("ann", {"normalization": {"minimum": [0.0],
                                           "maximum": [1.0]}},
                 "malformed ann model: normalization bounds"),
                ("ann", {"normalization": {**docs["ann"]["normalization"],
                                           "maximum": [[1.0, 2.0]]}},
                 "malformed ann model: normalization bounds"),
                ("svm", {"support_vectors": "x"}, "malformed svm model"),
                # Each of these, if it loaded, would fail only at
                # prediction, in numpy's matmul.
                ("svm", {"coefficients": svm_doc["coefficients"][1:]},
                 r"malformed svm model: support vectors \(\d+, 2\), "
                 r"coefficients \(\d+,\) and .* disagree"),
                ("svm", {"normalization": {"minimum": [0.0],
                                           "maximum": [1.0]}},
                 r"normalization bounds \(1,\), \(1,\) disagree"),
                ("svm", {"support_vectors": svm_doc["support_vectors"][0]},
                 r"malformed svm model: support vectors \(2,\)"),
                ("svm", {"normalization": {"minimum": [0.0, 0.0],
                                           "maximum": [1.0]}},
                 r"normalization bounds \(2,\), \(1,\) disagree"),
                ("svm", {"alphas": svm_doc["alphas"][1:]},
                 r"malformed svm model: alphas \(\d+,\) and "
                 r"train_labels_pm \(\d+,\) disagree"),
                # Gamma 0 would score every row alike, and a negative
                # one take far rows for near ones.
                ("svm", {"gamma": -5}, r"malformed svm model: gamma -5\.0 "
                 r"does not match the hyperparameters, which give 0\.5"),
                ("svm", {"gamma": 0}, r"gamma 0\.0 does not match"),
                # Prediction reads the top-level gamma, so it must be the
                # one training took: 1 / the row width here, or the
                # configured one.
                ("svm", {"gamma": 0.01}, r"malformed svm model: gamma 0\.01 "
                 r"does not match the hyperparameters, which give 0\.5"),
                ("svm", {"hyperparameters": {**svm_doc["hyperparameters"],
                                             "gamma": 2.5}},
                 r"gamma 0\.5 does not match .*, which give 2\.5"),
                # No feature and no configured gamma: no gamma to match.
                ("svm", {"support_vectors": [], "coefficients": [],
                         "normalization": {"minimum": [], "maximum": []}},
                 r"gamma 0\.5 does not match .*, which give None"),
                ("dtree", {"hyperparameters": {"confidence": 1.5}},
                 r"confidence must be in \(0, 1\)"),
                ("dtree", {"n_features": 0}, "n_features 0 is not an int"),
                ("dtree", {"n_features": "2"}, "n_features '2' is not"),
                ("dtree", {"n_features": True}, "n_features True is not")]:
            with pytest.raises(DataError, match=message):
                model_from_dict({**docs[kind], **change})

    # Python's json reads these literals; 1e999 overflows to inf.
    @pytest.mark.parametrize("kind,keys,literal", [
        ("svm", ("gamma",), "NaN"),
        ("svm", ("bias",), "-Infinity"),
        ("ann", ("weights", "b2"), "NaN"),
        ("ann", ("normalization", "maximum", 0), "Infinity"),
        ("dtree", ("nodes", 0, "threshold"), "1e999"),
    ], ids=["svm-gamma", "svm-bias", "ann-b2", "ann-maximum", "dtree"])
    def test_non_finite_numbers_in_model_files_are_data_errors(
            self, tmp_path, kind, keys, literal):
        rows, labels = separable_blobs(6, gap=3.0)
        config = AnnConfig(max_epochs=5) if kind == "ann" else None
        doc = model_to_dict(classifiers.train(kind, rows, labels, config))
        *parents, last = keys
        functools.reduce(operator.getitem, parents, doc)[last] = "@"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"@"', literal),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"non-finite number {literal}: "):
            load_model(path)

    def test_train_dispatch_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown classifier"):
            classifiers.train("forest", np.zeros((2, 2)), [0, 1])

    @pytest.mark.parametrize("kind", ["ann", "svm"])
    def test_training_without_a_config_takes_seed_0(self, kind):
        rows, labels = separable_blobs(10)
        assert model_to_dict(train(kind, rows, labels)) == model_to_dict(
            train(kind, rows, labels, classifiers.make_config(kind, seed=0)))

    @pytest.mark.parametrize("call", [
        lambda: classifiers.train_many("nb", []),
        lambda: classifiers.make_config("nb", hidden=3),
    ], ids=["train_many", "make_config"])
    def test_unknown_kind_message_lists_the_kinds(self, call):
        # An unknown kind is not a fault of its options.
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == ("unknown classifier 'nb' "
                                   "(one of: ann, dtree, svm)")

    @pytest.mark.parametrize("kind,config,message", [
        ("svm", AnnConfig(), "the svm config must be SvmConfig or None, "
         "not AnnConfig"),
        ("ann", {"hidden": 3}, "the ann config must be AnnConfig or None, "
         "not dict"),
        ("dtree", AnnConfig(), "the dtree config must be TreeConfig or "
         "None, not AnnConfig"),
    ])
    def test_train_refuses_a_config_of_another_kind(self, kind, config,
                                                    message):
        rows, labels = separable_blobs(6, gap=3.0)
        with pytest.raises(ConfigurationError) as caught:
            classifiers.train(kind, rows, labels, config)
        assert str(caught.value) == message

    @pytest.mark.parametrize("make,message", [
        (lambda: SynthConfig(docs_per_class=0), "docs_per_class"),
        (lambda: SvmConfig(c=-1.0), "c must be"),
        (lambda: SvmConfig(gamma=0.0), r"gamma must be > 0, got 0\.0"),
        (lambda: AnnConfig(hidden=0), "hidden"),
        (lambda: TreeConfig(confidence=2), "confidence"),
        (lambda: TreeConfig(min_leaf=0), "min_leaf must be >= 1, got 0"),
        (lambda: TreeConfig(min_leaf=-3), "min_leaf must be >= 1, got -3"),
    ], ids=["synth", "svm", "svm-gamma-0", "ann", "dtree", "dtree-min_leaf-0",
            "dtree-min_leaf-negative"])
    def test_configs_raise_configuration_errors_for_bad_ranges(self, make,
                                                               message):
        with pytest.raises(ConfigurationError, match=message):
            make()

    @pytest.mark.parametrize("make", [
        lambda: AnnConfig(lr_up=1.0), lambda: AnnConfig(momentum=0.0),
        lambda: AnnConfig(goal=0.0), lambda: SvmConfig(tol=0.0),
        lambda: TreeConfig(min_leaf=1)],
        ids=["ann-lr_up-1", "ann-momentum-0", "ann-goal-0", "svm-tol-0",
             "dtree-min_leaf-1"])
    def test_configs_accept_the_closed_ends_of_their_ranges(self, make):
        make()

    # A value of another type fails at construction, naming its field,
    # not inside training (a fraction of a unit) or later (an overflow).
    @pytest.mark.parametrize("option,message", [
        ({"hidden": 2.5}, "hidden must be an integer, got 2.5"),
        ({"restarts": 1.5}, "restarts must be an integer, got 1.5"),
        ({"max_epochs": True}, "max_epochs must be an integer, got True"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"lr": None}, "lr must be a finite real number, got None"),
        ({"momentum": False}, "momentum must be a finite real number, got "
         "False"),
        ({"goal": math.inf}, "goal must be a finite real number, got inf"),
    ], ids=["hidden", "restarts", "max_epochs", "seed", "lr", "momentum",
            "goal"])
    def test_ann_config_refuses_values_of_other_types(self, option, message):
        with pytest.raises(ConfigurationError) as caught:
            AnnConfig(**option)
        assert str(caught.value) == message

    # An int with more digits than str() prints is refused by the type
    # rule, so no range message or seed derivation has to print it.
    @pytest.mark.parametrize("make", [
        lambda: AnnConfig(hidden=-10 ** 5000),
        lambda: classifiers.make_config("ann", hidden=-10 ** 5000),
    ], ids=["AnnConfig", "make_config"])
    def test_an_int_too_long_to_print_is_refused(self, make):
        with pytest.raises(ConfigurationError) as caught:
            make()
        assert str(caught.value).endswith(
            "hidden must be an integer, got an int of 16610 bits")

    def test_a_seed_too_long_to_print_is_refused_before_training(self):
        rows, labels = separable_blobs(6, gap=3.0)
        with pytest.raises(ConfigurationError) as caught:
            classifiers.train("ann", rows, labels, classifiers.make_config(
                "ann", seed=10 ** 5000, max_epochs=5))
        assert str(caught.value) == ("bad ann options: seed must be an "
                                     "integer, got an int of 16610 bits")

    @pytest.mark.parametrize("option,message", [
        ({"max_passes": 2.5}, "max_passes must be an integer, got 2.5"),
        ({"c": 10 ** 400}, f"c must be a finite real number, got {10**400}"),
        ({"c": 10 ** 5000}, "c must be a finite real number, got an int of "
         "16610 bits"),
        ({"c": True}, "c must be a finite real number, got True"),
        ({"gamma": "scale"}, "gamma must be a finite real number, got "
         "'scale'"),
        ({"tol": math.nan}, "tol must be a finite real number, got nan"),
    ], ids=["max_passes", "c-huge", "c-too-long-to-print", "c-bool", "gamma",
            "tol"])
    def test_svm_config_refuses_values_of_other_types(self, option, message):
        with pytest.raises(ConfigurationError) as caught:
            SvmConfig(**option)
        assert str(caught.value) == message

    @pytest.mark.parametrize("option,message", [
        ({"min_leaf": 2.5}, "min_leaf must be an integer, got 2.5"),
        ({"min_leaf": False}, "min_leaf must be an integer, got False"),
        ({"prune": 1}, "prune must be a bool, got 1"),
        ({"confidence": "0.25"}, "confidence must be a finite real number, "
         "got '0.25'"),
    ], ids=["min_leaf-fraction", "min_leaf-bool", "prune", "confidence"])
    def test_tree_config_refuses_values_of_other_types(self, option,
                                                       message):
        with pytest.raises(ConfigurationError) as caught:
            TreeConfig(**option)
        assert str(caught.value) == message

    def test_configs_take_numpy_and_other_real_numbers(self, tmp_path):
        # Stored as Python's int and float, so model files can hold them.
        rows, labels = separable_blobs(6, gap=3.0)
        configs = {
            "ann": AnnConfig(hidden=np.int64(2), max_epochs=np.uint8(5),
                             lr=np.float32(0.25), momentum=Fraction(1, 2)),
            "svm": SvmConfig(c=np.int32(2), gamma=None, tol=np.float16(0.5),
                             max_passes=np.int16(3)),
            "dtree": TreeConfig(min_leaf=np.int64(1),
                                confidence=Fraction(1, 4))}
        for kind, config in configs.items():
            assert all(type(v) in (int, float, bool, type(None))
                       for v in dataclasses.asdict(config).values()), kind
            save_model(train(kind, rows, labels, config), tmp_path / kind)
            assert load_model(tmp_path / kind).config == config
        assert configs["ann"].momentum == 0.5 and configs["svm"].c == 2.0

    @pytest.mark.parametrize("kind,change,message", [
        ("ann", {"hidden": 2.5}, "hidden must be an integer, got 2.5"),
        ("svm", {"max_passes": 1e2}, "max_passes must be an integer, got "
         "100.0"),
        ("dtree", {"prune": "yes"}, "prune must be a bool, got 'yes'"),
    ], ids=["ann-hidden", "svm-max_passes", "dtree-prune"])
    def test_model_file_hyperparameters_of_other_types_are_data_errors(
            self, kind, change, message):
        rows, labels = separable_blobs(6, gap=3.0)
        config = AnnConfig(max_epochs=5) if kind == "ann" else None
        doc = model_to_dict(classifiers.train(kind, rows, labels, config))
        doc["hyperparameters"].update(change)
        with pytest.raises(DataError) as caught:
            model_from_dict(doc)
        assert str(caught.value) == f"malformed {kind} model: {message}"

    def test_every_exported_name_resolves(self):
        namespace = {}
        exec("from multisent.classifiers import *", namespace)
        assert set(classifiers.__all__) <= set(namespace)


class TestTrainMany:
    # ANN jobs of 1, 3 and 2 restarts put run boundaries off any stride.
    @pytest.mark.parametrize("kind,configs", [
        ("ann", [AnnConfig(restarts=r, max_epochs=30, seed=r)
                 for r in (1, 3, 2)]),
        ("dtree", [TreeConfig()] * 4),
        ("svm", [SvmConfig(seed=seed) for seed in range(4)]),
    ])
    def test_jobs_match_training_each_in_turn(self, on_cpus, kind, configs):
        rows, labels = separable_blobs(16, gap=1.0, n_features=3, seed=41)
        fold = np.arange(len(rows)) % len(configs)
        jobs = [(rows[fold != f], labels[fold != f], config)
                for f, config in enumerate(configs)]
        want = [model_to_dict(train(kind, *job)) for job in jobs]
        for cpus in (1, 2):
            with on_cpus(cpus):
                got = classifiers.train_many(kind, jobs)
            assert [model_to_dict(model) for model in got] == want
