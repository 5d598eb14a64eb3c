import functools
import json
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest

from multisent import classifiers
from multisent.classifiers import (AnnConfig, SvmConfig, SvmModel,
                                   TreeConfig, load_model, predict,
                                   predict_labels, save_model, train_ann,
                                   train_dtree, train_svm)
from multisent.classifiers import ann, svm, tree
from multisent.classifiers.ann import loss_gradients, mse_loss
from multisent.classifiers.io import model_from_dict, model_to_dict
from multisent.classifiers.normalize import NormalizationParams
from multisent.classifiers.tree import (TreeModel, TreeNode, added_errors,
                                        normal_upper_quantile)
from multisent.errors import ConfigurationError, DataError
from multisent.features import Variant
from multisent.lexicon import PriorFormula
from multisent.pipeline import PipelineConfig, featurize, load_inputs
from multisent.synth import SynthConfig, generate
from multisent.util import derive_seed, make_rng

import oracles


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
    norm = NormalizationParams.fit(rows)
    x = norm.apply(rows)
    y = 2.0 * labels - 1.0
    gamma = cfg.gamma if cfg.gamma is not None else 1.0 / x.shape[1]
    alphas, b, moves = oracles.smo(svm.rbf_kernel(x, x, gamma), y, cfg.c,
                                   cfg.tol, cfg.max_passes,
                                   make_rng(derive_seed(cfg.seed, "svm")))
    support = alphas > 0.0
    model = SvmModel(support_vectors=x[support],
                     coefficients=(alphas * y)[support], bias=b, gamma=gamma,
                     c=cfg.c, normalization=norm, config=cfg, alphas=alphas,
                     train_labels_pm=y)
    return model, moves


def walked(model, rows):
    """Leaf scores of ``rows`` walked one at a time through the tree."""
    return np.array([oracles.tree_walk(model.root, row).leaf_score()
                     for row in rows])


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
    (w1, b1, w2, b2), error = got
    (o_w1, o_b1, o_w2, o_b2), o_error = want
    assert np.array_equal(w1, o_w1) and np.array_equal(b1, o_b1)
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
        model = train_ann(rows, labels, AnnConfig(seed=3))
        assert accuracy(model, rows, labels) == 1.0

    def test_fits_xor(self):
        rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        model = train_ann(rows, labels,
                          AnnConfig(max_epochs=4000, lr=0.05, seed=11))
        assert accuracy(model, rows, labels) == 1.0

    def test_same_seed_is_bit_identical(self):
        rows, labels = separable_blobs(10)
        cfg = AnnConfig(max_epochs=60, seed=42)
        m1 = train_ann(rows, labels, cfg)
        m2 = train_ann(rows, labels, cfg)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.b1, m2.b1)
        assert np.array_equal(m1.w2, m2.w2)
        assert m1.b2 == m2.b2
        assert m1.final_error == m2.final_error

    def test_different_seeds_differ(self):
        rows, labels = separable_blobs(10)
        m1 = train_ann(rows, labels, AnnConfig(max_epochs=30, seed=1))
        m2 = train_ann(rows, labels, AnnConfig(max_epochs=30, seed=2))
        assert not np.array_equal(m1.w1, m2.w1)

    def test_single_class_rejected(self):
        rows = np.zeros((4, 2))
        with pytest.raises(DataError, match="single class"):
            train_ann(rows, np.array([1, 1, 1, 1]))

    def test_hidden_width_default_is_fifteen(self):
        rows, labels = separable_blobs(5)
        model = train_ann(rows, labels, AnnConfig(max_epochs=5, seed=0))
        assert model.w1.shape[0] == 15

    def test_backprop_matches_central_finite_differences(self):
        rng = make_rng(2718)
        x = rng.normal(size=(3, 4))
        targets = np.array([1.0, -1.0, 1.0])
        w1 = rng.normal(size=(5, 4)) * 0.7
        b1 = rng.normal(size=5) * 0.3
        w2 = rng.normal(size=5) * 0.7
        b2 = 0.2

        _, (g_w1, g_b1, g_w2, g_b2) = loss_gradients(w1, b1, w2, b2, x, targets)

        h = 1e-6

        def check(analytic, array, index):
            bumped = array.copy()
            bumped[index] += h
            up = mse_loss(*_subst(array, bumped), x, targets)
            bumped[index] -= 2 * h
            down = mse_loss(*_subst(array, bumped), x, targets)
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
        up = mse_loss(w1, b1, w2, b2 + h, x, targets)
        down = mse_loss(w1, b1, w2, b2 - h, x, targets)
        numeric = (up - down) / (2 * h)
        assert abs(numeric - g_b2) / max(abs(numeric), abs(g_b2), 1e-8) <= 1e-4

    @pytest.mark.parametrize("n", [2, 37, 400])
    @pytest.mark.parametrize("n_features", [1, 7])
    @pytest.mark.parametrize("hidden", [1, 2, 15])
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

    def test_run_stopping_at_goal_matches_oracle(self, monkeypatch):
        x, targets = ann_problem(37, 7, 4)
        cfg = AnnConfig(max_epochs=500, goal=0.2)
        got, want, epochs, _, _ = counted_runs(monkeypatch, x, targets,
                                               cfg, 9)
        assert 0 < epochs < cfg.max_epochs
        assert want[1] <= cfg.goal
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
        model = train_ann(rows, labels, AnnConfig(max_epochs=80, seed=5))
        for row in rows:
            label, score = predict(model, row)
            assert label == (1 if score >= 0 else 0)


def train_on_cpus(on_cpus, cpus, rows, labels, cfg):
    """``train_ann`` as on ``cpus`` CPUs, and the number of helpers it
    started; none may outlive it, whether it returns or raises."""
    try:
        with on_cpus(cpus) as forks:
            model = train_ann(rows, labels, cfg)
    finally:
        assert forks[0] <= min(cpus, cfg.restarts) - 1
    return model, forks[0]


def restart_problem(cfg):
    """Rows and labels, and every restart's oracle run on them."""
    rows, labels = separable_blobs(12, gap=1.0, n_features=3,
                                   seed=cfg.hidden)
    x = NormalizationParams.fit(rows).apply(rows)
    targets = 2.0 * labels - 1.0
    runs = [oracles.ann_run_once(x, targets, cfg,
                                 derive_seed(cfg.seed, "ann", r))
            for r in range(cfg.restarts)]
    return rows, labels, runs


def model_run(model):
    return (model.w1, model.b1, model.w2, model.b2), model.final_error


def model_bytes(model):
    return [np.float64(v).tobytes() for v in (
        model.w1, model.b1, model.w2, model.b2, model.final_error)]


class TestAnnRestartBlocks:
    @pytest.mark.parametrize("restarts", [1, 2, 3, 5])
    @pytest.mark.parametrize("hidden", [1, 2, 15])
    def test_parallel_training_matches_serial_and_oracle(
            self, on_cpus, hidden, restarts):
        cfg = AnnConfig(hidden=hidden, restarts=restarts, max_epochs=60,
                        seed=restarts)
        rows, labels, runs = restart_problem(cfg)
        want = ann._best_run(runs)
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
        best = [run is ann._best_run(runs) for run in runs].index(True)
        assert best == 1
        run_once = ann._run_once
        diverged = {seeds[best]}
        monkeypatch.setattr(
            ann, "_run_once", lambda x, t, c, seed:
            None if seed in diverged else run_once(x, t, c, seed))
        want = ann._best_run(None if r == best else run
                             for r, run in enumerate(runs))
        for cpus in (1, 2, 4):
            model, _ = train_on_cpus(on_cpus, cpus, rows, labels, cfg)
            assert_same_run(model_run(model), want)
        diverged.update(seeds)
        for cpus in (1, 2, 4):
            with pytest.raises(DataError,
                               match="all training restarts diverged"):
                train_on_cpus(on_cpus, cpus, rows, labels, cfg)

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
        inputs = load_inputs(cfg, [PriorFormula.MAX_SUB], True)
        dataset = featurize(inputs, Variant.TERM8, PriorFormula.MAX_SUB,
                            None, True)
    return dataset.rows, dataset.labels


SPLIT_PROBLEMS = {
    "blobs": overlapping_blobs, "duplicates": duplicated_rows,
    "one_feature": one_feature_rows, "ties": tied_rows,
    "coarse": coarse_rows, "synth": synth_rows,
    "gain_below_eps": lambda: near_gain_eps_rows(1909, 900, 289, 324),
    "gain_above_eps": lambda: near_gain_eps_rows(2614, 1173, 569, 699),
}


def same_split(got, want) -> bool:
    """Same feature and a bit-equal threshold, or both None."""
    if got is None or want is None:
        return got is want
    return got[0] == want[0] and \
        np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


class TestTree:
    def test_pure_data_is_a_single_leaf(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        model = train_dtree(rows, np.array([1, 1, 1]))
        assert model.root.is_leaf
        assert predict(model, [9.0])[0] == 1

    def test_threshold_separable_gives_depth_one(self):
        rows = np.array([[x] for x in (1.0, 2.0, 3.0, 10.0, 11.0, 12.0)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = train_dtree(rows, labels)
        assert not model.root.is_leaf
        assert model.root.left.is_leaf and model.root.right.is_leaf
        assert 3.0 < model.root.threshold < 10.0
        assert accuracy(model, rows, labels) == 1.0

    def test_min_leaf_two_blocks_one_row_children(self):
        rows = np.array([[1.0], [2.0], [3.0]])
        labels = np.array([0, 1, 1])
        model = train_dtree(rows, labels, TreeConfig(min_leaf=2))
        assert model.root.is_leaf

    def test_unpruned_min_leaf_one_memorizes_conflict_free_data(self):
        rng = make_rng(77)
        rows = rng.normal(size=(60, 3))
        labels = (rng.random(60) < 0.5).astype(int)
        labels[0] = 0
        labels[1] = 1   # both classes present
        model = train_dtree(rows, labels,
                            TreeConfig(min_leaf=1, prune=False))
        assert accuracy(model, rows, labels) == 1.0

    def test_pruning_shrinks_noise_trees(self):
        rng = make_rng(123)
        rows = rng.normal(size=(40, 2))
        labels = (rng.random(40) < 0.5).astype(int)
        labels[:2] = [0, 1]
        grown = train_dtree(rows, labels, TreeConfig(min_leaf=2, prune=False))
        pruned = train_dtree(rows, labels, TreeConfig(min_leaf=2, prune=True))
        assert _count_nodes(pruned.root) < _count_nodes(grown.root)

    def test_leaf_score_is_positive_proportion(self):
        model = TreeModel(root=TreeNode(counts=(1, 3)),
                          config=TreeConfig(), n_features=1)
        label, score = predict(model, [0.0])
        assert label == 1
        assert score == 0.25

    def test_deterministic_without_seed(self):
        rows, labels = separable_blobs(15)
        m1 = train_dtree(rows, labels)
        m2 = train_dtree(rows, labels)
        assert classifiers.model_to_dict(m1) == classifiers.model_to_dict(m2)

    def test_adjacent_float_values_split_cleanly(self):
        # midpoint of two consecutive floats rounds onto one of them;
        # the split must still separate exactly the sorted prefix
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        rows = np.array([[lo], [lo], [hi], [hi]])
        labels = np.array([0, 0, 1, 1])
        model = train_dtree(rows, labels, TreeConfig(min_leaf=1, prune=False))
        assert accuracy(model, rows, labels) == 1.0

    @pytest.mark.parametrize("min_leaf", [0, 1, 2, 5])
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
        train_dtree(rows, labels, TreeConfig(min_leaf=min_leaf, prune=False))
        assert searched
        # Nodes too small for two children of min_leaf rows are never
        # searched while growing; ask for them directly.
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
            model = train_dtree(rows, labels, cfg)
            assert not model.root.is_leaf
            assert np.array_equal(model.decision_values(queries),
                                  walked(model, queries))
        assert model.decision_values(queries[:0]).shape == (0,)

    def test_deep_tree_trains_and_round_trips(self):
        rows = np.arange(3000.0)[:, None]
        labels = np.arange(3000) % 2
        model = train_dtree(rows, labels, TreeConfig(prune=False))
        depth, todo = 0, [(model.root, 0)]
        while todo:
            node, d = todo.pop()
            depth = max(depth, d)
            if not node.is_leaf:
                todo += [(node.left, d + 1), (node.right, d + 1)]
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
        assert train_dtree(rows, labels).root.is_leaf
        # Neither repr nor == walks the children.
        assert repr(model).startswith("TreeModel(root=TreeNode(")
        assert model == model and back != model
        assert model.root == model.root and back.root != model.root

    def test_nodes_serialize_flat_in_pre_order(self):
        rows = np.array([[x] for x in (1.0, 2.0, 3.0, 10.0, 11.0, 12.0)])
        doc = model_to_dict(train_dtree(rows, np.array([0, 0, 0, 1, 1, 1])))
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
    ])
    def test_bad_node_lists_are_data_errors(self, nodes, message):
        rows, labels = separable_blobs(6, gap=3.0)
        doc = model_to_dict(train_dtree(rows, labels))
        with pytest.raises(DataError, match=message):
            model_from_dict({**doc, "nodes": nodes})

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
        assert normal_upper_quantile(0.75) \
            == pytest.approx(0.6744897501960817, abs=1e-8)

    def test_added_errors_zero_error_case(self):
        # exact binomial bound at e = 0
        assert added_errors(10, 0, 0.25) \
            == pytest.approx(10 * (1 - 0.25 ** 0.1), abs=1e-12)
        assert added_errors(10, 0, 0.25) > 0


class TestSvm:
    def test_separable_blobs(self):
        rows, labels = separable_blobs(30, gap=5.0)
        model = train_svm(rows, labels, SvmConfig(seed=1))
        assert accuracy(model, rows, labels) >= 0.95

    def test_two_point_problem(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1])
        model = train_svm(rows, labels, SvmConfig(seed=2))
        assert predict_labels(model, rows).tolist() == [0, 1]

    def test_default_gamma_is_one_over_features(self):
        rows = np.hstack([separable_blobs(10)[0]] * 4)   # 8 features
        labels = separable_blobs(10)[1]
        model = train_svm(rows, labels, SvmConfig(seed=3))
        assert model.gamma == pytest.approx(0.125)

    def test_dual_feasibility_at_convergence(self):
        rows, labels = separable_blobs(25, gap=3.0)
        cfg = SvmConfig(c=1.0, seed=4)
        model = train_svm(rows, labels, cfg)
        assert np.all(model.alphas >= 0.0)
        assert np.all(model.alphas <= cfg.c + 1e-12)
        assert abs(float(model.alphas @ model.train_labels_pm)) <= 1e-6

    def test_same_seed_reproducible(self):
        rows, labels = separable_blobs(12)
        m1 = train_svm(rows, labels, SvmConfig(seed=9))
        m2 = train_svm(rows, labels, SvmConfig(seed=9))
        assert np.array_equal(m1.alphas, m2.alphas)
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            train_svm(np.zeros((3, 2)), np.array([0, 0, 0]))

    def test_sign_rule(self):
        rows, labels = separable_blobs(10, gap=5.0)
        model = train_svm(rows, labels, SvmConfig(seed=5))
        label, score = predict(model, rows[0])
        assert label == (1 if score >= 0 else 0)

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
            got = train_svm(rows, labels, cfg)
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
                model = train_svm(rows, labels, SvmConfig(c=c, seed=seed))
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
        train_svm(rows, labels, cfg)
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
        train_svm(rows, labels, SvmConfig(c=c, seed=4))
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


class TestSharedSurface:
    def test_width_mismatch_rejected(self):
        rows, labels = separable_blobs(6)
        model = train_dtree(rows, labels)
        with pytest.raises(ValueError, match="width"):
            predict(model, [1.0, 2.0, 3.0])

    def test_normalization_fitted_on_training_rows_only(self):
        rows = np.array([[0.0, 5.0], [10.0, 15.0], [2.0, 9.0], [8.0, 11.0]])
        labels = np.array([0, 1, 0, 1])
        model = train_ann(rows, labels, AnnConfig(max_epochs=5, seed=1))
        assert model.normalization.minimum.tolist() == [0.0, 5.0]
        assert model.normalization.maximum.tolist() == [10.0, 15.0]
        # predicting far outside the training range must not refit
        predict(model, [100.0, -100.0])
        assert model.normalization.maximum.tolist() == [10.0, 15.0]

    def test_degenerate_feature_maps_to_zero(self):
        params = NormalizationParams.fit(np.array([[1.0, 3.0], [1.0, 5.0]]))
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
        trainer = {"ann": train_ann, "dtree": train_dtree,
                   "svm": train_svm}[kind]
        with pytest.raises(DataError, match="non-finite"):
            trainer(rows, labels)

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
        ann_weights = docs["ann"]["weights"]
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
                ("dtree", {"hyperparameters": {"confidence": 1.5}},
                 r"confidence must be in \(0, 1\)")]:
            with pytest.raises(DataError, match=message):
                model_from_dict({**docs[kind], **change})

    def test_train_dispatch_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown classifier"):
            classifiers.train("forest", np.zeros((2, 2)), [0, 1])


def _count_nodes(node):
    if node.is_leaf:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)
