"""Seeded fuzzing of the library surface README "Library use" names:
training, prediction, ``Dataset``, cross-validation and the model
loader. Each call on malformed rows, labels, fold counts or model
documents must return a result of the right shape or raise DataError or
ConfigurationError; any other exception, or a wrong-shaped result, fails
the trial it names.

The rows and labels of a trial are drawn from the cases below, most of
them bad: rows that are 1-D, 3-D, empty, without columns, of the wrong
width, with NaN or inf, of strings, of objects or ragged; labels that are
fractions, NaN, strings, bools, ``None``, 2-D, of the wrong length or of
one class. The seeds are fixed, so a failure names a trial that reruns
the same way.
"""

import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multisent import classifiers
from multisent.errors import ConfigurationError, DataError
from multisent.evaluation import run_cv
from multisent.features import Dataset, Variant

# Fuzzed rows are as wide as this variant, so a Dataset can hold them.
VARIANT = Variant.DOC4
WIDTH = VARIANT.width
CONFIGS = {"ann": classifiers.AnnConfig(hidden=2, restarts=2, max_epochs=5),
           "dtree": classifiers.TreeConfig(),
           "svm": classifiers.SvmConfig(max_passes=3)}
TRIALS = 150


def _rows(rng: random.Random, n: int):
    """Rows for ``n`` labels: valid ones, or one of the bad cases."""
    valid = [[rng.uniform(-2, 2) for _ in range(WIDTH)] for _ in range(n)]
    case = "valid" if rng.random() < 0.4 else rng.choice([
        "array", "ints", "bools", "1-D", "3-D", "scalar", "empty",
        "empty 2-D", "no columns", "wide", "narrow", "nan", "inf", "huge",
        "strings", "numeric strings", "None", "objects", "ragged"])
    if case == "array":
        return np.array(valid)
    if case == "ints":
        return [[rng.randint(-3, 3) for _ in row] for row in valid]
    if case == "bools":
        return np.array(valid) > 0
    if case == "1-D":
        return valid[0] if valid else [0.0] * WIDTH
    if case == "3-D":
        return [[[x] for x in row] for row in valid]
    if case == "scalar":
        return 0.5
    if case == "empty":
        return []
    if case == "empty 2-D":
        return np.zeros((0, WIDTH))
    if case == "no columns":
        return [[] for _ in valid]
    if case in ("wide", "narrow"):
        return [row + [1.0] if case == "wide" else row[1:] for row in valid]
    if case in ("nan", "inf", "huge") and valid:
        # Two huge values of opposite sign in one column span more than
        # the largest float.
        value = {"nan": math.nan, "inf": math.inf, "huge": 1e308}[case]
        column = rng.randrange(WIDTH)
        for row in rng.sample(valid, rng.randint(1, min(2, n))):
            row[column] = value = -value
    if case in ("strings", "numeric strings", "None", "objects") and valid:
        bad = {"strings": "x", "numeric strings": "1.5", "None": None,
               "objects": rng.choice([Fraction(1, 2), object(), [1.0]])}
        valid[rng.randrange(n)][rng.randrange(WIDTH)] = bad[case]
    if case == "ragged" and valid:
        valid[rng.randrange(n)].append(0.5)
    return valid


def _labels(rng: random.Random, n: int):
    """``n`` labels of both classes, or one of the bad cases."""
    labels = [i % 2 for i in range(n)]
    rng.shuffle(labels)
    case = "valid" if rng.random() < 0.4 else rng.choice([
        "array", "floats", "bools", "fraction", "Fraction", "nan", "string",
        "None", "2-D", "longer", "shorter", "one class", "two"])
    if case == "array":
        return np.array(labels)
    if case == "floats":
        return [float(x) for x in labels]
    if case == "bools":
        return [bool(x) for x in labels]
    if case == "2-D":
        return [[x] for x in labels]
    if case == "longer":
        return labels + [1]
    if case == "shorter":
        return labels[1:]
    if case == "one class":
        return [1] * n
    if labels:
        bad = {"fraction": 0.5, "Fraction": Fraction(1, 3),
               "nan": math.nan, "string": "1", "None": None, "two": 2}
        labels[rng.randrange(n)] = bad.get(case, labels[0])
    return labels


def _count(rows) -> int:
    """How many rows a call that accepted ``rows`` must answer for."""
    rows = np.asarray(rows)
    return 0 if rows.shape[:1] == (0,) else len(np.atleast_2d(rows))


def _calls(case: str, call):
    try:
        return call()
    except (DataError, ConfigurationError):
        return None
    except Exception as exc:
        pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")


def _check_model(case: str, model, kind: str, width: int):
    assert model.kind == kind and model.input_width == width, case
    queries = np.random.default_rng(0).uniform(-3, 3, size=(5, width))
    labels = classifiers.predict_labels(model, queries)
    assert labels.shape == (5,) and set(labels.tolist()) <= {0, 1}, case


@pytest.fixture(scope="module")
def models():
    rows = np.random.default_rng(1).uniform(-2, 2, size=(12, WIDTH))
    labels = np.arange(12) % 2
    return {kind: classifiers.train(kind, rows, labels, config)
            for kind, config in CONFIGS.items()}


@pytest.mark.parametrize("seed", [1, 2])
def test_training_returns_a_model_or_a_data_error(seed):
    rng = random.Random(seed)
    for trial in range(TRIALS):
        kind = rng.choice(classifiers.KINDS)
        n = rng.randint(0, 8)
        rows, labels = _rows(rng, n), _labels(rng, n)
        case = f"seed {seed}, trial {trial}: train {kind} on {rows!r}, " \
               f"{labels!r}"
        if rng.random() < 0.5:
            model = _calls(case, lambda: classifiers.train(
                kind, rows, labels, CONFIGS[kind]))
            got = [] if model is None else [model]
        else:
            got = _calls(case, lambda: classifiers.train_many(
                kind, [(rows, labels, CONFIGS[kind])] * 2)) or []
            assert len(got) in (0, 2), case
        for model in got:
            _check_model(case, model, kind, np.shape(rows)[1])


@pytest.mark.parametrize("seed", [1, 2])
def test_prediction_answers_every_row_or_raises_a_data_error(models, seed):
    rng = random.Random(seed)
    for trial in range(TRIALS):
        kind = rng.choice(classifiers.KINDS)
        rows = _rows(rng, rng.randint(0, 6))
        case = f"seed {seed}, trial {trial}: predict {kind} on {rows!r}"
        values = _calls(case, lambda: classifiers.decision_values(
            models[kind], rows))
        labels = _calls(case, lambda: classifiers.predict_labels(
            models[kind], rows))
        assert (values is None) == (labels is None), case
        if labels is not None:
            assert values.shape == labels.shape == (_count(rows),), case
            assert labels.dtype == int, case
            assert set(labels.tolist()) <= {0, 1}, case


@pytest.mark.parametrize("seed", [1, 2])
def test_datasets_hold_checked_rows_and_labels(seed):
    rng = random.Random(seed)
    for trial in range(TRIALS * 2):
        n = rng.randint(0, 6)
        rows, labels = _rows(rng, n), _labels(rng, n)
        case = f"seed {seed}, trial {trial}: Dataset({rows!r}, {labels!r})"
        ds = _calls(case, lambda: Dataset(rows=rows, labels=labels,
                                          variant=VARIANT))
        if ds is not None:
            assert ds.rows.dtype == float and ds.labels.dtype == int, case
            assert ds.rows.shape == (len(ds), WIDTH), case
            assert ds.labels.shape == (len(ds),), case
            assert set(ds.labels.tolist()) <= {0, 1}, case


@pytest.mark.parametrize("seed", [1, 2])
def test_cross_validation_reports_k_folds_or_raises(seed):
    rng = random.Random(seed)
    for trial in range(TRIALS // 3):
        kind = rng.choice(classifiers.KINDS)
        n_neg, n_pos = rng.randint(0, 6), rng.randint(0, 6)
        labels = [0] * n_neg + [1] * n_pos
        rows = np.random.default_rng(trial).uniform(
            -2, 2, size=(len(labels), WIDTH))
        k = rng.randint(-1, 7)
        case = f"seed {seed}, trial {trial}: {kind} cv, k={k}, " \
               f"{n_neg} neg, {n_pos} pos"
        dataset = Dataset(rows=rows, labels=labels, variant=VARIANT)
        report = _calls(case, lambda: run_cv(dataset, kind, CONFIGS[kind],
                                             k=k, seed=seed))
        if report is not None:
            assert len(report.folds) == len(report.models) == k, case
            # A class with no member puts none in a fold; the tree
            # trains on one class.
            assert 2 <= k <= min(c for c in (n_neg, n_pos) if c), case
            report.to_dict()


# Values that replace one entry of a saved model document.
JUNK = [None, "x", "", [], {}, [[]], 0, -1, 1, 2.5, math.nan, math.inf,
        10 ** 30, True, [1.0], [[1.0, 2.0]], {"left": 0}]


def _mutate(doc, rng: random.Random):
    """``doc`` with one entry, at any depth, replaced, deleted, cut short
    or doubled."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return doc
        key = rng.choice(list(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        op = rng.choice(["replace", "replace", "delete", "cut", "double"])
        if op == "delete" and isinstance(node, dict):
            del node[key]
        elif op == "cut" and isinstance(child, list):
            node[key] = child[:len(child) // 2]
        elif op == "double" and isinstance(child, list):
            node[key] = child + child
        else:
            node[key] = copy.deepcopy(rng.choice(JUNK))
        return doc


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_model_documents_load_or_raise_a_data_error(models, seed):
    rng = random.Random(seed)
    docs = {kind: classifiers.model_to_dict(model)
            for kind, model in models.items()}
    for trial in range(TRIALS * 2):
        kind = rng.choice(classifiers.KINDS)
        doc = docs[kind]
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(doc, rng)
        case = f"seed {seed}, trial {trial}: {kind} model {doc!r}"
        model = _calls(case, lambda: classifiers.model_from_dict(doc))
        if model is not None:
            rows = np.random.default_rng(trial).uniform(
                -3, 3, size=(4, model.input_width))
            got = _calls(case, lambda: classifiers.predict_labels(model, rows))
            assert got is not None and got.shape == (4,), case
