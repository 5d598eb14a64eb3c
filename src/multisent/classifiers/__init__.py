"""Three from-scratch binary classifiers behind one train/predict surface.

Labels are 0/1 externally; the network and SVM map them to -1/+1
internally and classify by the sign of their decision value. Tree leaves
score as (positive proportion - 0.5).
"""

from dataclasses import replace

import numpy as np

from ..errors import ConfigurationError
from .ann import AnnConfig, AnnModel, train_ann
from .io import load_model, model_from_dict, model_to_dict, save_model
from .normalize import NormalizationParams
from .svm import SvmConfig, SvmModel, train_svm
from .tree import TreeConfig, TreeModel, train_dtree

KINDS = ("ann", "dtree", "svm")

_TRAINERS = {"ann": (train_ann, AnnConfig),
             "dtree": (train_dtree, TreeConfig),
             "svm": (train_svm, SvmConfig)}


def train(kind: str, rows, labels, config=None):
    """Train a classifier of the given kind ('ann', 'dtree', or 'svm')."""
    if kind not in _TRAINERS:
        raise ValueError(f"unknown classifier kind {kind!r} (one of: {KINDS})")
    trainer, _ = _TRAINERS[kind]
    return trainer(rows, labels, config)


def make_config(kind: str, **overrides):
    """The config of ``kind`` with ``overrides`` replacing its defaults.

    Raises ConfigurationError for an unknown kind, an unknown option name
    or an option value out of range.
    """
    if kind not in _TRAINERS:
        raise ConfigurationError(
            f"unknown classifier {kind!r} (one of: {KINDS})")
    try:
        return _TRAINERS[kind][1](**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {kind} options: {exc}")


def with_seed(config, seed: int):
    """``config`` with its seed set; a config with no seed passes unchanged."""
    if not hasattr(config, "seed"):
        return config
    return replace(config, seed=seed)


def decision_values(model, rows) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != model.input_width:
        raise ValueError(
            f"row width {rows.shape[1]} does not match model input width "
            f"{model.input_width}")
    return model.decision_values(rows)


def predict_labels(model, rows) -> np.ndarray:
    """0/1 labels for many rows; label is 1 iff the decision value >= 0."""
    return (decision_values(model, rows) >= 0).astype(int)


def predict(model, row):
    """(label, score) for one row; raises ValueError on a width mismatch."""
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise ValueError("predict takes a single 1-D row")
    score = float(decision_values(model, row[None, :])[0])
    return (1 if score >= 0 else 0), score


__all__ = [
    "AnnConfig", "AnnModel", "train_ann",
    "TreeConfig", "TreeModel", "train_dtree",
    "SvmConfig", "SvmModel", "train_svm",
    "NormalizationParams", "KINDS",
    "train", "make_config", "with_seed", "predict", "predict_labels",
    "decision_values",
    "save_model", "load_model", "model_to_dict", "model_from_dict",
]
