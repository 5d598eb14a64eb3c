"""Three from-scratch binary classifiers behind one train/predict surface.

Labels are 0/1 externally; the network and SVM map them to -1/+1
internally and classify by the sign of their decision value. Tree leaves
score as (positive proportion - 0.5).
"""

from dataclasses import replace
from itertools import islice

import numpy as np

from ..errors import ConfigurationError
from ..features import checked_rows
from ..parallel import map_items
from .ann import AnnConfig, AnnModel, plan_ann
from .io import load_model, model_from_dict, model_to_dict, save_model
from .normalize import NormalizationParams
from .svm import SvmConfig, SvmModel, plan_svm
from .tree import TreeConfig, TreeModel, plan_dtree

KINDS = ("ann", "dtree", "svm")

_PLANS = {"ann": (plan_ann, AnnConfig),
          "dtree": (plan_dtree, TreeConfig),
          "svm": (plan_svm, SvmConfig)}


def _kind(kind: str) -> tuple:
    """The (plan, config class) of ``kind``; ConfigurationError if unknown."""
    if kind not in _PLANS:
        raise ConfigurationError(
            f"unknown classifier {kind!r} (one of: {KINDS})")
    return _PLANS[kind]


def train_many(kind: str, jobs) -> list:
    """One model of ``kind`` per ``(rows, labels, config)`` job, in order.

    Each job's plan (``plan_ann``, ``plan_dtree``, ``plan_svm``) checks its
    rows, normalizes them and fixes its seeds here, before anything forks.
    Then one ``parallel.map_items`` call computes every job's independent
    runs (an ANN's restarts; a tree's or an SVM's one run), numbered job
    after job; run ``i`` finds its job by walking the plans, so no list of
    runs is built. Each model is then made from its own runs, in job
    order, so the models are those of training the jobs one after
    another. The error that comes out is the first failing plan's, in job
    order; else the first failing run's, in run order; else the first
    failing model's (every restart of an ANN diverged), in job order. An
    unknown kind, or a job config that is neither None (the defaults) nor
    the kind's config class, is a ConfigurationError, raised in job order
    with the plans' errors.
    """
    plan, config_type = _kind(kind)
    plans = []
    for rows, labels, config in jobs:
        config = config_type() if config is None else config
        if not isinstance(config, config_type):
            raise ConfigurationError(
                f"the {kind} config must be {config_type.__name__} or None, "
                f"not {type(config).__name__}")
        plans.append(plan(rows, labels, config))

    def run(i):
        for count, job_run, _ in plans:
            if i < count:
                return job_run(i)
            i -= count

    results = iter(map_items(run, sum(count for count, _, _ in plans)))
    return [finish(list(islice(results, count)))
            for count, _, finish in plans]


def train(kind: str, rows, labels, config=None):
    """Train a classifier of the given kind ('ann', 'dtree', or 'svm'):
    ``train_many`` with one job."""
    return train_many(kind, [(rows, labels, config)])[0]


def make_config(kind: str, **overrides):
    """The config of ``kind`` with ``overrides`` replacing its defaults.

    Raises ConfigurationError for an unknown kind, an unknown option name
    or an option value out of range.
    """
    try:
        return _kind(kind)[1](**overrides)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"bad {kind} options: {exc}")


def with_seed(config, seed: int):
    """``config`` with its seed set; a config with no seed passes unchanged."""
    if not hasattr(config, "seed"):
        return config
    return replace(config, seed=seed)


def decision_values(model, rows) -> np.ndarray:
    """A decision value per row of a 2-D array, or of one 1-D row, by the
    row rule (``features.checked_rows``) at the model's width. A NaN, an
    infinity or a huge feature scores what its arithmetic gives."""
    rows = checked_rows(rows, model.input_width)
    with np.errstate(over="ignore", invalid="ignore"):
        return model.decision_values(rows)


def predict_labels(model, rows) -> np.ndarray:
    """0/1 labels for many rows; label is 1 iff the decision value >= 0."""
    return (decision_values(model, rows) >= 0).astype(int)


__all__ = [
    "AnnConfig", "AnnModel", "TreeConfig", "TreeModel", "SvmConfig",
    "SvmModel", "NormalizationParams", "KINDS",
    "train", "train_many", "make_config", "with_seed",
    "predict_labels", "decision_values",
    "save_model", "load_model", "model_to_dict", "model_from_dict",
]
