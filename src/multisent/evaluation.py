"""Stratified k-fold cross-validation and per-class precision/recall/F.

Folds are built per class: members are shuffled with a seeded generator
and dealt round-robin, so per-fold class counts differ by at most one and
a 50/50 corpus yields exactly balanced folds. Metrics with a zero
denominator are reported as 0 and flagged.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classifiers
from .errors import ConfigurationError, DataError
from .features import Dataset
from .util import derive_seed, make_rng


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Per-document fold indices in 0..k-1, stratified by class."""
    labels = np.asarray(labels)
    if k < 2:
        raise ConfigurationError(f"k must be >= 2, got {k}")
    folds = np.full(len(labels), -1, dtype=int)
    rng = make_rng(derive_seed(seed, "kfold"))
    for cls in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cls)
        if len(members) < k:
            raise DataError(
                f"class {cls} has {len(members)} members, fewer than k={k}")
        order = rng.permutation(len(members))
        folds[members[order]] = np.arange(len(members)) % k
    return folds


def confusion(predicted, actual) -> ConfusionCounts:
    predicted, actual = np.asarray(predicted), np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"length mismatch: {predicted.shape} vs {actual.shape}")
    return ConfusionCounts(
        tp=int(np.sum((predicted == 1) & (actual == 1))),
        fp=int(np.sum((predicted == 1) & (actual == 0))),
        tn=int(np.sum((predicted == 0) & (actual == 0))),
        fn=int(np.sum((predicted == 0) & (actual == 1))))


def class_metrics(c: ConfusionCounts) -> dict:
    """Per-class precision, recall, and F (harmonic mean) in the form
    ``report.json`` holds: ``{"pos": {"p", "r", "f"}, "neg": {...},
    "flags": [...]}``.

    Zero-denominator metrics come back as 0 with the metric name
    (``precision_pos``, ..., ``f_neg``) in the sorted ``flags``.
    """
    flags: list = []

    def ratio(num, den, name: str) -> float:
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    def side(name: str, hit: int, false_hit: int, miss: int) -> dict:
        p = ratio(hit, hit + false_hit, f"precision_{name}")
        r = ratio(hit, hit + miss, f"recall_{name}")
        return {"p": p, "r": r, "f": ratio(2 * p * r, p + r, f"f_{name}")}

    out = {"pos": side("pos", c.tp, c.fp, c.fn),
           "neg": side("neg", c.tn, c.fn, c.fp)}
    out["flags"] = sorted(flags)
    return out


@dataclass
class EvalReport:
    """A run's meta, one ``{"fold", "train", "test"}`` dict per fold
    (each part a ``class_metrics`` dict) and the fold models."""
    meta: dict
    folds: list
    models: list = field(default_factory=list, repr=False)

    def average(self) -> dict:
        out = {}
        for part in ("train", "test"):
            metrics = [f[part] for f in self.folds]
            out[part] = {
                side: {key: float(np.mean([m[side][key] for m in metrics]))
                       for key in ("p", "r", "f")}
                for side in ("pos", "neg")}
            out[part]["flags"] = sorted({name for m in metrics
                                         for name in m["flags"]})
        return out

    def to_dict(self) -> dict:
        return {"meta": self.meta, "folds": self.folds,
                "average": self.average()}


def run_cv(dataset: Dataset, classifier: str, config=None, k: int = 5,
           seed: int = 0, meta: dict | None = None) -> EvalReport:
    """Cross-validate one classifier kind over a dataset.

    Each fold trains on the complement (normalization is fitted inside
    the trainer on training rows only) and reports metrics on both the
    training and the held-out partition. Per-fold trainer seeds derive
    from ``seed``, so the whole report is a pure function of its inputs.
    All folds train through one ``classifiers.train_many`` call, so their
    runs (an ANN's restarts, an SVM's or tree's one run per fold) spread
    over the usable CPUs (``parallel``), unless the call is itself one
    item of a ``parallel.map_items`` call, such as a cell of a sweep.
    """
    if config is None:
        config = classifiers.make_config(classifier)
    folds = stratified_kfold(dataset.labels, k, seed)

    def job(f):
        train = dataset.subset(np.flatnonzero(folds != f))
        return (train.rows, train.labels,
                classifiers.with_seed(config, derive_seed(seed, "fold", f)))

    # Lazy jobs: a fold's training rows are kept only as far as its plan
    # needs them, and are sliced again below for its metrics.
    models = classifiers.train_many(classifier, map(job, range(k)))
    results = []
    for f, model in enumerate(models):
        train_set = dataset.subset(np.flatnonzero(folds != f))
        test_set = dataset.subset(np.flatnonzero(folds == f))
        train_pred = classifiers.predict_labels(model, train_set.rows)
        test_pred = classifiers.predict_labels(model, test_set.rows)
        results.append({
            "fold": f,
            "train": class_metrics(confusion(train_pred, train_set.labels)),
            "test": class_metrics(confusion(test_pred, test_set.labels))})

    meta = dict(meta or {})
    meta.setdefault("classifier", classifier)
    meta.setdefault("k", k)
    meta.setdefault("seed", seed)
    return EvalReport(meta=meta, folds=results, models=models)

