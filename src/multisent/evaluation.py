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


@dataclass(frozen=True)
class ClassMetrics:
    """Precision/recall/F for both classes plus zero-denominator flags."""
    precision_pos: float
    recall_pos: float
    f_pos: float
    precision_neg: float
    recall_neg: float
    f_neg: float
    degenerate: tuple = ()

    def to_dict(self) -> dict:
        return {
            "pos": {"p": self.precision_pos, "r": self.recall_pos,
                    "f": self.f_pos},
            "neg": {"p": self.precision_neg, "r": self.recall_neg,
                    "f": self.f_neg},
            "flags": sorted(self.degenerate),
        }


def stratified_kfold(labels, k: int, seed: int) -> np.ndarray:
    """Per-document fold indices in 0..k-1, stratified by class."""
    labels = np.asarray(labels, dtype=int)
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
        for slot, m in enumerate(members[order]):
            folds[m] = slot % k
    return folds


def confusion(predicted, actual) -> ConfusionCounts:
    predicted = np.asarray(predicted, dtype=int)
    actual = np.asarray(actual, dtype=int)
    if predicted.shape != actual.shape:
        raise ValueError(
            f"length mismatch: {predicted.shape} vs {actual.shape}")
    return ConfusionCounts(
        tp=int(np.sum((predicted == 1) & (actual == 1))),
        fp=int(np.sum((predicted == 1) & (actual == 0))),
        tn=int(np.sum((predicted == 0) & (actual == 0))),
        fn=int(np.sum((predicted == 0) & (actual == 1))))


def _ratio(num: int, den: int, name: str, flags: list) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


def class_metrics(c: ConfusionCounts) -> ClassMetrics:
    """Per-class precision, recall, and F (harmonic mean).

    Zero-denominator metrics come back as 0 with the metric name in
    ``degenerate``.
    """
    flags: list = []
    p_pos = _ratio(c.tp, c.tp + c.fp, "precision_pos", flags)
    r_pos = _ratio(c.tp, c.tp + c.fn, "recall_pos", flags)
    p_neg = _ratio(c.tn, c.tn + c.fn, "precision_neg", flags)
    r_neg = _ratio(c.tn, c.tn + c.fp, "recall_neg", flags)

    def f_score(p, r, name):
        if p + r == 0:
            flags.append(name)
            return 0.0
        return 2 * p * r / (p + r)

    return ClassMetrics(
        precision_pos=p_pos, recall_pos=r_pos,
        f_pos=f_score(p_pos, r_pos, "f_pos"),
        precision_neg=p_neg, recall_neg=r_neg,
        f_neg=f_score(p_neg, r_neg, "f_neg"),
        degenerate=tuple(flags))


@dataclass
class FoldResult:
    fold: int
    train: ClassMetrics
    test: ClassMetrics

    def to_dict(self) -> dict:
        return {"fold": self.fold, "train": self.train.to_dict(),
                "test": self.test.to_dict()}


@dataclass
class EvalReport:
    meta: dict
    folds: list
    models: list = field(default_factory=list, repr=False)

    def average(self) -> dict:
        out = {}
        for part in ("train", "test"):
            metrics = [getattr(f, part) for f in self.folds]
            out[part] = {
                side: {key: float(np.mean([getattr(m, f"{name}_{side}")
                                           for m in metrics]))
                       for key, name in (("p", "precision"), ("r", "recall"),
                                         ("f", "f"))}
                for side in ("pos", "neg")}
            out[part]["flags"] = sorted({name for m in metrics
                                         for name in m.degenerate})
        return out

    def to_dict(self) -> dict:
        return {"meta": self.meta,
                "folds": [f.to_dict() for f in self.folds],
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
        results.append(FoldResult(
            fold=f,
            train=class_metrics(confusion(train_pred, train_set.labels)),
            test=class_metrics(confusion(test_pred, test_set.labels))))

    meta = dict(meta or {})
    meta.setdefault("classifier", classifier)
    meta.setdefault("k", k)
    meta.setdefault("seed", seed)
    return EvalReport(meta=meta, folds=results, models=models)

