"""Binary decision tree with gain-ratio splits on numeric thresholds and
pessimistic error-based pruning.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature. Growth stops when a node is pure, when no split
has positive gain, or when every split would leave a child smaller than
``min_leaf``. Pruning replaces a subtree with a leaf when the upper
confidence bound of the leaf's error (at the configured confidence
factor) does not exceed the subtree's; subtree raising is not performed.
A model is its node list, in pre-order with left children first: each
node is ``{"counts": [neg, pos]}`` of its training rows, and an internal
node adds ``feature``, ``threshold`` and the list indices of its
``left`` (``value <= threshold``) and ``right`` children. Growth appends
to the list, pruning walks it backwards, prediction routes rows through
it by index, and it is, as it stands, the model file's ``nodes`` and
what a pickle holds. Nothing recurses, so no tree is too deep.

Split search: one stable argsort per node orders every feature, and
array ops approximate the gain and gain ratio of every cut of every
feature. With unit roundoff u = 2**-53 and log2 within 4 ulps, a gain on
either route is within 40u of its real value, and a ratio (at most 1,
over a split information of at least 1/n) within 58u*n; so the routes
differ by at most 80u in gain and delta = 116u*n in ratio. The screen
keeps cuts between distinct values inside ``min_leaf`` whose approximate
gain is above _GAIN_EPS - margin and whose approximate ratio is at least
M - margin, where margin = 512u*n > 2*delta and M is the best approximate
ratio among cuts of approximate gain above _GAIN_EPS + margin. A dropped
cut has an exact gain not above _GAIN_EPS or an exact ratio below
M - delta, while the cut reaching M is valid with an exact ratio of at
least M - delta; so a dropped cut can neither win nor tie. The scalar
arithmetic rescores the kept cuts and picks by the key (ratio, gain,
-feature, -threshold): the split is the scalar search's, bit for bit.
"""

import math
import sys
from dataclasses import asdict, dataclass
from functools import cache
from operator import itemgetter
from statistics import NormalDist

import numpy as np

from ..errors import ConfigurationError, DataError
from .normalize import training_arrays

_GAIN_EPS = 1e-12
_SPLIT = ("feature", "threshold", "left", "right")   # an internal node's keys


@dataclass(frozen=True)
class TreeConfig:
    confidence: float = 0.25
    min_leaf: int = 2
    prune: bool = True

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}")
        if 1.0 - self.confidence == 1.0:   # pruning's quantile is at 1 - c
            raise ConfigurationError(
                f"confidence {self.confidence} is too small: "
                "1 - confidence rounds to 1")


@dataclass
class TreeModel:
    kind = "dtree"
    nodes: list   # pre-order (module docstring)
    config: TreeConfig
    n_features: int

    @property
    def input_width(self) -> int:
        return self.n_features

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        """Leaf scores; rows go left where ``value <= threshold`` and right
        otherwise (``nan`` too), routed as index arrays through the tree."""
        values = np.empty(len(rows))
        todo = [(0, np.arange(len(rows)))]
        while todo:
            i, idx = todo.pop()
            node = self.nodes[i]
            if "left" not in node:
                neg, pos = node["counts"]
                values[idx] = pos / (neg + pos) - 0.5
            elif idx.size:
                le = rows[idx, node["feature"]] <= node["threshold"]
                todo += [(node["left"], idx[le]), (node["right"], idx[~le])]
        return values

    def to_dict(self) -> dict:
        return {"hyperparameters": asdict(self.config),
                "normalization": None, "nodes": self.nodes,
                "n_features": self.n_features}

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeModel":
        """The node list, checked so that prediction cannot fail on it;
        its numbers must be JSON ints and floats (a bool is neither)."""
        nodes, width = doc["nodes"], doc["n_features"]
        config = TreeConfig(**doc["hyperparameters"])
        if type(width) is not int or width < 1:
            raise DataError(f"dtree n_features {width!r} is not an int >= 1")
        if not nodes:
            raise DataError("dtree model has no nodes")
        reached = [True] + [False] * (len(nodes) - 1)
        for i, node in enumerate(nodes):
            counts = node["counts"]
            if len(counts) != 2 or {type(c) for c in counts} != {int} \
                    or min(counts) < 0 or sum(counts) == 0:
                raise DataError(f"dtree node {i}: counts {counts!r} are not "
                                "two non-negative ints with a positive sum")
            if not node.keys() & _SPLIT:
                continue
            f, t = node["feature"], node["threshold"]
            if not (type(f) is int and 0 <= f < width and type(t) in
                    (int, float) and abs(t) <= sys.float_info.max):
                raise DataError(f"dtree node {i}: split {f!r} <= {t!r} needs "
                                f"a feature in [0, {width}) and a finite "
                                "threshold")
            for side in ("left", "right"):
                j = node[side]
                if not i < j < len(nodes) or reached[j]:
                    raise DataError(f"dtree node {i}: {side} child index "
                                    f"{j!r} is not a later, unused node")
                reached[j] = True
        if not all(reached):
            raise DataError(f"dtree node {reached.index(False)} is no "
                            "node's child")
        return cls(nodes=nodes, config=config, n_features=width)


def _entropy(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def _class_counts(labels: np.ndarray) -> list:
    return [int(np.sum(labels == 0)), int(np.sum(labels == 1))]


def _entropies(pos, total):
    """Array twin of ``_entropy`` for counts (total - pos, pos), total > 0."""
    ent = 0.0
    for c in (total - pos, pos):
        p = c / total
        ent = ent - p * np.log2(p, out=np.zeros(p.shape), where=c > 0)
    return ent


def _best_split(rows: np.ndarray, labels: np.ndarray, min_leaf: int):
    """Highest-gain-ratio (feature, threshold) with positive gain, or None;
    array ops screen the cuts, within a margin (see the module docstring)."""
    n = len(labels)
    lo, hi = max(min_leaf, 1), min(n - min_leaf, n - 1)
    if lo > hi:
        return None
    order = np.argsort(rows, axis=0, kind="stable")
    values = np.take_along_axis(rows, order, axis=0)
    pos_prefix = np.cumsum(labels[order], axis=0)
    parent_entropy = _entropy(_class_counts(labels))
    cuts = np.arange(lo, hi + 1)[:, None]
    left_pos = pos_prefix[lo - 1:hi]
    gains = parent_entropy - (
        cuts / n * _entropies(left_pos, cuts)
        + (n - cuts) / n * _entropies(pos_prefix[-1] - left_pos, n - cuts))
    ratios = gains / _entropies(cuts, n)
    margin = n * 2.0 ** -44   # 512 unit roundoffs per row
    keep = (values[lo - 1:hi] != values[lo:hi + 1]) \
        & (gains > _GAIN_EPS - margin)
    sure = keep & (gains > _GAIN_EPS + margin)
    if sure.any():
        keep &= ratios >= ratios[sure].max() - margin
    best = None  # (key, feature, threshold)
    for i, f in zip(*np.nonzero(keep)):
        cut, f = lo + int(i), int(f)
        left_pos = int(pos_prefix[cut - 1, f])
        right_pos = int(pos_prefix[-1, f]) - left_pos
        child_entropy = (cut / n) * _entropy((cut - left_pos, left_pos)) \
            + ((n - cut) / n) * _entropy((n - cut - right_pos, right_pos))
        gain = parent_entropy - child_entropy
        if gain <= _GAIN_EPS:
            continue
        ratio = gain / _entropy((cut, n - cut))
        threshold = (values[cut - 1, f] + values[cut, f]) / 2.0
        # Adjacent floats can round the midpoint up onto values[cut],
        # which would move rows across the split; pin it below.
        if threshold >= values[cut, f]:
            threshold = values[cut - 1, f]
        key = (ratio, gain, -f, -threshold)
        if best is None or key > best[0]:
            best = (key, f, threshold)
    return None if best is None else best[1:]


def _grow(rows: np.ndarray, labels: np.ndarray, cfg: TreeConfig) -> list:
    """The tree's nodes, each appended as it leaves the stack (left child
    first) and linked into its parent; the root links into a spare dict."""
    nodes, todo = [], [({}, "root", rows, labels)]
    while todo:
        parent, side, rows, labels = todo.pop()
        parent[side] = len(nodes)
        node = {"counts": _class_counts(labels)}
        nodes.append(node)
        split = None if 0 in node["counts"] or len(labels) < 2 * cfg.min_leaf \
            else _best_split(rows, labels, cfg.min_leaf)
        if split is None:
            continue
        f, threshold = split
        node["feature"], node["threshold"] = f, float(threshold)
        mask = rows[:, f] <= threshold
        todo += [(node, "right", rows[~mask], labels[~mask]),
                 (node, "left", rows[mask], labels[mask])]
    return nodes


def added_errors(n: int, e: int, confidence: float) -> float:
    """Extra errors implied by the upper confidence bound of e errors in n.

    Exact binomial for e = 0; normal approximation otherwise.
    """
    if n == 0:
        return 0.0
    if e == 0:
        return n * (1.0 - confidence ** (1.0 / n))
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _quantile(confidence)
    f = (e + 0.5) / n
    upper = (f + z * z / (2 * n)
             + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return upper * n - e


@cache
def _quantile(confidence: float) -> float:
    """The standard normal quantile at ``1 - confidence``, computed once
    per confidence rather than once per pruned node."""
    return NormalDist().inv_cdf(1.0 - confidence)


def _prune(nodes: list, confidence: float) -> list:
    """Prune bottom-up; return the nodes left, renumbered in pre-order."""
    estimates = [0.0] * len(nodes)   # estimated errors of pruned subtrees
    for i in reversed(range(len(nodes))):   # children before parents
        node = nodes[i]
        errors = min(node["counts"])
        as_leaf = errors + added_errors(sum(node["counts"]), errors,
                                        confidence)
        if "left" in node:
            as_subtree = estimates[node["left"]] + estimates[node["right"]]
            if as_leaf > as_subtree + 1e-10:
                estimates[i] = as_subtree
                continue
            for key in _SPLIT:
                del node[key]
        estimates[i] = as_leaf
    kept, todo = [], [({}, "root", nodes[0])]
    while todo:
        parent, side, node = todo.pop()
        parent[side] = len(kept)
        kept.append(node)
        if "left" in node:
            todo += [(node, "right", nodes[node["right"]]),
                     (node, "left", nodes[node["left"]])]
    return kept


def plan_dtree(rows: np.ndarray, labels: np.ndarray, cfg: TreeConfig):
    """``(1, run, finish)`` for ``classifiers.train_many``: the row checks
    happen here, ``run(0)`` grows (and optionally prunes) the tree and
    ``finish`` takes it; single-class data gives one leaf."""
    rows, labels = training_arrays(rows, labels)
    return 1, lambda _: _fit(rows, labels, cfg), itemgetter(0)


def _fit(rows: np.ndarray, labels: np.ndarray, cfg: TreeConfig) -> TreeModel:
    nodes = _grow(rows, labels, cfg)
    if cfg.prune:
        nodes = _prune(nodes, cfg.confidence)
    return TreeModel(nodes=nodes, config=cfg, n_features=rows.shape[1])
