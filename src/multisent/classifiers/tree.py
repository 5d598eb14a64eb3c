"""Binary decision tree with gain-ratio splits on numeric thresholds and
pessimistic error-based pruning.

Candidate thresholds are midpoints between consecutive distinct sorted
values of each feature. Growth stops when a node is pure, when no split
has positive gain, or when every split would leave a child smaller than
``min_leaf``. Pruning replaces a subtree with a leaf when the upper
confidence bound of the leaf's error (at the configured confidence
factor) does not exceed the subtree's; subtree raising is not performed.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import DataError

_GAIN_EPS = 1e-12


@dataclass(frozen=True)
class TreeConfig:
    confidence: float = 0.25
    min_leaf: int = 2
    prune: bool = True

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}")


@dataclass
class TreeNode:
    counts: tuple            # (negatives, positives) of training rows here
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None    # rows with value <= threshold
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def size(self) -> int:
        return self.counts[0] + self.counts[1]

    @property
    def leaf_errors(self) -> int:
        return self.size - max(self.counts)

    def leaf_score(self) -> float:
        return self.counts[1] / self.size - 0.5


@dataclass
class TreeModel:
    kind = "dtree"
    root: TreeNode
    config: TreeConfig
    n_features: int

    @property
    def input_width(self) -> int:
        return self.n_features

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        return np.array([_walk(self.root, row).leaf_score() for row in rows])

    def to_dict(self) -> dict:
        return {"hyperparameters": asdict(self.config),
                "normalization": None,
                "nodes": _node_to_dict(self.root),
                "n_features": self.n_features}

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeModel":
        return cls(root=_node_from_dict(doc["nodes"]),
                   config=TreeConfig(**doc["hyperparameters"]),
                   n_features=doc["n_features"])


def _node_to_dict(node: TreeNode) -> dict:
    d = {"counts": list(node.counts)}
    if not node.is_leaf:
        d.update(feature=node.feature, threshold=node.threshold,
                 left=_node_to_dict(node.left), right=_node_to_dict(node.right))
    return d


def _node_from_dict(d: dict) -> TreeNode:
    node = TreeNode(counts=tuple(d["counts"]))
    if "feature" in d:
        node.feature = d["feature"]
        node.threshold = d["threshold"]
        node.left = _node_from_dict(d["left"])
        node.right = _node_from_dict(d["right"])
    return node


def _walk(node: TreeNode, row) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


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


def _class_counts(labels: np.ndarray) -> tuple:
    return (int(np.sum(labels == 0)), int(np.sum(labels == 1)))


def _best_split(rows: np.ndarray, labels: np.ndarray, min_leaf: int):
    """Highest-gain-ratio (feature, threshold) with positive gain, or None."""
    n = len(labels)
    parent_entropy = _entropy(_class_counts(labels))
    best = None  # (gain_ratio, gain, feature, threshold)
    for f in range(rows.shape[1]):
        order = np.argsort(rows[:, f], kind="stable")
        values = rows[order, f]
        ordered_labels = labels[order]
        # Prefix counts of positives ahead of each possible cut position.
        pos_prefix = np.cumsum(ordered_labels)
        for cut in range(min_leaf, n - min_leaf + 1):
            if cut < 1 or cut > n - 1 or values[cut - 1] == values[cut]:
                continue
            left_pos = int(pos_prefix[cut - 1])
            left = (cut - left_pos, left_pos)
            right = (n - cut - (int(pos_prefix[-1]) - left_pos),
                     int(pos_prefix[-1]) - left_pos)
            child_entropy = (cut / n) * _entropy(left) \
                + ((n - cut) / n) * _entropy(right)
            gain = parent_entropy - child_entropy
            if gain <= _GAIN_EPS:
                continue
            split_info = _entropy((cut, n - cut))
            ratio = gain / split_info
            threshold = (values[cut - 1] + values[cut]) / 2.0
            # Adjacent floats can round the midpoint up onto values[cut],
            # which would move rows across the split; pin it below.
            if threshold >= values[cut]:
                threshold = values[cut - 1]
            key = (ratio, gain, -f, -threshold)
            if best is None or key > best[0]:
                best = (key, f, threshold)
    if best is None:
        return None
    return best[1], best[2]


def _grow(rows: np.ndarray, labels: np.ndarray, cfg: TreeConfig) -> TreeNode:
    counts = _class_counts(labels)
    node = TreeNode(counts=counts)
    if counts[0] == 0 or counts[1] == 0 or len(labels) < 2 * cfg.min_leaf:
        return node
    split = _best_split(rows, labels, cfg.min_leaf)
    if split is None:
        return node
    f, threshold = split
    mask = rows[:, f] <= threshold
    node.feature = f
    node.threshold = float(threshold)
    node.left = _grow(rows[mask], labels[mask], cfg)
    node.right = _grow(rows[~mask], labels[~mask], cfg)
    return node


def normal_upper_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


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
    z = normal_upper_quantile(1.0 - confidence)
    f = (e + 0.5) / n
    upper = (f + z * z / (2 * n)
             + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return upper * n - e


def _prune(node: TreeNode, confidence: float) -> float:
    """Prune bottom-up; return the estimated errors of what is left."""
    as_leaf = node.leaf_errors + added_errors(node.size, node.leaf_errors,
                                              confidence)
    if node.is_leaf:
        return as_leaf
    as_subtree = _prune(node.left, confidence) \
        + _prune(node.right, confidence)
    if as_leaf <= as_subtree + 1e-10:
        node.feature = None
        node.threshold = None
        node.left = None
        node.right = None
        return as_leaf
    return as_subtree


def train_dtree(rows: np.ndarray, labels: np.ndarray,
                config: TreeConfig | None = None) -> TreeModel:
    """Grow (and optionally prune) a tree; single-class data gives one leaf."""
    cfg = config or TreeConfig()
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(rows) == 0:
        raise DataError("cannot train on an empty dataset")
    root = _grow(rows, labels, cfg)
    if cfg.prune:
        _prune(root, cfg.confidence)
    return TreeModel(root=root, config=cfg, n_features=rows.shape[1])
