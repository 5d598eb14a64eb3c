"""Feature vectors for term-level and document-level classification.

Term-level rows summarize a document's adjusted token scores (counts,
sums, and averages of each sign plus the first and last subjective
scores); document-level rows summarize its sentence scores. Rows are
built at full width (TERM8 or DOC7); ``Dataset.project`` selects the
columns of a narrower variant.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import atomic_write_text, sum_left

TERM8_NAMES = ("count_pos", "count_neg", "sum_pos", "sum_neg",
               "avg_pos", "avg_neg", "first_subj", "last_subj")
DOC7_NAMES = ("count_pos_sent", "count_neg_sent", "max_pos", "max_neg",
              "first_score", "middle_score", "last_score")


class Variant(enum.Enum):
    TERM8 = ("term", TERM8_NAMES)
    TERM6 = ("term", TERM8_NAMES[:6])
    DOC7 = ("document", DOC7_NAMES)
    DOC5 = ("document", ("count_pos_sent", "count_neg_sent",
                         "first_score", "middle_score", "last_score"))
    DOC4 = ("document", ("count_pos_sent", "count_neg_sent",
                         "max_pos", "max_neg"))

    @property
    def level(self) -> str:
        return self.value[0]

    @property
    def names(self) -> tuple:
        return self.value[1]

    @property
    def width(self) -> int:
        return len(self.names)

    @property
    def full(self) -> "Variant":
        """The widest variant of this level; every variant projects from it."""
        return Variant.TERM8 if self.level == "term" else Variant.DOC7

    @classmethod
    def from_level_and_width(cls, level: str, width: int) -> "Variant":
        for v in cls:
            if v.level == level and v.width == width:
                return v
        raise ValueError(f"no {level}-level variant with {width} features")

    @classmethod
    def from_names(cls, names) -> "Variant":
        names = tuple(names)
        for v in cls:
            if v.names == names:
                return v
        raise ValueError(f"feature names match no known variant: {names}")


def term_features(scores) -> list:
    """Build one TERM8 row from a document's adjusted token scores.

    first_subj/last_subj are the first and last nonzero scores (0 when
    the document has no subjective token).
    """
    pos = [s for s in scores if s > 0]
    neg = [s for s in scores if s < 0]
    subjective = [s for s in scores if s != 0]
    sum_pos, sum_neg = sum_left(pos), sum_left(neg)
    return [
        float(len(pos)),
        float(len(neg)),
        sum_pos,
        sum_neg,
        sum_pos / len(pos) if pos else 0.0,
        sum_neg / len(neg) if neg else 0.0,
        subjective[0] if subjective else 0.0,
        subjective[-1] if subjective else 0.0,
    ]


def doc_features(values) -> list:
    """Build one DOC7 row from a document's sentence scores.

    first/middle/last are the scores at sentence index 0, (n-1)//2, and
    n-1. A document with zero sentences yields an all-zero row.
    """
    pos = [v for v in values if v > 0]
    neg = [v for v in values if v < 0]
    n = len(values)
    return [
        float(len(pos)),
        float(len(neg)),
        max(pos) if pos else 0.0,
        min(neg) if neg else 0.0,
        values[0] if n else 0.0,
        values[(n - 1) // 2] if n else 0.0,
        values[-1] if n else 0.0,
    ]


@dataclass
class Dataset:
    """Fixed-width numeric rows with binary labels for one variant."""
    rows: np.ndarray     # shape (n, variant.width), float64
    labels: np.ndarray   # shape (n,), int values in {0, 1}
    variant: Variant

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, self.variant.width)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.variant.width:
            raise ValueError(
                f"rows must be (n, {self.variant.width}) for {self.variant.name}")
        if len(self.labels) != len(self.rows):
            raise ValueError("labels length must match row count")
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise ValueError(f"labels must be 0 or 1, found {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(rows=self.rows[indices], labels=self.labels[indices],
                       variant=self.variant)

    def project(self, variant: Variant) -> "Dataset":
        """Select ``variant``'s named columns from these rows."""
        columns = [self.variant.names.index(name) for name in variant.names]
        return Dataset(rows=self.rows[:, columns], labels=self.labels,
                       variant=variant)


def write_features_csv(dataset: Dataset, path) -> None:
    """Emit ``label,<feature names>`` rows at full float precision."""
    lines = ["label," + ",".join(dataset.variant.names)]
    for label, row in zip(dataset.labels, dataset.rows):
        lines.append(str(int(label)) + "," + ",".join(repr(float(x)) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_features_csv(path) -> Dataset:
    """Read a features CSV back into a Dataset, inferring the variant."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except FileNotFoundError:
        raise DataError(f"features file not found: {path}")
    if not lines:
        raise DataError(f"features file is empty: {path}")
    header = lines[0].split(",")
    if header[:1] != ["label"]:
        raise DataError(f"{path}:1: header must start with 'label'")
    try:
        variant = Variant.from_names(header[1:])
    except ValueError as exc:
        raise DataError(f"{path}:1: {exc}")
    labels = []
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != variant.width + 1:
            raise DataError(
                f"{path}:{n}: expected {variant.width + 1} fields, got {len(parts)}")
        try:
            labels.append(int(parts[0]))
            rows.append([float(x) for x in parts[1:]])
        except ValueError:
            raise DataError(f"{path}:{n}: non-numeric field")
        if not all(map(math.isfinite, rows[-1])):
            raise DataError(f"{path}:{n}: non-finite field")
    return Dataset(rows=rows, labels=labels, variant=variant)
