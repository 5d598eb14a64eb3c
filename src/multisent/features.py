"""Feature vectors for term-level and document-level classification.

Term-level rows summarize a document's adjusted token scores (counts,
sums, and averages of each sign plus the first and last subjective
scores); document-level rows summarize its sentence scores. Rows for a
block of documents are built at once from its score arrays and segment
offsets, at full width (TERM8 or DOC7); ``Dataset.project`` selects the
columns of a narrower variant. The per-document scalar definitions they
reproduce bit for bit live in ``tests/oracles.py``.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .util import atomic_write_text, read_text

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
    def from_width(cls, width: int) -> "Variant":
        """The variant ``width`` features wide; no two share a width."""
        for v in cls:
            if v.width == width:
                return v
        raise ConfigurationError(f"no variant with {width} features")

    @classmethod
    def from_names(cls, names) -> "Variant":
        names = tuple(names)
        for v in cls:
            if v.names == names:
                return v
        raise ValueError(f"feature names match no known variant: {names}")


def term_rows(positions, scores, doc_tokens) -> np.ndarray:
    """One TERM8 row per document from a corpus's nonzero token scores.

    ``positions`` are the ascending corpus positions of the tokens whose
    adjusted score is nonzero, ``scores`` those scores, and
    ``doc_tokens`` the documents' token offsets. first_subj/last_subj are
    a document's first and last nonzero scores (0 when it has none).
    Sums add left to right from 0.0, as ``util.sum_left`` does.
    """
    bounds = np.searchsorted(positions, doc_tokens)
    is_pos = scores > 0
    pos_bounds = np.concatenate(([0], np.cumsum(is_pos)))[bounds]
    neg_bounds = bounds - pos_bounds
    count_pos, count_neg = np.diff(pos_bounds), np.diff(neg_bounds)
    sum_pos = _sums_left(scores[is_pos], pos_bounds)
    sum_neg = _sums_left(scores[~is_pos], neg_bounds)
    rows = np.zeros((len(doc_tokens) - 1, len(TERM8_NAMES)))
    rows[:, 0], rows[:, 1] = count_pos, count_neg
    rows[:, 2], rows[:, 3] = sum_pos, sum_neg
    np.divide(sum_pos, count_pos, out=rows[:, 4], where=count_pos > 0)
    np.divide(sum_neg, count_neg, out=rows[:, 5], where=count_neg > 0)
    subjective = bounds[1:] > bounds[:-1]
    rows[subjective, 6] = scores[bounds[:-1][subjective]]
    rows[subjective, 7] = scores[bounds[1:][subjective] - 1]
    return rows


def _sums_left(values, bounds) -> np.ndarray:
    """Each segment ``values[bounds[i]:bounds[i + 1]]`` added left to right
    from 0.0, with one vector add per rank over the segments that reach
    it; pairwise ``np.add.reduceat`` would round differently."""
    starts, counts = bounds[:-1], np.diff(bounds)
    totals = np.zeros(len(counts))
    live = np.flatnonzero(counts)
    rank = 0
    while live.size:
        totals[live] += values[starts[live] + rank]
        rank += 1
        live = live[counts[live] > rank]
    return totals


def doc_rows(values, doc_sentences) -> np.ndarray:
    """One DOC7 row per document from the corpus's sentence scores.

    ``doc_sentences`` holds the documents' sentence offsets.
    first/middle/last are the scores at sentence index 0, (n-1)//2, and
    n-1; a document with zero sentences yields an all-zero row.
    """
    counts = np.diff(doc_sentences)
    some = counts > 0
    first, n = doc_sentences[:-1][some], counts[some]
    rows = np.zeros((len(counts), len(DOC7_NAMES)))
    rows[some, 0] = np.add.reduceat(values > 0, first, dtype=float)
    rows[some, 1] = np.add.reduceat(values < 0, first, dtype=float)
    rows[some, 2] = np.maximum.reduceat(np.where(values > 0, values, 0.0),
                                        first)
    rows[some, 3] = np.minimum.reduceat(np.where(values < 0, values, 0.0),
                                        first)
    rows[some, 4] = values[first]
    rows[some, 5] = values[first + (n - 1) // 2]
    rows[some, 6] = values[first + n - 1]
    return rows


def _array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:   # lists of unequal lengths
        raise DataError(f"{what} must not be lists of unequal lengths") \
            from None


def checked_rows(rows, width: int | None = None) -> np.ndarray:
    """The row rule: ``rows`` as floats; DataError unless they are numbers
    (bools read as 0 and 1) in a 2-D array with at least one column, or
    with ``width`` columns when a width is given. Given a width, no rows
    (``[]`` too) are zero rows that wide and a 1-D array is one row. NaN
    and infinities pass."""
    rows = _array(rows, "rows")
    if rows.dtype.kind not in "biuf":
        raise DataError(f"rows must be numbers, got {rows.dtype} values")
    if width is not None:
        rows = rows.reshape(0, width) if rows.shape[:1] == (0,) \
            else np.atleast_2d(rows)
    if rows.ndim != 2 or not rows.shape[1] \
            or width not in (None, rows.shape[1]):
        columns = f"{width} columns" if width else "at least one column"
        raise DataError(f"rows must be a 2-D array with {columns}, got "
                        f"shape {rows.shape}")
    return rows.astype(float, copy=False)


def checked_labels(labels, count: int) -> np.ndarray:
    """The label rule: ``labels`` as ints; DataError unless there are
    ``count``, one per row, each equal to 0 or 1 as given, before any
    cast: ``True`` and ``False`` pass as 1 and 0, and a string, a
    fraction, NaN or ``None`` does not."""
    labels = _array(labels, "labels")
    if labels.shape != (count,):
        raise DataError(f"need one label per row: {count} rows, labels of "
                        f"shape {labels.shape}")
    # Not np.unique: its first call imports numpy.ma (about 20 ms). Each
    # bad value shows once, unsorted: values of mixed types do not compare.
    bad = labels[(labels != 0) & (labels != 1)].tolist()
    if bad:
        raise DataError(f"labels must be 0 or 1, got "
                        f"[{', '.join(dict.fromkeys(map(repr, bad)))}]")
    return labels.astype(int, copy=False)


@dataclass
class Dataset:
    """Fixed-width numeric rows with binary labels for one variant; the
    row and label rules hold them (``checked_rows``, ``checked_labels``)."""
    rows: np.ndarray     # shape (n, variant.width), float64
    labels: np.ndarray   # shape (n,), int values in {0, 1}
    variant: Variant

    def __post_init__(self):
        self.rows = checked_rows(self.rows, self.variant.width)
        self.labels = checked_labels(self.labels, len(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(rows=self.rows[indices], labels=self.labels[indices],
                       variant=self.variant)

    def project(self, variant: Variant) -> "Dataset":
        """Select ``variant``'s named columns from these rows; a dataset
        projects onto its own variant as itself, sharing its rows."""
        if variant is self.variant:
            return self
        columns = [self.variant.names.index(name) for name in variant.names]
        return Dataset(rows=self.rows[:, columns], labels=self.labels,
                       variant=variant)


def write_features_csv(dataset: Dataset, path) -> None:
    """Emit ``label,<feature names>`` rows at full float precision."""
    lines = ["label," + ",".join(dataset.variant.names)]
    for label, row in zip(dataset.labels.tolist(), dataset.rows.tolist()):
        lines.append(f"{label}," + ",".join(map(repr, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_features_csv(path) -> Dataset:
    """Read a features CSV back into a Dataset, inferring the variant."""
    text = read_text(path, "features file")
    if not text:
        raise DataError(f"features file is empty: {path}")
    # Only "\n" ends a row; a stray "\x85" stays inside its field.
    lines = text.removesuffix("\n").split("\n")
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
        if labels[-1] not in (0, 1):
            raise DataError(
                f"{path}:{n}: label must be 0 or 1, got {parts[0]}")
        if not all(map(math.isfinite, rows[-1])):
            raise DataError(f"{path}:{n}: non-finite field")
    return Dataset(rows=rows, labels=labels, variant=variant)
