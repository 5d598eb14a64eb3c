"""Training-row checks and per-feature min-max normalization."""

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..features import checked_labels, checked_rows


def training_arrays(rows, labels, two_classes: bool = False):
    """Float rows, int labels and the rows' ``NormalizationParams``, by
    the row and label rules (``features.checked_rows``,
    ``features.checked_labels``); DataError, too, unless there is a row,
    every value and every feature's range is finite and, when
    ``two_classes`` is asked for, both classes are present."""
    rows = checked_rows(rows)
    labels = checked_labels(labels, len(rows))
    if len(rows) == 0:
        raise DataError("cannot train on an empty dataset")
    # A NaN or an infinity makes its feature's range non-finite, and so
    # does a range beyond the largest float, which no normalization spans.
    norm = NormalizationParams(rows.min(axis=0), rows.max(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = norm.maximum - norm.minimum
    if not np.isfinite(ranges).all():
        raise DataError("training rows contain non-finite values or a "
                        "feature range wider than the largest float")
    if two_classes and (labels.all() or not labels.any()):
        raise DataError("training data contains a single class")
    return rows, labels, norm


@dataclass(frozen=True)
class NormalizationParams:
    """Maps each feature linearly from [min, max] to [-1, 1].

    Degenerate features (max == min on the training fold) map to 0.
    ``training_arrays`` fits it once on the training rows; it is then
    applied verbatim to any row, including test rows outside the
    training range.
    """
    minimum: np.ndarray
    maximum: np.ndarray

    def apply(self, rows: np.ndarray) -> np.ndarray:
        span = self.maximum - self.minimum
        safe = np.where(span == 0, 1.0, span)
        # Dividing before doubling gives the same bits, and a span near
        # the float maximum does not overflow.
        out = 2.0 * ((rows - self.minimum) / safe) - 1.0
        return np.where(span == 0, 0.0, out)

    def to_dict(self) -> dict:
        return {"minimum": [float(x) for x in self.minimum],
                "maximum": [float(x) for x in self.maximum]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(minimum=np.asarray(d["minimum"], dtype=float),
                   maximum=np.asarray(d["maximum"], dtype=float))
