"""Training-row checks and per-feature min-max normalization."""

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


def training_arrays(rows, labels, two_classes: bool = False):
    """Float rows and int labels; DataError unless the rows are a
    non-empty, all-finite 2-D array with at least one column and the
    labels are one 0 or 1 per row, of both classes when ``two_classes``
    is asked for."""
    rows, labels = np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)
    if len(rows) == 0:
        raise DataError("cannot train on an empty dataset")
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise DataError(f"training rows must be a 2-D array with at least "
                        f"one column, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise DataError("training rows contain non-finite values")
    if labels.shape != (len(rows),):
        raise DataError(f"need one label per training row: {len(rows)} "
                        f"rows, labels of shape {labels.shape}")
    classes = set(labels.tolist())
    if not classes <= {0, 1}:
        raise DataError(f"training labels must be 0 or 1, got "
                        f"{sorted(classes - {0, 1})}")
    if two_classes and len(classes) < 2:
        raise DataError("training data contains a single class")
    return rows, labels


@dataclass(frozen=True)
class NormalizationParams:
    """Maps each feature linearly from [min, max] to [-1, 1].

    Degenerate features (max == min on the training fold) map to 0.
    Fitted once on the training rows and then applied verbatim to any
    row, including test rows outside the training range.
    """
    minimum: np.ndarray
    maximum: np.ndarray

    @classmethod
    def fit(cls, rows: np.ndarray) -> "NormalizationParams":
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or len(rows) == 0:
            raise ValueError("need a non-empty 2-D array to fit normalization")
        return cls(minimum=rows.min(axis=0), maximum=rows.max(axis=0))

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        span = self.maximum - self.minimum
        safe = np.where(span == 0, 1.0, span)
        out = 2.0 * (rows - self.minimum) / safe - 1.0
        return np.where(span == 0, 0.0, out)

    def to_dict(self) -> dict:
        return {"minimum": [float(x) for x in self.minimum],
                "maximum": [float(x) for x in self.maximum]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(minimum=np.asarray(d["minimum"], dtype=float),
                   maximum=np.asarray(d["maximum"], dtype=float))
