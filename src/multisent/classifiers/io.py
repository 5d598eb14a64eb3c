"""Versioned JSON serialization for trained models: each model's own
``to_dict()`` inside an envelope holding ``format_version`` and ``kind``.
A model file's numbers must be finite: ``NaN``, ``Infinity``,
``-Infinity`` and a literal that overflows (``1e999``) are data errors.
"""

import json
import math

from ..errors import ConfigurationError, DataError
from ..util import read_text, write_json
from .ann import AnnModel
from .svm import SvmModel
from .tree import TreeModel

FORMAT_VERSION = 2

_MODELS = {cls.kind: cls for cls in (AnnModel, TreeModel, SvmModel)}


def model_to_dict(model) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": model.kind,
            **model.to_dict()}


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format version: {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise DataError(f"unknown model kind: {kind!r}")
    try:
        return _MODELS[kind].from_dict(doc)
    except KeyError as exc:
        raise DataError(f"{kind} model is missing keys: {list(exc.args)}")
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise DataError(f"malformed {kind} model: {exc}")


def save_model(model, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path):
    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise DataError(f"model file holds the non-finite number {text}: "
                            f"{path}")
        return value

    try:
        doc = json.loads(read_text(path, "model file"), parse_float=finite,
                         parse_constant=finite)
    except ValueError as exc:   # also an int too long for Python to read
        raise DataError(f"model file is not valid JSON: {path} ({exc})")
    return model_from_dict(doc)
