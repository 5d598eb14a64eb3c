"""Versioned JSON serialization for trained models."""

import json
from dataclasses import asdict

import numpy as np

from ..errors import DataError
from ..util import atomic_write_text
from .ann import AnnConfig, AnnModel
from .normalize import NormalizationParams
from .svm import SvmConfig, SvmModel
from .tree import TreeConfig, TreeModel, TreeNode

FORMAT_VERSION = 1

# Top-level keys model_from_dict reads, per model kind.
_REQUIRED_KEYS = {
    "ann": ("hyperparameters", "normalization", "weights", "final_error"),
    "dtree": ("hyperparameters", "nodes", "n_features"),
    "svm": ("hyperparameters", "normalization", "support_vectors",
            "coefficients", "bias", "gamma", "alphas", "train_labels_pm"),
}


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


def model_to_dict(model) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": model.kind}
    if isinstance(model, AnnModel):
        doc["hyperparameters"] = asdict(model.config)
        doc["normalization"] = model.normalization.to_dict()
        doc["weights"] = {
            "w1": model.w1.tolist(), "b1": model.b1.tolist(),
            "w2": model.w2.tolist(), "b2": float(model.b2),
        }
        doc["final_error"] = model.final_error
        doc["seed"] = model.config.seed
    elif isinstance(model, TreeModel):
        doc["hyperparameters"] = asdict(model.config)
        doc["normalization"] = None
        doc["nodes"] = _node_to_dict(model.root)
        doc["n_features"] = model.n_features
    elif isinstance(model, SvmModel):
        doc["hyperparameters"] = asdict(model.config)
        doc["normalization"] = model.normalization.to_dict()
        doc["support_vectors"] = model.support_vectors.tolist()
        doc["coefficients"] = model.coefficients.tolist()
        doc["bias"] = float(model.bias)
        doc["gamma"] = float(model.gamma)
        doc["alphas"] = model.alphas.tolist()
        doc["train_labels_pm"] = model.train_labels_pm.tolist()
        doc["seed"] = model.config.seed
    else:
        raise TypeError(f"unknown model type: {type(model).__name__}")
    return doc


def model_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format version: {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _REQUIRED_KEYS:
        raise DataError(f"unknown model kind: {kind!r}")
    missing = [key for key in _REQUIRED_KEYS[kind] if key not in doc]
    if missing:
        raise DataError(f"{kind} model is missing keys: {missing}")
    if kind == "ann":
        cfg = AnnConfig(**doc["hyperparameters"])
        w = doc["weights"]
        return AnnModel(
            w1=np.asarray(w["w1"], dtype=float),
            b1=np.asarray(w["b1"], dtype=float),
            w2=np.asarray(w["w2"], dtype=float),
            b2=float(w["b2"]),
            normalization=NormalizationParams.from_dict(doc["normalization"]),
            config=cfg, final_error=doc["final_error"])
    if kind == "dtree":
        return TreeModel(root=_node_from_dict(doc["nodes"]),
                         config=TreeConfig(**doc["hyperparameters"]),
                         n_features=doc["n_features"])
    cfg = SvmConfig(**doc["hyperparameters"])
    sv = np.asarray(doc["support_vectors"], dtype=float)
    if sv.size == 0:
        sv = sv.reshape(0, len(doc["normalization"]["minimum"]))
    return SvmModel(
        support_vectors=sv,
        coefficients=np.asarray(doc["coefficients"], dtype=float),
        bias=float(doc["bias"]), gamma=float(doc["gamma"]), c=cfg.c,
        normalization=NormalizationParams.from_dict(doc["normalization"]),
        config=cfg,
        alphas=np.asarray(doc["alphas"], dtype=float),
        train_labels_pm=np.asarray(doc["train_labels_pm"], dtype=float))


def save_model(model, path) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model), sort_keys=True,
                                       indent=2) + "\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {path} ({exc})")
    return model_from_dict(doc)
