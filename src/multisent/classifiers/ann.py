"""Single-hidden-layer feed-forward network trained by full-batch
backpropagation with momentum and an adaptive learning rate.

The learning rate grows by ``lr_up`` after an epoch that lowers the
training error and shrinks by ``lr_down`` (with the step rejected and the
momentum cleared) after an epoch that raises it beyond a fixed ratio.
Training restarts from several independent random initializations and
keeps the run with the lowest final error. Inputs are min-max normalized
to [-1, 1]; hidden and output units are tanh and class targets are +/-1,
so the sign of the output is the predicted class.
"""

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import DataError
from ..util import derive_seed, make_rng
from .normalize import NormalizationParams, training_arrays

# An epoch whose error exceeds old_error * this ratio is rejected.
ERROR_RATIO_TOLERANCE = 1.04


@dataclass(frozen=True)
class AnnConfig:
    hidden: int = 15
    restarts: int = 4
    max_epochs: int = 500
    lr: float = 0.01
    momentum: float = 0.9
    lr_up: float = 1.05
    lr_down: float = 0.7
    goal: float = 1e-10   # stop a run once training MSE falls this low
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class AnnModel:
    kind = "ann"
    w1: np.ndarray        # (hidden, features)
    b1: np.ndarray        # (hidden,)
    w2: np.ndarray        # (hidden,)
    b2: float
    normalization: NormalizationParams
    config: AnnConfig
    final_error: float

    @property
    def input_width(self) -> int:
        return self.w1.shape[1]

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        x = self.normalization.apply(rows)
        return forward(self.w1, self.b1, self.w2, self.b2, x)

    def to_dict(self) -> dict:
        return {"hyperparameters": asdict(self.config),
                "normalization": self.normalization.to_dict(),
                "weights": {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                            "w2": self.w2.tolist(), "b2": float(self.b2)},
                "final_error": self.final_error, "seed": self.config.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "AnnModel":
        w = doc["weights"]
        return cls(w1=np.asarray(w["w1"], dtype=float),
                   b1=np.asarray(w["b1"], dtype=float),
                   w2=np.asarray(w["w2"], dtype=float),
                   b2=float(w["b2"]),
                   normalization=NormalizationParams.from_dict(
                       doc["normalization"]),
                   config=AnnConfig(**doc["hyperparameters"]),
                   final_error=doc["final_error"])


def forward(w1, b1, w2, b2, x: np.ndarray) -> np.ndarray:
    hidden = np.tanh(x @ w1.T + b1)
    return np.tanh(hidden @ w2 + b2)


def mse_loss(w1, b1, w2, b2, x: np.ndarray, targets: np.ndarray) -> float:
    out = forward(w1, b1, w2, b2, x)
    return float(np.mean((out - targets) ** 2))


def loss_gradients(w1, b1, w2, b2, x: np.ndarray, targets: np.ndarray):
    """Backpropagated gradients of the mean squared error.

    Returns ``(loss, (g_w1, g_b1, g_w2, g_b2))``.
    """
    hidden = np.tanh(x @ w1.T + b1)
    out = np.tanh(hidden @ w2 + b2)
    err = out - targets
    loss = float(np.mean(err ** 2))

    d_out = (2.0 / len(x)) * err * (1.0 - out ** 2)
    g_w2 = hidden.T @ d_out
    g_b2 = float(np.sum(d_out))
    d_hidden = np.outer(d_out, w2) * (1.0 - hidden ** 2)
    g_w1 = d_hidden.T @ x
    g_b1 = d_hidden.sum(axis=0)
    return loss, (g_w1, g_b1, g_w2, g_b2)


def _run_once(x, targets, cfg: AnnConfig, run_seed: int):
    """One training run; returns (params, final_error) or None on divergence."""
    rng = make_rng(run_seed)
    n_features = x.shape[1]
    w1 = rng.normal(size=(cfg.hidden, n_features)) / np.sqrt(n_features)
    b1 = np.zeros(cfg.hidden)
    w2 = rng.normal(size=cfg.hidden) / np.sqrt(cfg.hidden)
    b2 = 0.0
    velocity = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]

    lr = cfg.lr
    error = mse_loss(w1, b1, w2, b2, x, targets)
    for _ in range(cfg.max_epochs):
        if error <= cfg.goal:
            break
        _, grads = loss_gradients(w1, b1, w2, b2, x, targets)
        velocity = [cfg.momentum * v - lr * g for v, g in zip(velocity, grads)]
        cand = [p + v for p, v in zip((w1, b1, w2, b2), velocity)]
        new_error = mse_loss(*cand, x, targets)
        if not np.isfinite(new_error):
            return None
        if new_error > error * ERROR_RATIO_TOLERANCE:
            # Reject the step: keep the old weights, damp the rate,
            # and restart the momentum from zero.
            lr *= cfg.lr_down
            velocity = [np.zeros_like(w1), np.zeros_like(b1),
                        np.zeros_like(w2), 0.0]
            continue
        if new_error < error:
            lr *= cfg.lr_up
        w1, b1, w2, b2 = cand
        error = new_error
    return (w1, b1, w2, b2), error


def train_ann(rows: np.ndarray, labels: np.ndarray,
              config: AnnConfig | None = None) -> AnnModel:
    """Train on 0/1-labeled rows; the best of ``config.restarts`` runs wins."""
    cfg = config or AnnConfig()
    rows, labels = training_arrays(rows, labels, two_classes=True)

    norm = NormalizationParams.fit(rows)
    x = norm.apply(rows)
    targets = 2.0 * labels - 1.0

    best = None
    for r in range(cfg.restarts):
        result = _run_once(x, targets, cfg, derive_seed(cfg.seed, "ann", r))
        if result is None:
            continue
        if best is None or result[1] < best[1]:
            best = result
    if best is None:
        raise DataError("all training restarts diverged")

    (w1, b1, w2, b2), error = best
    return AnnModel(w1=w1, b1=b1, w2=w2, b2=b2, normalization=norm,
                    config=cfg, final_error=error)
