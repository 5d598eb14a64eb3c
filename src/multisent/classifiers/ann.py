"""Single-hidden-layer feed-forward network trained by full-batch
backpropagation with momentum and an adaptive learning rate.

The learning rate grows by ``lr_up`` after an epoch that lowers the
training error and shrinks by ``lr_down`` (with the step rejected and the
momentum cleared) after an epoch that raises it beyond a fixed ratio.
Training restarts from several independent random initializations and
keeps the run with the lowest final error. Inputs are min-max normalized
to [-1, 1]; hidden and output units are tanh and class targets are +/-1,
so the sign of the output is the predicted class.

Each epoch runs one forward pass, on the candidate weights. The
activations of the accepted weights are kept from the pass that accepted
them, and their gradients are kept until the next candidate is accepted,
so a rejected epoch runs no backward pass. A run holds its current
weights, the candidate, the velocity and the gradient each as one flat
vector of length ``H*F + 2H + 1``, laid out as ``(w1, b1, w2, b2)``
(see ``_flat``), so the momentum step is four whole-vector ufunc calls
and accepting a candidate swaps two vectors. The passes read and write
the weights through views and use work arrays allocated once per run,
with the same element-wise operations in the same order as ``forward``
and ``loss_gradients`` on fresh arrays: a run's weights and error are
the same bits either way.

``b1``'s gradient is the column sum of the (n, H) hidden error. numpy's
``sum(axis=0)`` adds the rows one after another, but with one H-element
inner-loop call per row; ``einsum("ij->j")`` does the same adds in the
same order in one call, so ``_column_sums`` uses it. At H = 1 numpy sums
the single column pairwise and einsum does not match, so that width
keeps ``np.sum``. Two other rewrites are not bit-exact and are not used:
a ones column that moves ``b1`` into the matmul changes the bits at
H = 1, and an einsum outer product for ``d_out[:, None] * w2`` turns
-0.0 products into +0.0.

The restarts run side by side on the CPUs the process may use
(``parallel.map_items``), and the serial selection rule (``_best_run``)
picks among them in restart order, so the model is the one serial
training picks.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigurationError, DataError
from ..parallel import map_items
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
        if self.max_epochs < 1:
            raise ValueError(
                f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(
                f"momentum must be in [0, 1), got {self.momentum}")
        if not 1 <= self.lr_up < math.inf:
            raise ValueError(
                f"lr_up must be finite and >= 1, got {self.lr_up}")
        if not 0 < self.lr_down < 1:
            raise ValueError(f"lr_down must be in (0, 1), got {self.lr_down}")
        if not 0 <= self.goal < math.inf:
            raise ValueError(f"goal must be finite and >= 0, got {self.goal}")


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
        return forward(self.w1, self.b1, self.w2, self.b2, x)[1]

    def to_dict(self) -> dict:
        return {"hyperparameters": asdict(self.config),
                "normalization": self.normalization.to_dict(),
                "weights": {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                            "w2": self.w2.tolist(), "b2": float(self.b2)},
                "final_error": self.final_error, "seed": self.config.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "AnnModel":
        w = doc["weights"]
        w1 = np.asarray(w["w1"], dtype=float)
        b1 = np.asarray(w["b1"], dtype=float)
        w2 = np.asarray(w["w2"], dtype=float)
        norm = NormalizationParams.from_dict(doc["normalization"])
        if w1.ndim != 2:
            raise ValueError(f"w1 must be 2-D, got shape {w1.shape}")
        hidden, width = w1.shape
        if b1.shape != (hidden,) or w2.shape != (hidden,):
            raise ValueError(f"b1 and w2 must have length {hidden}, got "
                             f"shapes {b1.shape} and {w2.shape}")
        if norm.minimum.shape != (width,) or norm.maximum.shape != (width,):
            raise ValueError(f"normalization bounds must have length {width}")
        return cls(w1=w1, b1=b1, w2=w2, b2=float(w["b2"]),
                   normalization=norm,
                   config=AnnConfig(**doc["hyperparameters"]),
                   final_error=doc["final_error"])


def forward(w1, b1, w2, b2, x: np.ndarray, hidden=None, out=None):
    """Activations ``(hidden, out)``: tanh(x @ w1.T + b1) and
    tanh(hidden @ w2 + b2), written into the given ``hidden`` (n, H) and
    ``out`` (n,) arrays, or into new ones."""
    hidden = np.matmul(x, w1.T, out=hidden)
    np.add(hidden, b1, out=hidden)
    np.tanh(hidden, out=hidden)
    out = np.matmul(hidden, w2, out=out)
    np.add(out, b2, out=out)
    return hidden, np.tanh(out, out=out)


def _mse(out: np.ndarray, targets: np.ndarray, work=None) -> float:
    """Mean of (out - targets)**2, squared in ``work`` (n,) if given: the
    sum and the division of ``np.mean``, without its Python wrapper."""
    err = np.subtract(out, targets, out=work)
    return float(np.add.reduce(np.square(err, out=err))) / len(err)


def mse_loss(w1, b1, w2, b2, x: np.ndarray, targets: np.ndarray) -> float:
    return _mse(forward(w1, b1, w2, b2, x)[1], targets)


def _flat(hidden: int, n_features: int):
    """A zero parameter vector of length ``H*F + 2H + 1`` and its
    ``(w1, b1, w2, b2)`` views; ``b2`` is a 1-element view."""
    hf = hidden * n_features
    flat = np.zeros(hf + 2 * hidden + 1)
    return flat, (flat[:hf].reshape(hidden, n_features),
                  flat[hf:hf + hidden], flat[hf + hidden:-1], flat[-1:])


def _work_arrays(n: int, hidden: int):
    """Scratch for ``_backward``: two (n,) and two (n, hidden) arrays."""
    return np.empty(n), np.empty(n), np.empty((n, hidden)), \
        np.empty((n, hidden))


def _column_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` into ``out``, bit for bit (module docstring)."""
    if a.shape[1] == 1:
        return np.sum(a, axis=0, out=out)
    return np.einsum("ij->j", a, out=out)


def _backward(x, targets, hidden, out, w2, work, grads):
    """Write the gradients of the mean squared error at the weights whose
    activations are ``hidden`` and ``out`` into the ``(g_w1, g_b1, g_w2,
    g_b2)`` views ``grads`` (see ``_flat``); the (n,) and (n, H)
    temporaries go into ``work`` (see ``_work_arrays``)."""
    d_out, slope, d_hidden, hidden_slope = work
    g_w1, g_b1, g_w2, g_b2 = grads
    np.subtract(out, targets, out=d_out)
    np.multiply(2.0 / len(x), d_out, out=d_out)
    np.square(out, out=slope)
    np.subtract(1.0, slope, out=slope)
    np.multiply(d_out, slope, out=d_out)
    np.matmul(hidden.T, d_out, out=g_w2)
    np.add.reduce(d_out, keepdims=True, out=g_b2)
    np.multiply(d_out[:, None], w2, out=d_hidden)
    np.square(hidden, out=hidden_slope)
    np.subtract(1.0, hidden_slope, out=hidden_slope)
    np.multiply(d_hidden, hidden_slope, out=d_hidden)
    np.matmul(d_hidden.T, x, out=g_w1)
    _column_sums(d_hidden, g_b1)


def loss_gradients(w1, b1, w2, b2, x: np.ndarray, targets: np.ndarray):
    """Backpropagated gradients of the mean squared error.

    Returns ``(loss, (g_w1, g_b1, g_w2, g_b2))``.
    """
    hidden, out = forward(w1, b1, w2, b2, x)
    _, grads = _flat(len(w2), x.shape[1])
    _backward(x, targets, hidden, out, w2,
              _work_arrays(len(x), len(w2)), grads)
    g_w1, g_b1, g_w2, g_b2 = grads
    return _mse(out, targets), (g_w1, g_b1, g_w2, float(g_b2[0]))


def _run_once(x, targets, cfg: AnnConfig, run_seed: int):
    """One training run; returns (params, final_error) or None on divergence."""
    rng = make_rng(run_seed)
    n_features = x.shape[1]
    # Flat vectors (module docstring); the velocity and the step are only
    # ever used whole, so they need no views.
    params, weights = _flat(cfg.hidden, n_features)
    cand, cand_weights = _flat(cfg.hidden, n_features)
    grad, grads = _flat(cfg.hidden, n_features)
    velocity, step = np.zeros_like(params), np.empty_like(params)
    w1, _, w2, _ = weights
    np.divide(rng.normal(size=w1.shape), np.sqrt(n_features), out=w1)
    np.divide(rng.normal(size=cfg.hidden), np.sqrt(cfg.hidden), out=w2)

    # Activations of the current weights and of the candidate: an accepted
    # candidate's become current. Gradients stay until the weights move.
    acts = forward(*weights, x)
    cand_acts = np.empty_like(acts[0]), np.empty_like(acts[1])
    work = _work_arrays(*acts[0].shape)
    stale = True

    lr = cfg.lr
    error = _mse(acts[1], targets, work[0])
    for _ in range(cfg.max_epochs):
        if error <= cfg.goal:
            break
        if stale:
            _backward(x, targets, *acts, weights[2], work, grads)
            stale = False
        velocity *= cfg.momentum
        np.multiply(lr, grad, out=step)
        velocity -= step
        np.add(params, velocity, out=cand)
        forward(*cand_weights, x, *cand_acts)
        new_error = _mse(cand_acts[1], targets, work[0])
        if not math.isfinite(new_error):
            return None
        if new_error > error * ERROR_RATIO_TOLERANCE:
            # Reject the step: keep the old weights, damp the rate,
            # and restart the momentum from zero.
            lr *= cfg.lr_down
            velocity.fill(0.0)
            continue
        if new_error < error:
            lr *= cfg.lr_up
        error = new_error
        params, cand = cand, params
        weights, cand_weights = cand_weights, weights
        acts, cand_acts = cand_acts, acts
        stale = True
    w1, b1, w2, b2 = weights
    return (w1, b1, w2, float(b2[0])), error


def _best_run(runs):
    """The first of ``runs`` with the lowest final error; diverged (None)
    runs are skipped, and None means every run diverged."""
    best = None
    for result in runs:
        if result is None:
            continue
        if best is None or result[1] < best[1]:
            best = result
    return best


def train_ann(rows: np.ndarray, labels: np.ndarray,
              config: AnnConfig | None = None) -> AnnModel:
    """Train on 0/1-labeled rows; the best of ``config.restarts`` runs wins."""
    cfg = config or AnnConfig()
    rows, labels = training_arrays(rows, labels, two_classes=True)

    norm = NormalizationParams.fit(rows)
    x = norm.apply(rows)
    targets = 2.0 * labels - 1.0

    def run(r):
        return _run_once(x, targets, cfg, derive_seed(cfg.seed, "ann", r))

    try:
        best = _best_run(map_items(run, cfg.restarts))
    except MemoryError:
        raise ConfigurationError(
            f"an ANN with {cfg.hidden} hidden units does not fit in memory "
            f"for {x.shape[0]} rows of {x.shape[1]} features") from None
    if best is None:
        raise DataError("all training restarts diverged")

    (w1, b1, w2, b2), error = best
    return AnnModel(w1=w1, b1=b1, w2=w2, b2=b2, normalization=norm,
                    config=cfg, final_error=error)
