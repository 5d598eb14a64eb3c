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
vector of length ``(F+1)*H + H + 1``, laid out as ``(w1ᵀ, b1, w2, b2)``
(see ``_flat``), so the momentum step is four whole-vector ufunc calls
and accepting a candidate swaps two vectors. The passes read and write
the weights through views and use work arrays allocated once per run,
with the same element-wise operations in the same order as the
three-pass reference trainer in ``tests/oracles.py``, which takes each
epoch's gradients on fresh arrays: a run's weights and error are the
same bits either way.

The first layer is one matmul. The vector's leading ``(F+1)*H`` values
are the C-contiguous (F+1, H) block ``a = [w1ᵀ; b1]``, and a run appends
a ones column to its rows once, so ``x @ w1.T + b1`` is ``[x | 1] @ a``
with no copy of the weights. ``x @ w1.T`` hands BLAS a transposed
operand, which at the fold shape (1600 x 7, H = 15) took about twice as
long as the same product with a contiguous one, and the broadcast
``+ b1`` makes one H-element inner-loop call per row. The bias is the
last term of each dot product, so the sum is the same bits, except
where numpy takes its gemv path, at H = 1 or for a single row: there
the ones column, and for a single row the contiguous operand too,
change the bits, so ``forward`` computes ``x @ w1.T + b1`` as before.
The gradient takes the same layout: ``g_w1 = d_hidden.T @ x`` goes into
an (H, F) scratch and its transpose is copied into the gradient's
``w1ᵀ`` block (``x.T @ d_hidden`` gives the same bits, more slowly).

``b1``'s gradient is the column sum of the (n, H) hidden error. numpy's
``sum(axis=0)`` adds the rows one after another, but with one H-element
inner-loop call per row; ``einsum("ij->j")`` does the same adds in the
same order in one call, so ``_column_sums`` uses it. At H = 1 numpy sums
the single column pairwise and einsum does not match, so that width
keeps ``np.sum``. The outer product ``d_out[:, None] * w2`` stays a
broadcast: its einsum and matmul forms turn -0.0 products into +0.0,
and no other form tried was faster.

Each restart is one independent item of ``classifiers.train_many``
(``plan_ann``), so restarts run side by side on the CPUs the process may
use, together with the restarts of the other folds of a cross-validation.
The model is then the first of a fold's runs, in restart order, with the
lowest final error, as serial training picks it.
"""

import math
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from ..errors import ConfigurationError, DataError
from ..util import check_fields, derive_seed, make_rng
from .normalize import NormalizationParams, training_arrays

# An epoch whose error exceeds old_error * this ratio is rejected.
ERROR_RATIO_TOLERANCE = 1.04


@dataclass(frozen=True)
class AnnConfig:
    hidden: int = field(default=15, metadata={"min": 1})
    restarts: int = field(default=4, metadata={"min": 1})
    max_epochs: int = field(default=500, metadata={"min": 1})
    lr: float = field(default=0.01, metadata={"above": 0})
    momentum: float = field(default=0.9, metadata={"min": 0, "below": 1})
    lr_up: float = field(default=1.05, metadata={"min": 1})
    lr_down: float = field(default=0.7, metadata={"above": 0, "below": 1})
    # stop a run once training MSE falls this low
    goal: float = field(default=1e-10, metadata={"min": 0})
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


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
        return _activations(self.w1, self.b1, self.w2, self.b2, x)[1]

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


def forward(a, w2, b2, x1: np.ndarray, hidden=None, out=None):
    """Activations ``(hidden, out)``: tanh(x1 @ a) and tanh(hidden @ w2 +
    b2), for the (F+1, H) first-layer block ``a = [w1ᵀ; b1]`` and rows
    with a ones column, ``x1 = [x | 1]`` (module docstring), written into
    the given ``hidden`` (n, H) and ``out`` (n,) arrays, or into new
    ones."""
    if min(len(x1), a.shape[1]) == 1:
        # numpy's gemv path: x @ w1.T + b1 with w1 C-contiguous, as the
        # ones column and the transposed operand change its bits.
        w1 = np.ascontiguousarray(a[:-1].T)
        hidden = np.matmul(x1[:, :-1], w1.T, out=hidden)
        np.add(hidden, a[-1], out=hidden)
    else:
        hidden = np.matmul(x1, a, out=hidden)
    np.tanh(hidden, out=hidden)
    out = np.matmul(hidden, w2, out=out)
    np.add(out, b2, out=out)
    return hidden, np.tanh(out, out=out)


def _with_ones(x: np.ndarray) -> np.ndarray:
    """``[x | 1]``, C-contiguous: the rows ``x`` with a column of ones
    appended."""
    x1 = np.ones((len(x), x.shape[1] + 1))
    x1[:, :-1] = x
    return x1


def _activations(w1, b1, w2, b2, x: np.ndarray):
    """``forward`` at the weights ``w1`` (H, F), ``b1``, ``w2``, ``b2``
    and the rows ``x``, through a C-contiguous ``[w1ᵀ; b1]`` as in
    training (``np.vstack`` would give a Fortran-ordered one)."""
    a = np.empty((w1.shape[1] + 1, len(b1)))
    a[:-1], a[-1] = w1.T, b1
    return forward(a, w2, b2, _with_ones(x))


def _mse(out: np.ndarray, targets: np.ndarray, work=None) -> float:
    """Mean of (out - targets)**2, squared in ``work`` (n,) if given: the
    sum and the division of ``np.mean``, without its Python wrapper."""
    err = np.subtract(out, targets, out=work)
    return float(np.add.reduce(np.square(err, out=err))) / len(err)


def _flat(hidden: int, n_features: int):
    """A zero parameter vector of length ``(F+1)*H + H + 1`` and its
    ``(a, w2, b2)`` views: ``a`` is the (F+1, H) block ``[w1ᵀ; b1]`` of
    the vector's leading values, C-contiguous, which ``forward`` takes
    as it is; ``b2`` is a 1-element view."""
    size = (n_features + 1) * hidden
    flat = np.zeros(size + hidden + 1)
    return flat, (flat[:size].reshape(n_features + 1, hidden),
                  flat[size:-1], flat[-1:])


def _work_arrays(x: np.ndarray, hidden: int):
    """Scratch for ``_backward`` on the rows ``x`` (n, F): two (n,) and
    two (n, H) arrays, and an (H, F) one for ``w1``'s gradient."""
    n, n_features = x.shape
    return np.empty(n), np.empty(n), np.empty((n, hidden)), \
        np.empty((n, hidden)), np.empty((hidden, n_features))


def _column_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` into ``out``, bit for bit (module docstring)."""
    if a.shape[1] == 1:
        return np.sum(a, axis=0, out=out)
    return np.einsum("ij->j", a, out=out)


def _backward(x, targets, hidden, out, w2, work, grads):
    """Write the gradients of the mean squared error at the weights whose
    activations are ``hidden`` and ``out`` into the ``(g_a, g_w2, g_b2)``
    views ``grads`` (see ``_flat``); the temporaries go into ``work``
    (see ``_work_arrays``)."""
    d_out, slope, d_hidden, hidden_slope, g_w1 = work
    g_a, g_w2, g_b2 = grads
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
    np.copyto(g_a[:-1], g_w1.T)
    _column_sums(d_hidden, g_a[-1])


def _run_once(x, targets, cfg: AnnConfig, run_seed: int):
    """One training run; returns (params, final_error) or None on divergence."""
    rng = make_rng(run_seed)
    n_features = x.shape[1]
    x1 = _with_ones(x)
    # Flat vectors (module docstring); the velocity and the step are only
    # ever used whole, so they need no views.
    params, weights = _flat(cfg.hidden, n_features)
    cand, cand_weights = _flat(cfg.hidden, n_features)
    grad, grads = _flat(cfg.hidden, n_features)
    velocity, step = np.zeros_like(params), np.empty_like(params)
    a, w2, _ = weights
    # w1 is drawn (H, F), so each weight gets the same draw as before.
    np.divide(rng.normal(size=(cfg.hidden, n_features)), np.sqrt(n_features),
              out=a[:-1].T)
    np.divide(rng.normal(size=cfg.hidden), np.sqrt(cfg.hidden), out=w2)

    # Activations of the current weights and of the candidate: an accepted
    # candidate's become current. Gradients stay until the weights move.
    acts = forward(*weights, x1)
    cand_acts = np.empty_like(acts[0]), np.empty_like(acts[1])
    work = _work_arrays(x, cfg.hidden)
    stale = True

    lr = cfg.lr
    error = _mse(acts[1], targets, work[0])
    for _ in range(cfg.max_epochs):
        if error <= cfg.goal:
            break
        if stale:
            _backward(x, targets, *acts, weights[1], work, grads)
            stale = False
        velocity *= cfg.momentum
        np.multiply(lr, grad, out=step)
        velocity -= step
        np.add(params, velocity, out=cand)
        forward(*cand_weights, x1, *cand_acts)
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
    a, w2, b2 = weights
    return (a[:-1].T.copy(), a[-1], w2, float(b2[0])), error


def plan_ann(rows: np.ndarray, labels: np.ndarray, cfg: AnnConfig):
    """``(restarts, run, finish)`` for ``classifiers.train_many``: the row
    checks and normalization happen here, ``run(r)`` is restart ``r`` and
    ``finish`` keeps the first run of the lowest final error, skipping
    diverged (None) ones, as the model."""
    rows, labels, norm = training_arrays(rows, labels, two_classes=True)
    x = norm.apply(rows)
    targets = 2.0 * labels - 1.0

    def run(r):
        try:
            return _run_once(x, targets, cfg, derive_seed(cfg.seed, "ann", r))
        except MemoryError:
            raise ConfigurationError(
                f"an ANN with {cfg.hidden} hidden units does not fit in "
                f"memory for {x.shape[0]} rows of {x.shape[1]} features"
            ) from None

    def finish(runs):
        best = min(filter(None, runs), key=itemgetter(1), default=None)
        if best is None:
            raise DataError("all training restarts diverged")
        (w1, b1, w2, b2), error = best
        return AnnModel(w1=w1, b1=b1, w2=w2, b2=b2, normalization=norm,
                        config=cfg, final_error=error)

    return cfg.restarts, run, finish
