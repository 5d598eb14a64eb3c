"""Soft-margin SVM with an RBF kernel trained by sequential minimal
optimization.

Each sweep visits every sample and takes its error, once, from the
maintained vector alphas * y. A sample violating the KKT conditions by more
than ``tol`` is paired with partners in seeded random order until a pair
step moves. Partners with j == i, an empty box or eta >= 0 are skipped
without computing their errors, and so are partners whose step the screen
below shows to stay under ``_STEP_EPS``. Pair updates keep every alpha in
[0, C] and sum(alpha_i * y_i) = 0. Training stops after a sweep with no
violations or no moves, or at the sweep budget. Inputs are min-max scaled
to [-1, 1].

Partner screen. ``ay`` and ``b`` change only when a pair step moves, so
one product ``kernel @ ay + b - y``, taken again only after a move, gives
the error E_j of every partner of every violator until the next move. It
rounds differently from the per-row dot of ``_pair_step``, so it only
screens: in the same permutation order, partner j of violator i is passed
to ``_pair_step`` unless its predicted step plus a slack,

    |clip(a_i - y_i (E_j - e_i) / eta_j, lo_j, hi_j) - a_i| + slack_j,

is below ``_STEP_EPS``. ``_pair_step`` recomputes the partner's error with
its exact per-row dot and decides every move, so the models are those of
the unscreened loop, bit for bit.

The slack. Let u = 2**-53 and S = sum(alpha) + |b| + 1. Every kernel
entry lies in [0, 1] and |ay_l| = alpha_l, so both dots, in any summation
order, lie within gamma_n * sum(alpha) of the exact sum, gamma_n =
n u / (1 - n u) (Higham, Accuracy and Stability of Numerical Algorithms,
2002, section 3.1). Adding b and subtracting y_j round by at most u S
each, so the two errors E_j differ by at most (2n + 4) u S, to first order
in u. The step rounds three more times, on values bounded by S or by
2 S / |eta_j|: the subtraction of e_i widens the gap by at most 4 u S,
the division by eta_j adds 4 u S / |eta_j| and the subtraction from
a_i <= S adds 8 u S / |eta_j| (as |eta_j| <= 2); clipping only narrows
it. So the two predicted new alphas differ by at most (2n + 20) u S /
|eta_j|, and rounding |step| and its comparison with ``_STEP_EPS`` cost
less than another u S / |eta_j|. The screen uses slack_j = 64 n u S /
|eta_j|, at least five times that bound for n >= 2, a margin in the
spirit of the 512-roundoff one of the split screen in ``tree.py``. A step
that is not finite keeps its partner.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..util import derive_seed, make_rng
from .normalize import NormalizationParams, training_arrays

# Minimum change in an alpha for a pair step to count as progress.
_STEP_EPS = 1e-7


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1.0
    gamma: float | None = None   # None -> 1 / n_features
    tol: float = 1e-3
    max_passes: int = 200        # sweep budget over the training set
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.max_passes < 1:
            raise ValueError(
                f"max_passes must be >= 1, got {self.max_passes}")


@dataclass
class SvmModel:
    kind = "svm"
    support_vectors: np.ndarray   # (m, features), normalized space
    coefficients: np.ndarray      # (m,), alpha_i * y_i
    bias: float
    gamma: float
    c: float
    normalization: NormalizationParams
    config: SvmConfig
    # Full training-time duals kept so feasibility is checkable.
    alphas: np.ndarray
    train_labels_pm: np.ndarray

    @property
    def input_width(self) -> int:
        return self.support_vectors.shape[1] if self.support_vectors.size \
            else len(self.normalization.minimum)

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        x = self.normalization.apply(rows)
        if self.support_vectors.size == 0:
            return np.full(len(x), self.bias)
        k = rbf_kernel(x, self.support_vectors, self.gamma)
        return k @ self.coefficients + self.bias

    def to_dict(self) -> dict:
        return {"hyperparameters": asdict(self.config),
                "normalization": self.normalization.to_dict(),
                "support_vectors": self.support_vectors.tolist(),
                "coefficients": self.coefficients.tolist(),
                "bias": float(self.bias),
                "gamma": float(self.gamma),
                "alphas": self.alphas.tolist(),
                "train_labels_pm": self.train_labels_pm.tolist(),
                "seed": self.config.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "SvmModel":
        cfg = SvmConfig(**doc["hyperparameters"])
        norm = NormalizationParams.from_dict(doc["normalization"])
        sv = np.asarray(doc["support_vectors"], dtype=float)
        if sv.size == 0:
            sv = sv.reshape(0, len(norm.minimum))
        return cls(support_vectors=sv,
                   coefficients=np.asarray(doc["coefficients"], dtype=float),
                   bias=float(doc["bias"]), gamma=float(doc["gamma"]),
                   c=cfg.c, normalization=norm, config=cfg,
                   alphas=np.asarray(doc["alphas"], dtype=float),
                   train_labels_pm=np.asarray(doc["train_labels_pm"],
                                              dtype=float))


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs."""
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _screen_slack(alphas, b):
    """64 n u (sum(alphas) + |b| + 1): bounds the gap between a partner's
    error from the product ``kernel @ ay + b - y`` and from its per-row
    dot, and, divided by |eta|, the gap between the two predicted steps
    with a safety factor of at least five (module docstring)."""
    u = np.finfo(float).eps / 2
    return 64.0 * len(alphas) * u * (float(alphas.sum()) + abs(b) + 1.0)


def _pair_step(i, j, e_j, lo, hi, eta, alphas, ay, y, kernel, b, c):
    """One SMO update of partner ``i`` and violator ``j`` (error ``e_j``),
    for a pair the caller screened: ``i != j``, box [``lo``, ``hi``] at
    least ``_STEP_EPS`` wide, ``eta < 0``, and a step the product's errors
    do not show to stay under ``_STEP_EPS``. The partner's error comes
    from the exact per-row dot with ``ay = alphas * y`` and decides the
    move; a move updates both arrays. Returns (b, moved)."""
    e_i = float(kernel[i] @ ay + b - y[i])
    a_i_old, a_j_old = alphas[i], alphas[j]
    a_j = a_j_old - y[j] * (e_i - e_j) / eta
    a_j = min(hi, max(lo, a_j))
    if abs(a_j - a_j_old) < _STEP_EPS:
        return b, False
    a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
    # The constraint keeps a_i inside [0, C] mathematically; rounding can
    # push it out by an ulp, so snap it back.
    a_i = min(c, max(0.0, a_i))
    alphas[i], alphas[j] = a_i, a_j
    ay[i], ay[j] = a_i * y[i], a_j * y[j]

    b1 = b - e_i - y[i] * (a_i - a_i_old) * kernel[i, i] \
        - y[j] * (a_j - a_j_old) * kernel[i, j]
    b2 = b - e_j - y[i] * (a_i - a_i_old) * kernel[i, j] \
        - y[j] * (a_j - a_j_old) * kernel[j, j]
    if 0.0 < a_i < c:
        return b1, True
    if 0.0 < a_j < c:
        return b2, True
    return (b1 + b2) / 2.0, True


def train_svm(rows: np.ndarray, labels: np.ndarray,
              config: SvmConfig | None = None) -> SvmModel:
    cfg = config or SvmConfig()
    rows, labels = training_arrays(rows, labels, two_classes=True)

    norm = NormalizationParams.fit(rows)
    x = norm.apply(rows)
    y = 2.0 * labels - 1.0
    n = len(x)
    gamma = cfg.gamma if cfg.gamma is not None else 1.0 / x.shape[1]

    kernel = rbf_kernel(x, x, gamma)
    alphas = np.zeros(n)
    ay = alphas * y
    b = 0.0
    rng = make_rng(derive_seed(cfg.seed, "svm"))
    errors = slack = None   # kernel @ ay + b - y and its slack, until a move

    for _ in range(cfg.max_passes):
        violations = 0
        progressed = 0
        for i in range(n):
            e_i = float(kernel[i] @ ay + b - y[i])
            r_i = y[i] * e_i
            if (r_i < -cfg.tol and alphas[i] < cfg.c) or \
                    (r_i > cfg.tol and alphas[i] > 0):
                violations += 1
                order = rng.permutation(n)
                # Box and eta of every (partner, i) pair by the scalar step's
                # operations in its order; eta is exactly 0 at partner i.
                a_i = alphas[i]
                same = y == y[i]
                lo = np.where(same, np.maximum(0.0, alphas + a_i - cfg.c),
                              np.maximum(0.0, a_i - alphas))
                hi = np.where(same, np.minimum(cfg.c, alphas + a_i),
                              np.minimum(cfg.c, cfg.c + a_i - alphas))
                eta = 2.0 * kernel[:, i] - kernel.diagonal() - kernel[i, i]
                can_move = (hi - lo >= _STEP_EPS) & (eta < 0)
                partners = order[can_move[order]]
                # Skip the partners whose step the product's errors show to
                # stay under _STEP_EPS (module docstring).
                if errors is None:
                    errors = kernel @ ay + b - y
                    slack = _screen_slack(alphas, b)
                eta_p = eta[partners]
                step = np.minimum(hi[partners], np.maximum(
                    lo[partners],
                    a_i - y[i] * (errors[partners] - e_i) / eta_p)) - a_i
                # A nan step is not small, so _pair_step decides it.
                small = np.abs(step) + slack / -eta_p < _STEP_EPS
                for j in partners[~small].tolist():
                    b, moved = _pair_step(j, i, e_i, lo[j], hi[j], eta[j],
                                          alphas, ay, y, kernel, b, cfg.c)
                    if moved:
                        progressed += 1
                        errors = None
                        break
        if violations == 0 or progressed == 0:
            break

    support = alphas > 0.0
    return SvmModel(support_vectors=x[support], coefficients=ay[support],
                    bias=b, gamma=gamma, c=cfg.c, normalization=norm,
                    config=cfg, alphas=alphas, train_labels_pm=y)
