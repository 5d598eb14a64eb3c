"""Soft-margin SVM with an RBF kernel trained by sequential minimal
optimization.

Each sweep visits the samples in order. A sample violating the KKT
conditions by more than ``tol`` is paired with partners in seeded random
order until a pair step moves. Partners with j == i, an empty box or
eta >= 0 are skipped without computing their errors, and so are partners
whose step the screen below shows to stay under ``_STEP_EPS``. Pair
updates keep every alpha in [0, C] and sum(alpha_i * y_i) = 0. Training
stops after a sweep with no violations or no moves, or at the sweep
budget. Inputs are min-max scaled to [-1, 1].

The kernel is built in place: ``rbf_kernel`` writes the product
(2 a) b^T into its n x m result and then, ``_KERNEL_BLOCK`` rows at a
time, replaces it by exp(-gamma * max((|a_i|^2 + |b_j|^2) - G_ij, 0)).
These are the IEEE operations of the three-temporary formula in its
order, so the bits are that formula's, and the peak is the result plus
one block of row sums: a training fold holds one 8 n^2-byte kernel, a
scored batch of n rows one 8 n m-byte kernel against m support vectors.

Cached errors. Each sweep starts from one product E = kernel @ ay + b - y,
with ay = alphas * y, and each move of i and j updates it in O(n):
E += (ay_i' - ay_i) K[:, i] + (ay_j' - ay_j) K[:, j] + (b' - b). E rounds
differently from the per-row dot e_k = kernel[k] @ ay + b - y_k, so it
only screens, within the bound ``gap`` on |E_k - e_k| derived below:
- KKT visits. ``ay`` and ``b`` change only when a pair step moves, so
  one vector test lists the samples from the current one to the end of
  the sweep whose cached error could break KKT: tol + y_k E_k <= gap with
  alpha_k < C, or tol - y_k E_k <= gap with alpha_k > 0. Only these get
  the per-row dot and the exact KKT test, and after a move the list is
  rebuilt from the next sample.
- Partners. In the same permutation order, partner j of violator i is
  passed to ``_pair_step`` unless its predicted step plus a slack,

      |clip(a_i - y_i (E_j - e_i) / eta_j, lo_j, hi_j) - a_i| + gap / |eta_j|,

  is below ``_STEP_EPS``.
The exact KKT test, one ``rng.permutation`` per violator and
``_pair_step``, which takes the partner's error from its per-row dot,
decide everything, so the models are those of the unscreened loop, bit
for bit.

The signed box. y_i ay_j is alpha_j signed by y_i y_j, so with c_same
the vector of C at the samples of i's class and 0 elsewhere, and c_diff
its reverse, every partner's box is lo = max(0, (y_i ay + a_i) - c_same)
and hi = min(C, (c_diff + a_i) + y_i ay), with no branch. For both
classes of partner these are the scalar step's IEEE operations in its
order, apart from adding or subtracting a 0 entry, which is exact, so
the box is the scalar step's bit for bit. The box, eta and the predicted
step are taken over all n partners in sample order, and one mask keeps
those with a box at least ``_STEP_EPS`` wide, eta < 0 and a step that is
not small; the permutation reads the kept partners off that mask. The
two divisions by eta also run where eta >= 0 (at j = i, eta is exactly
0); the mask drops those entries, so their floating-point warnings are
silenced there alone.

The bound. Let u = 2**-53, S = sum(alpha) + |b| + 1 and T_k the exact
error of the current alphas and b. Every kernel entry lies in [0, 1] and
|ay_l| = alpha_l, so a dot over the n samples, in any summation order,
lies within gamma_n * sum(alpha) of the exact sum, gamma_n =
n u / (1 - n u) (Higham, Accuracy and Stability of Numerical Algorithms,
2002, section 3.1). Adding b and subtracting y_k round by at most u S
each, so the product and the per-row dot both lie within (n + 2) u S of
T, to first order in u. ``_screen_slack`` is 64 n u S.
- Drift. ``drift`` bounds |E_k - T_k|. It starts at the sweep's first
  slack, above (n + 2) u S. With S' the size after a move, the update's
  three differences round by at most u (S + S') together, and so do its
  two products; each of its three additions rounds by at most u times a
  partial sum below 2 (S + S'). That is 8 u (S + S') in all. ``drift`` grows
  by twice that, 16 u (S + S') = (slack + slack') / 4n, which also covers
  the terms of second order in u.
- Gap. So |E_k - e_k| <= drift + (n + 2) u S, and ``gap`` = drift +
  slack exceeds it by far more than a factor 1 + u. Rounding is monotone,
  so a sample with y_k e_k < -tol has fl(tol + y_k E_k) <= gap, and one
  with y_k e_k > tol has fl(tol - y_k E_k) <= gap: no violator is left
  off the list. A nan error keeps its sample.
- Steps. The predicted step rounds three more times, on values bounded by
  S or by 2 S / |eta_j|: the subtraction of e_i adds at most 4 u S, the
  division by eta_j 4 u S / |eta_j| and the subtraction from a_i <= S
  8 u S / |eta_j| (as |eta_j| <= 2); clipping only narrows the gap.
  Rounding |step| and its comparison with ``_STEP_EPS`` cost less than
  another u S / |eta_j|. So the two predicted steps differ by at most
  (drift + (n + 19) u S) / |eta_j|, and gap / |eta_j| exceeds that by
  more than 100 u S / |eta_j| for n >= 2. A step that is not finite keeps
  its partner.
"""

import math
from dataclasses import asdict, dataclass
from operator import itemgetter

import numpy as np

from ..errors import ConfigurationError
from ..util import derive_seed, make_rng
from .normalize import NormalizationParams, training_arrays

# Minimum change in an alpha for a pair step to count as progress.
_STEP_EPS = 1e-7
# Unit roundoff of float64, 2**-53.
_U = np.finfo(float).eps / 2
# Rows of the kernel whose squared distances are formed at a time.
_KERNEL_BLOCK = 64


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

    def kernel_gamma(self, width: int) -> float | None:
        """The RBF width training takes for rows of ``width`` features:
        the configured gamma, else 1 / ``width``; None for no gamma and
        no feature."""
        if self.gamma is not None:
            return self.gamma
        return 1.0 / width if width else None


@dataclass
class SvmModel:
    kind = "svm"
    support_vectors: np.ndarray   # (m, features), normalized space
    coefficients: np.ndarray      # (m,), alpha_i * y_i
    bias: float
    gamma: float
    normalization: NormalizationParams
    config: SvmConfig
    # Full training-time duals kept so feasibility is checkable.
    alphas: np.ndarray
    train_labels_pm: np.ndarray

    @property
    def input_width(self) -> int:
        return len(self.normalization.minimum)

    def decision_values(self, rows: np.ndarray) -> np.ndarray:
        x = self.normalization.apply(rows)
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
        sv, coefficients, alphas, labels_pm = (
            np.asarray(doc[key], dtype=float) for key in (
                "support_vectors", "coefficients", "alphas",
                "train_labels_pm"))
        if sv.size == 0:
            sv = sv.reshape(0, len(norm.minimum))
        if sv.ndim != 2 or coefficients.shape != sv.shape[:1] or not \
                norm.minimum.shape == norm.maximum.shape == sv.shape[1:]:
            raise ValueError(
                f"support vectors {sv.shape}, coefficients "
                f"{coefficients.shape} and normalization bounds "
                f"{norm.minimum.shape}, {norm.maximum.shape} disagree")
        if alphas.ndim != 1 or labels_pm.shape != alphas.shape:
            raise ValueError(f"alphas {alphas.shape} and train_labels_pm "
                             f"{labels_pm.shape} disagree")
        gamma = float(doc["gamma"])
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {gamma}")
        want = cfg.kernel_gamma(sv.shape[1])
        if gamma != want:
            raise ValueError(f"gamma {gamma!r} does not match the "
                             f"hyperparameters, which give {want!r}")
        return cls(support_vectors=sv, coefficients=coefficients,
                   bias=float(doc["bias"]), gamma=gamma,
                   normalization=norm, config=cfg, alphas=alphas,
                   train_labels_pm=labels_pm)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * max((|a_i|^2 + |b_j|^2) - 2 a_i . b_j, 0)) for all
    pairs, built in place (module docstring). A kernel that does not fit
    in memory is a ConfigurationError naming its rows and bytes."""
    try:
        out = (2.0 * a) @ b.T
        sa, sb = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
        for start in range(0, len(a), _KERNEL_BLOCK):
            block = slice(start, start + _KERNEL_BLOCK)
            rows = out[block]
            np.subtract(sa[block, None] + sb, rows, out=rows)
            np.maximum(rows, 0.0, out=rows)
            np.multiply(rows, -gamma, out=rows)
            np.exp(rows, out=rows)
    except MemoryError:
        raise ConfigurationError(
            f"an RBF kernel of {len(a)} x {len(b)} rows needs "
            f"{8 * len(a) * len(b):,} bytes, which do not fit in memory"
        ) from None
    return out


def _screen_slack(alphas, b):
    """64 n u (sum(alphas) + |b| + 1): bounds the gap between any sample's
    exact error and its per-row dot or a product's, and, divided by |eta|,
    the rounding of a predicted step, each with a safety factor of at
    least five (module docstring)."""
    return 64.0 * len(alphas) * _U * (float(alphas.sum()) + abs(b) + 1.0)


def _move_errors(errors, drift, slack, kernel, alphas, ay, b, i, j, old):
    """Add the change of a move of ``i`` and ``j`` to the cached errors in
    place; ``old`` holds ay_i, ay_j and the bias before it. ``drift``
    bounds the cached errors' gap from the exact ones and ``slack`` is
    ``_screen_slack`` before the move; returns both after it. The update
    rounds by at most 8 u (S + S'), and ``drift`` grows by twice that,
    (slack + slack') / 4n (module docstring)."""
    ay_i, ay_j, b_old = old
    errors += (ay[i] - ay_i) * kernel[:, i]
    errors += (ay[j] - ay_j) * kernel[:, j]
    errors += b - b_old
    new_slack = _screen_slack(alphas, b)
    return drift + (slack + new_slack) / (4 * len(alphas)), new_slack


def _pair_step(j, i, e_i, lo, hi, eta, alphas, ay, y, kernel, b, c):
    """One SMO update of partner ``j`` and violator ``i`` (error ``e_i``),
    for a pair the caller screened: ``i != j``, box [``lo``, ``hi``] at
    least ``_STEP_EPS`` wide, ``eta < 0``, and a step the cached errors
    do not show to stay under ``_STEP_EPS``. The partner's error comes
    from the exact per-row dot with ``ay = alphas * y`` and decides the
    move; a move updates both arrays. Returns (b, moved)."""
    e_j = float(kernel[j] @ ay + b - y[j])
    a_i_old, a_j_old = alphas[i], alphas[j]
    a_i = a_i_old - y[i] * (e_j - e_i) / eta
    a_i = min(hi, max(lo, a_i))
    if abs(a_i - a_i_old) < _STEP_EPS:
        return b, False
    a_j = a_j_old + y[i] * y[j] * (a_i_old - a_i)
    # The constraint keeps a_j inside [0, C] mathematically; rounding can
    # push it out by an ulp, so snap it back.
    a_j = min(c, max(0.0, a_j))
    alphas[i], alphas[j] = a_i, a_j
    ay[i], ay[j] = a_i * y[i], a_j * y[j]

    b1 = b - e_j - y[j] * (a_j - a_j_old) * kernel[j, j] \
        - y[i] * (a_i - a_i_old) * kernel[j, i]
    b2 = b - e_i - y[j] * (a_j - a_j_old) * kernel[j, i] \
        - y[i] * (a_i - a_i_old) * kernel[i, i]
    if 0.0 < a_j < c:
        return b1, True
    if 0.0 < a_i < c:
        return b2, True
    return (b1 + b2) / 2.0, True


def plan_svm(rows: np.ndarray, labels: np.ndarray, cfg: SvmConfig):
    """``(1, run, finish)`` for ``classifiers.train_many``: the row checks
    and normalization happen here, ``run(0)`` trains the model by SMO and
    ``finish`` takes it."""
    rows, labels = training_arrays(rows, labels, two_classes=True)

    norm = NormalizationParams.fit(rows)
    x = norm.apply(rows)
    y = 2.0 * labels - 1.0
    return 1, lambda _: _smo(x, y, norm, cfg), itemgetter(0)


def _smo(x, y, norm: NormalizationParams, cfg: SvmConfig) -> SvmModel:
    """The model of normalized rows ``x`` with +/-1 labels ``y``."""
    n = len(x)
    gamma = cfg.kernel_gamma(x.shape[1])

    kernel = rbf_kernel(x, x, gamma)
    diagonal = kernel.diagonal()
    # C at the samples of one class and 0 at the other's: the signed box's
    # constants for a violator of either class (module docstring).
    c_pos = np.where(y > 0, cfg.c, 0.0)
    c_neg = np.where(y > 0, 0.0, cfg.c)
    alphas = np.zeros(n)
    ay = alphas * y
    b = 0.0
    rng = make_rng(derive_seed(cfg.seed, "svm"))

    for _ in range(cfg.max_passes):
        violations = 0
        progressed = 0
        # Errors cached from one product, and the bound ``drift`` on their
        # gap from the exact errors (module docstring).
        errors = kernel @ ay + b - y
        slack = drift = _screen_slack(alphas, b)
        start = 0
        while start < n:
            # Samples whose cached error might break KKT by more than tol.
            gap = drift + slack
            r = y[start:] * errors[start:]
            clear = ((cfg.tol + r > gap) | (alphas[start:] >= cfg.c)) \
                & ((cfg.tol - r > gap) | (alphas[start:] <= 0.0))
            candidates = start + np.flatnonzero(~clear)
            start = n
            for i in candidates.tolist():
                e_i = float(kernel[i] @ ay + b - y[i])
                r_i = y[i] * e_i
                if not ((r_i < -cfg.tol and alphas[i] < cfg.c) or
                        (r_i > cfg.tol and alphas[i] > 0)):
                    continue
                violations += 1
                order = rng.permutation(n)
                # Box and eta of every (partner, i) pair by the scalar step's
                # operations in its order; eta is exactly 0 at partner i.
                a_i, y_i = alphas[i], y[i]
                c_same, c_diff = (c_pos, c_neg) if y_i > 0 else (c_neg, c_pos)
                signed = y_i * ay
                lo = np.maximum(0.0, signed + a_i - c_same)
                hi = np.minimum(cfg.c, c_diff + a_i + signed)
                eta = 2.0 * kernel[:, i] - diagonal - kernel[i, i]
                # Each partner's predicted step and slack; the entries at
                # eta >= 0, where these divisions can warn, are masked out.
                with np.errstate(divide="ignore", invalid="ignore"):
                    step = a_i - y_i * (errors - e_i) / eta
                    slack_p = -gap / eta
                step = np.minimum(hi, np.maximum(lo, step)) - a_i
                # Keep the movable partners whose step the cached errors do
                # not show to stay under _STEP_EPS; a nan step is not small,
                # so _pair_step decides it.
                keep = (hi - lo >= _STEP_EPS) & (eta < 0) \
                    & ~(np.abs(step) + slack_p < _STEP_EPS)
                moved = False
                for j in order[keep[order]].tolist():
                    old = ay[i], ay[j], b
                    b, moved = _pair_step(j, i, e_i, lo[j], hi[j], eta[j],
                                          alphas, ay, y, kernel, b, cfg.c)
                    if moved:
                        break
                if moved:
                    progressed += 1
                    drift, slack = _move_errors(errors, drift, slack, kernel,
                                                alphas, ay, b, i, j, old)
                    start = i + 1
                    break
        if violations == 0 or progressed == 0:
            break

    support = alphas > 0.0
    return SvmModel(support_vectors=x[support], coefficients=ay[support],
                    bias=b, gamma=gamma, normalization=norm, config=cfg,
                    alphas=alphas, train_labels_pm=y)
