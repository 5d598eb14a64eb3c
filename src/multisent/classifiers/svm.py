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
and hi = min(C, (c_diff + a_i) + y_i ay), with no branch on the
partner. For both classes of partner these are the scalar step's IEEE
operations in its order, apart from adding or subtracting a 0 entry,
which is exact, so the box is the scalar step's bit for bit. As y_i is
1 or -1, y_i ay is ay or -ay exactly, and adding -ay is subtracting ay,
so the box adds or subtracts ay with no product. Likewise the predicted
step starts from E - e_i or e_i - E, which is y_i (E - e_i) up to the
sign of a zero, a sign that clipping and |step| do not pass on. The
box, eta and the predicted step are taken over all n partners in sample
order, and one mask keeps those with a box at least ``_STEP_EPS`` wide,
eta < 0 and a step that is not small; the permutation reads the kept
partners off that mask. The two divisions by eta run only where eta < 0
(at j = i, eta is exactly 0), so they raise no floating-point warning
and none is silenced.

Work arrays. At n in the hundreds a numpy call costs about as much as
its arithmetic, so the KKT scan and the partner screen write every
vector into arrays made once per fold; a violator allocates only its
permutation and the kept partners read off it, and a move one n-vector.
Scalars are read as Python floats, the same double arithmetic without
numpy's scalar overhead. The screen's eta and the error update read
kernel[:, i]. When the kernel equals its transpose, checked once per fold
one ``_KERNEL_BLOCK`` of rows at a time, they read the contiguous row
kernel[i] instead, which holds the same bits. BLAS does not promise that
(2 a) a^T is symmetric, so a kernel that is not is read by columns.

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
_U = float(np.finfo(float).eps) / 2
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
            raise ConfigurationError(
                f"c must be finite and > 0, got {self.c}")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ConfigurationError(
                f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.tol < math.inf:
            raise ConfigurationError(
                f"tol must be finite and >= 0, got {self.tol}")
        if self.max_passes < 1:
            raise ConfigurationError(
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
    change = np.multiply(kernel[:, i], ay.item(i) - ay_i)
    errors += change
    errors += np.multiply(kernel[:, j], ay.item(j) - ay_j, out=change)
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
    y_i, y_j = y.item(i), y.item(j)
    e_j = float(kernel[j] @ ay) + b - y_j
    a_i_old, a_j_old = alphas.item(i), alphas.item(j)
    a_i = a_i_old - y_i * (e_j - e_i) / eta
    a_i = min(hi, max(lo, a_i))
    if abs(a_i - a_i_old) < _STEP_EPS:
        return b, False
    a_j = a_j_old + y_i * y_j * (a_i_old - a_i)
    # The constraint keeps a_j inside [0, C] mathematically; rounding can
    # push it out by an ulp, so snap it back.
    a_j = min(c, max(0.0, a_j))
    alphas[i], alphas[j] = a_i, a_j
    ay[i], ay[j] = a_i * y_i, a_j * y_j

    k_ji = kernel.item(j, i)
    b1 = b - e_j - y_j * (a_j - a_j_old) * kernel.item(j, j) \
        - y_i * (a_i - a_i_old) * k_ji
    b2 = b - e_i - y_j * (a_j - a_j_old) * k_ji \
        - y_i * (a_i - a_i_old) * kernel.item(i, i)
    if 0.0 < a_j < c:
        return b1, True
    if 0.0 < a_i < c:
        return b2, True
    return (b1 + b2) / 2.0, True


def _symmetric(kernel) -> bool:
    """Whether the square ``kernel`` equals its transpose, compared one
    ``_KERNEL_BLOCK`` of rows at a time, so that no n x n temporary is
    made. Kernel entries are never -0.0, so equal entries are equal bits."""
    return all(np.array_equal(kernel[start:start + _KERNEL_BLOCK, start:],
                              kernel[start:, start:start + _KERNEL_BLOCK].T)
               for start in range(0, len(kernel), _KERNEL_BLOCK))


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
    c, tol = cfg.c, cfg.tol

    kernel = rbf_kernel(x, x, gamma)
    diagonal = kernel.diagonal().copy()
    # columns[:, i] is kernel[:, i]; it reads row i of a symmetric kernel,
    # which is contiguous (module docstring).
    columns = kernel.T if _symmetric(kernel) else kernel
    # C at the samples of one class and 0 at the other's: the signed box's
    # constants for a violator of either class (module docstring).
    c_pos = np.where(y > 0, c, 0.0)
    c_neg = np.where(y > 0, 0.0, c)
    alphas = np.zeros(n)
    ay = alphas * y
    b = 0.0
    rng = make_rng(derive_seed(cfg.seed, "svm"))
    # Work arrays of the KKT scan and of the partner screen, made once.
    # slack_p starts finite, so the entries its masked division skips stay
    # finite.
    r, shifted, lo, hi, eta, step, width, slack_p = np.zeros((8, n))
    clear_low, clear_high, at_bound, movable, keep, small = np.empty(
        (6, n), dtype=bool)

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
            # clear_low: y_k E_k is not below -tol by the gap, or alpha_k is
            # at C; clear_high: not above tol by the gap, or alpha_k is 0.
            np.multiply(y, errors, out=r)
            np.greater(np.add(r, tol, out=shifted), gap, out=clear_low)
            np.logical_or(clear_low, np.greater_equal(alphas, c, out=at_bound),
                          out=clear_low)
            np.greater(np.subtract(tol, r, out=shifted), gap, out=clear_high)
            np.logical_or(clear_high, np.less_equal(alphas, 0.0, out=at_bound),
                          out=clear_high)
            flagged = np.logical_not(
                np.logical_and(clear_low, clear_high, out=clear_low),
                out=clear_low)
            candidates = (start + flagged[start:].nonzero()[0]).tolist()
            start = n
            for i in candidates:
                y_i, a_i = y.item(i), alphas.item(i)
                e_i = float(kernel[i] @ ay) + b - y_i
                r_i = y_i * e_i
                if not ((r_i < -tol and a_i < c) or (r_i > tol and a_i > 0)):
                    continue
                violations += 1
                order = rng.permutation(n)
                # Box and eta of every (partner, i) pair by the scalar step's
                # operations in its order; eta is exactly 0 at partner i. As
                # y_i is 1 or -1, the box adds or subtracts ay in place of
                # y_i ay, and the step starts from E - e_i or e_i - E in place
                # of y_i (E - e_i) (module docstring).
                if y_i > 0:
                    c_same, c_diff, signed_add = c_pos, c_neg, np.add
                    np.subtract(errors, e_i, out=step)
                else:
                    c_same, c_diff, signed_add = c_neg, c_pos, np.subtract
                    np.subtract(e_i, errors, out=step)
                np.maximum(0.0, np.subtract(signed_add(a_i, ay, out=lo),
                                            c_same, out=lo), out=lo)
                np.minimum(c, signed_add(np.add(c_diff, a_i, out=hi), ay,
                                         out=hi), out=hi)
                np.multiply(columns[:, i], 2.0, out=eta)   # 2 kernel[:, i]
                np.subtract(np.subtract(eta, diagonal, out=eta),
                            kernel.item(i, i), out=eta)
                # Each partner's predicted step and slack, divided only where
                # eta < 0; the other entries are masked out below.
                np.less(eta, 0.0, out=movable)
                np.divide(step, eta, out=step, where=movable)
                np.subtract(a_i, step, out=step)
                np.divide(-gap, eta, out=slack_p, where=movable)
                np.maximum(lo, step, out=step)
                np.subtract(np.minimum(hi, step, out=step), a_i, out=step)
                # Keep the movable partners whose step the cached errors do
                # not show to stay under _STEP_EPS; a nan step is not small,
                # so _pair_step decides it.
                np.greater_equal(np.subtract(hi, lo, out=width), _STEP_EPS,
                                 out=keep)
                np.logical_and(keep, movable, out=keep)
                np.less(np.add(np.abs(step, out=step), slack_p, out=step),
                        _STEP_EPS, out=small)
                np.logical_and(keep, np.logical_not(small, out=small),
                               out=keep)
                moved = False
                for j in order[keep[order]].tolist():
                    old = ay.item(i), ay.item(j), b
                    b, moved = _pair_step(j, i, e_i, lo.item(j), hi.item(j),
                                          eta.item(j), alphas, ay, y, kernel,
                                          b, c)
                    if moved:
                        break
                if moved:
                    progressed += 1
                    drift, slack = _move_errors(errors, drift, slack, columns,
                                                alphas, ay, b, i, j, old)
                    start = i + 1
                    break
        if violations == 0 or progressed == 0:
            break

    support = alphas > 0.0
    return SvmModel(support_vectors=x[support], coefficients=ay[support],
                    bias=b, gamma=gamma, normalization=norm, config=cfg,
                    alphas=alphas, train_labels_pm=y)
