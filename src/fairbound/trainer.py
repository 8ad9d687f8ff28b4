"""Regularized softmax regression solved to high precision.

The training objective is the mean softmax cross-entropy plus a ridge term
(lam/2)*||W||_F^2.  This objective is lam-strongly-convex and
(B^2 + lam)-smooth where B bounds the feature norms, and each per-example
loss is (sqrt(2)*B + lam*R)-Lipschitz over the radius-R ball, because the
softmax-minus-onehot residual never exceeds sqrt(2) in Euclidean norm.
Those three constants drive every privacy noise scale and distance bound
downstream, so they are computed here, next to the loss they describe.

The log-sum-exp and softmax of each row of scores s follow the shifted
forms of Blanchard, Higham & Higham (2021), written out in NumPy exactly
as SciPy 1.17's ``logsumexp`` and ``softmax`` evaluate them, so the
weights are the same bits as a SciPy-based solve, whichever SciPy (if
any) is installed.  With
M = max(s), m the number of entries equal to M and r the sum of exp(s - M)
over the other entries, log-sum-exp is log1p(r/m) + log(m) + M, and the
softmax is exp(s - M) / sum(exp(s - M)).  Both come from one exp(s - M)
pass; an all-equal row gives r = 0 and so exactly log(Y) + M.

The solver is a damped Newton method started from zero: each iteration
builds the (Y*p) x (Y*p) Hessian from Y(Y+1)/2 weighted Gram products,
solves for the Newton step and backtracks it to an Armijo decrease, for
O(Y^2 n p^2 + (Y p)^3) time per iteration.  Strong convexity makes the
convergence quadratic near the optimum, so a handful of iterations reach a
1e-10 gradient norm.  Every operation is deterministic, so reruns are
bit-identical, which the end-to-end determinism guarantees require.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import at_least, positive
from .dataset import Dataset, Example
from .exceptions import ConvergenceError, DataError
from .model import LinearModel, outside_ball

DEFAULT_TOL = 1e-10
# Newton iterations.  Every case measured converged in at most 9: 15,000
# rows with 5 labels at lam = 1 down to 0.001, and 1,000 well-separated rows
# down to lam = 1e-4.  So the cap only stops a solve that has stalled.
DEFAULT_MAX_ITERS = 100

# Armijo sufficient-decrease fraction, and the number of step halvings tried
# before a Newton direction counts as failed.
_ARMIJO = 1e-4
_MAX_HALVINGS = 50

# Largest Newton Hessian fit_erm builds: (Y*p)^2 float64 entries in 256 MiB,
# so Y*p up to 5,792 weights.
MAX_HESSIAN_BYTES = 2**28


@dataclass(frozen=True)
class LossConstants:
    """Constants of the training loss on the radius-R ball.

    strong_convexity: the objective's strong convexity constant, which is
        the ridge weight lam.
    loss_lipschitz: upper bound on per-example gradient norms over the ball
        (sqrt(2)*B + lam*R).
    smoothness: upper bound on the objective's smoothness (B^2 + lam).

    Each constant, and the radius R, passes ``config.positive``, which
    raises a ``ConfigError`` naming it.
    """

    strong_convexity: float
    loss_lipschitz: float
    smoothness: float
    radius: float

    def __post_init__(self):
        # lam and R first: they are the arguments of constants(), which
        # derives the other two from them
        for name in ("strong_convexity", "radius", "loss_lipschitz", "smoothness"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))


def constants(d: Dataset, lam: float, radius: float) -> LossConstants:
    feature_bound = d.feature_norm_bound
    return LossConstants(
        strong_convexity=lam,
        loss_lipschitz=math.sqrt(2.0) * feature_bound + lam * radius,
        smoothness=feature_bound**2 + lam,
        radius=radius,
    )


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis: exp(s - max) / sum(exp(s - max))."""
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def log_sum_exp_softmax(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-sum-exp and softmax of (n, Y) ``scores``, both from
    one exp(s - max) pass.

    Log-sum-exp is log1p(r/m) + log(m) + max, with m the number of entries
    equal to the row max and r the sum of exp(s - max) over the others, so
    an all-equal row gives exactly log(Y) + max.  Both values equal
    SciPy's bit for bit on finite scores.  The row max and m
    are taken one label column at a time, which is exact in any order and
    far faster than a reduction along the short label axis; the two sums
    are NumPy's row sums, as in SciPy.
    """
    columns = scores.T
    top = functools.reduce(np.maximum, columns)
    count = sum(column == top for column in columns)
    shifted = np.exp(scores - top[:, None])
    rest = np.where(scores == top[:, None], 0.0, shifted).sum(axis=1)
    lse = np.log1p(rest / count) + np.log(count) + top
    return lse, shifted / shifted.sum(axis=1, keepdims=True)


def _objective(weights: np.ndarray, d: Dataset, lam: float) -> tuple[float, np.ndarray]:
    """Objective value at ``weights`` and the row-wise softmax of its
    scores, both from the one exp pass of :func:`log_sum_exp_softmax`."""
    scores = d.features @ weights.T
    lse, probs = log_sum_exp_softmax(scores)
    ce = lse - scores[np.arange(d.n), d.labels]
    return float(np.mean(ce) + 0.5 * lam * np.sum(weights**2)), probs


def loss(m: LinearModel, d: Dataset, lam: float) -> float:
    """Objective value: mean cross-entropy plus (lam/2)*||W||_F^2."""
    return _objective(m.weights, d, positive("lam", lam))[0]


def gradient(m: LinearModel, example: Example, lam: float) -> np.ndarray:
    """Per-example loss gradient: (softmax(Wx) - onehot(y)) x^T + lam*W."""
    lam = positive("lam", lam)
    residual = softmax(m.scores(example.features))
    residual[example.label] -= 1.0
    return np.outer(residual, example.features) + lam * m.weights


def residuals(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row-wise probs - onehot(labels), for ``probs`` the row-wise softmax
    of (n, Y) scores: each example's cross-entropy gradient with respect
    to its scores."""
    residual = probs.copy()
    residual[np.arange(len(labels)), labels] -= 1.0
    return residual


def _gradient(probs: np.ndarray, weights: np.ndarray, d: Dataset, lam: float) -> np.ndarray:
    """Objective gradient at ``weights``, given the row-wise softmax
    ``probs`` of its scores."""
    return residuals(probs, d.labels).T @ d.features / d.n + lam * weights


def empirical_gradient_second_moment(m: LinearModel, d: Dataset, lam: float) -> float:
    """Mean squared per-example gradient norm at m, the quantity the DP-SGD
    distance bound assumes is dominated by the injected noise variance.

    Example i's gradient is r_i x_i^T + lam*W with residual r_i (see
    :func:`residuals`), so its squared norm is
    |r_i|^2 |x_i|^2 + 2*lam * r_i.(W x_i) + lam^2 |W|^2.
    """
    lam = positive("lam", lam)
    scores = d.features @ m.weights.T
    residual = residuals(softmax(scores), d.labels)
    squared_norms = (
        np.sum(residual**2, axis=1) * np.sum(d.features**2, axis=1)
        + 2.0 * lam * np.sum(residual * scores, axis=1)
        + lam**2 * np.sum(m.weights**2)
    )
    return float(np.mean(squared_norms))


def _hessian(probs: np.ndarray, d: Dataset, lam: float) -> np.ndarray:
    """Objective Hessian on row-major vec(W): the (Y*p) x (Y*p) matrix
    (1/n) * sum_i (diag(s_i) - s_i s_i^T) kron x_i x_i^T + lam*I, with s_i
    example i's row of ``probs``, the softmax of its scores, built block by
    block from Y(Y+1)/2 weighted Gram products."""
    num_labels, p = probs.shape[1], d.p
    hess = np.empty((num_labels * p, num_labels * p))
    for a in range(num_labels):
        for b in range(a, num_labels):
            w = -probs[:, a] * probs[:, b]
            if a == b:
                w += probs[:, a]
            block = d.features.T @ (w[:, None] * d.features) / d.n
            hess[a * p : (a + 1) * p, b * p : (b + 1) * p] = block
            hess[b * p : (b + 1) * p, a * p : (a + 1) * p] = block.T
    hess[np.diag_indices_from(hess)] += lam
    return hess


def _line_search(
    weights: np.ndarray,
    value: float,
    grad: np.ndarray,
    grad_norm: float,
    direction: np.ndarray,
    d: Dataset,
    lam: float,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Backtrack the Newton step to an accepted point; returns its weights,
    objective value, score softmax and gradient.

    Each trial point is centred: the label-mean of its weight rows is
    subtracted.  The cross-entropy is invariant to a shift common to all
    rows, so centring can only lower the ridge term, and it keeps the
    iterates in the zero-sum subspace that holds the optimum when rounding
    in a near-singular Newton solve would move them along the flat
    direction.
    A step is accepted on Armijo decrease, or, at the rounding floor where
    the objective cannot resolve a decrease of about |grad|^2/lam, when its
    value rises by at most 8*eps*|f| and it lowers the gradient norm.
    The gradient is taken only there, from the softmax that came with the
    value.
    """
    slope = float(np.sum(grad * direction))
    floor = 8.0 * np.finfo(float).eps * abs(value)
    step = 1.0
    for _ in range(_MAX_HALVINGS):
        trial = weights + step * direction
        trial -= trial.mean(axis=0)
        trial_value, probs = _objective(trial, d, lam)
        armijo = trial_value <= value + _ARMIJO * step * slope
        if armijo or trial_value <= value + floor:
            trial_grad = _gradient(probs, trial, d, lam)
            if armijo or np.linalg.norm(trial_grad) < grad_norm:
                return trial, trial_value, probs, trial_grad
        step *= 0.5
    raise ConvergenceError(
        f"line search found no acceptable step at gradient norm {grad_norm:.3e}",
        gradient_norm=grad_norm,
    )


def fit_erm(
    d: Dataset,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    radius: Optional[float] = None,
    callback: Optional[Callable[[int, float, float], None]] = None,
) -> LinearModel:
    """Minimize the objective by damped Newton from the zero model.

    Stops when the gradient Frobenius norm drops to ``tol``; raises
    :class:`ConvergenceError` after ``max_iters`` Newton iterations, or at
    once when the Hessian is singular or no step along a Newton direction
    is accepted.  Raises :class:`DataError` before solving when the data
    has fewer than two rows per label, the mark of a label column holding
    a feature, when a feature row's norm overflows (see
    ``Dataset.feature_norm_bound``), or when the Newton Hessian would
    exceed ``MAX_HESSIAN_BYTES``.  The objective never increases between
    iterations beyond rounding.  Each trial point of the line search costs
    one (n, Y) score matrix and one exp(s - max) pass over it, which gives
    both the exact log-sum-exp of the objective value and the row softmax
    (see :func:`log_sum_exp_softmax`); once the step is accepted, that
    softmax gives the gradient and the next iteration's Hessian.  The
    returned model's ball radius defaults to twice the optimum's norm, so
    the ball constraint is inactive at the optimum; pass ``radius`` to
    override.
    ``callback(iteration, loss, grad_norm)`` is invoked once per iteration
    when given.  A ``lam``, ``tol`` or ``radius`` that is not positive and
    finite, or a ``max_iters`` below 1, is a ``ConfigError``.
    """
    lam, tol = positive("lam", lam), positive("tol", tol)
    max_iters = at_least(1)("max_iters", max_iters)
    if radius is not None:
        radius = positive("radius", radius)
    if 2 * d.num_labels > d.n:
        raise DataError(
            f"{d.num_labels} labels on {d.n} rows, fewer than two rows per label; "
            "does the label column hold a feature?"
        )
    d.feature_norm_bound  # a row whose norm overflows is a DataError
    hessian_bytes = (d.num_labels * d.p) ** 2 * np.dtype(float).itemsize
    if hessian_bytes > MAX_HESSIAN_BYTES:
        raise DataError(
            f"{d.num_labels} labels x {d.p} weights per label need a "
            f"{hessian_bytes / 2**20:.0f} MiB Newton Hessian, above the "
            f"{MAX_HESSIAN_BYTES / 2**20:.0f} MiB cap"
        )
    weights = np.zeros((d.num_labels, d.p))
    value, probs = _objective(weights, d, lam)
    grad = _gradient(probs, weights, d, lam)
    grad_norm = math.inf
    for iteration in range(max_iters):
        grad_norm = float(np.linalg.norm(grad))
        if callback is not None:
            callback(iteration, value, grad_norm)
        if grad_norm <= tol:
            break
        try:
            newton = np.linalg.solve(_hessian(probs, d, lam), -grad.ravel())
        except np.linalg.LinAlgError:
            # lam below the rounding of the Hessian entries leaves it singular
            raise ConvergenceError(
                f"singular Hessian at gradient norm {grad_norm:.3e}; lam {lam:.3e} is too small",
                gradient_norm=grad_norm,
            )
        newton = newton.reshape(grad.shape)
        weights, value, probs, grad = _line_search(
            weights, value, grad, grad_norm, newton, d, lam
        )
    else:
        raise ConvergenceError(
            f"gradient norm {grad_norm:.3e} above tol {tol:.3e} after {max_iters} iterations",
            gradient_norm=grad_norm,
        )

    norm = float(np.linalg.norm(weights))
    if radius is None:
        radius = 2.0 * norm if norm > 0 else 1.0
    elif outside_ball(norm, radius):
        raise ValueError(
            f"radius override {radius} is smaller than the optimum's norm {norm:.6g}; "
            "the unconstrained solver cannot honor it"
        )
    return LinearModel(weights, radius)
