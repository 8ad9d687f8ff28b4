"""Linear multi-class models: predictions, confidence margins, distances.

A model scores label y on input x as the dot product of the y-th weight row
with x.  The margin of (x, y) is the score of y minus the best other label's
score; it is positive exactly when the model classifies x as y (ties are
broken toward the lowest label id, so a zero margin on the winning label
still predicts it).  The model norm is the Frobenius norm of the weight
matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import positive
from .dataset import Dataset, format_value
from .exceptions import ConfigError, DataError


def frobenius_norms(weights: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of an (M, Y, p) stack, bit-equal to
    ``np.linalg.norm`` of each."""
    flat = weights.reshape(len(weights), math.prod(weights.shape[1:]))
    return np.sqrt(np.vecdot(flat, flat))


def outside_ball(norm: float | np.ndarray, radius: float) -> bool | np.ndarray:
    """Whether a Frobenius norm, or each of an array of them, exceeds the
    ball radius beyond rounding.  The slack, 1e-9 * max(1, radius), grows
    with the radius, so a radially projected matrix, whose norm can exceed
    the radius by a few ulps, lies inside at every scale."""
    return norm > radius + 1e-9 * max(1.0, radius)


@dataclass(frozen=True)
class LinearModel:
    """Weight matrix (one row per label) inside a Frobenius ball."""

    weights: np.ndarray  # (num_labels, p)
    radius: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a (num_labels, p) matrix")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        radius = positive("radius", self.radius)
        if outside_ball(np.linalg.norm(weights), radius):
            raise ValueError("weight norm exceeds the declared ball radius")
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "radius", radius)

    @property
    def num_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.weights.shape[1]

    @property
    def num_params(self) -> int:
        """Total parameter count num_labels * p (the noise dimension)."""
        return self.weights.size

    def scores(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.p,):
            raise ValueError(f"expected feature vector of length {self.p}, got {x.shape}")
        return self.weights @ x


def check_fits(weights: np.ndarray, d: Dataset) -> None:
    """Raise ValueError unless the (num_labels, p) weight matrix, or each
    matrix of a stack of them, has one row per label of d and one column
    per feature of d (intercept included)."""
    num_labels, p = weights.shape[-2:]
    if (num_labels, p) != (d.num_labels, d.p):
        raise ValueError(
            f"model has {num_labels} labels x {p} features but the data has "
            f"{d.num_labels} labels x {d.p} features (intercept included)"
        )


def predict_many(m: LinearModel, features: np.ndarray) -> np.ndarray:
    """Label with the highest score for each row of an (n, p) feature
    matrix; ties go to the lowest label id."""
    return np.argmax(features @ m.weights.T, axis=1)


def margin(m: LinearModel, x: np.ndarray, y: int) -> float:
    """Score of label y minus the best competing score."""
    if m.num_labels < 2:
        raise ValueError("margin is undefined for a single-label model")
    s = m.scores(x)
    if not 0 <= y < m.num_labels:
        raise ValueError(f"label {y} out of range")
    others = np.delete(s, y)
    return float(s[y] - np.max(others))


def margins_many(m: LinearModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized margin over (n, p) features and (n,) true labels.  The
    best other score is taken one label column at a time, which is exact
    in any order and far faster than a reduction along the short label
    axis."""
    if m.num_labels < 2:
        raise ValueError("margin is undefined for a single-label model")
    scores = features @ m.weights.T
    true = scores[np.arange(scores.shape[0]), labels]
    others = (np.where(labels == y, -np.inf, column) for y, column in enumerate(scores.T))
    return true - functools.reduce(np.maximum, others)


def distance(m: LinearModel, other: LinearModel) -> float:
    """Frobenius distance between the weight matrices."""
    if m.weights.shape != other.weights.shape:
        raise ValueError("models must have the same shape")
    return float(np.linalg.norm(m.weights - other.weights))


def clip_to_ball_many(weights: np.ndarray, radius: float) -> np.ndarray:
    """Each matrix of an (M, Y, p) stack radially projected onto the ball,
    checked as :class:`LinearModel` checks one model; matrices inside the
    ball are returned unchanged."""
    radius = positive("radius", radius)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    norms = frobenius_norms(weights)
    outside = norms > radius
    scale = np.divide(radius, norms, out=np.ones(norms.shape), where=outside)
    clipped = weights * scale[:, None, None]
    if outside_ball(frobenius_norms(clipped), radius).any():
        raise ValueError("weight norm exceeds the declared ball radius")
    return clipped


def clip_to_ball(weights: np.ndarray, radius: float) -> LinearModel:
    """Model whose weights are ``weights`` radially projected onto the ball:
    the one-model case of :func:`clip_to_ball_many`."""
    return LinearModel(clip_to_ball_many(np.asarray(weights)[None], radius)[0], radius)


def save_model(m: LinearModel, path: str) -> None:
    """Plain-text format: first line ``<num_labels> <p> <radius>``, then one
    space-separated row of weights per label, at full decimal precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.num_labels} {m.p} {format_value(float(m.radius))}\n")
        for row in m.weights:
            fh.write(" ".join(map(format_value, row)) + "\n")


def load_model(path: str) -> LinearModel:
    """The model of a file in :func:`save_model`'s format; a file that
    cannot be read, is not UTF-8, breaks the format, or holds anything but
    whitespace after the declared weight rows is a ``DataError`` naming
    it."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}")
    with fh:
        try:
            header = fh.readline().split()
            if len(header) != 3:
                raise DataError(f"{path}: malformed model header")
            num_labels, p = int(header[0]), int(header[1])
            radius = float(header[2])
            if num_labels < 1 or p < 1:
                raise ValueError("model dimensions must be positive")
            rows = []
            for _ in range(num_labels):
                row = [float(tok) for tok in fh.readline().split()]
                if len(row) != p:
                    raise ValueError("weight row has wrong length")
                rows.append(row)
            if fh.read().strip():
                raise DataError(f"{path}: content after the {num_labels} declared weight rows")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})")
        except ValueError as exc:
            raise DataError(f"{path}: malformed model file: {exc}")
    try:
        return LinearModel(np.asarray(rows), radius)
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{path}: {exc}")
