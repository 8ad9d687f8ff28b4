"""Group fairness functionals as affine combinations of conditional accuracies.

Every supported notion is expressed in the unified form

    F_k = offset_k + sum_{k'} coeff[k, k'] * P(correct | group k'),

where the coefficients depend only on empirical group frequencies, never on
the model.  ``coefficients`` builds those tables; ``direct_fairness``
evaluates each notion's definitional formula straight from counts and serves
as the independent oracle that the affine form must reproduce exactly.
``group_fairness_many`` evaluates an (M, Y, p) stack of models under several
notions at once; every affine-form evaluation, one model included, goes
through it: ``group_fairness_all`` is its one-model case, and
``group_fairness(m, d, spec, k)`` is ``group_fairness_all(m, d, spec)[k]``.
Given a ``ScoringReference`` h*, it scores each model only on the examples
whose margin at h* the model's distance from h* lets it flip, and takes its
other correct counts from h*.  The counts are integers and
equal those of scoring every example, up to the rounding-level near ties
described at ``group_fairness_many``.

Supported notions and their group indexing:

- ``equalized_odds``: groups are (label, sensitive) cells, K = |Y|*|S|;
  F is the cell's accuracy minus the accuracy of its label stratum.
- ``equality_of_opportunity``: same indexing; rows for labels outside the
  desirable set are identically zero.
- ``accuracy_parity``: groups are sensitive values, K = |S|; F is the
  group's accuracy minus overall accuracy.
- ``demographic_parity_binary``: binary labels only, groups are (label,
  sensitive) cells; F is P(predict label | sensitive group) minus
  P(predict label).
- ``accuracy``: single group; F is plain accuracy (used for accuracy
  bounds via the same machinery).

Zero-mass convention: a coefficient whose defining conditional probability
conditions on an empty event is set to 0 and flagged; conditional
accuracies of empty groups evaluate to 0 and are flagged.  The affine form
and the definitional formula agree to machine precision whenever no flag is
raised; flagged values are still returned so sweeps over small samples
never abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, GroupPartition, partition, single_group_partition
from .exceptions import ConfigError, DataError
from .model import LinearModel, check_fits, frobenius_norms, predict_many

# Models are scored DRAW_BLOCK at a time.  With a reference, a block is
# scored on the longest prefix any of its models needs, so small blocks
# prune more and large ones pay less per call: on the 400-draw, 4,000-row
# sweep-eps-op points 25 draws scored fastest, and 50 or 100 were slower.
# A block's scores are computed at most SCORE_BLOCK (model, label, example)
# scores at a time, so working memory grows with neither the model nor the
# example count.  2**15 keeps peak memory at its level before pruning;
# 2**18 scored no faster and added about 1.5 MB to a sweep-eps-op op.  The
# bound also keeps each float32 count of a chunk, a sum of at most
# SCORE_BLOCK ones, exact.
DRAW_BLOCK = 25
SCORE_BLOCK = 1 << 15

NOTIONS = (
    "equalized_odds",
    "equality_of_opportunity",
    "accuracy_parity",
    "demographic_parity_binary",
    "accuracy",
)


@dataclass(frozen=True)
class FairnessSpec:
    """Coefficient realization of one fairness notion on one dataset."""

    notion: str
    partition: GroupPartition
    offsets: np.ndarray  # (K,)
    coeffs: np.ndarray  # (K, K)
    flags: tuple[str, ...]

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.float64)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        k = self.partition.num_groups
        if offsets.shape != (k,) or coeffs.shape != (k, k):
            raise ValueError("coefficient shapes must match the group count")
        if not (np.all(np.isfinite(offsets)) and np.all(np.isfinite(coeffs))):
            raise ValueError("coefficients must be finite")
        offsets.setflags(write=False)
        coeffs.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def num_groups(self) -> int:
        return self.partition.num_groups


def _cell_index(label: int, sensitive: int, num_sensitive: int) -> int:
    return label * num_sensitive + sensitive


def coefficients(d: Dataset, notion: str, desirable: frozenset[int] | None = None) -> FairnessSpec:
    """Build the coefficient tables of a notion from empirical frequencies.

    Demographic parity on data whose labels are not binary is a
    ``DataError``; an empty ``desirable`` set, or one naming a label id
    the data lacks, is a ``ConfigError`` for equality of opportunity."""
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}")
    flags: list[str] = []

    if notion == "accuracy":
        return FairnessSpec(
            notion=notion,
            partition=single_group_partition(d),
            offsets=np.zeros(1),
            coeffs=np.ones((1, 1)),
            flags=(),
        )

    if notion == "accuracy_parity":
        part = partition(d, "by_sensitive")
        ns = d.num_sensitive
        p_s = np.bincount(d.sensitive, minlength=ns) / d.n
        coeffs = np.tile(-p_s, (ns, 1))
        coeffs[np.arange(ns), np.arange(ns)] += 1.0
        return FairnessSpec(
            notion=notion,
            partition=part,
            offsets=np.zeros(ns),
            coeffs=coeffs,
            flags=(),
        )

    part = partition(d, "by_label_and_sensitive")
    ny, ns = d.num_labels, d.num_sensitive
    k_total = ny * ns
    cell_counts = np.zeros((ny, ns))
    np.add.at(cell_counts, (d.labels, d.sensitive), 1.0)
    label_counts = cell_counts.sum(axis=1)
    sens_counts = cell_counts.sum(axis=0)

    offsets = np.zeros(k_total)
    coeffs = np.zeros((k_total, k_total))

    if notion in ("equalized_odds", "equality_of_opportunity"):
        if notion == "equality_of_opportunity":
            if not desirable:
                raise ConfigError("equality_of_opportunity requires a nonempty desirable label set")
            desirable = frozenset(int(y) for y in desirable)
            if any(y < 0 or y >= ny for y in desirable):
                raise ConfigError(
                    f"desirable labels out of range: {sorted(desirable)}; the data has {ny} labels"
                )
        for y in range(ny):
            if notion == "equality_of_opportunity" and y not in desirable:
                continue  # row stays identically zero
            if label_counts[y] == 0:
                flags.append(f"zero_mass_label:{d.label_values[y]}")
                continue  # P(S=.|Y=y) undefined: affected coefficients stay 0
            p_s_given_y = cell_counts[y] / label_counts[y]
            for r in range(ns):
                k = _cell_index(y, r, ns)
                coeffs[k, _cell_index(y, r, ns)] = 1.0 - p_s_given_y[r]
                for r2 in range(ns):
                    if r2 != r:
                        coeffs[k, _cell_index(y, r2, ns)] = -p_s_given_y[r2]
    else:  # demographic_parity_binary
        if ny != 2:
            raise DataError(f"demographic parity needs binary labels; the data has {ny}")
        p_y = label_counts / d.n
        p_joint = cell_counts / d.n
        for y in range(2):
            yb = 1 - y
            for r in range(ns):
                k = _cell_index(y, r, ns)
                if sens_counts[r] == 0:
                    flags.append(f"zero_mass_sensitive:{d.sensitive_values[r]}")
                    # offset and the two own-column coefficients need
                    # P(.|S=r); they stay 0
                else:
                    p_y_given_r = cell_counts[:, r] / sens_counts[r]
                    offsets[k] = p_y[y] - p_y_given_r[y]
                    coeffs[k, _cell_index(y, r, ns)] = p_y_given_r[y] - p_joint[y, r]
                    coeffs[k, _cell_index(yb, r, ns)] = p_joint[yb, r] - p_y_given_r[yb]
                for r2 in range(ns):
                    if r2 != r:
                        coeffs[k, _cell_index(y, r2, ns)] = -p_joint[y, r2]
                        coeffs[k, _cell_index(yb, r2, ns)] = p_joint[yb, r2]

    return FairnessSpec(
        notion=notion,
        partition=part,
        offsets=offsets,
        coeffs=coeffs,
        flags=tuple(dict.fromkeys(flags)),
    )


class _Layout:
    """The examples of a dataset in scoring order, with the one-hot group
    matrices of several partitions side by side in the same order (float32,
    which holds each count of a chunk exactly; see ``SCORE_BLOCK``).

    The examples are sorted by label (stably), so each label's examples form
    one segment; with ``key``, each segment is sorted by it in turn.  The
    features are stored transposed, one example per column, because a
    matrix product reads a column range of that faster than a row range
    of the (n, p) matrix.
    """

    def __init__(
        self, d: Dataset, partitions: Sequence[GroupPartition], key: np.ndarray | None = None
    ):
        if key is None:
            self.order = np.argsort(d.labels, kind="stable")
        else:
            self.order = np.lexsort((key, d.labels))
        self.features_t = np.ascontiguousarray(d.features[self.order].T)
        sizes = np.bincount(d.labels, minlength=d.num_labels)
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.ends = np.cumsum([part.num_groups for part in partitions])
        self.onehot = np.zeros((d.n, self.ends[-1]), dtype=np.float32)
        for part, end in zip(partitions, self.ends):
            self.onehot[np.arange(d.n), end - part.num_groups + part.assignment[self.order]] = 1.0

    def segments(self):
        """(label, first row, end row) of each label's segment."""
        return zip(range(len(self.bounds) - 1), self.bounds[:-1], self.bounds[1:])


def _correct(weights: np.ndarray, features_t: np.ndarray, y: int) -> np.ndarray:
    """(M, n) flags: whether each model of the (M, Y, p) stack classifies
    each column of the (p, n) ``features_t``, all of label y, correctly.
    That is exactly when row y's score beats every lower label's row
    strictly and every higher label's row or ties it: argmax with ties
    going to the lowest label."""
    num_models, num_labels, p = weights.shape
    scores = (weights.reshape(num_models * num_labels, p) @ features_t).reshape(
        num_models, num_labels, features_t.shape[1]
    )
    true = scores[:, y]
    correct = np.ones(true.shape, dtype=bool) if num_labels == 1 else None
    for other in range(num_labels):
        if other != y:
            beats = np.greater if other < y else np.greater_equal
            flags = beats(true, scores[:, other])
            correct = flags if correct is None else np.logical_and(correct, flags, out=correct)
    return correct


class ScoringReference:
    """A model h* prepared so that :func:`group_fairness_many` scores each
    model of a stack only on the rows that its distance from h* lets it
    flip, and takes the rest of its counts from h*.

    ``ratio`` holds, per example of ``d``, the ratio |m|/L of h*'s margin
    to its Lipschitz constant, as ``MarginProfile.ratio`` of h*'s margin
    profile on ``d`` gives it.  The reference serves only ``d`` and
    ``partitions``, the very objects it was built with.
    """

    def __init__(
        self,
        weights: np.ndarray,
        ratio: np.ndarray,
        d: Dataset,
        partitions: Sequence[GroupPartition],
    ):
        weights = np.asarray(weights, dtype=np.float64)
        check_fits(weights, d)
        if np.shape(ratio) != (d.n,):
            raise ValueError(f"ratio must have one entry per example of the data, {d.n}")
        self.data = d
        self.partitions = tuple(partitions)
        self.weights = weights
        self.norm = float(np.linalg.norm(weights))
        # 8g of the derivation in _correct_counts
        k = (weights.shape[0] + 1) * weights.shape[1] + 4
        self.widening = 8.0 * k * 2.0**-53 / (1.0 - k * 2.0**-53)
        self.layout = _Layout(d, partitions, key=ratio)
        self.ratio = np.asarray(ratio, dtype=np.float64)[self.layout.order]
        correct = np.concatenate(
            [_correct(weights[None], self.layout.features_t[:, lo:hi], y)[0]
             for y, lo, hi in self.layout.segments()]
        )
        # per-group counts of the rows before each position that h* gets
        # right; int32 holds any count of a dataset that fits in memory
        self.correct_before = np.zeros((d.n + 1, self.layout.ends[-1]), dtype=np.int32)
        np.cumsum(self.layout.onehot * correct[:, None], axis=0, dtype=np.int32,
                  out=self.correct_before[1:])


def _correct_counts(
    weights: np.ndarray,
    d: Dataset,
    partitions: Sequence[GroupPartition],
    reference: ScoringReference | None = None,
) -> list[np.ndarray]:
    """Per partition, the (M, K) integer count of each group's examples that
    each of the M stacked (M, Y, p) models classifies correctly.

    Models are scored a block at a time (see ``DRAW_BLOCK``), each label's
    segment of examples in chunks of at most ``SCORE_BLOCK`` scores, with
    one matrix product and the comparisons of :func:`_correct` per chunk.
    The 0/1 flags of a chunk are multiplied by the one-hot group matrices
    of all partitions side by side; each product sums at most
    ``SCORE_BLOCK`` ones, so every count is exact.

    Without a reference every example is scored.  With a reference h*, the
    models are taken in order of their distance d' from h*, computed here.
    A block scores each label's segment only on its prefix of examples
    whose ratio r = |m|/L at h* is at most t(d') = d' + 8g(d' + ||h*||), d'
    the block's largest distance; each model's counts on the other examples
    are h*'s.  The result is exactly the every-example count, because a
    model classifies each skipped example as h* does, in floating point:

    - Let u = 2**-53, gamma_k = k*u / (1 - k*u) and g = gamma_k at
      k = (Y + 1)p + 4, which bounds each relative rounding below.
      Underflow and overflow are left out.
    - A p-term dot product w.x computed in any order, with or without FMA,
      is within gamma_p ||w|| ||x|| of its exact value, and a weight row's
      norm is at most its model's.  So a model W at exact distance d from
      h* has every score within g(||h*|| + d)||x||, and h* within
      g||h*|| ||x||.
    - Take an example x of label y and L = 2||x||.  Its margin m at h* is
      the smallest exact gap s_y - s_y' over the labels y' != y.  Going
      from h* to W moves each gap by (W - h*)_y.x - (W - h*)_y'.x, at most
      sqrt(2) d ||x|| <= L d in size.
    - So if |m| > L d + 2g(||h*|| + d)||x||, the computed scores of W and
      of h* order the labels alike where it matters: for m > 0 label y
      beats every other label strictly under both, and for m < 0 the label
      whose gap is m beats y strictly under both.  In ratio units the
      condition is |m|/L > d + g(||h*|| + d).
    - The ratio is computed too.  The profile's margin is within
      2g||h*|| ||x|| of m, and r = fl(|m'|/fl(L)) of that margin m' gives
      |m'| >= r L (1 - g); so |m|/L >= r(1 - g) - g||h*||.  The computed
      distance gives d <= d'/(1 - g).
    - For g <= 0.01 the condition then holds once
      r > d' + 4g(d' + ||h*||).  t doubles that widening to cover the
      rounding of t and of ||h*||.

    An example with L = 0 is the zero vector: every model scores it 0 on
    every label, and its ratio is infinite.
    """
    num_models, num_labels = weights.shape[:2]
    if reference is None:
        layout = _Layout(d, partitions)
        order = np.arange(num_models)
    else:
        if d is not reference.data or [*map(id, partitions)] != [*map(id, reference.partitions)]:
            raise ValueError("the scoring reference was built for other data or partitions")
        layout = reference.layout
        dists = frobenius_norms(weights - reference.weights)
        order = np.argsort(dists, kind="stable")
    counts = np.empty((num_models, layout.ends[-1]), dtype=np.int64)
    for b0 in range(0, num_models, DRAW_BLOCK):
        block = order[b0 : b0 + DRAW_BLOCK]
        block_weights = weights[block]
        rows_per_chunk = max(1, SCORE_BLOCK // (len(block) * num_labels))
        if reference is None:
            stops = layout.bounds[1:]
            block_counts = np.zeros(layout.ends[-1])
        else:
            dist = dists[block[-1]]
            limit = dist + reference.widening * (dist + reference.norm)
            stops = np.array(
                [lo + np.searchsorted(reference.ratio[lo:hi], limit, side="right")
                 for _, lo, hi in layout.segments()]
            )
            skipped = reference.correct_before[layout.bounds[1:]] - reference.correct_before[stops]
            block_counts = skipped.sum(axis=0).astype(np.float64)
        for (y, lo, _), stop in zip(layout.segments(), stops):
            for start in range(lo, stop, rows_per_chunk):
                end = min(start + rows_per_chunk, stop)
                correct = _correct(block_weights, layout.features_t[:, start:end], y)
                block_counts = block_counts + correct.astype(np.float32) @ layout.onehot[start:end]
        counts[block] = block_counts
    return np.split(counts, layout.ends[:-1], axis=1)


def _accuracies(counts: np.ndarray, part: GroupPartition) -> tuple[np.ndarray, np.ndarray]:
    """Correct counts divided by group sizes, and the mask of empty groups
    (whose accuracies are 0)."""
    sizes = np.bincount(part.assignment, minlength=part.num_groups)
    empty = sizes == 0
    values = np.divide(counts, sizes, out=np.zeros(counts.shape), where=~empty)
    return values, empty


def conditional_accuracies(
    m: LinearModel, d: Dataset, part: GroupPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group accuracies and the mask of empty (flagged) groups."""
    check_fits(m.weights, d)
    (counts,) = _correct_counts(m.weights[None], d, [part])
    return _accuracies(counts[0], part)


def group_fairness(m: LinearModel, d: Dataset, spec: FairnessSpec, k: int) -> float:
    """Fairness level of group k under the affine form; positive means the
    group is advantaged relative to its reference population."""
    if not 0 <= k < spec.num_groups:
        raise ValueError(f"group {k} out of range")
    return float(group_fairness_all(m, d, spec)[k])


def group_fairness_many(
    weights: np.ndarray,
    d: Dataset,
    specs: Sequence[FairnessSpec],
    reference: ScoringReference | None = None,
) -> list[np.ndarray]:
    """Fairness levels of the M models of an (M, Y, p) weight stack under
    several specs in one pass.

    Returns one (M, K) array per spec.  Row j has the correct counts of
    ``group_fairness_all(LinearModel(weights[j], R), d, spec)`` except on
    an example where model j's two best label scores tie to within the
    rounding of the BLAS matrix product, which varies with the product's
    shape: such an example may count as correct in one stack and not in
    another.  Every model must have the data's (num_labels, p) shape.  A
    ``reference`` built for ``d`` and the specs' partitions, in order,
    saves scoring each model on the examples it cannot flip.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3 or len(weights) == 0:
        raise ValueError("an (M, num_labels, p) stack of at least one model is required")
    check_fits(weights, d)
    counts = _correct_counts(weights, d, [spec.partition for spec in specs], reference)
    levels = []
    for spec, spec_counts in zip(specs, counts):
        values, _ = _accuracies(spec_counts, spec.partition)
        # a batched matrix-vector product runs one gemv per model, so each
        # row rounds as spec.coeffs @ v alone, however many models there
        # are; values @ coeffs.T, einsum and vecdot round differently
        levels.append(spec.offsets + (spec.coeffs @ values[:, :, None])[:, :, 0])
    return levels


def group_fairness_all(m: LinearModel, d: Dataset, spec: FairnessSpec) -> np.ndarray:
    """Per-group fairness levels of one model: the one-model case of
    :func:`group_fairness_many`."""
    return group_fairness_many(m.weights[None], d, [spec])[0][0]


def direct_fairness(
    m: LinearModel,
    d: Dataset,
    notion: str,
    k: int,
    desirable: frozenset[int] | None = None,
) -> float:
    """Evaluate the notion's definitional formula straight from counts.

    Independent of the coefficient tables; conditional probabilities over
    zero-mass events evaluate to 0, mirroring the table convention.
    """
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}")
    predictions = predict_many(m, d.features)
    correct = predictions == d.labels

    def cond_mean(values: np.ndarray, mask: np.ndarray) -> float:
        total = int(np.sum(mask))
        if total == 0:
            return 0.0
        return float(np.sum(values & mask) / total)

    if notion == "accuracy":
        if k != 0:
            raise ValueError("accuracy has a single group")
        return float(np.mean(correct))

    if notion == "accuracy_parity":
        if not 0 <= k < d.num_sensitive:
            raise ValueError(f"group {k} out of range")
        in_group = d.sensitive == k
        return cond_mean(correct, in_group) - float(np.mean(correct))

    y, r = divmod(k, d.num_sensitive)
    if y >= d.num_labels:
        raise ValueError(f"group {k} out of range")

    if notion in ("equalized_odds", "equality_of_opportunity"):
        if notion == "equality_of_opportunity":
            if not desirable:
                raise ValueError("equality_of_opportunity requires a nonempty desirable label set")
            if y not in desirable:
                return 0.0
        in_cell = (d.labels == y) & (d.sensitive == r)
        in_label = d.labels == y
        return cond_mean(correct, in_cell) - cond_mean(correct, in_label)

    # demographic_parity_binary
    if d.num_labels != 2:
        raise ValueError("demographic parity is defined for binary labels only")
    predicted_y = predictions == y
    in_group = d.sensitive == r
    return cond_mean(predicted_y, in_group) - float(np.mean(predicted_y))
