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

Every group of every notion is a union of (label, sensitive) cells, so the
layer counts in cells: ``coefficients`` reads every table off one table of
cell counts, the scorer counts each model's correct predictions per cell,
and each spec sums those counts into its groups, whose sizes it reads
from its partition's ``GroupPartition.sizes``.  Given a
``ScoringReference`` h*, which serves every spec on its data, the scorer
scores each model only on the examples whose margin at h* it could move
past zero, and takes its other counts from h*.  A margin of label y moves
by (W - h*)_y.x - (W - h*)_y'.x, so its reach is set by the largest
difference of two label rows of W - h*, not by the Frobenius distance.
The counts are integers and equal those of scoring every example, up to
the rounding-level near ties described at ``group_fairness_many``.

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

from .config import one_of
from .dataset import Dataset, GroupPartition, partition, single_group_partition
from .exceptions import ConfigError, DataError
from .model import LinearModel, check_fits, frobenius_norms, predict_many

# Models are scored DRAW_BLOCK at a time.  With a reference, a block is
# scored on the longest prefix any of its models needs, so small blocks
# prune more and large ones pay less per call: on the 400-draw, 4,000-row
# sweep-eps-op points, blocks of 25, 50 and 100 draws, with SCORE_BLOCK at
# 2**15 or 2**16, scored within the noise of one another (medians of 28 to
# 31 ms over 20 points on a 2-core box).
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
notion_name = one_of(*NOTIONS)  # accepts accuracy-parity for accuracy_parity


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


def _minus_mean(p: np.ndarray) -> np.ndarray:
    """I - 1 p^T: row k maps a vector v to v_k - p.v."""
    m = np.tile(-p, (len(p), 1))
    m[np.arange(len(p)), np.arange(len(p))] += 1.0
    return m


def _desirable_labels(desirable: frozenset[int] | None, num_labels: int) -> frozenset[int]:
    """The desirable label ids of equality of opportunity; an empty set, or
    one naming a label id outside the data's ``num_labels``, is a
    ``ConfigError``."""
    if not desirable:
        raise ConfigError("equality_of_opportunity requires a nonempty desirable label set")
    desirable = frozenset(int(y) for y in desirable)
    if any(y < 0 or y >= num_labels for y in desirable):
        raise ConfigError(
            f"desirable labels out of range: {sorted(desirable)}; the data has {num_labels} labels"
        )
    return desirable


def _check_binary_labels(num_labels: int) -> None:
    """Demographic parity is defined for binary labels only; data with
    ``num_labels`` other than 2 is a ``DataError``."""
    if num_labels != 2:
        raise DataError(f"demographic parity needs binary labels; the data has {num_labels}")


def coefficients(d: Dataset, notion: str, desirable: frozenset[int] | None = None) -> FairnessSpec:
    """Build the coefficient tables of a notion from empirical frequencies,
    all read off one table of (label, sensitive) cell counts.

    Demographic parity on data whose labels are not binary is a
    ``DataError``; an empty ``desirable`` set, or one naming a label id
    the data lacks, is a ``ConfigError`` for equality of opportunity.
    ``notion`` passes :data:`notion_name`."""
    notion = notion_name("notion", notion)

    if notion == "accuracy":
        return FairnessSpec(notion, single_group_partition(d), np.zeros(1), np.ones((1, 1)), ())
    ny, ns = d.num_labels, d.num_sensitive
    table = np.bincount(d.cells, minlength=ny * ns).reshape(ny, ns)
    label_counts, sens_counts = table.sum(axis=1), table.sum(axis=0)
    if notion == "accuracy_parity":
        coeffs = _minus_mean(sens_counts / d.n)
        return FairnessSpec(notion, partition(d, "by_sensitive"), np.zeros(ns), coeffs, ())

    offsets = np.zeros(ny * ns)
    coeffs = np.zeros((ny * ns, ny * ns))
    # blocks[y, r, y2, r2] is the coefficient of cell (y2, r2) in group (y, r)
    blocks = coeffs.reshape(ny, ns, ny, ns)
    flags: list[str] = []

    if notion in ("equalized_odds", "equality_of_opportunity"):
        if notion == "equality_of_opportunity":
            desirable = _desirable_labels(desirable, ny)
        for y in range(ny):
            if notion == "equality_of_opportunity" and y not in desirable:
                continue  # row stays identically zero
            if label_counts[y] == 0:
                flags.append(f"zero_mass_label:{d.label_values[y]}")
                continue  # P(S=.|Y=y) undefined: affected coefficients stay 0
            blocks[y, :, y] = _minus_mean(table[y] / label_counts[y])
    else:  # demographic_parity_binary
        _check_binary_labels(ny)
        nonempty = sens_counts > 0
        flags = [f"zero_mass_sensitive:{d.sensitive_values[r]}" for r in np.flatnonzero(~nonempty)]
        p_joint = table / d.n
        # P(Y=.|S=r), 0 where S=r is empty, so that both own-cell
        # coefficients of an empty r are 0.0 - 0.0 = +0
        p_given_s = np.divide(table, sens_counts, out=np.zeros((2, ns)), where=nonempty)
        # group (y, r): -P(y, r2) on label y's cells, +P(1-y, r2) on the other's
        sign = 1.0 - 2.0 * np.eye(2)
        blocks[...] = sign[:, None, :, None] * p_joint
        y, r = np.arange(2)[:, None], np.arange(ns)
        blocks[y, r, y, r] = p_given_s - p_joint
        blocks[y, r, 1 - y, r] = p_joint[::-1] - p_given_s[::-1]
        # the offset needs P(.|S=r); it stays 0 where S=r is empty
        offsets = np.where(nonempty, (label_counts / d.n)[:, None] - p_given_s, 0.0).ravel()

    part = partition(d, "by_label_and_sensitive")
    return FairnessSpec(notion, part, offsets, coeffs, tuple(dict.fromkeys(flags)))


class _Layout:
    """The examples of a dataset in scoring order, with the one-hot matrix
    of their sensitive values in the same order (float32, which holds each
    count of a chunk exactly; see ``SCORE_BLOCK``).

    The examples are sorted by label (stably), so each label's examples form
    one segment, and a segment's one-hot columns are its label's cells;
    with ``key``, each segment is sorted by it in turn.  The features are
    stored transposed, one example per column, because a matrix product
    reads a column range of that faster than a row range of the (n, p)
    matrix.
    """

    def __init__(self, d: Dataset, key: np.ndarray | None = None):
        if key is None:
            self.order = np.argsort(d.labels, kind="stable")
        else:
            self.order = np.lexsort((key, d.labels))
        self.features_t = np.ascontiguousarray(d.features[self.order].T)
        sizes = np.bincount(d.labels, minlength=d.num_labels)
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))
        self.onehot = np.zeros((d.n, d.num_sensitive), dtype=np.float32)
        self.onehot[np.arange(d.n), d.sensitive[self.order]] = 1.0

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
    model W of a stack only on the rows whose margin at h* W could move
    past zero, and takes the rest of its counts from h*.  A row's margin
    moves by at most D||x||, D the largest norm of a difference of two
    label rows of W - h*; so W scores a row only if its ratio is at most
    W's reach, about D/2 (see :func:`_correct_counts`).

    ``ratio`` holds, per example of ``d``, the ratio |m|/L of h*'s margin
    to its Lipschitz constant L = 2||x||, as ``MarginProfile.ratio`` of
    h*'s margin profile on ``d`` gives it.  The reference knows no groups:
    it keeps h*'s correct counts per (label, sensitive) cell, so it serves
    every spec on ``d``, the very dataset object it was built with, and no
    other.
    """

    def __init__(self, weights: np.ndarray, ratio: np.ndarray, d: Dataset):
        weights = np.asarray(weights, dtype=np.float64)
        check_fits(weights, d)
        if np.shape(ratio) != (d.n,):
            raise ValueError(f"ratio must have one entry per example of the data, {d.n}")
        self.data = d
        self.weights = weights
        self.norm = float(np.linalg.norm(weights))
        # 8g of the derivation in _correct_counts
        k = (weights.shape[0] + 1) * weights.shape[1] + 4
        self.widening = 8.0 * k * 2.0**-53 / (1.0 - k * 2.0**-53)
        self.layout = _Layout(d, key=ratio)
        self.ratio = np.asarray(ratio, dtype=np.float64)[self.layout.order]
        correct = np.concatenate(
            [_correct(weights[None], self.layout.features_t[:, lo:hi], y)[0]
             for y, lo, hi in self.layout.segments()]
        )
        # per sensitive value, the count of the rows before each position
        # that h* gets right; within a label's segment these are the counts
        # of its cells.  int32 holds any count of a dataset that fits in memory
        self.correct_before = np.zeros((d.n + 1, d.num_sensitive), dtype=np.int32)
        np.cumsum(self.layout.onehot * correct[:, None], axis=0, dtype=np.int32,
                  out=self.correct_before[1:])


def _correct_counts(
    weights: np.ndarray, d: Dataset, reference: ScoringReference | None = None
) -> np.ndarray:
    """The (M, |Y|*|S|) integer count of each (label, sensitive) cell's
    examples that each of the M stacked (M, Y, p) models classifies
    correctly; cell (y, r) is column y*|S| + r, as ``Dataset.cells``.

    Models are scored a block at a time (see ``DRAW_BLOCK``), each label's
    segment of examples in chunks of at most ``SCORE_BLOCK`` scores, with
    one matrix product and the comparisons of :func:`_correct` per chunk.
    The 0/1 flags of a chunk of label y's segment are multiplied by the
    one-hot matrix of the sensitive values, which gives the counts of
    label y's cells; each product sums at most ``SCORE_BLOCK`` ones, so
    every count is exact.

    Without a reference every example is scored.  With a reference h*, each
    model W gets a reach t = D'/2 + 8g(d' + ||h*||), computed here: d' is
    its Frobenius distance from h* and D' the largest norm of a difference
    Delta_y - Delta_y' of two label rows of Delta = W - h*.  The models are
    taken in order of t, and a block scores each label's segment only on
    its prefix of examples whose ratio r = |m|/L at h* is at most the
    block's largest t; each model's counts on the other examples are h*'s.
    The result is exactly the every-example count, because a model
    classifies each skipped example as h* does, in floating point:

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
      from h* to W moves the gap to y' by exactly (Delta_y - Delta_y').x,
      at most D ||x|| in size, D the exact largest label-row difference.
    - So if |m| > D ||x|| + 2g(||h*|| + d)||x||, the computed scores of W
      and of h* order the labels alike where it matters: for m > 0 label y
      beats every other label strictly under both, and for m < 0 the label
      whose gap is m beats y strictly under both.  In ratio units the
      condition is |m|/L > D/2 + g(||h*|| + d).
    - The ratio is computed too.  The profile's margin is within
      2g||h*|| ||x|| of m, and r = fl(|m'|/fl(L)) of that margin m' gives
      |m'| >= r L (1 - g); so |m|/L >= r(1 - g) - g||h*||.
    - The distances are computed from Delta' = fl(W - h*), each entry
      within u of Delta's in relative terms, so d <= d'/(1 - g).  An entry
      of fl(Delta'_y - Delta'_y') is within 2(1 + u)u(|Delta_yj| +
      |Delta_y'j|) of Delta_yj - Delta_y'j: the error scales with the two
      rows, not with their difference, which cancels when every label row
      shifts alike.  As ||Delta_y|| + ||Delta_y'|| <= sqrt(2) d, the
      difference vector is within 3ud of its exact value, and its norm
      rounds by at most a factor 1 - g; so D <= D'/(1 - g) + 3ud.
      Since D <= sqrt(2) d, also D' <= 1.5d'.
    - For g <= 0.01, with u <= g, the condition then holds once
      r > D'/2 + 5g(d' + ||h*||).  The 8 of t leaves room for the
      rounding of t and of ||h*||, so no extra term of k is needed.

    An example with L = 0 is the zero vector: every model scores it 0 on
    every label, and its ratio is infinite.
    """
    num_models, num_labels = weights.shape[:2]
    starts = np.arange(0, num_models, DRAW_BLOCK)
    # in scoring order: the counts of the model scored j-th in row j
    counts = np.zeros((num_models, num_labels, d.num_sensitive))
    if reference is None:
        layout = _Layout(d)
        order = np.arange(num_models)
        stops = np.broadcast_to(layout.bounds[1:], (len(starts), num_labels))
    else:
        if d is not reference.data:
            raise ValueError("the scoring reference was built for other data")
        layout = reference.layout
        delta = weights - reference.weights
        # D', one label against the higher ones at a time, so working
        # memory stays that of the stack however many labels there are
        spread = np.zeros(num_models)
        for y in range(num_labels - 1):
            pairs = delta[:, y + 1 :] - delta[:, y, None]
            np.maximum(spread, np.sqrt(np.vecdot(pairs, pairs)).max(axis=1), out=spread)
        reach = 0.5 * spread + reference.widening * (frobenius_norms(delta) + reference.norm)
        order = np.argsort(reach, kind="stable")
        # each block's limit is the reach of its last, farthest-reaching model
        limits = reach[order[np.minimum(starts + DRAW_BLOCK, num_models) - 1]]
        stops = np.stack(
            [lo + np.searchsorted(reference.ratio[lo:hi], limits, side="right")
             for _, lo, hi in layout.segments()],
            axis=1,
        )
        before = reference.correct_before
        skipped = before[layout.bounds[1:]] - before[stops]
        counts += np.repeat(skipped, DRAW_BLOCK, axis=0)[:num_models]
    # the blocks that score some example
    busy = np.flatnonzero((stops > layout.bounds[:-1]).any(axis=1))
    for b0, block_stops in zip(starts[busy], stops[busy]):
        block_weights = weights[order[b0 : b0 + DRAW_BLOCK]]
        block_counts = counts[b0 : b0 + DRAW_BLOCK]
        rows_per_chunk = max(1, SCORE_BLOCK // (len(block_weights) * num_labels))
        for (y, lo, _), stop in zip(layout.segments(), block_stops):
            for start in range(lo, stop, rows_per_chunk):
                end = min(start + rows_per_chunk, stop)
                correct = _correct(block_weights, layout.features_t[:, start:end], y)
                block_counts[:, y] += correct.astype(np.float32) @ layout.onehot[start:end]
    result = np.empty((num_models, num_labels, d.num_sensitive), dtype=np.int64)
    result[order] = counts
    return result.reshape(num_models, -1)


def _cell_map(part: GroupPartition, d: Dataset) -> np.ndarray:
    """The (|Y|*|S|, K) integer 0/1 map of each (label, sensitive) cell of
    ``d`` to the group of ``part`` that holds it; a partition that splits
    a cell, or has not one entry per example of ``d``, is a ValueError."""
    if part.assignment.shape != (d.n,):
        raise ValueError(f"the partition must have one entry per example of the data, {d.n}")
    cell_map = np.zeros((d.num_labels * d.num_sensitive, part.num_groups), dtype=np.int64)
    cell_map[d.cells, part.assignment] = 1
    if cell_map.sum(axis=1).max() > 1:
        raise ValueError("the partition splits a (label, sensitive) cell, so it cannot be scored")
    return cell_map


def _accuracies(counts: np.ndarray, part: GroupPartition) -> tuple[np.ndarray, np.ndarray]:
    """Correct counts divided by the partition's group sizes, and the mask
    of empty groups (whose accuracies are 0)."""
    empty = part.sizes == 0
    values = np.divide(counts, part.sizes, out=np.zeros(counts.shape), where=~empty)
    return values, empty


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
    another.  Every model must have the data's (num_labels, p) shape.

    The models are scored once, per (label, sensitive) cell, and each spec
    sums the cell counts into its groups, so each spec's partition must be
    a union of cells (a ValueError otherwise).  A ``reference`` built for
    ``d`` saves scoring each model on the examples whose margin at the
    reference it cannot move past zero.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3 or len(weights) == 0:
        raise ValueError("an (M, num_labels, p) stack of at least one model is required")
    check_fits(weights, d)
    cell_maps = [_cell_map(spec.partition, d) for spec in specs]
    counts = _correct_counts(weights, d, reference)
    levels = []
    for spec, cell_map in zip(specs, cell_maps):
        values, _ = _accuracies(counts @ cell_map, spec.partition)
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
    ``notion`` passes :data:`notion_name`; ``desirable``, and the binary
    labels of demographic parity, are checked as :func:`coefficients`
    checks them.
    """
    notion = notion_name("notion", notion)
    if notion == "equality_of_opportunity":
        desirable = _desirable_labels(desirable, d.num_labels)
    if notion == "demographic_parity_binary":
        _check_binary_labels(d.num_labels)
    num_groups = {"accuracy": 1, "accuracy_parity": d.num_sensitive}.get(
        notion, d.num_labels * d.num_sensitive
    )
    if not 0 <= k < num_groups:
        raise ValueError(f"group {k} out of range")
    predictions = predict_many(m, d.features)
    correct = predictions == d.labels

    def cond_mean(values: np.ndarray, mask: np.ndarray) -> float:
        total = int(np.sum(mask))
        if total == 0:
            return 0.0
        return float(np.sum(values & mask) / total)

    if notion == "accuracy":
        return float(np.mean(correct))

    if notion == "accuracy_parity":
        in_group = d.sensitive == k
        return cond_mean(correct, in_group) - float(np.mean(correct))

    y, r = divmod(k, d.num_sensitive)
    if notion in ("equalized_odds", "equality_of_opportunity"):
        if notion == "equality_of_opportunity" and y not in desirable:
            return 0.0
        in_cell = (d.labels == y) & (d.sensitive == r)
        in_label = d.labels == y
        return cond_mean(correct, in_cell) - cond_mean(correct, in_label)

    # demographic_parity_binary
    predicted_y = predictions == y
    in_group = d.sensitive == r
    return cond_mean(predicted_y, in_group) - float(np.mean(predicted_y))
