"""Group fairness functionals as affine combinations of conditional accuracies.

Every supported notion is expressed in the unified form

    F_k = offset_k + sum_{k'} coeff[k, k'] * P(correct | group k'),

where the coefficients depend only on empirical group frequencies, never on
the model.  ``coefficients`` builds those tables; ``direct_fairness``
evaluates each notion's definitional formula straight from counts and serves
as the independent oracle that the affine form must reproduce exactly.
``group_fairness_many`` evaluates an (M, Y, p) stack of models under several
notions in one blocked pass; every affine-form evaluation, one model
included, goes through it.

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
from .model import LinearModel, check_fits, predict_many

# Number of (example, model, label) scores computed at once when evaluating
# many models: as many models as fit, and at least one, so working memory
# does not grow with the model count.  At 2**15 the block temporaries add
# about 1 MB to peak memory on a 400-draw sweep; 2**16 was no faster and
# added twice that.
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
    desirable: frozenset[int] | None
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
    """Build the coefficient tables of a notion from empirical frequencies."""
    if notion not in NOTIONS:
        raise ValueError(f"unknown fairness notion {notion!r}")
    flags: list[str] = []

    if notion == "accuracy":
        return FairnessSpec(
            notion=notion,
            partition=single_group_partition(d),
            offsets=np.zeros(1),
            coeffs=np.ones((1, 1)),
            desirable=None,
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
            desirable=None,
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
                raise ValueError("equality_of_opportunity requires a nonempty desirable label set")
            desirable = frozenset(int(y) for y in desirable)
            if any(y < 0 or y >= ny for y in desirable):
                raise ValueError("desirable labels out of range")
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
            raise ValueError("demographic parity is defined for binary labels only")
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
        desirable=desirable if notion == "equality_of_opportunity" else None,
        flags=tuple(dict.fromkeys(flags)),
    )


def _correct_counts(
    weights: np.ndarray, d: Dataset, partitions: Sequence[GroupPartition]
) -> list[np.ndarray]:
    """Per partition, the (M, K) integer count of each group's examples that
    each of the M stacked (M, Y, p) models classifies correctly.

    The examples are sorted by label once (stably), so each label's examples
    form one segment of the (models, Y, n) scores.  Models are scored a
    block at a time, as many as fit in ``SCORE_BLOCK`` scores (at least
    one).  On label y's segment a model classifies an example correctly
    exactly when row y's score beats every lower label's row strictly and
    every higher label's row or ties it: argmax with ties going to the
    lowest label.  The 0/1 flags of a block are multiplied by the one-hot
    group matrices of all partitions side by side, with rows in the same
    sorted order; the products sum integers below 2**53, so the float64
    counts are exact.
    """
    num_models, num_labels, p = weights.shape
    flat = weights.reshape(num_models * num_labels, p)
    models_per_block = min(num_models, max(1, SCORE_BLOCK // (d.n * num_labels)))
    order = np.argsort(d.labels, kind="stable")
    features = d.features[order]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(d.labels, minlength=num_labels))))
    ends = np.cumsum([part.num_groups for part in partitions])
    onehot = np.zeros((d.n, ends[-1]))
    for part, end in zip(partitions, ends):
        onehot[np.arange(d.n), end - part.num_groups + part.assignment[order]] = 1.0
    counts = np.empty((num_models, ends[-1]), dtype=np.int64)
    correct = np.empty((models_per_block, d.n), dtype=bool)
    for m0 in range(0, num_models, models_per_block):
        m1 = min(m0 + models_per_block, num_models)
        scores = (flat[m0 * num_labels : m1 * num_labels] @ features.T).reshape(
            m1 - m0, num_labels, d.n
        )
        for y in range(num_labels):
            lo, hi = bounds[y], bounds[y + 1]
            true = scores[:, y, lo:hi]
            segment = correct[: m1 - m0, lo:hi]
            segment[...] = True
            for other in range(num_labels):
                if other != y:
                    beats = np.greater if other < y else np.greater_equal
                    segment &= beats(true, scores[:, other, lo:hi])
        counts[m0:m1] = correct[: m1 - m0].astype(np.float64) @ onehot
    return np.split(counts, ends[:-1], axis=1)


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
    values, _ = conditional_accuracies(m, d, spec.partition)
    return float(spec.offsets[k] + spec.coeffs[k] @ values)


def group_fairness_many(
    weights: np.ndarray, d: Dataset, specs: Sequence[FairnessSpec]
) -> list[np.ndarray]:
    """Fairness levels of the M models of an (M, Y, p) weight stack under
    several specs in one pass.

    Returns one (M, K) array per spec whose row j equals
    ``group_fairness_all(LinearModel(weights[j], R), d, spec)`` exactly.
    Every model must have the data's (num_labels, p) shape.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3 or len(weights) == 0:
        raise ValueError("an (M, num_labels, p) stack of at least one model is required")
    check_fits(weights, d)
    counts = _correct_counts(weights, d, [spec.partition for spec in specs])
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


def aggregate_fairness(m: LinearModel, d: Dataset, spec: FairnessSpec) -> float:
    """Mean absolute per-group fairness level."""
    return float(np.mean(np.abs(group_fairness_all(m, d, spec))))


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
