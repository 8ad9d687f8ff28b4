"""Certified bounds on fairness differences between nearby models.

Every variant is read off one margin profile: per example, the absolute
confidence margin |m| and the margin's Lipschitz constant L in the model.
This module alone knows L: every constant is one margin factor, defined
below, times a reach of the example's features.
A model within distance d of the profiled one can change the prediction
only on examples with |m|/L <= d, the "at-risk" examples.  That ratio is
``MarginProfile.ratio``; the profile computes it and its inverse L/|m|
once, when it is built.  The fairness layer does not read L: its scoring
reference keys its rows by |m|/||x||, which it computes from the model
itself.  A profile belongs to one model on
one dataset and knows no groups, so one profile serves every fairness
notion.  ``bound_reports`` mirrors ``group_fairness_many``: for several
specs at one distance, it takes the at-risk examples once, and per group
partition of the specs it builds the per-group term vectors below once.
Each spec then combines them with its coefficient magnitudes exactly as
the fairness layer combines conditional accuracies.  ``bound_report`` is
its one-spec case, and ``theorem3_report`` runs it at the lemma distance
of ``privacy.resolve_distance``.  When both models are known,
``MarginProfile(margin_profile(h, d).abs_margins, refined_lipschitz(h, h2,
d))`` is h's refined, direction-aware profile against h2: the same margins
with Lipschitz constants that read only each example's component along the
weight difference.  The variants:

- "markov": the group mean of L/|m| (the pointwise Lipschitz factor chi)
  times d;
- "truncated": the same mean with every example that is not at risk
  counted as zero, times d;
- "chernoff": the at-risk fraction of the group.  This is the
  exponential-moment bound min over t >= 0 of
  exp(t*d) * mean(exp(-t*|m|/L) * 1{at risk}) in closed form: every at-risk
  summand exp(t*(d - |m|/L)) is >= 1 and nondecreasing in t, so the
  minimiser is t = 0 and the term always lies in [0, 1];
- "best": the termwise minimum of the three, so it never exceeds any of
  them.

Conventions: an example with a zero Lipschitz constant can never flip (it
contributes 0 to chi and is never at risk); a zero margin under a positive
Lipschitz constant makes chi, markov and truncated infinite while the
chernoff term stays finite, which is the reason the variants are combined.
Every variant is 0 at d = 0, and empty groups contribute 0.  Group sizes,
which divide every group mean and flag the empty groups, are the
partition's own ``GroupPartition.sizes``; nothing here recounts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import nonnegative, one_of
from .dataset import Dataset, GroupPartition
from .exceptions import DataError
from .fairness import FairnessSpec
from .model import LinearModel, distance as model_distance, margins_many
from .privacy import PrivacyParams, resolve_distance
from .trainer import LossConstants

VARIANTS = ("markov", "truncated", "chernoff", "best")
DIST_PROVENANCES = ("lemma2", "lemma3", "measured")

# Between models h and h' = h - D the margin of (x, y) moves by at most
# max over y' != y of |(D_y - D_y').x| <= |D_y.x| + |D_y'.x|, and that sum is
# at most this factor times ||D||_F times the row's reach along D: ||x|| in
# ``margin_profile`` and max_y |D_y.x|/||D_y|| in ``refined_lipschitz``.
# Every margin Lipschitz constant is this factor times a reach.
_MARGIN_FACTOR = 2.0


@dataclass(frozen=True)
class MarginProfile:
    """Per-example (|margin|, Lipschitz constant) pairs of one model on one
    dataset: the sufficient statistic every bound variant consumes.  The
    groups belong to the fairness spec it is combined with.

    Both per-example ratios are computed once, when the profile is built:
    ``ratio`` = |m|/L, infinite where L = 0.  A model can change the
    prediction on an example only at a distance of at least its ratio from
    the profiled model; within distance d, the examples with ratio <= d are
    at risk.  ``inverse_ratio`` = L/|m|, the example's pointwise Lipschitz
    factor: 0 where L = 0, and infinite where L > 0 and |m| = 0 or is too
    small for the quotient to be finite.  A quotient that overflows
    saturates at +inf."""

    abs_margins: np.ndarray
    lipschitz: np.ndarray
    ratio: np.ndarray = field(init=False, repr=False)
    inverse_ratio: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        abs_margins = np.asarray(self.abs_margins, dtype=np.float64)
        lipschitz = np.asarray(self.lipschitz, dtype=np.float64)
        if abs_margins.shape != lipschitz.shape:
            raise ValueError("profile arrays must have matching shapes")
        if not (np.all(abs_margins >= 0) and np.all(lipschitz >= 0)):
            raise ValueError("margins and Lipschitz constants must be nonnegative and not NaN")
        positive = lipschitz > 0
        with np.errstate(over="ignore"):
            ratio = np.divide(
                abs_margins, lipschitz, out=np.full(abs_margins.shape, math.inf), where=positive
            )
            inverse_ratio = np.divide(
                lipschitz, abs_margins, out=np.where(positive, math.inf, 0.0),
                where=positive & (abs_margins > 0),
            )
        for name, arr in (("abs_margins", abs_margins), ("lipschitz", lipschitz),
                          ("ratio", ratio), ("inverse_ratio", inverse_ratio)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.abs_margins.shape[0]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as a DataError
def margin_profile(m: LinearModel, d: Dataset) -> MarginProfile:
    """Absolute margins and Lipschitz constants for every example: each
    constant is the module's margin factor times ||x||_2.  A ``DataError``
    counts the rows whose margin or constant is not finite (two scores that
    both overflow give an undefined margin) and names the first; a
    one-label model, which has no margin, is a ``DataError`` too."""
    if m.num_labels < 2:
        raise DataError("the margin is undefined for a single-label model, "
                        "as on data whose labels all have one value")
    abs_margins = np.abs(margins_many(m, d.features, d.labels))
    lipschitz = _MARGIN_FACTOR * np.linalg.norm(d.features, axis=1)
    bad = np.flatnonzero(~(np.isfinite(abs_margins) & np.isfinite(lipschitz)))
    if bad.size:
        raise DataError(f"{bad.size} rows have a margin or Lipschitz constant that is not "
                        f"finite; the first is row {bad[0]} (0-based)")
    return MarginProfile(abs_margins, lipschitz)


def refined_lipschitz(h: LinearModel, hprime: LinearModel, d: Dataset) -> np.ndarray:
    """Direction-aware Lipschitz constants of the margin between two known
    models.

    The margin change on x is controlled by the component of x along each
    weight-row difference, not by the full norm:
    L_i = the margin factor times max_y |(W_y - W'_y) . x_i| / ||W_y - W'_y||_2,
    with rows where the models agree contributing zero.
    """
    if h.weights.shape != hprime.weights.shape:
        raise ValueError("models must have the same shape")
    diff = h.weights - hprime.weights  # (num_labels, p)
    row_norms = np.linalg.norm(diff, axis=1)
    active = row_norms > 0
    if not np.any(active):
        return np.zeros(d.n)
    # |projection of x on each active row direction|, maximized over rows
    comps = np.abs(d.features @ diff[active].T) / row_norms[active]
    return _MARGIN_FACTOR * np.max(comps, axis=1)


@dataclass(frozen=True)
class BoundEntry:
    """All bound variants for a single group."""

    group: int
    description: str
    chi: float
    markov: float
    truncated: float
    chernoff: float
    best: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class BoundReport:
    """Per-group fairness-gap certificates at a resolved model distance."""

    notion: str
    entries: tuple[BoundEntry, ...]
    dist: float
    dist_provenance: str
    flags: tuple[str, ...]

    @property
    def aggregate(self) -> float:
        """Mean of the per-group best-variant bounds (bounds the aggregate
        fairness difference)."""
        return float(np.mean([e.best for e in self.entries]))

    def entry(self, k: int) -> BoundEntry:
        if not 0 <= k < len(self.entries):
            raise ValueError(f"group {k} out of range")
        return self.entries[k]


def _combine(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-group sums of weight * term over the last axis; a zero weight
    drops its term even when the term is infinite.  ``terms`` holds one
    (K,) term vector per row, so each row of the result is that vector
    combined with the (K, K) ``weights``, summed as it would be alone."""
    return np.sum(weights * np.where(weights > 0, terms[..., None, :], 0.0), axis=-1)


@np.errstate(over="ignore")  # an overflowing upper bound saturates at +inf
def bound_reports(
    profile: MarginProfile,
    specs: Sequence[FairnessSpec],
    dist: float,
    dist_provenance: str,
) -> list[BoundReport]:
    """One report per spec: every variant for every group of ``specs[i]``
    at ``dist``, of provenance ``dist_provenance``.

    The profile must cover the examples of every spec's partition.  The
    at-risk mask is computed once.  Specs whose partitions assign the
    examples alike share one set of term vectors: the chi means, the
    zero-margin flags, and at ``dist`` the truncated means and at-risk
    fractions.  Each spec then combines them with its coefficient
    magnitudes, as the fairness layer combines conditional accuracies.
    A ``dist`` that is not finite and nonnegative, or a provenance not in
    ``DIST_PROVENANCES``, is a ``ConfigError``.
    """
    dist_provenance = one_of(*DIST_PROVENANCES)("dist_provenance", dist_provenance)
    dist = nonnegative("dist", dist)
    for spec in specs:
        examples = spec.partition.assignment.shape[0]
        if profile.n != examples:
            raise ValueError(f"profile has {profile.n} examples, the fairness spec {examples}")
    inverse_ratio = profile.inverse_ratio
    zero_margin = np.isinf(inverse_ratio)
    at_risk = profile.ratio <= dist
    at_risk_inverse = np.where(at_risk, inverse_ratio, 0.0)

    # (partition, zero-margin flags, [chi, markov, truncated, chernoff, best])
    built: list[tuple[GroupPartition, np.ndarray, np.ndarray]] = []
    reports = []
    for spec in specs:
        part, num_groups = spec.partition, spec.num_groups
        shared = next((b for b in built if b[0] is part or (
            b[0].num_groups == num_groups and np.array_equal(b[0].assignment, part.assignment)
        )), None)
        if shared is None:
            groups = part.assignment
            denom = np.maximum(part.sizes, 1)  # empty groups carry zero weight
            has_zero_margin = np.bincount(groups[zero_margin], minlength=num_groups) > 0
            chi = np.bincount(groups, weights=inverse_ratio, minlength=num_groups) / denom
            if dist == 0.0:
                variants = np.zeros((3, num_groups))
            else:
                truncated_mean = (
                    np.bincount(groups, weights=at_risk_inverse, minlength=num_groups) / denom
                )
                at_risk_fraction = np.bincount(groups[at_risk], minlength=num_groups) / denom
                variants = np.array([chi * dist, truncated_mean * dist, at_risk_fraction])
            shared = (part, has_zero_margin, np.array([chi, *variants, variants.min(axis=0)]))
            built.append(shared)
        _, has_zero_margin, terms = shared
        empty = part.sizes == 0
        flags: list[list[str]] = [[] for _ in range(num_groups)]
        for k, kp in zip(*np.nonzero((spec.coeffs != 0) & (empty | has_zero_margin))):
            flags[k].append(f"empty_group:{kp}" if empty[kp] else f"zero_margin_in_group:{kp}")
        # group k's chi, markov, truncated, chernoff and best, in BoundEntry's field order
        values = _combine(np.abs(spec.coeffs), terms).T.tolist()
        entries = tuple(
            BoundEntry(k, part.descriptions[k], *values[k], tuple(flags[k]))
            for k in range(num_groups)
        )
        reports.append(BoundReport(spec.notion, entries, dist, dist_provenance, spec.flags))
    return reports


def bound_report(
    profile: MarginProfile,
    spec: FairnessSpec,
    dist: float,
    dist_provenance: str = "measured",
) -> BoundReport:
    """Evaluate every variant for every group of ``spec`` at a fixed
    distance: the one-spec case of :func:`bound_reports`.  The profile must
    cover the examples of the spec's partition."""
    return bound_reports(profile, [spec], dist, dist_provenance)[0]


def gap_bound(
    profile: MarginProfile, spec: FairnessSpec, k: int, dist: float, variant: str = "best"
) -> float:
    """Bound on |F_k(h) - F_k(h')| for any h' within ``dist`` of the
    profiled model, under the requested variant."""
    variant = one_of(*VARIANTS)("variant", variant)
    return getattr(bound_report(profile, spec, dist).entry(k), variant)


def theorem3_report(
    reference: LinearModel,
    d: Dataset,
    spec: FairnessSpec,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
    other: LinearModel | None = None,
) -> BoundReport:
    """End-to-end certificate: mechanism distance bound composed with the
    per-group gap bounds, profiled at the reference model.

    The reference may be either the optimum or the private release; when
    ``other`` is given the measured distance replaces the lemma bound.
    """
    if other is None:
        dist, provenance = resolve_distance(reference.num_params, c, n, pp)
    else:
        dist, provenance = model_distance(reference, other), "measured"
    return bound_report(margin_profile(reference, d), spec, dist, provenance)

