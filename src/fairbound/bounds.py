"""Certified bounds on fairness differences between nearby models.

Every variant is read off one margin profile: per example, the absolute
confidence margin |m| and the margin's Lipschitz constant L in the model.
A model within distance d of the profiled one can change the prediction
only on examples with |m|/L <= d, the "at-risk" examples.  That ratio is
``MarginProfile.ratio``, which the fairness layer also reads to skip the
examples a private draw cannot flip; the profile computes it and its
inverse L/|m| once, when it is built.  A profile belongs to one model on
one dataset and knows no groups, so one profile serves every fairness
notion.  ``bound_reports`` mirrors ``group_fairness_many``: for several
specs and distances at once, it takes the at-risk examples once per
distance, and per group partition of the specs it builds the per-group
term vectors below, the distance-free ones once and the others once per
distance.  Each spec then combines them with its coefficient magnitudes
exactly as the fairness layer combines conditional accuracies.
``bound_report`` is its one-spec, one-distance case, and ``theorem3_report``
runs it at the lemma distance of ``privacy.resolve_distance``.  When both
models are known, ``MarginProfile(margin_profile(h, d).abs_margins,
refined_lipschitz(h, h2, d))`` is h's refined, direction-aware profile
against h2: the same margins with Lipschitz constants that read only each
example's component along the weight difference.  The variants:

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
Every variant is 0 at d = 0, and empty groups contribute 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Dataset, GroupPartition
from .fairness import FairnessSpec
from .model import LinearModel, distance as model_distance
from .model import margins_many, pointwise_lipschitz_many
from .privacy import PrivacyParams, resolve_distance
from .trainer import LossConstants

VARIANTS = ("markov", "truncated", "chernoff", "best")
DIST_PROVENANCES = ("lemma2", "lemma3", "measured")


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
        if np.any(abs_margins < 0) or np.any(lipschitz < 0):
            raise ValueError("margins and Lipschitz constants are stored as nonnegative values")
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


def margin_profile(m: LinearModel, d: Dataset) -> MarginProfile:
    """Absolute margins and 2*||x||_2 Lipschitz constants for every example."""
    return MarginProfile(
        abs_margins=np.abs(margins_many(m, d.features, d.labels)),
        lipschitz=pointwise_lipschitz_many(d.features),
    )


def refined_lipschitz(h: LinearModel, hprime: LinearModel, d: Dataset) -> np.ndarray:
    """Direction-aware Lipschitz constants of the margin between two known
    models.

    The margin change on x is controlled by the component of x along each
    weight-row difference, not by the full norm:
    L_i = 2 * max_y |(W_y - W'_y) . x_i| / ||W_y - W'_y||_2, with rows where
    the models agree contributing zero.
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
    return 2.0 * np.max(comps, axis=1)


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
        return self.entries[k]


def _combine(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-group sums of weight * term over the last axis; a zero weight
    drops its term even when the term is infinite.  ``terms`` holds one
    (K,) term vector per row, so each row of the result is that vector
    combined with the (K, K) ``weights``, summed as it would be alone."""
    return np.sum(weights * np.where(weights > 0, terms[..., None, :], 0.0), axis=-1)


class _GroupTerms:
    """The per-group term vectors of one partition, for every distance of a
    :func:`bound_reports` call: group sizes, the zero-margin flags, and the
    stacked terms, whose row 0 is the chi mean of L/|m| and whose rows
    1 + 4j ... 4 + 4j are the markov, truncated, chernoff and best terms at
    distance j."""

    def __init__(
        self,
        partition: GroupPartition,
        inverse_ratio: np.ndarray,
        zero_margin: np.ndarray,
        dists: Sequence[float],
        at_risk: list[np.ndarray],
        at_risk_inverse: list[np.ndarray],
    ):
        groups, num_groups = partition.assignment, partition.num_groups
        self.partition = partition
        self.sizes = np.bincount(groups, minlength=num_groups)
        denom = np.maximum(self.sizes, 1)  # empty groups carry zero weight
        self.has_zero_margin = np.bincount(groups[zero_margin], minlength=num_groups) > 0
        mean_inverse = np.bincount(groups, weights=inverse_ratio, minlength=num_groups) / denom
        rows = [mean_inverse]
        for dist, risk, risk_inverse in zip(dists, at_risk, at_risk_inverse):
            if dist == 0.0:
                terms = np.zeros((3, num_groups))
            else:
                truncated_mean = (
                    np.bincount(groups, weights=risk_inverse, minlength=num_groups) / denom
                )
                at_risk_fraction = np.bincount(groups[risk], minlength=num_groups) / denom
                terms = np.array([mean_inverse * dist, truncated_mean * dist, at_risk_fraction])
            rows.extend([*terms, terms.min(axis=0)])
        self.terms = np.array(rows)

    def serves(self, partition: GroupPartition) -> bool:
        return self.partition is partition or (
            self.partition.num_groups == partition.num_groups
            and np.array_equal(self.partition.assignment, partition.assignment)
        )


@np.errstate(over="ignore")  # an overflowing upper bound saturates at +inf
def bound_reports(
    profile: MarginProfile,
    specs: Sequence[FairnessSpec],
    dists: Sequence[float],
    provenances: Sequence[str],
) -> list[list[BoundReport]]:
    """Reports of every spec at every distance in one pass:
    ``reports[i][j]`` evaluates every variant for every group of
    ``specs[i]`` at ``dists[j]``, of provenance ``provenances[j]``.

    The profile must cover the examples of every spec's partition.  The
    at-risk masks are computed once per distance.  Per partition (specs
    whose partitions assign the examples alike share one), the group
    sizes, chi means and zero-margin flags are computed once, and the
    truncated means and at-risk fractions once per distance.  Each spec
    then combines the term vectors of every distance with its coefficient
    magnitudes, as the fairness layer combines conditional accuracies.
    """
    if len(dists) != len(provenances):
        raise ValueError("one provenance per distance is required")
    for dist, provenance in zip(dists, provenances):
        if provenance not in DIST_PROVENANCES:
            raise ValueError(f"unknown distance provenance {provenance!r}")
        if not 0.0 <= dist < math.inf:
            raise ValueError("dist must be finite and nonnegative")
    for spec in specs:
        examples = spec.partition.assignment.shape[0]
        if profile.n != examples:
            raise ValueError(f"profile has {profile.n} examples, the fairness spec {examples}")
    inverse_ratio = profile.inverse_ratio
    zero_margin = np.isinf(inverse_ratio)
    at_risk = [profile.ratio <= dist for dist in dists]
    at_risk_inverse = [np.where(risk, inverse_ratio, 0.0) for risk in at_risk]

    partitions: list[_GroupTerms] = []
    reports = []
    for spec in specs:
        terms = next((t for t in partitions if t.serves(spec.partition)), None)
        if terms is None:
            terms = _GroupTerms(
                spec.partition, inverse_ratio, zero_margin, dists, at_risk, at_risk_inverse
            )
            partitions.append(terms)
        combined = _combine(np.abs(spec.coeffs), terms.terms)
        flags = []
        for k in range(spec.num_groups):
            flags_k: list[str] = []
            for kp in np.flatnonzero(spec.coeffs[k]):
                if terms.sizes[kp] == 0:
                    flags_k.append(f"empty_group:{kp}")
                elif terms.has_zero_margin[kp]:
                    flags_k.append(f"zero_margin_in_group:{kp}")
            flags.append(tuple(flags_k))
        chi = combined[0]
        spec_reports = []
        for j, (dist, provenance) in enumerate(zip(dists, provenances)):
            markov, truncated, chernoff, best = combined[1 + 4 * j : 5 + 4 * j]
            entries = tuple(
                BoundEntry(
                    group=k,
                    description=spec.partition.descriptions[k],
                    chi=float(chi[k]),
                    markov=float(markov[k]),
                    truncated=float(truncated[k]),
                    chernoff=float(chernoff[k]),
                    best=float(best[k]),
                    flags=flags[k],
                )
                for k in range(spec.num_groups)
            )
            spec_reports.append(BoundReport(
                notion=spec.notion,
                entries=entries,
                dist=dist,
                dist_provenance=provenance,
                flags=spec.flags,
            ))
        reports.append(spec_reports)
    return reports


def bound_report(
    profile: MarginProfile,
    spec: FairnessSpec,
    dist: float,
    dist_provenance: str = "measured",
) -> BoundReport:
    """Evaluate every variant for every group of ``spec`` at a fixed
    distance: the one-spec, one-distance case of :func:`bound_reports`.
    The profile must cover the examples of the spec's partition."""
    return bound_reports(profile, [spec], [dist], [dist_provenance])[0][0]


def gap_bound(
    profile: MarginProfile, spec: FairnessSpec, k: int, dist: float, variant: str = "best"
) -> float:
    """Bound on |F_k(h) - F_k(h')| for any h' within ``dist`` of the
    profiled model, under the requested variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown bound variant {variant!r}")
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

