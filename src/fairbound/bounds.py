"""Certified bounds on fairness differences between nearby models.

Every variant is read off one margin profile: per example, the absolute
confidence margin |m| and the margin's Lipschitz constant L in the model.
A model within distance d of the profiled one can change the prediction
only on examples with |m|/L <= d, the "at-risk" examples.  That ratio is
``MarginProfile.ratio``, which the fairness layer also reads to skip the
examples a private draw cannot flip.  A profile belongs to one model on one
dataset and knows no groups, so one profile serves every fairness notion.
``bound_report`` takes the groups from the fairness spec's partition, makes
one pass over the profile and builds three per-group term vectors, then
combines each with the fairness coefficient magnitudes exactly as the
fairness layer combines conditional accuracies:

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
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .fairness import FairnessSpec
from .model import LinearModel, distance as model_distance
from .model import margins_many, pointwise_lipschitz_many
from .privacy import PrivacyParams, dpsgd_distance_bound, output_perturb_distance_bound
from .trainer import LossConstants

VARIANTS = ("markov", "truncated", "chernoff", "best")
DIST_PROVENANCES = ("lemma2", "lemma3", "measured")


@dataclass(frozen=True)
class MarginProfile:
    """Per-example (|margin|, Lipschitz constant) pairs of one model on one
    dataset: the sufficient statistic every bound variant consumes.  The
    groups belong to the fairness spec it is combined with."""

    abs_margins: np.ndarray
    lipschitz: np.ndarray

    def __post_init__(self):
        abs_margins = np.asarray(self.abs_margins, dtype=np.float64)
        lipschitz = np.asarray(self.lipschitz, dtype=np.float64)
        if abs_margins.shape != lipschitz.shape:
            raise ValueError("profile arrays must have matching shapes")
        if np.any(abs_margins < 0) or np.any(lipschitz < 0):
            raise ValueError("margins and Lipschitz constants are stored as nonnegative values")
        for arr in (abs_margins, lipschitz):
            arr.setflags(write=False)
        object.__setattr__(self, "abs_margins", abs_margins)
        object.__setattr__(self, "lipschitz", lipschitz)

    @property
    def n(self) -> int:
        return self.abs_margins.shape[0]

    @property
    def ratio(self) -> np.ndarray:
        """|m|/L per example, infinite where L = 0.  A model can change the
        prediction on an example only at a distance of at least its ratio
        from the profiled model; within distance d, the examples with
        ratio <= d are at risk."""
        positive = self.lipschitz > 0
        return np.divide(
            self.abs_margins, self.lipschitz, out=np.full(self.n, math.inf), where=positive
        )


def margin_profile(m: LinearModel, d: Dataset) -> MarginProfile:
    """Absolute margins and 2*||x||_2 Lipschitz constants for every example."""
    return MarginProfile(
        abs_margins=np.abs(margins_many(m, d.features, d.labels)),
        lipschitz=pointwise_lipschitz_many(d.features),
    )


def refined_lipschitz_profile(h: LinearModel, hprime: LinearModel, d: Dataset) -> MarginProfile:
    """Diagnostic profile using the direction-aware Lipschitz constants.

    When both models are known, the margin change on x is controlled by the
    component of x along each weight-row difference, not by the full norm:
    L_i = 2 * max_y |(W_y - W'_y) . x_i| / ||W_y - W'_y||_2, with rows where
    the models agree contributing zero.  Margins are taken from h.
    """
    if h.weights.shape != hprime.weights.shape:
        raise ValueError("models must have the same shape")
    diff = h.weights - hprime.weights  # (num_labels, p)
    row_norms = np.linalg.norm(diff, axis=1)
    active = row_norms > 0
    if not np.any(active):
        lipschitz = np.zeros(d.n)
    else:
        # |projection of x on each active row direction|, maximized over rows
        comps = np.abs(d.features @ diff[active].T) / row_norms[active]
        lipschitz = 2.0 * np.max(comps, axis=1)
    return MarginProfile(
        abs_margins=np.abs(margins_many(h, d.features, d.labels)),
        lipschitz=lipschitz,
    )


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


def resolve_distance(
    num_params: int, c: LossConstants, n: int, pp: PrivacyParams
) -> tuple[float, str]:
    """The mechanism's high-probability lemma bound on the distance between
    release and optimum, and its provenance."""
    if pp.mechanism == "output_perturbation":
        return output_perturb_distance_bound(num_params, c, n, pp), "lemma2"
    return dpsgd_distance_bound(num_params, c, n, pp).distance, "lemma3"


def _combine(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per-group sums of weight * term; a zero weight drops its term even
    when the term is infinite."""
    return np.sum(weights * np.where(weights > 0, terms, 0.0), axis=1)


@np.errstate(over="ignore")  # an overflowing upper bound saturates at +inf
def bound_report(
    profile: MarginProfile,
    spec: FairnessSpec,
    dist: float,
    dist_provenance: str = "measured",
) -> BoundReport:
    """Evaluate every variant for every group of ``spec`` at a fixed
    distance.  The profile must cover the examples of the spec's partition."""
    if dist_provenance not in DIST_PROVENANCES:
        raise ValueError(f"unknown distance provenance {dist_provenance!r}")
    if not 0.0 <= dist < math.inf:
        raise ValueError("dist must be finite and nonnegative")
    groups = spec.partition.assignment
    if profile.n != groups.shape[0]:
        raise ValueError(f"profile has {profile.n} examples, the fairness spec {groups.shape[0]}")
    num_groups = spec.num_groups
    margins, lipschitz = profile.abs_margins, profile.lipschitz

    pos_l = lipschitz > 0
    live = pos_l & (margins > 0)
    inverse_ratio = np.zeros(profile.n)  # L/|m|
    inverse_ratio[pos_l & ~live] = math.inf
    inverse_ratio[live] = lipschitz[live] / margins[live]
    at_risk = profile.ratio <= dist
    zero_margin = np.isinf(inverse_ratio)  # also margins too small for L/|m| to be finite

    sizes = np.bincount(groups, minlength=num_groups)
    denom = np.maximum(sizes, 1)  # empty groups carry zero weight below
    mean_inverse = np.bincount(groups, weights=inverse_ratio, minlength=num_groups) / denom
    truncated_mean = (
        np.bincount(groups, weights=np.where(at_risk, inverse_ratio, 0.0), minlength=num_groups)
        / denom
    )
    at_risk_fraction = np.bincount(groups[at_risk], minlength=num_groups) / denom
    has_zero_margin = np.bincount(groups[zero_margin], minlength=num_groups) > 0

    weights = np.abs(spec.coeffs) * (sizes > 0)
    chi = _combine(weights, mean_inverse)
    if dist == 0.0:
        terms = np.zeros((3, num_groups))
    else:
        terms = np.array([mean_inverse * dist, truncated_mean * dist, at_risk_fraction])
    markov, truncated, chernoff = (_combine(weights, t) for t in terms)
    best = _combine(weights, terms.min(axis=0))

    entries = []
    for k in range(num_groups):
        flags: list[str] = []
        for kp in np.flatnonzero(spec.coeffs[k]):
            if sizes[kp] == 0:
                flags.append(f"empty_group:{kp}")
            elif has_zero_margin[kp]:
                flags.append(f"zero_margin_in_group:{kp}")
        entries.append(
            BoundEntry(
                group=k,
                description=spec.partition.descriptions[k],
                chi=float(chi[k]),
                markov=float(markov[k]),
                truncated=float(truncated[k]),
                chernoff=float(chernoff[k]),
                best=float(best[k]),
                flags=tuple(flags),
            )
        )
    return BoundReport(
        notion=spec.notion,
        entries=tuple(entries),
        dist=dist,
        dist_provenance=dist_provenance,
        flags=spec.flags,
    )


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

