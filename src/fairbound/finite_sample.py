"""Finite-sample slack connecting true and empirical fairness levels.

The empirical gap bounds compare two models on the same sample.  To relate
the *true* fairness of one model to the *empirical* fairness of another, an
additional concentration slack is needed.  With probability at least
1 - delta it equals

    alpha_C + sum_{k'} |coeff[k, k']| * alpha_{k'},

where alpha_C = sqrt(log(B3*(2K+1)/delta) / (B4*n)) covers the estimated
coefficients themselves and alpha_{k'} covers each group-conditional
accuracy.  Two regimes for alpha_{k'} are provided:

- independent of the sample (fixed models):
      alpha_{k'} = sqrt(log(2*(2K+1)/delta) / (n*p_{k'}))
- uniform over a model class of Natarajan dimension d (models fit on the
  sample):
      alpha_{k'} = sqrt(64*(d*(log(n*p_{k'}/2) + 2*log|Y|)
                           + log(8*(2K+1)/delta)) / (n*p_{k'}))

B3 and B4 are concentration constants for the coefficient estimates and
default to 2*(K+1) and 2 (per-coefficient Hoeffding plus a union bound).
The Natarajan dimension defaults to the
linear-multiclass value |Y|*p and can be overridden.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fairness import FairnessSpec


@dataclass(frozen=True)
class FiniteSampleParams:
    """Inputs of the slack formulas for one notion on one sample."""

    num_groups: int
    delta: float
    n: int
    proportions: np.ndarray  # (K,)
    coeff_magnitudes: np.ndarray  # (K, K)
    b3: float
    b4: float
    natarajan_dim: float
    num_labels: int

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.b3 <= 0 or self.b4 <= 0 or self.natarajan_dim <= 0:
            raise ValueError("B3, B4 and the Natarajan dimension must be positive")
        if self.num_labels < 2:
            raise ValueError("num_labels must be at least 2")
        proportions = np.asarray(self.proportions, dtype=np.float64)
        magnitudes = np.asarray(self.coeff_magnitudes, dtype=np.float64)
        if proportions.shape != (self.num_groups,):
            raise ValueError("proportions must have one entry per group")
        if magnitudes.shape != (self.num_groups, self.num_groups):
            raise ValueError("coefficient magnitudes must be a KxK matrix")
        proportions.setflags(write=False)
        magnitudes.setflags(write=False)
        object.__setattr__(self, "proportions", proportions)
        object.__setattr__(self, "coeff_magnitudes", magnitudes)

    @classmethod
    def from_fairness_spec(
        cls,
        spec: FairnessSpec,
        n: int,
        delta: float,
        num_labels: int,
        num_features: int,
        b3: float | None = None,
        b4: float = 2.0,
        natarajan_dim: float | None = None,
    ) -> "FiniteSampleParams":
        k = spec.num_groups
        return cls(
            num_groups=k,
            delta=delta,
            n=n,
            proportions=spec.partition.proportions,
            coeff_magnitudes=np.abs(spec.coeffs),
            b3=b3 if b3 is not None else 2.0 * (k + 1),
            b4=b4,
            natarajan_dim=natarajan_dim if natarajan_dim is not None else num_labels * num_features,
            num_labels=num_labels,
        )


def sample_size_sufficient(fp: FiniteSampleParams) -> bool:
    """Whether n meets the slack formulas' precondition
    n >= 8*log((2K+1)/delta) / min positive group proportion."""
    positive = fp.proportions[fp.proportions > 0]
    threshold = 8.0 * math.log((2 * fp.num_groups + 1) / fp.delta) / float(np.min(positive))
    return fp.n >= threshold


def _coefficient_slack(fp: FiniteSampleParams) -> float:
    return math.sqrt(math.log(fp.b3 * (2 * fp.num_groups + 1) / fp.delta) / (fp.b4 * fp.n))


def _warn_if_undersized(fp: FiniteSampleParams) -> None:
    if not sample_size_sufficient(fp):
        warnings.warn(
            f"n={fp.n} is below the slack formulas' sample-size precondition; "
            "the returned value is reported anyway",
            stacklevel=3,
        )


def independent_slack(fp: FiniteSampleParams, k: int) -> float:
    """Slack for models chosen independently of the sample."""
    if not 0 <= k < fp.num_groups:
        raise ValueError(f"group {k} out of range")
    _warn_if_undersized(fp)
    log_term = math.log(2.0 * (2 * fp.num_groups + 1) / fp.delta)
    total = _coefficient_slack(fp)
    for kp in range(fp.num_groups):
        weight = float(fp.coeff_magnitudes[k, kp])
        if weight == 0.0 or fp.proportions[kp] == 0.0:
            continue  # empty groups contribute no accuracy term
        total += weight * math.sqrt(log_term / (fp.n * float(fp.proportions[kp])))
    return total


def dependent_slack(fp: FiniteSampleParams, k: int) -> float:
    """Slack uniform over the model class (models may be fit on the sample);
    pays the Natarajan-dimension price."""
    if not 0 <= k < fp.num_groups:
        raise ValueError(f"group {k} out of range")
    _warn_if_undersized(fp)
    log_tail = math.log(8.0 * (2 * fp.num_groups + 1) / fp.delta)
    total = _coefficient_slack(fp)
    for kp in range(fp.num_groups):
        weight = float(fp.coeff_magnitudes[k, kp])
        if weight == 0.0 or fp.proportions[kp] == 0.0:
            continue
        n_kp = fp.n * float(fp.proportions[kp])
        inner = fp.natarajan_dim * (math.log(n_kp / 2.0) + 2.0 * math.log(fp.num_labels)) + log_tail
        total += weight * math.sqrt(64.0 * inner / n_kp)
    return total
