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

Groups and proportions p_{k'} come from the fairness spec's partition, which
counts them from its assignment, and the coefficients from the spec, so the
slack, like the bound layer, builds one per-group alpha vector and
combines it through |coeff|.  Empty groups contribute no accuracy term.

B3 and B4 are the concentration constants of the coefficient estimates,
fixed at 2*(K+1) and 2 (per-coefficient Hoeffding plus a union bound), and
d is the Natarajan dimension of the linear multiclass models, |Y|*p.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import at_least, fraction, one_of
from .fairness import FairnessSpec

def sample_size_sufficient(spec: FairnessSpec, n: int, delta: float) -> bool:
    """Whether n meets the slack formulas' precondition
    n >= 8*log((2K+1)/delta) / min positive group proportion.  ``n`` and
    ``delta`` are checked as :func:`finite_sample_slacks` checks them."""
    n, delta = at_least(1)("n", n), fraction("delta", delta)
    proportions = spec.partition.proportions
    positive = proportions[proportions > 0]
    threshold = 8.0 * math.log((2 * spec.num_groups + 1) / delta) / float(np.min(positive))
    return n >= threshold


def finite_sample_slacks(
    spec: FairnessSpec,
    n: int,
    delta: float,
    num_labels: int,
    num_features: int,
    mode: str,
) -> np.ndarray:
    """Per-group slack values, shape (K,), under the requested regime:
    ``"independent"`` for models chosen independently of the sample,
    ``"dependent"`` for models fit on it (paying the Natarajan-dimension
    price).  A value out of its domain is a ``ConfigError`` naming it."""
    mode = one_of("independent", "dependent")("mode", mode)
    delta = fraction("delta", delta)
    n, num_labels = at_least(1)("n", n), at_least(2)("num_labels", num_labels)
    num_features = at_least(1)("num_features", num_features)
    num_groups = spec.num_groups
    if not sample_size_sufficient(spec, n, delta):
        warnings.warn(
            f"n={n} is below the slack formulas' sample-size precondition; "
            "the returned values are reported anyway",
            stacklevel=2,
        )

    magnitudes = np.abs(spec.coeffs)
    proportions = spec.partition.proportions
    # a group no coefficient weighs, or an empty one, gets no accuracy term
    used = (proportions > 0) & np.any(magnitudes != 0, axis=0)
    alpha = [0.0] * num_groups
    if mode == "independent":
        log_term = math.log(2.0 * (2 * num_groups + 1) / delta)
        for kp in np.flatnonzero(used):
            alpha[kp] = math.sqrt(log_term / (n * float(proportions[kp])))
    else:
        dim = num_labels * num_features  # Natarajan dimension of the linear models
        log_tail = math.log(8.0 * (2 * num_groups + 1) / delta)
        for kp in np.flatnonzero(used):
            n_kp = n * float(proportions[kp])
            inner = dim * (math.log(n_kp / 2.0) + 2.0 * math.log(num_labels)) + log_tail
            alpha[kp] = math.sqrt(64.0 * inner / n_kp)

    # alpha_C with B3 = 2(K+1) and B4 = 2
    log_c = math.log(2.0 * (num_groups + 1) * (2 * num_groups + 1) / delta)
    slack = np.full(num_groups, math.sqrt(log_c / (2.0 * n)))
    # one column at a time in group order, so each sum rounds like a scalar loop
    for kp in range(num_groups):
        slack += magnitudes[:, kp] * alpha[kp]
    return slack
