"""Certified bounds on the fairness cost of differentially private training.

The package trains strongly convex linear classifiers, releases them under
(epsilon, delta)-differential privacy (output perturbation or DP-SGD), and
certifies, with high probability, how far the private model's group-fairness
level can drift from the non-private optimum's.  See README.md for the
pipeline walkthrough and demos/ for narrative examples.
"""

from .bounds import (
    BoundEntry,
    BoundReport,
    MarginProfile,
    bound_report,
    bound_reports,
    gap_bound,
    margin_profile,
    refined_lipschitz,
    theorem3_report,
)
from .dataset import (
    CellSpec,
    Dataset,
    Example,
    GroupPartition,
    SyntheticSpec,
    load_csv,
    partition,
    split,
    synthesize,
    write_csv,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DataError,
    EmptyDatasetError,
    FairboundError,
    ParseError,
    SchemaError,
)
from .fairness import (
    NOTIONS,
    FairnessSpec,
    coefficients,
    direct_fairness,
    group_fairness,
    group_fairness_all,
    group_fairness_many,
)
from .finite_sample import finite_sample_slacks, sample_size_sufficient
from .model import (
    LinearModel,
    distance,
    load_model,
    margin,
    save_model,
)
from .privacy import (
    DpSgdBound,
    DpSgdConfig,
    PrivacyParams,
    dpsgd,
    dpsgd_distance_bound,
    dpsgd_noise,
    output_noise_variance,
    output_perturb,
    output_perturb_distance_bound,
    output_perturb_many,
)
from .trainer import LossConstants, constants, fit_erm, gradient, loss

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
