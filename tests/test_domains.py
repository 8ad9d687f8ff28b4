"""Every scalar argument the library checks goes through its ``config``
converter, so NaN, infinity and a finite value out of the domain are each a
``ConfigError`` that names the argument."""

import math

import numpy as np
import pytest

from conftest import random_dataset
from fairbound.bounds import bound_reports, gap_bound, margin_profile
from fairbound.exceptions import ConfigError
from fairbound.fairness import coefficients, direct_fairness
from fairbound.finite_sample import finite_sample_slacks, sample_size_sufficient
from fairbound.model import LinearModel, clip_to_ball_many
from fairbound.privacy import (
    DpSgdConfig,
    PrivacyParams,
    dpsgd_distance_bound,
    dpsgd_noise,
    output_noise_variance,
    output_perturb_distance_bound,
)
from fairbound.trainer import (
    LossConstants,
    constants,
    empirical_gradient_second_moment,
    fit_erm,
    gradient,
    loss,
)

D = random_dataset(np.random.default_rng(0), 40)
M = LinearModel(np.zeros((2, 3)), 1.0)
SPEC = coefficients(D, "accuracy")
PROFILE = margin_profile(M, D)
C = LossConstants(1.0, 2.0, 2.0, 1.0)
OP = PrivacyParams(1.0, 1e-5, 0.05, "output_perturbation", 0)
SGD = PrivacyParams(0.5, 1e-5, 0.05, "dp_sgd", 0)

# case id: (the name the error gives, a finite value out of the domain, the call)
CASES = {
    "LossConstants.strong_convexity": ("strong_convexity", 0.0,
                                       lambda v: LossConstants(v, 1.0, 1.0, 1.0)),
    "LossConstants.loss_lipschitz": ("loss_lipschitz", -3.0,
                                     lambda v: LossConstants(1.0, v, 1.0, 1.0)),
    "LossConstants.smoothness": ("smoothness", -2.0, lambda v: LossConstants(1.0, 1.0, v, 1.0)),
    "LossConstants.radius": ("radius", -1.0, lambda v: LossConstants(1.0, 1.0, 1.0, v)),
    "constants.lam": ("strong_convexity", 0.0, lambda v: constants(D, v, 1.0)),
    "constants.radius": ("radius", 0.0, lambda v: constants(D, 1.0, v)),
    "loss.lam": ("lam", 0.0, lambda v: loss(M, D, v)),
    "gradient.lam": ("lam", -1.0, lambda v: gradient(M, D.example(0), v)),
    "empirical_gradient_second_moment.lam": ("lam", 0.0,
                                             lambda v: empirical_gradient_second_moment(M, D, v)),
    "fit_erm.lam": ("lam", 0.0, lambda v: fit_erm(D, v)),
    "fit_erm.tol": ("tol", 0.0, lambda v: fit_erm(D, 1.0, tol=v)),
    "fit_erm.radius": ("radius", -1.0, lambda v: fit_erm(D, 1.0, radius=v)),
    "fit_erm.max_iters": ("max_iters", 0, lambda v: fit_erm(D, 1.0, max_iters=v)),
    "dpsgd_noise.steps": ("steps", 0, lambda v: dpsgd_noise(1.0, v, 100, 0.5, 1e-5)),
    "dpsgd_noise.exponent": ("exponent", "T_cubed",
                             lambda v: dpsgd_noise(1.0, 10, 100, 0.5, 1e-5, exponent=v)),
    "dpsgd_noise.loss_lipschitz": ("loss_lipschitz", -1.0,
                                   lambda v: dpsgd_noise(v, 10, 100, 0.5, 1e-5)),
    "dpsgd_noise.n": ("n", -100, lambda v: dpsgd_noise(1.0, 10, v, 0.5, 1e-5)),
    "dpsgd_noise.epsilon": ("epsilon", -0.5, lambda v: dpsgd_noise(1.0, 10, 100, v, 1e-5)),
    "dpsgd_noise.delta": ("delta", 0.0, lambda v: dpsgd_noise(1.0, 10, 100, 0.5, v)),
    "output_noise_variance.loss_lipschitz": ("loss_lipschitz", -1.0,
                                             lambda v: output_noise_variance(v, 1.0, 100, 1.0, 1e-5)),
    "output_noise_variance.strong_convexity": ("strong_convexity", -1.0, lambda v:
                                               output_noise_variance(1.0, v, 100, 1.0, 1e-5)),
    "output_noise_variance.n": ("n", -100, lambda v: output_noise_variance(1.0, 1.0, v, 1.0, 1e-5)),
    "output_noise_variance.epsilon": ("epsilon", -1.0,
                                      lambda v: output_noise_variance(1.0, 1.0, 100, v, 1e-5)),
    "output_noise_variance.delta": ("delta", 1.5,
                                    lambda v: output_noise_variance(1.0, 1.0, 100, 1.0, v)),
    "output_perturb_distance_bound.num_params": ("num_params", 0, lambda v:
                                                 output_perturb_distance_bound(v, C, 1000, OP)),
    "output_perturb_distance_bound.n": ("n", -1000,
                                        lambda v: output_perturb_distance_bound(6, C, v, OP)),
    "output_perturb_distance_bound.n_fractional": ("n", 1000.5, lambda v:
                                                   output_perturb_distance_bound(6, C, v, OP)),
    "dpsgd_distance_bound.num_params": ("num_params", -6,
                                        lambda v: dpsgd_distance_bound(v, C, 1000, SGD)),
    "dpsgd_distance_bound.n": ("n", -1000, lambda v: dpsgd_distance_bound(6, C, v, SGD)),
    "dpsgd_distance_bound.n_fractional": ("n", 1000.5,
                                          lambda v: dpsgd_distance_bound(6, C, v, SGD)),
    "DpSgdConfig.steps": ("steps", -1, lambda v: DpSgdConfig(v, 0.1, 0.0, 1.0)),
    "DpSgdConfig.step_size": ("step_size", 0.0, lambda v: DpSgdConfig(5, v, 0.0, 1.0)),
    # dpsgd adds noise only where sigma > 0, which a NaN variance fails
    "DpSgdConfig.noise_variance": ("noise_variance", -1.0, lambda v: DpSgdConfig(5, 0.1, v, 1.0)),
    "DpSgdConfig.radius": ("radius", 0.0, lambda v: DpSgdConfig(5, 0.1, 0.0, v)),
    "bound_reports.dist": ("dist", -1.0, lambda v: bound_reports(PROFILE, [SPEC], v, "measured")),
    "bound_reports.dist_provenance": ("dist_provenance", "lemma4",
                                      lambda v: bound_reports(PROFILE, [SPEC], 0.1, v)),
    "gap_bound.variant": ("variant", "median", lambda v: gap_bound(PROFILE, SPEC, 0, 0.1, v)),
    "finite_sample_slacks.mode": ("mode", "both",
                                  lambda v: finite_sample_slacks(SPEC, 40, 0.05, 2, 3, v)),
    "finite_sample_slacks.delta": ("delta", 1.0, lambda v: finite_sample_slacks(
        SPEC, 40, v, 2, 3, "independent")),
    "finite_sample_slacks.n": ("n", 0, lambda v: finite_sample_slacks(
        SPEC, v, 0.05, 2, 3, "independent")),
    "finite_sample_slacks.num_labels": ("num_labels", 1, lambda v: finite_sample_slacks(
        SPEC, 40, 0.05, v, 3, "independent")),
    "finite_sample_slacks.num_features": ("num_features", 0, lambda v: finite_sample_slacks(
        SPEC, 40, 0.05, 2, v, "dependent")),
    "finite_sample_slacks.num_features_fractional": ("num_features", 0.5, lambda v:
                                                     finite_sample_slacks(SPEC, 40, 0.05, 2, v,
                                                                          "dependent")),
    "sample_size_sufficient.n": ("n", 0, lambda v: sample_size_sufficient(SPEC, v, 0.05)),
    "sample_size_sufficient.delta": ("delta", 0.0, lambda v: sample_size_sufficient(SPEC, 40, v)),
    "coefficients.notion": ("notion", "fairness", lambda v: coefficients(D, v)),
    "direct_fairness.notion": ("notion", "fairness", lambda v: direct_fairness(M, D, v, 0)),
    "LinearModel.radius": ("radius", 0.0, lambda v: LinearModel(np.zeros((2, 3)), v)),
    "clip_to_ball_many.radius": ("radius", 0.0,
                                 lambda v: clip_to_ball_many(np.zeros((1, 2, 3)), v)),
}


@pytest.mark.parametrize("value", ["nan", "inf", "out_of_domain"])
@pytest.mark.parametrize("case", CASES)
def test_value_out_of_domain_is_config_error_naming_it(case, value):
    name, out_of_domain, call = CASES[case]
    bad = {"nan": math.nan, "inf": math.inf, "out_of_domain": out_of_domain}[value]
    with pytest.raises(ConfigError, match=f"^{name} must "):
        call(bad)
