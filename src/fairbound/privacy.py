"""Differentially private releases of the trained model.

Two mechanisms are implemented.  Output perturbation adds Gaussian noise to
the exact optimum, calibrated to the optimum's replace-one sensitivity
2*Lambda/(mu*n), then projects back onto the hypothesis ball:

    sigma^2 = 8 * Lambda^2 * log(1.25/delta) / (mu^2 n^2 eps^2).

A budget at which that sigma is not (eps, delta)-private, because the
mechanism's exact delta(eps) (``gaussian_delta``) exceeds delta, is refused.

DP-SGD runs projected stochastic gradient steps from zero with per-step
Gaussian noise

    sigma^2 = 64 * Lambda^2 * T^2 * log(3T/delta) * log(2/delta) / (n^2 eps^2),

where T is the step count of the lemma-3 schedule.  Every DP-SGD release
uses this T-squared calibration; the T-linear variance survives only as a
comparison value of ``dpsgd_noise``.  Both mechanisms come with closed-form
high-probability bounds on the distance between the released model and the
optimum, which the fairness-gap bounds consume.

``release_many`` and ``release`` draw the releases whose distance to the
optimum ``resolve_distance`` bounds by lemma 2 or 3.  These three and the
warning of ``PrivacyParams`` at epsilon >= 1, which DP-SGD alone gives as
no exact-delta check covers it, are the only code that branches on the
mechanism.

Every random value comes from a NumPy generator.  :func:`stream` builds
the generator of one key, ``default_rng(SeedSequence(seed, spawn_key=key))``;
the one-release functions take a key (``dpsgd`` also takes a generator),
and the many-release functions take a generator and draw all their
releases from it in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError
from .model import LinearModel, clip_to_ball, clip_to_ball_many
from .trainer import LossConstants, empirical_gradient_second_moment, gradient

MECHANISMS = ("output_perturbation", "dp_sgd")
NOISE_EXPONENTS = ("T_squared", "T_linear")


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta)-privacy target plus the bound failure probability
    zeta and the mechanism driving noise calibration."""

    epsilon: float
    delta: float
    zeta: float
    mechanism: str
    seed: int

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.zeta < 1:
            raise ValueError("zeta must lie in (0, 1)")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.epsilon >= 1 and self.mechanism == "dp_sgd":
            warnings.warn(
                f"epsilon={self.epsilon} >= 1: the closed-form DP-SGD noise formula was "
                "derived for budgets below 1, and its privacy at this budget is not checked",
                stacklevel=2,
            )


def default_delta(n: int) -> float:
    """delta = 1/n^2, the default privacy failure probability for n examples."""
    return 1.0 / n**2


def _finite_positive(what: str, formula: Callable[[], float]) -> float:
    """The value of ``formula``, a closed-form noise scale or distance,
    which must be a finite positive float.

    At an extreme privacy budget or ridge weight, Python float arithmetic
    raises ZeroDivisionError on a zero divisor and OverflowError on an
    overflowing power, and a product that overflows or underflows gives
    inf or 0.  None of these calibrates a release or bounds its distance,
    so each is a ``ConfigError``, the error of every other budget the
    mechanisms cannot serve.
    """
    try:
        value = formula()
        shown = repr(value)
    except (ZeroDivisionError, OverflowError):
        value, shown = math.nan, "out of floating-point range"
    if not 0.0 < value < math.inf:
        raise ConfigError(
            f"{what} is {shown}, not a finite positive float; the privacy budget "
            "or the ridge weight lies outside the range it can represent"
        )
    return value


def stream(seed: int, key: int | tuple[int, ...] = ()) -> np.random.Generator:
    """NumPy's ``default_rng(SeedSequence(seed, spawn_key=key))``; an int
    key k is the key (k,), and the empty key is the seed's root stream."""
    spawn_key = key if isinstance(key, tuple) else (key,)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _mills_ratio(b: float) -> float:
    """Phi(-b) / phi(b) for b >= 0, from ``erfc`` below 20 and from its
    continued fraction 1/(b + 1/(b + 2/(b + ...))) above, where phi(b)
    nears the bottom of the float range."""
    if b < 20.0:
        phi_b = math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi)
        return 0.5 * math.erfc(b / math.sqrt(2.0)) / phi_b
    tail = 0.0
    for k in range(40, 0, -1):
        tail = k / (b + tail)
    return 1.0 / (b + tail)


def gaussian_delta(epsilon: float, sensitivity: float, sigma: float) -> float:
    """The exact delta(epsilon) of the Gaussian mechanism with L2
    sensitivity Delta and noise N(0, sigma^2 I) (Balle & Wang 2018, Thm 8):

        Phi(Delta/(2 sigma) - eps sigma/Delta)
            - e^eps Phi(-Delta/(2 sigma) - eps sigma/Delta).

    With a = Delta/(2 sigma) - eps sigma/Delta and b = a + 2 eps sigma/Delta,
    e^eps phi(b) = phi(a), so the second term is phi(a) times the Mills
    ratio Phi(-b)/phi(b): no e^eps is formed, so nothing overflows, and a
    tail that underflows is not multiplied by an infinite one.  Both
    Phi values are ``erfc`` tails, so neither is 1 minus a rounded
    probability."""
    ratio = epsilon * sigma / sensitivity
    half = sensitivity / (2.0 * sigma)
    a, b = half - ratio, half + ratio
    phi_a = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return max(0.0, 0.5 * math.erfc(-a / math.sqrt(2.0)) - phi_a * _mills_ratio(b))


def output_noise_variance(
    loss_lipschitz: float, strong_convexity: float, n: int, epsilon: float, delta: float
) -> float:
    """Gaussian variance for output perturbation:
    8*Lambda^2*log(1.25/delta) / (mu^2 n^2 eps^2).  A variance that is not
    a finite positive float is a ``ConfigError``.

    That is the classical calibration sigma/Delta = sqrt(2 log(1.25/delta))
    / eps at the sensitivity Delta = 2*Lambda/(mu n), so its exact
    :func:`gaussian_delta` depends only on (eps, delta).  Above a crossover
    eps* (8.4 at delta = 1e-5, 6.1 at delta = 0.05) it exceeds delta and
    the release is not (eps, delta)-private; such a budget is a
    ``ConfigError`` too."""
    variance = _finite_positive(
        f"the output-perturbation noise variance at epsilon={epsilon!r}, lambda={strong_convexity!r}",
        lambda: 8.0
        * loss_lipschitz**2
        * math.log(1.25 / delta)
        / (strong_convexity**2 * n**2 * epsilon**2),
    )
    _check_exact_delta(epsilon, delta)
    return variance


def _check_exact_delta(epsilon: float, delta: float) -> None:
    """``ConfigError`` when the classical calibration sigma/Delta =
    sqrt(2 log(1.25/delta)) / eps has an exact :func:`gaussian_delta`
    above delta, so output perturbation is not (eps, delta)-private."""
    exact = gaussian_delta(epsilon, 1.0, math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon)
    if exact > delta:
        raise ConfigError(
            f"output perturbation at epsilon={epsilon!r}, delta={delta!r} is not "
            f"(epsilon, delta)-private: its classical Gaussian calibration has an exact "
            f"delta of {exact!r} at that epsilon"
        )


def output_perturb_many(
    hstar: LinearModel,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
    rng: np.random.Generator,
    draws: int,
) -> np.ndarray:
    """(draws, Y, p) stack of releases project(h* + N(0, sigma^2 I), R).

    The noise is one ``rng.normal`` call of shape (draws, Y, p), which NumPy
    fills draw by draw, so draw j is the same for every ``draws`` > j.
    """
    if pp.mechanism != "output_perturbation":
        raise ValueError("privacy params request a different mechanism")
    sigma = math.sqrt(
        output_noise_variance(c.loss_lipschitz, c.strong_convexity, n, pp.epsilon, pp.delta)
    )
    noise = rng.normal(0.0, sigma, size=(draws, *hstar.weights.shape))
    return clip_to_ball_many(hstar.weights + noise, c.radius)


def output_perturb(
    hstar: LinearModel,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
    substream: int | tuple[int, ...] = 0,
) -> LinearModel:
    """One release project(h* + N(0, sigma^2 I), R), deterministic per
    (pp.seed, substream): the first draw of :func:`output_perturb_many` on
    ``stream(pp.seed, substream)``."""
    weights = output_perturb_many(hstar, c, n, pp, stream(pp.seed, substream), 1)[0]
    return LinearModel(weights, c.radius)


def output_perturb_distance_bound(
    num_params: int, c: LossConstants, n: int, pp: PrivacyParams
) -> float:
    """Distance (not squared) between release and optimum that holds with
    probability at least 1 - zeta:
    sqrt(32 p Lambda^2 log(1.25/delta) log(2/zeta) / (mu^2 n^2 eps^2)).
    A square that is not a finite positive float is a ``ConfigError``, and
    so is a budget :func:`output_noise_variance` refuses."""
    dist_sq = _finite_positive(
        f"the squared lemma-2 distance at epsilon={pp.epsilon!r}, lambda={c.strong_convexity!r}",
        lambda: 32.0
        * num_params
        * c.loss_lipschitz**2
        * math.log(1.25 / pp.delta)
        * math.log(2.0 / pp.zeta)
        / (c.strong_convexity**2 * n**2 * pp.epsilon**2),
    )
    _check_exact_delta(pp.epsilon, pp.delta)
    return math.sqrt(dist_sq)


def dpsgd_noise(
    loss_lipschitz: float,
    steps: int,
    n: int,
    epsilon: float,
    delta: float,
    exponent: str = "T_squared",
) -> float:
    """Per-step DP-SGD noise variance; ``exponent`` selects the T^2
    calibration every release uses (default, noisier) or the T variance,
    which is kept only as a comparison value.  A variance that is not a
    finite positive float is a ``ConfigError``."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if exponent not in NOISE_EXPONENTS:
        raise ValueError(f"unknown noise exponent {exponent!r}")
    return _finite_positive(
        f"the DP-SGD noise variance at epsilon={epsilon!r} over {steps} steps",
        lambda: 64.0
        * loss_lipschitz**2
        * (float(steps) ** 2 if exponent == "T_squared" else float(steps))
        * math.log(3.0 * steps / delta)
        * math.log(2.0 / delta)
        / (n**2 * epsilon**2),
    )


@dataclass(frozen=True)
class DpSgdConfig:
    """Resolved DP-SGD run parameters.

    Direct construction accepts any nonnegative noise variance (the
    noise-free case is useful for optimizer sanity checks); use
    :meth:`calibrated` to tie the variance to the privacy budget.
    """

    steps: int
    step_size: float
    noise_variance: float
    radius: float

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.step_size <= 0 or self.radius <= 0:
            raise ValueError("step_size and radius must be positive")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")

    @classmethod
    def calibrated(cls, c: LossConstants, n: int, pp: PrivacyParams, steps: int) -> "DpSgdConfig":
        """Step size 1/(2*beta) and the privacy-calibrated T^2 noise variance;
        no noise at T = 0, where the release is the zero start model."""
        noise = dpsgd_noise(c.loss_lipschitz, steps, n, pp.epsilon, pp.delta) if steps else 0.0
        return cls(steps=steps, step_size=0.5 / c.smoothness, noise_variance=noise, radius=c.radius)


def dpsgd(
    d: Dataset,
    c: LossConstants,
    pp: PrivacyParams,
    cfg: DpSgdConfig,
    substream: int | tuple[int, ...] | np.random.Generator = 0,
) -> LinearModel:
    """Projected noisy SGD from the zero model; deterministic per
    (pp.seed, substream).  A ``Generator`` substream is used as it is, as
    ``np.random.default_rng`` does, and is advanced by the run.

    Each step samples one example uniformly, adds isotropic Gaussian noise
    to its loss gradient, steps, and projects onto the radius ball.
    """
    if cfg.step_size > 0.5 / c.smoothness + 1e-12:
        raise ValueError("step_size must not exceed 1/(2*smoothness)")
    rng = substream if isinstance(substream, np.random.Generator) else stream(pp.seed, substream)
    sigma = math.sqrt(cfg.noise_variance)
    model = LinearModel(np.zeros((d.num_labels, d.p)), cfg.radius)
    for _ in range(cfg.steps):
        i = int(rng.integers(d.n))
        grad = gradient(model, d.example(i), c.strong_convexity)
        if sigma > 0:
            grad = grad + rng.normal(0.0, sigma, size=grad.shape)
        model = clip_to_ball(model.weights - cfg.step_size * grad, cfg.radius)
    return model


@dataclass(frozen=True)
class DpSgdBound:
    """Distance bound plus the step schedule that attains it."""

    distance: float
    steps: int
    noise_variance: float


def dpsgd_distance_bound(
    num_params: int,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
) -> DpSgdBound:
    """High-probability distance bound for DP-SGD started at zero.

    The start-to-optimum distance is at most 2R, because the start is the
    zero model and the optimum lies in the ball of radius R.  The returned
    step count T follows the geometric-decay schedule, with the T^2 noise
    variance; when the schedule says the start already satisfies the target
    (log argument <= 1), the start bound 2R itself is returned with T = 0.
    ``num_params`` is carried for report symmetry; the closed form is
    dimension-free.  A noise scale, log argument, step count, distance or
    noise variance that is not a finite positive float is a ``ConfigError``.
    """
    mu = c.strong_convexity
    beta = c.smoothness
    lam_lip = c.loss_lipschitz
    start_dist = 2.0 * c.radius

    at = f"at epsilon={pp.epsilon!r}, lambda={mu!r}"
    m2 = _finite_positive(
        f"the DP-SGD noise scale {at}",
        lambda: 64.0 * lam_lip**2 * math.log(2.0 / pp.delta) / (n**2 * pp.epsilon**2),
    )
    arg = _finite_positive(
        f"the DP-SGD schedule's log argument {at}",
        lambda: mu * beta * start_dist**2 / (2.0 * m2),
    )
    if arg <= 1.0:
        return DpSgdBound(distance=start_dist, steps=0, noise_variance=0.0)

    log_arg = math.log(arg)
    steps = max(1, math.ceil(_finite_positive(
        f"the DP-SGD step count {at}", lambda: 2.0 * beta / mu * log_arg
    )))
    dist_sq = _finite_positive(
        f"the squared lemma-3 distance {at}",
        lambda: 512.0
        * lam_lip**2
        * math.log(2.0 / pp.delta)
        / (pp.zeta * mu**2 * n**2 * pp.epsilon**2)
        * log_arg
        * math.log(6.0 * beta * log_arg / (mu * pp.delta)),
    )
    sigma2 = dpsgd_noise(lam_lip, steps, n, pp.epsilon, pp.delta)
    return DpSgdBound(distance=math.sqrt(dist_sq), steps=steps, noise_variance=sigma2)


def resolve_distance(
    num_params: int, c: LossConstants, n: int, pp: PrivacyParams
) -> tuple[float, str]:
    """The mechanism's high-probability lemma bound on the distance between
    release and optimum, and its provenance."""
    if pp.mechanism == "output_perturbation":
        return output_perturb_distance_bound(num_params, c, n, pp), "lemma2"
    return dpsgd_distance_bound(num_params, c, n, pp).distance, "lemma3"


def release_many(
    hstar: LinearModel,
    train: Dataset,
    c: LossConstants,
    pp: PrivacyParams,
    rng: np.random.Generator,
    draws: int,
) -> np.ndarray:
    """(draws, Y, p) stack of the private models that the lemma distance of
    ``pp.mechanism`` describes: output perturbation of h*, or DP-SGD on
    ``train`` for the lemma-3 schedule's T steps with T^2 noise.  Every
    draw comes from ``rng``, one draw after another, so draw j is the same
    for every ``draws`` > j."""
    if pp.mechanism == "output_perturbation":
        return output_perturb_many(hstar, c, train.n, pp, rng, draws)
    steps = dpsgd_distance_bound(hstar.num_params, c, train.n, pp).steps
    cfg = DpSgdConfig.calibrated(c, train.n, pp, steps)
    return np.stack([dpsgd(train, c, pp, cfg, substream=rng).weights for _ in range(draws)])


def release(
    hstar: LinearModel,
    train: Dataset,
    c: LossConstants,
    pp: PrivacyParams,
    substream: int | tuple[int, ...] = 0,
) -> LinearModel:
    """One private model, deterministic per (pp.seed, substream): the first
    draw of :func:`release_many` on ``stream(pp.seed, substream)``.  Unlike
    ``release_many``, it first runs :func:`warn_if_gradient_noise_dominates`
    on a DP-SGD schedule that takes steps."""
    if pp.mechanism == "dp_sgd":
        schedule = dpsgd_distance_bound(hstar.num_params, c, train.n, pp)
        if schedule.steps:
            warn_if_gradient_noise_dominates(hstar, train, c.strong_convexity,
                                             schedule.noise_variance)
    weights = release_many(hstar, train, c, pp, stream(pp.seed, substream), 1)[0]
    return LinearModel(weights, c.radius)


def warn_if_gradient_noise_dominates(
    m: LinearModel, d: Dataset, lam: float, noise_variance: float
) -> bool:
    """Warn (and return True) when the empirical gradient second moment at m
    exceeds the per-step noise variance, which voids one assumption of the
    DP-SGD distance bound; the bound is still reported."""
    moment = empirical_gradient_second_moment(m, d, lam)
    if moment > noise_variance:
        warnings.warn(
            f"empirical gradient second moment {moment:.3e} exceeds the DP-SGD noise "
            f"variance {noise_variance:.3e}; the distance bound's domination assumption "
            "does not hold on this data",
            stacklevel=2,
        )
        return True
    return False
