"""Differentially private releases of the trained model.

Two mechanisms are implemented.  Output perturbation adds Gaussian noise to
the exact optimum, calibrated to the optimum's replace-one sensitivity
2*Lambda/(mu*n), then projects back onto the hypothesis ball:

    sigma^2 = 8 * Lambda^2 * log(1.25/delta) / (mu^2 n^2 eps^2).

DP-SGD runs projected stochastic gradient steps from zero with per-step
Gaussian noise

    sigma^2 = 64 * Lambda^2 * T^2 * log(3T/delta) * log(2/delta) / (n^2 eps^2),

where T is the step count of the lemma-3 schedule.  Every DP-SGD release
uses this T-squared calibration; the T-linear variance survives only as a
comparison value of ``dpsgd_noise``.  Both mechanisms come with closed-form
high-probability bounds on the distance between the released model and the
optimum, which the fairness-gap bounds consume.

All randomness flows through PCG64 substreams keyed by (seed, key), each in
the state of NumPy's ``default_rng(SeedSequence(seed, spawn_key=key))``, so
independent draws are reproducible and can run concurrently.
:func:`pcg64_states` computes those states for many keys at once: the
SeedSequence hash (NumPy NEP 19) mixes every key with the same constants,
so it runs as uint32 array arithmetic over the keys, and PCG64's seeding
step runs in Python integers.  No SeedSequence object is built.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import Dataset
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
        if self.epsilon >= 1:
            warnings.warn(
                f"epsilon={self.epsilon} >= 1: the closed-form noise and distance "
                "formulas are calibrated for budgets below 1 and remain valid but "
                "conservative elsewhere",
                stacklevel=2,
            )


# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer, [0] for 0, as
    SeedSequence splits its entropy and spawn key elements."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def pcg64_states(seed: int, keys: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=key))``
    for every key, bit for bit.

    SeedSequence's ``mix_entropy`` and ``generate_state(4, uint64)`` run as
    uint32 array arithmetic with one column per key; the run entropy is
    zero-padded to the pool size, as NumPy does when a spawn key is present
    (for an empty key the padding hashes the same as the pool's own
    zero-fill).  A negative seed or key element raises ``ValueError``.
    """
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    spawn = [[w for element in key for w in _uint32_words(element)] for key in keys]
    if not spawn:
        return []
    lengths = np.array([len(run) + len(words) for words in spawn])
    width = max(map(len, spawn))
    entropy = np.array(
        [run + words + [0] * (width - len(words)) for words in spawn], dtype=np.uint32
    ).T

    # mix_entropy: hash the first pool-size words, cross-mix the pool, then
    # fold each further word into every pool word (only where a key has it)
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, hash_const = _hashmix(entropy[i], hash_const)
        pool.append(value)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                value, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], value)
    for i_src in range(_POOL_SIZE, entropy.shape[0]):
        present = i_src < lengths
        for i_dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(entropy[i_src], hash_const)
            pool[i_dst] = np.where(present, _mix(pool[i_dst], value), pool[i_dst])

    # generate_state(4, uint64): eight words cycling over the pool, read as
    # four little-endian uint64 words
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value.astype(np.uint64))
    words = [(out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]

    # pcg64_set_seed: initstate = (w0, w1), initseq = (w2, w3) as (high, low)
    states = []
    for w0, w1, w2, w3 in zip(*words):
        initstate, initseq = w0 << 64 | w1, w2 << 64 | w3
        inc = (initseq << 1 | 1) & _MASK128
        state = inc  # one LCG step from state 0
        state = (state + initstate) & _MASK128
        state = (state * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


class _PlaceholderSeed(np.random.bit_generator.ISeedSequence):
    """Zero seed words for a PCG64 whose state is set before every use;
    building it this way skips NumPy's SeedSequence."""

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


def _generators(seed: int, keys: Sequence[tuple[int, ...]]) -> Iterator[np.random.Generator]:
    """For each key in turn, a generator in the state of
    ``default_rng(SeedSequence(seed, spawn_key=key))``.  One generator is
    reset and yielded every time, so use it before advancing."""
    rng = np.random.Generator(np.random.PCG64(_PlaceholderSeed()))
    for state, inc in pcg64_states(seed, keys):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _key(substream: int | tuple[int, ...]) -> tuple[int, ...]:
    return substream if isinstance(substream, tuple) else (substream,)


def _substream(seed: int, substream: int | tuple[int, ...]) -> np.random.Generator:
    """The generator of one key: the one-key case of :func:`_generators`."""
    return next(_generators(seed, [_key(substream)]))


def output_noise_variance(
    loss_lipschitz: float, strong_convexity: float, n: int, epsilon: float, delta: float
) -> float:
    """Gaussian variance for output perturbation:
    8*Lambda^2*log(1.25/delta) / (mu^2 n^2 eps^2)."""
    return (
        8.0
        * loss_lipschitz**2
        * math.log(1.25 / delta)
        / (strong_convexity**2 * n**2 * epsilon**2)
    )


def output_perturb_many(
    hstar: LinearModel,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
    substreams: Sequence[int | tuple[int, ...]],
) -> np.ndarray:
    """(M, Y, p) stack of releases project(h* + N(0, sigma^2 I), R), draw j
    deterministic per (pp.seed, substreams[j]).

    Each draw's noise comes from its own substream, so a draw does not
    depend on which other draws are released with it.
    """
    if pp.mechanism != "output_perturbation":
        raise ValueError("privacy params request a different mechanism")
    sigma = math.sqrt(
        output_noise_variance(c.loss_lipschitz, c.strong_convexity, n, pp.epsilon, pp.delta)
    )
    noise = np.empty((len(substreams), *hstar.weights.shape))
    keys = [_key(substream) for substream in substreams]
    for j, rng in enumerate(_generators(pp.seed, keys)):
        noise[j] = rng.normal(0.0, sigma, size=hstar.weights.shape)
    return clip_to_ball_many(hstar.weights + noise, c.radius)


def output_perturb(
    hstar: LinearModel,
    c: LossConstants,
    n: int,
    pp: PrivacyParams,
    substream: int | tuple[int, ...] = 0,
) -> LinearModel:
    """One release project(h* + N(0, sigma^2 I), R): the one-draw case of
    :func:`output_perturb_many`."""
    return LinearModel(output_perturb_many(hstar, c, n, pp, [substream])[0], c.radius)


def output_perturb_distance_bound(
    num_params: int, c: LossConstants, n: int, pp: PrivacyParams
) -> float:
    """Distance (not squared) between release and optimum that holds with
    probability at least 1 - zeta:
    sqrt(32 p Lambda^2 log(1.25/delta) log(2/zeta) / (mu^2 n^2 eps^2))."""
    return math.sqrt(
        32.0
        * num_params
        * c.loss_lipschitz**2
        * math.log(1.25 / pp.delta)
        * math.log(2.0 / pp.zeta)
        / (c.strong_convexity**2 * n**2 * pp.epsilon**2)
    )


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
    which is kept only as a comparison value."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if exponent not in NOISE_EXPONENTS:
        raise ValueError(f"unknown noise exponent {exponent!r}")
    t_factor = float(steps) ** 2 if exponent == "T_squared" else float(steps)
    return (
        64.0
        * loss_lipschitz**2
        * t_factor
        * math.log(3.0 * steps / delta)
        * math.log(2.0 / delta)
        / (n**2 * epsilon**2)
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
    substream: int | tuple[int, ...] = 0,
) -> LinearModel:
    """Projected noisy SGD from the zero model; deterministic per
    (pp.seed, substream).

    Each step samples one example uniformly, adds isotropic Gaussian noise
    to its loss gradient, steps, and projects onto the radius ball.
    """
    if cfg.step_size > 0.5 / c.smoothness + 1e-12:
        raise ValueError("step_size must not exceed 1/(2*smoothness)")
    rng = _substream(pp.seed, substream)
    sigma = math.sqrt(cfg.noise_variance)
    model = LinearModel(np.zeros((d.num_labels, d.p)), cfg.radius)
    for _ in range(cfg.steps):
        i = int(rng.integers(d.n))
        grad = gradient(model, d.example(i), c.lam)
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
    dimension-free.
    """
    mu = c.strong_convexity
    beta = c.smoothness
    lam_lip = c.loss_lipschitz
    start_dist = 2.0 * c.radius

    m2 = 64.0 * lam_lip**2 * math.log(2.0 / pp.delta) / (n**2 * pp.epsilon**2)
    arg = mu * beta * start_dist**2 / (2.0 * m2)
    if arg <= 1.0:
        return DpSgdBound(distance=start_dist, steps=0, noise_variance=0.0)

    log_arg = math.log(arg)
    steps = max(1, math.ceil(2.0 * beta / mu * log_arg))
    dist_sq = (
        512.0
        * lam_lip**2
        * math.log(2.0 / pp.delta)
        / (pp.zeta * mu**2 * n**2 * pp.epsilon**2)
        * log_arg
        * math.log(6.0 * beta * log_arg / (mu * pp.delta))
    )
    sigma2 = dpsgd_noise(lam_lip, steps, n, pp.epsilon, pp.delta)
    return DpSgdBound(distance=math.sqrt(dist_sq), steps=steps, noise_variance=sigma2)


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
