import math
import warnings

import numpy as np
import pytest

from fairbound.bounds import DIST_PROVENANCES
from fairbound.exceptions import ConfigError
from fairbound.model import LinearModel, distance
from fairbound.privacy import (
    MECHANISMS,
    DpSgdBound,
    DpSgdConfig,
    PrivacyParams,
    dpsgd,
    dpsgd_distance_bound,
    dpsgd_noise,
    gaussian_delta,
    output_noise_variance,
    output_perturb,
    output_perturb_distance_bound,
    output_perturb_many,
    release,
    release_many,
    resolve_distance,
    stream,
    warn_if_gradient_noise_dominates,
)
from fairbound.trainer import (
    LossConstants,
    constants,
    empirical_gradient_second_moment,
    fit_erm,
    gradient,
)

from conftest import random_dataset


def quiet_params(epsilon, delta, zeta, mechanism, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return PrivacyParams(epsilon, delta, zeta, mechanism, seed)


def flat_constants(loss_lipschitz=1.0, strong_convexity=1.0, smoothness=1.0, radius=1.0):
    return LossConstants(
        strong_convexity=strong_convexity,
        loss_lipschitz=loss_lipschitz,
        smoothness=smoothness,
        radius=radius,
    )


class TestPrivacyParams:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            PrivacyParams(-1.0, 0.1, 0.1, "output_perturbation", 0)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 1.5, 0.1, "output_perturbation", 0)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 0.1, 0.0, "output_perturbation", 0)
        with pytest.raises(ValueError):
            PrivacyParams(0.5, 0.1, 0.1, "magic", 0)
        with pytest.raises(ValueError, match="seed"):
            PrivacyParams(0.5, 0.1, 0.1, "output_perturbation", -1)

    def test_large_epsilon_warns_not_raises(self):
        with pytest.warns(UserWarning, match="epsilon"):
            PrivacyParams(2.0, 0.1, 0.1, "dp_sgd", 0)
        # output perturbation checks its exact delta, so it has nothing to warn of
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PrivacyParams(2.0, 0.1, 0.1, "output_perturbation", 0)


def hockey_stick(epsilon, sensitivity, sigma, points=200_001):
    """Oracle: the hockey-stick divergence of N(0, sigma^2) from
    N(sensitivity, sigma^2), the integral of p - e^eps q over the half-line
    where it is positive, by the trapezoid rule over 40 sigma."""
    crossing = sensitivity / 2 - epsilon * sigma**2 / sensitivity
    x = np.linspace(crossing - 40 * sigma, crossing, points)
    p = np.exp(-0.5 * (x / sigma) ** 2)
    q = np.exp(epsilon - 0.5 * ((x - sensitivity) / sigma) ** 2)
    return float(np.trapezoid(p - q, x)) / (sigma * math.sqrt(2 * math.pi))


def classical_sigma(epsilon, delta):
    """sigma / Delta of the classical calibration."""
    return math.sqrt(2 * math.log(1.25 / delta)) / epsilon


class TestGaussianDelta:
    # (20, 1, 1) and (1, 1, 25) reach the continued fraction of the Mills
    # ratio; the last two are the classical sigma at (16, 1e-5) and at
    # (0.25, 1/4000^2)
    @pytest.mark.parametrize("epsilon, sensitivity, sigma", [
        (1.0, 1.0, 1.0), (0.5, 2.0, 3.0), (3.0, 1.0, 0.5), (0.1, 1.0, 1.0), (1e-3, 1.0, 1.0),
        (5.0, 1.0, 0.3), (20.0, 1.0, 1.0), (1.0, 1.0, 25.0),
        (16.0, 1.0, classical_sigma(16.0, 1e-5)), (0.25, 1.0, classical_sigma(0.25, 4000.0**-2)),
    ])
    def test_equals_the_integrated_hockey_stick_divergence(self, epsilon, sensitivity, sigma):
        assert gaussian_delta(epsilon, sensitivity, sigma) == pytest.approx(
            hockey_stick(epsilon, sensitivity, sigma), rel=1e-5)

    def test_depends_on_sigma_over_sensitivity_only(self):
        assert gaussian_delta(2.0, 3.0, 1.5) == pytest.approx(gaussian_delta(2.0, 1.0, 0.5),
                                                              rel=1e-12)

    @pytest.mark.parametrize("epsilon, sensitivity, sigma", [(1e6, 1.0, 1e-6), (700.0, 1.0, 0.1),
                                                             (1e3, 1.0, 1.0)])
    def test_extreme_budgets_stay_in_the_unit_interval(self, epsilon, sensitivity, sigma):
        # e^eps overflows at each epsilon; the product e^eps Phi(.) must not
        assert 0.0 <= gaussian_delta(epsilon, sensitivity, sigma) <= 1.0

    @pytest.mark.parametrize("delta, crossover", [(1e-6, 8.78), (4000.0**-2, 9.16), (1e-5, 8.42),
                                                  (0.05, 6.11)])
    def test_classical_calibration_fails_above_the_crossover(self, delta, crossover):
        below, above = crossover - 0.01, crossover + 0.01
        assert gaussian_delta(below, 1.0, classical_sigma(below, delta)) <= delta
        assert gaussian_delta(above, 1.0, classical_sigma(above, delta)) > delta
        output_noise_variance(1.0, 1.0, 100, below, delta)
        with pytest.raises(ConfigError, match="not \\(epsilon, delta\\)-private"):
            output_noise_variance(1.0, 1.0, 100, above, delta)

    def test_every_accepted_budget_is_private(self):
        # the sensitivity 2*Lambda/(mu n) of output perturbation, at the
        # variance it returns
        sensitivity, refused = 2 * 0.7 / (0.3 * 50), 0
        for epsilon in np.geomspace(1e-3, 64.0, 41).tolist():
            for delta in (1e-12, 1e-6, 1e-5, 1e-3, 0.05, 0.5):
                if gaussian_delta(epsilon, 1.0, classical_sigma(epsilon, delta)) > delta:
                    refused += 1
                    with pytest.raises(ConfigError):
                        output_noise_variance(0.7, 0.3, 50, epsilon, delta)
                    continue
                sigma = math.sqrt(output_noise_variance(0.7, 0.3, 50, epsilon, delta))
                assert gaussian_delta(epsilon, sensitivity, sigma) <= delta * (1 + 1e-9)
        assert 0 < refused < 41 * 6

    def test_sixteen_at_1e_5_is_34_times_its_target(self):
        exact = gaussian_delta(16.0, 1.0, classical_sigma(16.0, 1e-5))
        assert exact / 1e-5 == pytest.approx(33.6, abs=0.05)
        with pytest.raises(ConfigError, match="exact delta of 0.000336"):
            output_noise_variance(1.0, 1.0, 1000, 16.0, 1e-5)


def numpy_stream(seed, key):
    """The oracle: NumPy's own generator of one key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class TestStream:
    @pytest.mark.parametrize("seed,key", [(0, (0,)), (7000, (2, 399)), (2**64 + 1, (2**40, 3, 0))])
    def test_equals_default_rng(self, seed, key):
        ours, ref = stream(seed, key), numpy_stream(seed, key)
        assert np.array_equal(ours.normal(size=100), ref.normal(size=100))

    def test_int_key_and_root(self):
        assert stream(5, 3).integers(2**62) == numpy_stream(5, (3,)).integers(2**62)
        assert stream(5).integers(2**62) == np.random.default_rng(5).integers(2**62)

    @pytest.mark.parametrize("seed,key", [(-1, (0,)), (1, (0, -2))])
    def test_negative_seed_or_key_element_is_value_error(self, seed, key):
        with pytest.raises(ValueError):
            stream(seed, key)


class TestOutputNoise:
    def test_golden_value(self):
        # Lambda = mu = n = eps = 1, delta = 0.05: sigma^2 = 8*log(25)
        assert output_noise_variance(1.0, 1.0, 1, 1.0, 0.05) == pytest.approx(
            8 * math.log(25), rel=1e-12
        )
        # frozen regression (independent transcription pinned this float)
        assert output_noise_variance(1.0, 1.0, 1, 1.0, 0.05) == 25.751006598945605

    def test_inverse_square_epsilon_scaling(self):
        base = output_noise_variance(1.0, 1.0, 10, 1.0, 0.01)
        assert output_noise_variance(1.0, 1.0, 10, math.sqrt(2), 0.01) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_mean_of_draws_near_zero(self):
        # CLT check on the sampler itself, 1e4 substreams
        hstar = LinearModel(np.zeros((2, 3)), radius=1e9)  # projection inactive
        c = flat_constants(loss_lipschitz=2.0, radius=1e9)
        pp = quiet_params(1.0, 0.05, 0.1, "output_perturbation", seed=99)
        sigma = math.sqrt(output_noise_variance(2.0, 1.0, 1, 1.0, 0.05))
        total = np.zeros((2, 3))
        draws = 10_000
        for i in range(draws):
            total += output_perturb(hstar, c, 1, pp, substream=i).weights
        mean = total / draws
        assert np.all(np.abs(mean) <= 4 * sigma / math.sqrt(draws))

    def test_one_key_release_is_its_stream_written_out(self):
        # sigma about 0.2 around a point of norm 0.8 in the unit ball: some
        # draws are projected and some are not
        hstar = LinearModel(np.full((2, 2), 0.4), radius=1.0)
        c = flat_constants(loss_lipschitz=0.02, radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "output_perturbation", seed=11)
        sigma = math.sqrt(output_noise_variance(0.02, 1.0, 1, 0.5, 0.05))
        keys = [(3, j) for j in range(200)]
        clipped = 0
        for key in keys:
            row = output_perturb(hstar, c, 1, pp, substream=key).weights
            # the recipe, written out: the key's own stream, then projection
            noisy = hstar.weights + numpy_stream(11, key).normal(0.0, sigma, size=(2, 2))
            norm = np.linalg.norm(noisy)
            clipped += norm > 1.0
            assert np.array_equal(row, noisy if norm <= 1.0 else noisy * (1.0 / norm))
        assert 0 < clipped < len(keys)

    def test_deterministic_per_substream(self):
        hstar = LinearModel(np.ones((2, 2)), radius=10.0)
        c = flat_constants(radius=10.0)
        pp = quiet_params(0.5, 0.05, 0.1, "output_perturbation", seed=5)
        a = output_perturb(hstar, c, 4, pp, substream=3)
        b = output_perturb(hstar, c, 4, pp, substream=3)
        other = output_perturb(hstar, c, 4, pp, substream=4)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, other.weights)

    def test_projection_postcondition(self):
        hstar = LinearModel(np.ones((2, 2)) * 0.4, radius=1.0)
        c = flat_constants(loss_lipschitz=50.0, radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "output_perturbation", seed=1)
        for i in range(50):
            released = output_perturb(hstar, c, 1, pp, substream=i)
            assert np.linalg.norm(released.weights) <= 1.0 + 1e-9


class TestOutputPerturbMany:
    def test_rows_are_one_stream_in_order(self):
        hstar = LinearModel(np.full((2, 3), 0.3), radius=1.0)
        c = flat_constants(loss_lipschitz=0.02, radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "output_perturbation", seed=11)
        stack = output_perturb_many(hstar, c, 1, pp, stream(11, (1, 4)), 50)
        assert stack.shape == (50, 2, 3)
        # draw j does not depend on how many draws follow it
        for k in (1, 7, 49):
            assert np.array_equal(stack[:k], output_perturb_many(hstar, c, 1, pp, stream(11, (1, 4)), k))
        # one stream: the first row is the one-key release of the same key
        assert np.array_equal(stack[0], output_perturb(hstar, c, 1, pp, substream=(1, 4)).weights)
        assert len({row.tobytes() for row in stack}) == 50

    def test_wrong_mechanism(self):
        hstar = LinearModel(np.zeros((2, 2)), radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "dp_sgd", seed=0)
        with pytest.raises(ValueError, match="mechanism"):
            output_perturb_many(hstar, flat_constants(), 1, pp, stream(0), 2)


class TestOutputDistanceBound:
    def test_nulled_logs_give_sqrt32(self):
        pp = quiet_params(1.0, 1.25 / math.e, 2 / math.e, "output_perturbation", seed=0)
        c = flat_constants()
        assert output_perturb_distance_bound(1, c, 1, pp) == pytest.approx(
            math.sqrt(32), rel=1e-12
        )

    def test_doubling_n_halves_bound(self):
        pp = quiet_params(0.5, 0.01, 0.1, "output_perturbation", seed=0)
        c = flat_constants(loss_lipschitz=3.0)
        assert output_perturb_distance_bound(6, c, 200, pp) == pytest.approx(
            output_perturb_distance_bound(6, c, 100, pp) / 2, rel=1e-15
        )

    def test_budget_the_release_refuses_has_no_distance(self):
        # the lemma-2 distance of a budget with no release was certified
        pp = quiet_params(16.0, 1e-5, 0.1, "output_perturbation", seed=0)
        with pytest.raises(ConfigError, match="exact delta"):
            output_noise_variance(1.0, 1.0, 100, pp.epsilon, pp.delta)
        with pytest.raises(ConfigError, match="exact delta"):
            output_perturb_distance_bound(3, flat_constants(), 100, pp)
        with pytest.raises(ConfigError, match="exact delta"):
            resolve_distance(3, flat_constants(), 100, pp)


class TestDpSgdNoise:
    def test_t_one_collapses_exponents(self):
        a = dpsgd_noise(1.0, 1, 1, 1.0, 0.05, "T_squared")
        b = dpsgd_noise(1.0, 1, 1, 1.0, 0.05, "T_linear")
        assert a == b

    def test_exponent_ratio_is_t(self):
        for steps in (2, 7, 31):
            a = dpsgd_noise(1.5, steps, 50, 0.5, 1e-4, "T_squared")
            b = dpsgd_noise(1.5, steps, 50, 0.5, 1e-4, "T_linear")
            assert a / b == pytest.approx(steps, rel=1e-12)

    def test_lipschitz_quadruples(self):
        base = dpsgd_noise(1.0, 5, 100, 0.5, 1e-4)
        assert dpsgd_noise(2.0, 5, 100, 0.5, 1e-4) == pytest.approx(4 * base, rel=1e-12)

    def test_frozen_golden(self):
        assert dpsgd_noise(2.0, 7, 100, 0.5, 1e-5) == 891.5736642617527


class TestDpSgd:
    def test_noise_free_reaches_optimum(self):
        # one example duplicated: per-example gradients all equal, so SGD
        # with zero noise is plain gradient descent and converges
        rng = np.random.default_rng(4)
        x = np.array([0.8, -0.3, 1.0])
        features = np.tile(x, (4, 1))
        from conftest import make_dataset

        d = make_dataset(features, [0, 1, 0, 1], [1, 1, 1, 1])
        hstar = fit_erm(d, lam=1.0, tol=1e-12)
        c = constants(d, 1.0, hstar.radius)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=11)
        cfg = DpSgdConfig(steps=4000, step_size=0.5 / c.smoothness, noise_variance=0.0,
                          radius=c.radius)
        out = dpsgd(d, c, pp, cfg)
        assert distance(out, hstar) <= 0.05 * np.linalg.norm(hstar.weights)

    def test_zero_steps_returns_zero_model(self, rng):
        d = random_dataset(rng, 10)
        c = constants(d, 1.0, 2.0)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=2)
        cfg = DpSgdConfig(steps=0, step_size=0.5 / c.smoothness, noise_variance=0.0, radius=2.0)
        out = dpsgd(d, c, pp, cfg)
        assert np.all(out.weights == 0.0)

    def test_deterministic(self, rng):
        d = random_dataset(rng, 12)
        c = constants(d, 1.0, 2.0)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=21)
        cfg = DpSgdConfig.calibrated(c, d.n, pp, steps=25)
        a = dpsgd(d, c, pp, cfg)
        b = dpsgd(d, c, pp, cfg)
        assert np.array_equal(a.weights, b.weights)

    def test_generator_substream_is_used_as_given(self, rng):
        d = random_dataset(rng, 12)
        c = constants(d, 1.0, 2.0)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=21)
        cfg = DpSgdConfig.calibrated(c, d.n, pp, steps=25)
        keyed = dpsgd(d, c, pp, cfg, substream=(1, 2))
        shared = stream(21, (1, 2))
        first = dpsgd(d, c, pp, cfg, substream=shared)
        second = dpsgd(d, c, pp, cfg, substream=shared)
        assert np.array_equal(first.weights, keyed.weights)
        assert not np.array_equal(second.weights, first.weights)

    def test_stays_in_ball(self, rng):
        d = random_dataset(rng, 12)
        c = constants(d, 1.0, 1.5)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=8)
        cfg = DpSgdConfig.calibrated(c, d.n, pp, steps=40)
        out = dpsgd(d, c, pp, cfg)
        assert np.linalg.norm(out.weights) <= 1.5 + 1e-9

    def test_oversized_step_rejected(self, rng):
        d = random_dataset(rng, 10)
        c = constants(d, 1.0, 2.0)
        pp = quiet_params(0.9, 0.01, 0.1, "dp_sgd", seed=2)
        cfg = DpSgdConfig(steps=5, step_size=1.0 / c.smoothness, noise_variance=0.0, radius=2.0)
        with pytest.raises(ValueError):
            dpsgd(d, c, pp, cfg)


class TestDpSgdDistanceBound:
    def test_frozen_golden(self):
        c = flat_constants(loss_lipschitz=2.0, strong_convexity=1.0, smoothness=5.0)
        pp = quiet_params(1.0, 1e-6, 0.1, "dp_sgd", seed=0)
        b = dpsgd_distance_bound(4, c, 1000, pp)  # start bound 2R = 2
        # frozen from an independent transcription of the closed form
        assert b.distance == pytest.approx(6.727179680384024, rel=1e-12)
        assert b.steps == 79
        assert b.noise_variance == pytest.approx(447.0013534122043, rel=1e-12)

    def test_zeta_inverse_sqrt_scaling(self):
        c = flat_constants(loss_lipschitz=2.0, smoothness=5.0)
        pa = quiet_params(1.0, 1e-6, 0.1, "dp_sgd", seed=0)
        pb = quiet_params(1.0, 1e-6, 0.05, "dp_sgd", seed=0)
        a = dpsgd_distance_bound(4, c, 1000, pa).distance
        b = dpsgd_distance_bound(4, c, 1000, pb).distance
        assert b / a == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_already_converged_branch(self):
        # enormous noise floor: mu*beta*(2R)^2 <= 2M^2
        c = flat_constants(loss_lipschitz=100.0, smoothness=1.0, radius=0.05)
        pp = quiet_params(0.01, 1e-6, 0.1, "dp_sgd", seed=0)
        b = dpsgd_distance_bound(4, c, 10, pp)
        assert b.steps == 0
        assert b.distance == 0.1


class TestReleaseMany:
    def test_dpsgd_draws_are_one_stream_in_order(self, rng):
        d = random_dataset(rng, 40)
        hstar = fit_erm(d, lam=1.0)
        c = constants(d, 1.0, hstar.radius)
        pp = quiet_params(5.0, 1e-3, 0.1, "dp_sgd", seed=17)
        assert dpsgd_distance_bound(hstar.num_params, c, d.n, pp).steps > 0
        stack = release_many(hstar, d, c, pp, stream(17, (1, 0)), 6)
        assert stack.shape == (6, d.num_labels, d.p)
        assert len({row.tobytes() for row in stack}) == 6
        # draw j does not depend on how many draws follow it
        for k in (1, 4):
            prefix = release_many(hstar, d, c, pp, stream(17, (1, 0)), k)
            assert np.array_equal(stack[:k], prefix)
        single = release(hstar, d, c, pp, substream=(1, 0))
        assert np.array_equal(stack[0], single.weights)


class TestRelease:
    """Every release is the mechanism primitive that the lemma of
    :func:`resolve_distance` describes, bit for bit."""

    @pytest.mark.parametrize("substream", [0, 3, (1, 2)])
    def test_output_perturbation_is_output_perturb(self, rng, substream):
        d = random_dataset(rng, 40)
        hstar = fit_erm(d, lam=1.0)
        c = constants(d, 1.0, hstar.radius)
        pp = quiet_params(2.0, 1e-3, 0.1, "output_perturbation", seed=5)
        released = release(hstar, d, c, pp, substream=substream)
        expected = output_perturb(hstar, c, d.n, pp, substream)
        assert released.weights.tobytes() == expected.weights.tobytes()
        assert released.radius == expected.radius

    @pytest.mark.parametrize("substream", [0, 3, (1, 2)])
    def test_dpsgd_is_dpsgd_on_the_lemma_schedule(self, rng, substream):
        d = random_dataset(rng, 40)
        hstar = fit_erm(d, lam=1.0)
        c = constants(d, 1.0, hstar.radius)
        pp = quiet_params(5.0, 1e-3, 0.1, "dp_sgd", seed=5)
        steps = dpsgd_distance_bound(hstar.num_params, c, d.n, pp).steps
        assert steps > 0
        released = release(hstar, d, c, pp, substream=substream)
        expected = dpsgd(d, c, pp, DpSgdConfig.calibrated(c, d.n, pp, steps), substream=substream)
        assert released.weights.tobytes() == expected.weights.tobytes()
        assert released.radius == expected.radius

    def test_dpsgd_release_warns_when_its_noise_is_dominated(self, rng):
        d = random_dataset(rng, 1000)
        hstar = fit_erm(d, lam=1.0)
        c = constants(d, 1.0, hstar.radius)
        pp = quiet_params(500.0, 0.1, 0.1, "dp_sgd", seed=5)
        noise = dpsgd_distance_bound(hstar.num_params, c, d.n, pp).noise_variance
        assert noise < empirical_gradient_second_moment(hstar, d, 1.0)
        with pytest.warns(UserWarning, match="second moment"):
            release(hstar, d, c, pp)
        # a sweep draws through release_many, which stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            release_many(hstar, d, c, pp, stream(5), 2)


class TestResolveDistance:
    def test_each_mechanism_resolves_to_its_lemma(self):
        c = flat_constants(loss_lipschitz=2.0, strong_convexity=1.0, smoothness=5.0)
        op = quiet_params(1.0, 1e-6, 0.1, "output_perturbation", seed=0)
        sgd = quiet_params(1.0, 1e-6, 0.1, "dp_sgd", seed=0)
        assert resolve_distance(4, c, 1000, op) == (
            output_perturb_distance_bound(4, c, 1000, op), "lemma2"
        )
        assert resolve_distance(4, c, 1000, sgd) == (
            dpsgd_distance_bound(4, c, 1000, sgd).distance, "lemma3"
        )
        for mechanism in MECHANISMS:
            pp = quiet_params(1.0, 1e-6, 0.1, mechanism, seed=0)
            assert resolve_distance(4, c, 1000, pp)[1] in DIST_PROVENANCES


class TestOutOfRangeCalibration:
    # Python float arithmetic raised ZeroDivisionError or OverflowError here
    @pytest.mark.parametrize("epsilon, lam", [(1e-300, 1.0), (1e300, 1.0), (1.0, 1e-300),
                                              (1.0, 1e300)])
    @pytest.mark.parametrize("mechanism", ["output_perturbation", "dp_sgd"])
    def test_noise_scale_and_distance_are_config_errors(self, epsilon, lam, mechanism):
        c = flat_constants(loss_lipschitz=2.0 + lam, strong_convexity=lam, smoothness=5.0 + lam)
        pp = quiet_params(epsilon, 1e-6, 0.1, mechanism, seed=0)
        if mechanism == "output_perturbation":
            with pytest.raises(ConfigError, match="finite positive"):
                output_noise_variance(c.loss_lipschitz, lam, 1000, epsilon, 1e-6)
            with pytest.raises(ConfigError, match="finite positive"):
                output_perturb_distance_bound(4, c, 1000, pp)
        elif lam == 1e-300:  # mu*beta*(2R)^2 <= 2M^2: no step, the 2R bound
            assert dpsgd_distance_bound(4, c, 1000, pp) == DpSgdBound(2.0, 0, 0.0)
        else:
            with pytest.raises(ConfigError, match="finite positive"):
                dpsgd_distance_bound(4, c, 1000, pp)

    def test_underflowing_variance_is_config_error(self):
        with pytest.raises(ConfigError, match="is 0.0"):
            output_noise_variance(1.0, 1e150, 10**6, 1e150, 0.5)

    def test_dpsgd_noise_over_too_many_steps_is_config_error(self):
        with pytest.raises(ConfigError, match="finite positive"):
            dpsgd_noise(1.0, 10**200, 100, 1.0, 1e-6)


class TestGradientMomentWarning:
    def test_warns_when_noise_too_small(self, rng):
        d = random_dataset(rng, 10)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        with pytest.warns(UserWarning, match="second moment"):
            flagged = warn_if_gradient_noise_dominates(m, d, 1.0, noise_variance=1e-12)
        assert flagged

    def test_silent_when_noise_dominates(self, rng):
        d = random_dataset(rng, 10)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not warn_if_gradient_noise_dominates(m, d, 1e-6, noise_variance=1e12)


def loop_gradient_second_moment(m, d, lam):
    """Oracle: mean squared norm of the per-example gradients, one at a time."""
    total = 0.0
    for i in range(d.n):
        g = gradient(m, d.example(i), lam)
        total += float(np.sum(g * g))
    return total / d.n


class TestGradientSecondMoment:
    @pytest.mark.parametrize("num_labels,p,lam", [(2, 3, 1.0), (3, 5, 0.01), (5, 2, 7.5)])
    def test_matches_per_example_loop(self, rng, num_labels, p, lam):
        for _ in range(20):
            d = random_dataset(rng, 40, p=p, num_labels=num_labels)
            scale = rng.choice([0.01, 1.0, 10.0])
            m = LinearModel(scale * rng.normal(size=(num_labels, p)), 1e3)
            got = empirical_gradient_second_moment(m, d, lam)
            assert got == pytest.approx(loop_gradient_second_moment(m, d, lam), rel=1e-12)

    def test_rejects_nonpositive_lambda(self, rng):
        d = random_dataset(rng, 10)
        with pytest.raises(ValueError):
            empirical_gradient_second_moment(LinearModel(np.zeros((2, 3)), 1.0), d, 0.0)
