import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbound.model import LinearModel, distance
from fairbound.privacy import (
    _generators,
    _substream,
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
    pcg64_states,
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
        lam=strong_convexity,
        strong_convexity=strong_convexity,
        loss_lipschitz=loss_lipschitz,
        smoothness=smoothness,
        radius=radius,
        feature_bound=0.0,
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
            PrivacyParams(2.0, 0.1, 0.1, "output_perturbation", 0)


def numpy_state(seed, key):
    """The oracle: (state, inc) of NumPy's own seeding for one key."""
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state["state"]
    return state["state"], state["inc"]


WORD_EDGES = [0, 2**32 - 1, 2**32, 2**64, 2**64 + 1, 2**70]
key_elements = st.one_of(st.integers(0, 2**70), st.sampled_from(WORD_EDGES))
seeds = st.one_of(st.integers(0, 2**130 - 1), st.integers(0, 2**20).map(lambda k: 2**64 + k),
                  st.sampled_from(WORD_EDGES))


class TestPcg64States:
    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=seeds,
           keys=st.lists(st.lists(key_elements, min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=6))
    @example(seed=0, keys=[(0,)])
    @example(seed=2**32 - 1, keys=[(1, 2)])
    @example(seed=2**32, keys=[(2**32, 0, 2**32 - 1)])
    @example(seed=2**64 + 7, keys=[(3,), (3, 0), (2**70,)])
    def test_equals_numpy_seed_sequence(self, seed, keys):
        # keys of different word counts share one batch, as draws of mixed
        # key lengths would
        assert pcg64_states(seed, keys) == [numpy_state(seed, key) for key in keys]

    def test_no_keys(self):
        assert pcg64_states(3, []) == []

    @pytest.mark.parametrize("seed,key", [(-1, (0,)), (1, (0, -2))])
    def test_negative_seed_or_key_element_is_value_error(self, seed, key):
        with pytest.raises(ValueError, match="non-negative"):
            pcg64_states(seed, [key])

    @pytest.mark.parametrize("seed,key", [(0, (0,)), (7000, (2, 399)), (2**64 + 1, (2**40, 3, 0))])
    def test_substream_equals_default_rng(self, seed, key):
        ours = _substream(seed, key)
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        for i in range(1000):
            if i % 3 == 0:
                assert np.array_equal(ours.normal(0.0, 2.0, size=3), ref.normal(0.0, 2.0, size=3))
            elif i % 3 == 1:
                assert ours.integers(1000) == ref.integers(1000)
            else:  # 32-bit draws use the bit generator's buffered half word
                assert ours.integers(2**31, dtype=np.int32) == ref.integers(2**31, dtype=np.int32)

    def test_reused_generator_drops_buffered_half_word(self):
        keys = [(5, j) for j in range(20)]
        for key, rng in zip(keys, _generators(9, keys)):
            ref = np.random.default_rng(np.random.SeedSequence(9, spawn_key=key))
            # an odd number of 32-bit draws leaves half a word buffered
            for _ in range(3):
                assert rng.integers(2**31, dtype=np.int32) == ref.integers(2**31, dtype=np.int32)
            assert np.array_equal(rng.normal(size=4), ref.normal(size=4))


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
    def test_rows_equal_single_draws(self):
        # sigma about 0.2 around a point of norm 0.8 in the unit ball: some
        # draws are projected and some are not
        hstar = LinearModel(np.full((2, 2), 0.4), radius=1.0)
        c = flat_constants(loss_lipschitz=0.02, radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "output_perturbation", seed=11)
        sigma = math.sqrt(output_noise_variance(0.02, 1.0, 1, 0.5, 0.05))
        substreams = [(3, j) for j in range(200)]
        stack = output_perturb_many(hstar, c, 1, pp, substreams)
        assert stack.shape == (200, 2, 2)
        clipped = 0
        for row, key in zip(stack, substreams):
            assert np.array_equal(row, output_perturb(hstar, c, 1, pp, substream=key).weights)
            # the per-draw recipe, written out: own substream, then projection
            rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=key))
            noisy = hstar.weights + rng.normal(0.0, sigma, size=(2, 2))
            norm = np.linalg.norm(noisy)
            clipped += norm > 1.0
            assert np.array_equal(row, noisy if norm <= 1.0 else noisy * (1.0 / norm))
        assert 0 < clipped < len(substreams)

    def test_wrong_mechanism(self):
        hstar = LinearModel(np.zeros((2, 2)), radius=1.0)
        pp = quiet_params(0.5, 0.05, 0.1, "dp_sgd", seed=0)
        with pytest.raises(ValueError, match="mechanism"):
            output_perturb_many(hstar, flat_constants(), 1, pp, [0, 1])


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
        b = dpsgd_distance_bound(4, c, 1000, pp, h0_dist_bound=2.0)
        # frozen from an independent transcription of the closed form
        assert b.distance == pytest.approx(6.727179680384024, rel=1e-12)
        assert b.steps == 79
        assert b.noise_variance == pytest.approx(447.0013534122043, rel=1e-12)

    def test_zeta_inverse_sqrt_scaling(self):
        c = flat_constants(loss_lipschitz=2.0, smoothness=5.0)
        pa = quiet_params(1.0, 1e-6, 0.1, "dp_sgd", seed=0)
        pb = quiet_params(1.0, 1e-6, 0.05, "dp_sgd", seed=0)
        a = dpsgd_distance_bound(4, c, 1000, pa, h0_dist_bound=2.0).distance
        b = dpsgd_distance_bound(4, c, 1000, pb, h0_dist_bound=2.0).distance
        assert b / a == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_already_converged_branch(self):
        # enormous noise floor: mu*beta*h0^2 <= 2M^2
        c = flat_constants(loss_lipschitz=100.0, smoothness=1.0)
        pp = quiet_params(0.01, 1e-6, 0.1, "dp_sgd", seed=0)
        b = dpsgd_distance_bound(4, c, 10, pp, h0_dist_bound=0.1)
        assert b.steps == 0
        assert b.distance == 0.1

    def test_default_start_bound_is_two_radii(self):
        c = flat_constants(loss_lipschitz=2.0, smoothness=5.0, radius=1.0)
        pp = quiet_params(1.0, 1e-6, 0.1, "dp_sgd", seed=0)
        explicit = dpsgd_distance_bound(4, c, 1000, pp, h0_dist_bound=2.0)
        default = dpsgd_distance_bound(4, c, 1000, pp)
        assert default.distance == explicit.distance


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
