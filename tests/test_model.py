import math
import warnings

import numpy as np
import pytest

from fairbound.model import (
    LinearModel,
    clip_to_ball,
    clip_to_ball_many,
    distance,
    frobenius_norms,
    load_model,
    margin,
    margins_many,
    pointwise_lipschitz_many,
    predict,
    save_model,
)


class TestPredict:
    def test_hand_cases(self):
        m = LinearModel(np.array([[1.0, 0.0], [0.0, 1.0]]), radius=10.0)
        assert predict(m, np.array([2.0, 0.0])) == 0
        assert predict(m, np.array([0.0, 3.0])) == 1

    def test_tie_breaks_to_lowest_id(self):
        m = LinearModel(np.zeros((3, 2)), radius=1.0)
        assert predict(m, np.array([1.0, -1.0])) == 0

    def test_dimension_mismatch(self):
        m = LinearModel(np.zeros((2, 2)), radius=1.0)
        with pytest.raises(ValueError):
            predict(m, np.array([1.0, 2.0, 3.0]))


class TestMargin:
    def test_hand_cases(self):
        m = LinearModel(np.array([[1.0, 0.0], [0.0, 1.0]]), radius=10.0)
        x = np.array([2.0, 0.0])
        assert margin(m, x, 0) == pytest.approx(2.0)
        assert margin(m, x, 1) == pytest.approx(-2.0)  # binary antisymmetry

    def test_zero_model_margin_is_zero(self):
        m = LinearModel(np.zeros((2, 3)), radius=1.0)
        assert margin(m, np.array([1.0, 2.0, 3.0]), 0) == 0.0

    def test_single_label_rejected(self):
        m = LinearModel(np.zeros((1, 2)), radius=1.0)
        with pytest.raises(ValueError):
            margin(m, np.array([1.0, 0.0]), 0)

    def test_sign_matches_prediction(self, rng):
        for _ in range(200):
            m = LinearModel(rng.normal(size=(3, 4)), radius=100.0)
            x = rng.normal(size=4)
            y = int(rng.integers(3))
            rho = margin(m, x, y)
            if rho > 0:
                assert predict(m, x) == y
            elif rho < 0:
                assert predict(m, x) != y

    def test_vectorized_matches_scalar(self, rng):
        m = LinearModel(rng.normal(size=(4, 3)), radius=100.0)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 4, 20)
        vec = margins_many(m, X, y)
        for i in range(20):
            assert vec[i] == pytest.approx(margin(m, X[i], int(y[i])), abs=1e-12)


class TestLipschitz:
    def test_hand_values(self):
        values = pointwise_lipschitz_many(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0]]))
        assert values[0] == pytest.approx(10.0)
        assert values[1] == 0.0
        assert pointwise_lipschitz_many(np.ones((1, 4)))[0] == pytest.approx(4.0)

    def test_margin_lipschitz_inequality(self, rng):
        # |margin(m) - margin(m')| <= 2||x|| * distance(m, m'), 1e-9 slack
        for _ in range(300):
            a = LinearModel(rng.normal(size=(3, 4)), radius=100.0)
            b = LinearModel(rng.normal(size=(3, 4)), radius=100.0)
            x = rng.normal(size=4)
            y = int(rng.integers(3))
            gap = abs(margin(a, x, y) - margin(b, x, y))
            assert gap <= 2.0 * np.linalg.norm(x) * distance(a, b) + 1e-9


class TestDistance:
    def test_identity_and_single_entry(self):
        a = LinearModel(np.array([[1.0, 2.0], [3.0, 4.0]]), radius=10.0)
        assert distance(a, a) == 0.0
        b = LinearModel(a.weights + np.array([[5.0, 0.0], [0.0, 0.0]]), radius=10.0)
        assert distance(a, b) == pytest.approx(5.0)

    def test_hand_frobenius(self):
        a = LinearModel(np.array([[3.0, 0.0], [0.0, 4.0]]), radius=10.0)
        z = LinearModel(np.zeros((2, 2)), radius=10.0)
        assert distance(a, z) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        a = LinearModel(np.zeros((2, 2)), radius=1.0)
        b = LinearModel(np.zeros((2, 3)), radius=1.0)
        with pytest.raises(ValueError):
            distance(a, b)


class TestProject:
    def test_interior_unchanged(self):
        m = LinearModel(np.array([[2.0, 0.0]]), radius=5.0)
        assert np.array_equal(clip_to_ball(m.weights, 3.0).weights, m.weights)

    def test_radial_scaling(self):
        m = LinearModel(np.array([[0.0, 4.0]]), radius=5.0)
        p = clip_to_ball(m.weights, 2.0)
        assert np.linalg.norm(p.weights) == pytest.approx(2.0)
        assert p.weights[0, 1] > 0  # direction preserved

    def test_zero_fixed_point(self):
        m = LinearModel(np.zeros((2, 2)), radius=1.0)
        assert np.array_equal(clip_to_ball(m.weights, 0.5).weights, np.zeros((2, 2)))

    def test_bad_radius(self):
        m = LinearModel(np.zeros((1, 1)), radius=1.0)
        with pytest.raises(ValueError):
            clip_to_ball(m.weights, 0.0)

    def test_idempotent_and_nonexpansive(self, rng):
        for _ in range(100):
            a = LinearModel(rng.normal(size=(2, 3)), radius=100.0)
            b = LinearModel(rng.normal(size=(2, 3)), radius=100.0)
            r = float(rng.uniform(0.1, 3.0))
            pa, pb = clip_to_ball(a.weights, r), clip_to_ball(b.weights, r)
            assert np.allclose(clip_to_ball(pa.weights, r).weights, pa.weights)
            assert distance(pa, pb) <= distance(a, b) + 1e-12


class TestStackedProjection:
    def test_frobenius_norms_equal_linalg_norm(self, rng):
        for _ in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 9, size=3))
            weights = rng.normal(size=shape) * 10.0 ** float(rng.integers(-6, 7))
            expected = np.array([np.linalg.norm(w) for w in weights])
            assert np.all(frobenius_norms(weights) == expected)

    def test_rows_equal_one_matrix_at_a_time(self, rng):
        weights = rng.normal(size=(60, 3, 4))
        clipped = clip_to_ball_many(weights, 3.0)
        norms = np.array([np.linalg.norm(w) for w in weights])
        assert np.any(norms > 3.0) and np.any(norms <= 3.0)
        for w, row, norm in zip(weights, clipped, norms):
            assert np.array_equal(row, w if norm <= 3.0 else w * (3.0 / norm))
            assert np.array_equal(row, clip_to_ball(w, 3.0).weights)

    def test_zero_matrix_projects_without_warning(self):
        weights = np.stack([np.zeros((2, 2)), np.full((2, 2), 4.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped = clip_to_ball_many(weights, 1.0)
            single = clip_to_ball(np.zeros((2, 2)), 1.0)
        assert np.array_equal(clipped[0], np.zeros((2, 2)))
        assert np.array_equal(single.weights, np.zeros((2, 2)))
        assert np.linalg.norm(clipped[1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_value_error(self, bad):
        weights = np.zeros((3, 2, 2))
        weights[1, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            clip_to_ball_many(weights, 1.0)

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            clip_to_ball_many(np.zeros((2, 1, 1)), 0.0)

    @pytest.mark.parametrize("radius", [1e8, 1e10, 1e15])
    def test_large_radius_projection_is_inside(self, radius):
        # a projected norm can exceed R by a few ulps of R, which at these
        # radii is more than an absolute 1e-9
        weights = np.random.default_rng(0).normal(size=(200, 3, 5)) * (10.0 * radius)
        clipped = clip_to_ball_many(weights, radius)
        assert np.allclose(frobenius_norms(clipped), radius, rtol=1e-15, atol=0.0)
        for w in clipped:
            assert LinearModel(w, radius).radius == radius

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e10])
    def test_ball_slack_scales_with_radius(self, radius):
        slack = 1e-9 * max(1.0, radius)
        assert LinearModel(np.array([[radius + 0.5 * slack]]), radius).radius == radius
        with pytest.raises(ValueError, match="ball radius"):
            LinearModel(np.array([[radius + 2.0 * slack]]), radius)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, rng):
        m = LinearModel(rng.normal(size=(3, 5)), radius=float(rng.uniform(5, 10)))
        path = tmp_path / "m.txt"
        save_model(m, str(path))
        m2 = load_model(str(path))
        assert np.array_equal(m.weights, m2.weights)
        assert m.radius == m2.radius

    def test_ball_invariant_enforced(self):
        with pytest.raises(ValueError):
            LinearModel(np.full((2, 2), 10.0), radius=1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError):
            LinearModel(np.zeros((2, 2)), radius=radius)
