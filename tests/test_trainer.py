import math

import numpy as np
import pytest

from fairbound import trainer
from fairbound.dataset import CellSpec, SyntheticSpec, synthesize
from fairbound.exceptions import ConfigError, ConvergenceError, DataError
from fairbound.model import LinearModel, distance
from fairbound.trainer import constants, fit_erm, gradient, log_sum_exp_softmax, loss, softmax

from conftest import make_dataset, random_dataset


def definition_softmax(scores, axis):
    """exp(s_j) / sum_k exp(s_k) along ``axis``, with every score first
    shifted by the largest so that exp cannot overflow."""
    shifted = np.exp(scores - scores.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


def objective_gradient(weights, d, lam, softmax=definition_softmax):
    """Gradient of the mean cross-entropy plus (lam/2)*||W||^2, from its
    definition: the mean of (softmax(W x_i) - onehot(y_i)) x_i^T, plus lam*W."""
    residual = softmax(d.features @ weights.T, axis=1)
    residual[np.arange(d.n), d.labels] -= 1.0
    return residual.T @ d.features / d.n + lam * weights


def gradient_descent(d, lam, tol):
    """Oracle for ``fit_erm``: full-batch gradient descent from zero with
    step 1/beta, beta = B^2 + lam bounding the objective's smoothness."""
    step = 1.0 / (d.feature_norm_bound**2 + lam)
    weights = np.zeros((d.num_labels, d.p))
    for _ in range(200_000):
        grad = objective_gradient(weights, d, lam)
        if np.linalg.norm(grad) <= tol:
            return weights
        weights = weights - step * grad
    raise AssertionError("gradient descent did not converge")


def separate_evaluations_newton(d, lam, special, tol=trainer.DEFAULT_TOL):
    """Oracle for ``fit_erm``: its damped Newton iteration, with the value,
    the gradient and the Hessian each computed from scores of their own,
    through the ``logsumexp`` and ``softmax`` of ``special``
    (``scipy.special``)."""
    rows = np.arange(d.n)

    def value(w):
        scores = d.features @ w.T
        return float(np.mean(special.logsumexp(scores, axis=1) - scores[rows, d.labels])
                     + 0.5 * lam * np.sum(w**2))

    def grad(w):
        return objective_gradient(w, d, lam, softmax=special.softmax)

    def hessian(w):
        probs = special.softmax(d.features @ w.T, axis=1)
        num_labels, p = w.shape
        hess = np.empty((num_labels * p, num_labels * p))
        for a in range(num_labels):
            for b in range(a, num_labels):
                weight = -probs[:, a] * probs[:, b]
                if a == b:
                    weight += probs[:, a]
                block = d.features.T @ (weight[:, None] * d.features) / d.n
                hess[a * p : (a + 1) * p, b * p : (b + 1) * p] = block
                hess[b * p : (b + 1) * p, a * p : (a + 1) * p] = block.T
        hess[np.diag_indices_from(hess)] += lam
        return hess

    weights = np.zeros((d.num_labels, d.p))
    val, g = value(weights), grad(weights)
    for _ in range(trainer.DEFAULT_MAX_ITERS):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= tol:
            return weights
        direction = np.linalg.solve(hessian(weights), -g.ravel()).reshape(g.shape)
        slope = float(np.sum(g * direction))
        floor = 8.0 * np.finfo(float).eps * abs(val)
        step = 1.0
        while True:
            trial = weights + step * direction
            trial -= trial.mean(axis=0)
            trial_value = value(trial)
            if trial_value <= val + 1e-4 * step * slope:
                weights, val, g = trial, trial_value, grad(trial)
                break
            if trial_value <= val + floor and np.linalg.norm(grad(trial)) < grad_norm:
                weights, val, g = trial, trial_value, grad(trial)
                break
            step *= 0.5
            assert step > 2.0**-50, "no acceptable step"
    raise AssertionError("the oracle did not converge")


def sweep_generator_data():
    """Data shaped like the epsilon-sweep benchmark's: 2 labels x 2 groups,
    1,000 rows per cell, 4 features; label y has mean 2 on axis y and the
    group shifts axis y+1 by -0.5 or +0.5."""
    cells = {}
    for label in (0, 1):
        for sens in (0, 1):
            mean = np.zeros(4)
            mean[label] += 2.0
            mean[label + 1] += 0.5 if sens else -0.5
            cells[(label, sens)] = CellSpec(count=1000, mean=mean, cov=np.ones(4))
    return synthesize(SyntheticSpec(num_features=4, cells=cells), seed=7000)


class TestLoss:
    def test_zero_model_is_log_num_labels(self, rng):
        d = random_dataset(rng, 10)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        assert loss(m, d, 1e-9) == pytest.approx(math.log(2.0), abs=1e-12)
        d3 = random_dataset(rng, 12, num_labels=3)
        m3 = LinearModel(np.zeros((3, 3)), 1.0)
        assert loss(m3, d3, 1e-9) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_dominant_logit_leaves_only_ridge(self):
        # single example, correct logit ahead by 50: cross-entropy < 2e-22
        x = np.array([1.0, 1.0])
        d = make_dataset(np.array([x]), [0], [0], num_labels=2, num_sensitive=1)
        w = np.array([[25.0, 0.0], [0.0, -25.0]])  # scores (25, -25)
        m = LinearModel(w, 100.0)
        lam = 0.5
        assert loss(m, d, lam) == pytest.approx(0.5 * lam * np.sum(w**2), abs=1e-10)


class TestGradient:
    def test_finite_differences(self, rng):
        d = random_dataset(rng, 5)
        lam = 0.7
        for _ in range(20):
            w = rng.normal(size=(2, 3))
            m = LinearModel(w, 100.0)
            ex = d.example(int(rng.integers(d.n)))
            g = gradient(m, ex, lam)
            h = 1e-5
            for i in range(2):
                for j in range(3):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    dsingle = make_dataset(np.array([ex.features]), [ex.sensitive], [ex.label],
                                           num_labels=2, num_sensitive=2)
                    fp = loss(LinearModel(wp, 100.0), dsingle, lam)
                    fm = loss(LinearModel(wm, 100.0), dsingle, lam)
                    fd = (fp - fm) / (2 * h)
                    assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_zero_model_binary_true_row(self):
        x = np.array([1.0, 0.0, 0.0])
        d = make_dataset(np.array([x]), [0], [0], num_sensitive=1)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        g = gradient(m, d.example(0), lam=1e-12)
        assert np.allclose(g[0], -0.5 * x, atol=1e-12)

    def test_degenerate_zero_input(self):
        x = np.zeros(2)
        d = make_dataset(np.array([x]), [0], [0], num_sensitive=1)
        m = LinearModel(np.zeros((2, 2)), 1.0)
        g = gradient(m, d.example(0), lam=1e-300)
        assert np.allclose(g, 0.0, atol=1e-300)


class TestFitErm:
    def test_gradient_norm_postcondition(self, desk_data):
        m = fit_erm(desk_data, lam=1.0, tol=1e-8)
        gn = np.linalg.norm(objective_gradient(m.weights, desk_data, 1.0))
        assert gn <= 1e-8

    def test_duplication_invariance(self, rng):
        # duplicating every example leaves the objective unchanged, so the
        # optima agree up to optimizer precision: ||h1 - h2|| <= 2*tol/lam
        d = random_dataset(rng, 15)
        doubled = d.subset(np.concatenate([np.arange(d.n), np.arange(d.n)]))
        lam, tol = 0.5, 1e-10
        m1 = fit_erm(d, lam=lam, tol=tol)
        m2 = fit_erm(doubled, lam=lam, tol=tol)
        assert distance(m1, m2) <= 2 * tol / lam

    def test_bit_identical_reruns(self, rng):
        d = random_dataset(rng, 25)
        m1 = fit_erm(d, lam=1.0)
        m2 = fit_erm(d, lam=1.0)
        assert np.array_equal(m1.weights, m2.weights)

    def test_default_radius_doubles_norm(self, desk_data):
        m = fit_erm(desk_data, lam=1.0)
        assert m.radius == pytest.approx(2 * np.linalg.norm(m.weights))

    def test_convergence_error_carries_norm(self, desk_data):
        with pytest.raises(ConvergenceError) as err:
            fit_erm(desk_data, lam=1.0, tol=1e-10, max_iters=2)
        assert err.value.gradient_norm > 0

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_is_config_error(self, desk_data, max_iters):
        with pytest.raises(ConfigError, match="max_iters"):
            fit_erm(desk_data, lam=1.0, max_iters=max_iters)

    @pytest.mark.parametrize("num_labels", [2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [1.0, 1e-3])
    def test_equals_separate_evaluations_oracle(self, rng, num_labels, lam):
        # one score matrix and one exp pass per trial point give the same
        # iterates bit for bit as SciPy's logsumexp and softmax, each on
        # scores of its own
        special = pytest.importorskip("scipy.special")
        d = random_dataset(rng, 200, p=4, num_labels=num_labels)
        oracle = separate_evaluations_newton(d, lam, special)
        assert np.array_equal(fit_erm(d, lam).weights, oracle)

    def test_fewer_than_two_rows_per_label_is_data_error(self, rng, monkeypatch):
        # a label column holding a feature gives about one label per row;
        # fit_erm rejects it before computing any objective
        d = random_dataset(rng, 5, num_labels=3, num_sensitive=1)
        monkeypatch.setattr(trainer, "_objective", None)
        with pytest.raises(DataError, match="3 labels on 5 rows"):
            fit_erm(d, lam=1.0)

    def test_overflowing_feature_norm_is_data_error(self, monkeypatch):
        # the norm of row 1 overflows; fit_erm rejects it before computing
        # any objective, where it once stopped with a ConvergenceError
        d = make_dataset([[1.0, 1.0], [1e160, 1.0], [2.0, 1.0], [3.0, 1.0]],
                         [0, 1, 0, 1], [0, 1, 1, 0])
        monkeypatch.setattr(trainer, "_objective", None)
        with pytest.raises(DataError, match="data row 1"):
            fit_erm(d, lam=1.0)

    def test_hessian_over_the_cap_is_data_error(self, rng, monkeypatch):
        d = random_dataset(rng, 40, num_labels=3)
        hessian_bytes = (3 * d.p) ** 2 * 8
        monkeypatch.setattr(trainer, "MAX_HESSIAN_BYTES", hessian_bytes)
        fit_erm(d, lam=1.0)
        monkeypatch.setattr(trainer, "MAX_HESSIAN_BYTES", hessian_bytes - 1)
        with pytest.raises(DataError, match="Newton Hessian"):
            fit_erm(d, lam=1.0)

    def test_unaccepted_step_raises_at_once(self, rng, monkeypatch):
        # an objective that rejects every step away from zero leaves no step
        # to accept along the first Newton direction
        d = random_dataset(rng, 40)
        real_objective = trainer._objective
        monkeypatch.setattr(
            trainer, "_objective",
            lambda w, d, lam: real_objective(w, d, lam) if not w.any() else (math.inf, None),
        )
        norms = []
        with pytest.raises(ConvergenceError, match="no acceptable step") as err:
            fit_erm(d, lam=1.0, callback=lambda it, lo, gn: norms.append(gn))
        assert len(norms) == 1
        assert err.value.gradient_norm == norms[0]

    def test_singular_hessian_is_convergence_error(self):
        # intercept-only binary data: the Hessian at zero is
        # [[1, -1], [-1, 1]]/4, and lam = 1e-300 vanishes against it
        d = make_dataset(np.ones((4, 1)), [0, 1, 0, 1], [0, 0, 0, 1])
        with pytest.raises(ConvergenceError, match="singular Hessian") as err:
            fit_erm(d, lam=1e-300)
        assert err.value.gradient_norm > 0

    @pytest.mark.parametrize("num_labels", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 1e-6, 1e-12, 1e-300])
    def test_weight_rows_sum_to_zero(self, rng, lam, num_labels):
        # the loss is flat along a shift common to all weight rows, so the
        # optimum's rows sum to zero; rounding in a near-singular Newton
        # solve must not move h* along that direction
        d = random_dataset(rng, 40, num_labels=num_labels)
        try:
            m = fit_erm(d, lam=lam)
        except ConvergenceError:
            assert lam == 1e-300
            return
        column_sums = m.weights.sum(axis=0)
        assert np.all(np.abs(column_sums) <= 1e-12 * np.linalg.norm(m.weights)), column_sums

    def test_monotone_loss_decrease(self, rng):
        d = random_dataset(rng, 40)
        losses = []
        fit_erm(d, lam=1.0, tol=1e-9, callback=lambda it, lo, gn: losses.append(lo))
        assert len(losses) > 2
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("case", ["sweep_generator", "small_lambda", "rounding_floor"])
    def test_reaches_tol_within_ten_iterations(self, rng, case):
        # Newton converges quadratically; gradient descent takes hundreds
        # of iterations on each case.  The rounding-floor case is the data of
        # test_duplication_invariance, where the objective cannot resolve the
        # last Armijo decrease.
        tol = 1e-10
        if case == "sweep_generator":
            datasets, lam = [sweep_generator_data()], 1.0
        elif case == "small_lambda":
            datasets, lam = [random_dataset(rng, 200, p=4, num_labels=3)], 0.01
        else:
            d, lam = random_dataset(rng, 15), 0.5
            datasets = [d, d.subset(np.concatenate([np.arange(d.n), np.arange(d.n)]))]
        for d in datasets:
            norms = []
            m = fit_erm(d, lam=lam, tol=tol, callback=lambda it, lo, gn: norms.append(gn))
            assert len(norms) <= 10
            assert norms[-1] <= tol
            assert np.linalg.norm(objective_gradient(m.weights, d, lam)) <= tol

    @pytest.mark.parametrize("num_labels", [2, 3, 5])
    def test_agrees_with_gradient_descent(self, rng, num_labels):
        d = random_dataset(rng, 60, p=3, num_labels=num_labels)
        lam, tol = 1.0, 1e-10
        m = fit_erm(d, lam=lam, tol=tol)
        assert np.linalg.norm(m.weights - gradient_descent(d, lam, tol)) <= 2 * tol / lam

    def test_accuracy_floor_on_separated_blobs(self, desk_data):
        # frozen regression: means +-2 with unit covariance train to > 0.9
        from fairbound.model import predict_many

        m = fit_erm(desk_data, lam=1.0)
        acc = np.mean(predict_many(m, desk_data.features) == desk_data.labels)
        assert acc > 0.9


def kernel_rows(rng, num_labels):
    """Score rows of ``num_labels`` labels: random at four scales, with tied
    maxima, all equal, and at +-1e4."""
    rows = [rng.normal(size=(200, num_labels)) * scale for scale in (1e-3, 1.0, 30.0, 1e4)]
    tied = rng.normal(size=(50, num_labels))
    tied[:, 1] = tied[:, 0] = tied.max(axis=1) + 1.0
    rows += [tied, np.zeros((1, num_labels)), np.full((1, num_labels), -7.25),
             rng.choice([-1e4, 1e4], size=(20, num_labels)),
             rng.choice([-1e4, 0.0, 1e4 - 1.0], size=(20, num_labels))]
    return np.concatenate(rows)


def definition_lse_softmax(row):
    """Log-sum-exp and softmax of one row from their definitions, with
    math.exp and an exactly rounded math.fsum, shifted by the row max."""
    top = max(row)
    terms = [math.exp(x - top) for x in row]
    total = math.fsum(terms)
    return top + math.log(total), [t / total for t in terms]


class TestSoftmaxKernels:
    @pytest.mark.parametrize("num_labels", [2, 3, 5])
    def test_match_the_definition_within_a_few_ulps(self, rng, num_labels):
        # scores of +-1e4 must neither overflow (an error under the
        # suite's warning filter) nor give NaN
        scores = kernel_rows(rng, num_labels)
        lse, probs = log_sum_exp_softmax(scores)
        assert np.all(np.isfinite(lse)) and np.all(np.isfinite(probs))
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        for row, got_lse, got_probs in zip(scores.tolist(), lse, probs):
            want_lse, want_probs = definition_lse_softmax(row)
            assert abs(got_lse - want_lse) <= 4 * eps * (abs(max(row)) + math.log(num_labels))
            for got, want in zip(got_probs, want_probs):
                assert abs(got - want) <= 4 * eps * want + tiny

    @pytest.mark.parametrize("num_labels", [1, 2, 3, 5])
    def test_all_equal_rows_give_exactly_log_num_labels(self, num_labels):
        lse, probs = log_sum_exp_softmax(np.zeros((3, num_labels)))
        assert np.all(lse == math.log(num_labels))
        assert np.all(probs == 1.0 / num_labels)
        lse, _ = log_sum_exp_softmax(np.full((3, num_labels), -7.25))
        assert np.all(lse == math.log(num_labels) + -7.25)

    def test_extreme_scores(self):
        lse, probs = log_sum_exp_softmax(np.array([[1e4, -1e4], [-1e4, -1e4], [-1e4, 1e4]]))
        assert lse.tolist() == [1e4, -1e4 + math.log(2.0), 1e4]
        assert probs.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]

    @pytest.mark.parametrize("num_labels", [2, 3, 5])
    def test_softmax_of_one_row_equals_the_row_of_the_kernel(self, rng, num_labels):
        # the per-example gradient takes the softmax of one score vector
        scores = kernel_rows(rng, num_labels)
        _, probs = log_sum_exp_softmax(scores)
        assert np.array_equal(softmax(scores), probs)
        for row, want in zip(scores, probs):
            assert np.array_equal(softmax(row), want)

    @pytest.mark.parametrize("num_labels", [2, 3, 5])
    def test_bit_equal_to_scipy(self, rng, num_labels):
        special = pytest.importorskip("scipy.special")
        scores = np.concatenate([rng.normal(size=(20_000, num_labels)),
                                 kernel_rows(rng, num_labels)])
        lse, probs = log_sum_exp_softmax(scores)
        assert np.array_equal(lse, special.logsumexp(scores, axis=1))
        assert np.array_equal(probs, special.softmax(scores, axis=1))
        for row in scores[:500]:
            assert np.array_equal(softmax(row), special.softmax(row))


class TestConstants:
    def test_formula_values(self, rng):
        d = random_dataset(rng, 10)
        b = d.feature_norm_bound
        c = constants(d, lam=1.0, radius=2.0)
        assert c.loss_lipschitz == pytest.approx(math.sqrt(2) * b + 2.0)
        assert c.smoothness == pytest.approx(b**2 + 1.0)
        assert c.strong_convexity == 1.0

    def test_zero_feature_degenerate(self):
        d = make_dataset(np.zeros((3, 2)), [0, 1, 0], [0, 1, 0])
        c = constants(d, lam=0.5, radius=3.0)
        assert c.loss_lipschitz == pytest.approx(0.5 * 3.0)
        assert c.smoothness == pytest.approx(0.5)

    def test_lipschitz_bounds_gradient_norm(self, rng):
        # Monte-Carlo certificate over models in the ball
        d = random_dataset(rng, 20)
        radius = 2.0
        c = constants(d, lam=1.0, radius=radius)
        for _ in range(2000):
            w = rng.normal(size=(2, d.p))
            w *= rng.uniform(0, radius) / max(np.linalg.norm(w), 1e-12)
            m = LinearModel(w, radius)
            ex = d.example(int(rng.integers(d.n)))
            g = gradient(m, ex, 1.0)
            assert np.linalg.norm(g) <= c.loss_lipschitz + 1e-9


class TestStrongConvexity:
    def test_certificate(self, rng):
        d = random_dataset(rng, 30)
        lam = 0.8
        for _ in range(100):
            wa = rng.normal(size=(2, d.p))
            wb = rng.normal(size=(2, d.p))
            ma, mb = LinearModel(wa, 100.0), LinearModel(wb, 100.0)
            fa, fb = loss(ma, d, lam), loss(mb, d, lam)
            grad_a = objective_gradient(wa, d, lam)
            inner = float(np.sum(grad_a * (wb - wa)))
            assert fb >= fa + inner + 0.5 * lam * distance(ma, mb) ** 2 - 1e-9


class TestSensitivity:
    def test_neighboring_pairs_within_bound(self, rng):
        # smaller sibling of the acceptance criterion: 10 pairs, n=80
        n, lam, tol = 80, 1.0, 1e-10
        d = random_dataset(rng, n)
        base = fit_erm(d, lam, tol=tol)
        for _ in range(10):
            i = int(rng.integers(n))
            features = d.features.copy()
            features[i, :-1] = rng.normal(size=d.p - 1)
            labels = d.labels.copy()
            labels[i] = rng.integers(2)
            d2 = make_dataset(features, d.sensitive, labels)
            other = fit_erm(d2, lam, tol=tol)
            b = max(d.feature_norm_bound, d2.feature_norm_bound)
            radius = max(np.linalg.norm(base.weights), np.linalg.norm(other.weights))
            lipschitz = math.sqrt(2) * b + lam * radius
            assert distance(base, other) <= 2 * lipschitz / (lam * n) + 2 * tol / lam
