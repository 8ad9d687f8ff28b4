from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbound import fairness
from fairbound.dataset import GroupPartition, partition
from fairbound.exceptions import ConfigError, DataError
from fairbound.fairness import (
    NOTIONS,
    FairnessSpec,
    coefficients,
    direct_fairness,
    group_fairness,
    group_fairness_all,
    group_fairness_many,
)
from fairbound.model import LinearModel, margins_many

from conftest import group_accuracies, make_dataset, random_dataset

DESIRABLE = frozenset({1})


def argmax_bincount_counts(weights, d, partitions):
    """Oracle for ``fairness._correct_counts``: each model's argmax over
    labels (lowest label on ties), then one weighted bincount per model and
    partition."""
    counts = []
    for part in partitions:
        total = np.zeros((len(weights), part.num_groups), dtype=np.int64)
        for j, w in enumerate(weights):
            correct = (np.argmax(d.features @ w.T, axis=1) == d.labels).astype(np.float64)
            sums = np.bincount(part.assignment, weights=correct, minlength=part.num_groups)
            total[j] = sums.astype(np.int64)
        counts.append(total)
    return counts


def spec_for(d, notion):
    desirable = DESIRABLE if notion == "equality_of_opportunity" else None
    return coefficients(d, notion, desirable=desirable), desirable


class TestCoefficients:
    def test_equalized_odds_balanced(self, rng):
        # perfectly balanced cells: P(S=r|Y=y) = 0.5 everywhere
        labels = [0, 0, 1, 1] * 5
        sens = [0, 1, 0, 1] * 5
        d = make_dataset(np.hstack([rng.normal(size=(20, 2)), np.ones((20, 1))]), sens, labels)
        spec = coefficients(d, "equalized_odds")
        for y in range(2):
            for r in range(2):
                k = y * 2 + r
                assert spec.coeffs[k, k] == pytest.approx(0.5)
                assert spec.coeffs[k, y * 2 + (1 - r)] == pytest.approx(-0.5)
                assert spec.offsets[k] == 0.0

    def test_accuracy_parity_values(self, rng):
        # P(S=0) = 0.3
        sens = [0] * 3 + [1] * 7
        labels = [0, 1] * 5
        d = make_dataset(np.hstack([rng.normal(size=(10, 2)), np.ones((10, 1))]), sens, labels)
        spec = coefficients(d, "accuracy_parity")
        assert spec.coeffs[0, 0] == pytest.approx(0.7)
        assert spec.coeffs[0, 1] == pytest.approx(-0.7)
        assert spec.coeffs[1, 1] == pytest.approx(0.3)
        assert spec.coeffs[1, 0] == pytest.approx(-0.3)

    def test_eopp_non_desired_rows_zero(self, rng):
        d = random_dataset(rng, 24)
        spec = coefficients(d, "equality_of_opportunity", desirable=DESIRABLE)
        for r in range(2):
            k = 0 * 2 + r  # label 0 is not desirable
            assert np.all(spec.coeffs[k] == 0.0)
            assert spec.offsets[k] == 0.0

    @pytest.mark.parametrize("desirable, message", [
        (None, "requires a nonempty desirable label set"),
        (frozenset(), "requires a nonempty desirable label set"),
        (frozenset({5}), r"desirable labels out of range: \[5\]; the data has 2 labels"),
    ], ids=["none", "empty", "outside_labels"])
    @pytest.mark.parametrize("call", [
        lambda d, m, desirable: coefficients(d, "equality_of_opportunity", desirable),
        lambda d, m, desirable: direct_fairness(m, d, "equality_of_opportunity", 0, desirable),
    ], ids=["coefficients", "direct_fairness"])
    def test_eopp_desirable_set_is_checked_alike(self, rng, call, desirable, message):
        d = random_dataset(rng, 12)
        m = LinearModel(rng.normal(size=(2, d.p)), 10.0)
        with pytest.raises(ConfigError, match=message):
            call(d, m, desirable)

    @pytest.mark.parametrize("call", [
        lambda d, m: coefficients(d, "demographic_parity_binary"),
        lambda d, m: direct_fairness(m, d, "demographic_parity_binary", 0),
    ], ids=["coefficients", "direct_fairness"])
    def test_demographic_parity_needs_binary(self, rng, call):
        # direct_fairness raised a ValueError here
        d = random_dataset(rng, 40, num_labels=3)
        m = LinearModel(rng.normal(size=(3, d.p)), 10.0)
        with pytest.raises(DataError, match="binary labels; the data has 3"):
            call(d, m)

    def test_equalized_odds_rows_sum_to_zero(self, rng):
        # perfect-classifier nullity: offset + row sum = 0
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(8, 40)))
            spec = coefficients(d, "equalized_odds")
            nullity = spec.offsets + spec.coeffs.sum(axis=1)
            assert np.allclose(nullity, 0.0, atol=1e-12)

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_dashed_notion_names_match_the_underscored(self, rng, notion):
        d = random_dataset(rng, 30)
        m = LinearModel(rng.normal(size=(2, 3)), 10.0)
        dashed = notion.replace("_", "-")
        spec, want = coefficients(d, dashed, {1}), coefficients(d, notion, {1})
        assert spec.notion == notion
        assert np.array_equal(spec.coeffs, want.coeffs)
        assert np.array_equal(spec.offsets, want.offsets)
        for k in range(spec.num_groups):
            assert (direct_fairness(m, d, dashed, k, {1})
                    == direct_fairness(m, d, notion, k, {1}))

    def test_zero_mass_label_flags_and_zero_row(self, rng):
        # no examples with label 1 at all
        features = np.hstack([rng.normal(size=(8, 2)), np.ones((8, 1))])
        d = make_dataset(features, [0, 1] * 4, [0] * 8)
        spec = coefficients(d, "equalized_odds")
        assert any("zero_mass" in f for f in spec.flags)
        for r in range(2):
            k = 1 * 2 + r
            assert np.all(spec.coeffs[k] == 0.0)


class TestConditionalAccuracy:
    def test_perfect_classifier(self, desk_data):
        from fairbound.trainer import fit_erm

        m = fit_erm(desk_data, lam=0.01, tol=1e-8)
        part = partition(desk_data, "by_sensitive")
        values, empty = group_accuracies(m, desk_data, part)
        assert not empty.any()
        assert np.all(values > 0.9)

    def test_zero_model_predicts_label_zero(self, rng):
        d = random_dataset(rng, 30)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        part = partition(d, "by_sensitive")
        for r in range(2):
            expected = float(np.mean(d.labels[part.assignment == r] == 0))
            values, _ = group_accuracies(m, d, part)
            assert values[r] == pytest.approx(expected)

    def test_empty_group_zero_with_flag(self, rng):
        features = np.hstack([rng.normal(size=(6, 2)), np.ones((6, 1))])
        d = make_dataset(features, [0] * 6, [0, 1] * 3)
        part = partition(d, "by_sensitive")
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        values, empty = group_accuracies(m, d, part)
        assert values[1] == 0.0 and empty[1]


class TestEquivalenceOracle:
    def test_affine_form_matches_definitions(self, rng):
        # the module's core test: Eq-form vs definitional counting
        for trial in range(200):
            d = random_dataset(rng, int(rng.integers(8, 51)))
            m = LinearModel(rng.normal(size=(2, 3)), 100.0)
            for notion in NOTIONS:
                spec, desirable = spec_for(d, notion)
                for k in range(spec.num_groups):
                    affine = group_fairness(m, d, spec, k)
                    direct = direct_fairness(m, d, notion, k, desirable=desirable)
                    assert affine == pytest.approx(direct, abs=1e-12), (trial, notion, k)

    @pytest.mark.parametrize("num_labels", [2, 3, 4])
    def test_one_group_is_the_one_model_case(self, rng, num_labels):
        # group_fairness reads group k of group_fairness_all, bit for bit
        for _ in range(20):
            num_sensitive = int(rng.integers(2, 5))
            d = random_dataset(rng, int(rng.integers(20, 61)), num_labels=num_labels,
                               num_sensitive=num_sensitive)
            m = LinearModel(rng.normal(size=(num_labels, 3)), 100.0)
            for notion in NOTIONS:
                if notion == "demographic_parity_binary" and num_labels != 2:
                    continue
                spec, _ = spec_for(d, notion)
                levels = group_fairness_all(m, d, spec)
                for k in range(spec.num_groups):
                    assert group_fairness(m, d, spec, k) == levels[k], (notion, k)

    def test_perfect_classifier_equalized_odds_zero(self, desk_data):
        from fairbound.trainer import fit_erm

        m = fit_erm(desk_data, lam=0.01, tol=1e-8)
        spec = coefficients(desk_data, "equalized_odds")
        # not perfectly accurate, so just cross-check both routes agree
        for k in range(4):
            assert group_fairness(m, desk_data, spec, k) == pytest.approx(
                direct_fairness(m, desk_data, "equalized_odds", k), abs=1e-12
            )

    def test_exactly_perfect_classifier_is_fair(self, rng):
        # exactly separable: label = sign of first feature
        x0 = np.concatenate([rng.uniform(1, 2, 10), rng.uniform(-2, -1, 10)])
        features = np.column_stack([x0, np.ones(20)])
        labels = (x0 < 0).astype(int)
        sens = np.array([0, 1] * 10)
        d = make_dataset(features, sens, labels)
        m = LinearModel(np.array([[1.0, 0.0], [-1.0, 0.0]]), 5.0)
        spec = coefficients(d, "equalized_odds")
        for k in range(4):
            assert group_fairness(m, d, spec, k) == pytest.approx(0.0, abs=1e-15)

    def test_constant_classifier_demographic_parity_zero(self, rng):
        d = random_dataset(rng, 30)
        m = LinearModel(np.zeros((2, 3)), 1.0)  # always predicts label 0
        for k in range(4):
            assert direct_fairness(m, d, "demographic_parity_binary", k) == pytest.approx(0.0, abs=1e-15)

    def test_accuracy_parity_weighted_sum_is_zero(self, rng):
        for _ in range(30):
            d = random_dataset(rng, int(rng.integers(8, 40)))
            m = LinearModel(rng.normal(size=(2, 3)), 100.0)
            spec = coefficients(d, "accuracy_parity")
            p_s = spec.partition.proportions
            f = group_fairness_all(m, d, spec)
            assert float(p_s @ f) == pytest.approx(0.0, abs=1e-12)

    def test_levels_bounded_by_one(self, rng):
        for _ in range(50):
            d = random_dataset(rng, int(rng.integers(8, 40)))
            m = LinearModel(rng.normal(size=(2, 3)), 100.0)
            for notion in NOTIONS:
                spec, _ = spec_for(d, notion)
                f = group_fairness_all(m, d, spec)
                assert np.all(np.abs(f) <= 1.0 + 1e-12)

    def test_zero_mass_flags_mirror(self, rng):
        # an empty sensitive group flags on both evaluation routes and both
        # still return finite deterministic values
        features = np.hstack([rng.normal(size=(10, 2)), np.ones((10, 1))])
        d = make_dataset(features, [0] * 10, [0, 1] * 5)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        spec = coefficients(d, "demographic_parity_binary")
        assert any("zero_mass" in f for f in spec.flags)
        for k in range(4):
            assert np.isfinite(group_fairness(m, d, spec, k))
            assert np.isfinite(direct_fairness(m, d, "demographic_parity_binary", k))


class TestGroupFairnessMany:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        num_labels=st.integers(2, 5),
        num_sensitive=st.integers(1, 3),
        n=st.integers(1, 40),
        p=st.integers(1, 4),
        num_models=st.integers(1, 25),
        block=st.integers(1, 200),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_model_at_a_time(
        self, num_labels, num_sensitive, n, p, num_models, block, integer, seed
    ):
        # small integer features and weights make exact score ties common;
        # a small block splits the models into blocks, the last one short
        rng = np.random.default_rng(seed)
        if integer:
            features = rng.integers(-2, 3, (n, p)).astype(float)
            weights = rng.integers(-1, 2, (num_models, num_labels, p)).astype(float)
        else:
            features = rng.normal(size=(n, p))
            weights = rng.normal(size=(num_models, num_labels, p))
        d = make_dataset(
            features,
            rng.integers(0, num_sensitive, n),
            rng.integers(0, num_labels, n),
            num_labels=num_labels,
            num_sensitive=num_sensitive,
        )
        models = [LinearModel(w, np.linalg.norm(w) + 1.0) for w in weights]
        notions = [t for t in NOTIONS if num_labels == 2 or t != "demographic_parity_binary"]
        specs = [spec_for(d, notion)[0] for notion in notions]
        expected = [np.array([group_fairness_all(m, d, s) for m in models]) for s in specs]
        partitions = [spec.partition for spec in specs]
        with mock.patch.object(fairness, "SCORE_BLOCK", block):
            got = group_fairness_many(np.stack([m.weights for m in models]), d, specs)
            counts = fairness._correct_counts(weights, d)
        (cells,) = argmax_bincount_counts(weights, d, [partition(d, "by_label_and_sensitive")])
        assert counts.dtype == np.int64 and np.all(counts == cells)
        for part, e in zip(partitions, argmax_bincount_counts(weights, d, partitions)):
            assert np.all(counts @ fairness._cell_map(part, d) == e)
        assert len(got) == len(specs)
        for g, e, spec in zip(got, expected, specs):
            assert g.shape == (num_models, spec.num_groups)
            assert np.all(g == e)

    def test_largest_group_count(self, rng):
        d = random_dataset(rng, 200, p=4, num_labels=5, num_sensitive=3)
        spec, _ = spec_for(d, "equalized_odds")
        assert spec.num_groups == 15
        models = [LinearModel(rng.normal(size=(5, 4)), 10.0) for _ in range(7)]
        (got,) = group_fairness_many(np.stack([m.weights for m in models]), d, [spec])
        for row, m in zip(got, models):
            assert np.all(row == group_fairness_all(m, d, spec))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["features", "labels"])
    def test_shape_mismatch_is_value_error(self, rng, shape):
        d = random_dataset(rng, 30)  # 2 labels, 3 features with the intercept
        spec, _ = spec_for(d, "accuracy_parity")
        bad = LinearModel(rng.normal(size=shape), 10.0)
        with pytest.raises(ValueError, match="labels x"):
            group_fairness_many(np.stack([bad.weights]), d, [spec])
        with pytest.raises(ValueError, match="labels x"):
            group_fairness_all(bad, d, spec)

    def test_no_models_is_value_error(self, rng):
        d = random_dataset(rng, 30)
        spec, _ = spec_for(d, "accuracy")
        with pytest.raises(ValueError):
            group_fairness_many(np.empty((0, 2, 3)), d, [spec])

    @pytest.mark.parametrize(
        "num_labels, num_sensitive", [(2, 1), (2, 3), (3, 2), (4, 3), (5, 3)]
    )
    def test_levels_equal_one_matvec_per_model(self, num_labels, num_sensitive):
        # oracle independent of fairness.py: counts from argmax + bincount,
        # then offsets + coeffs @ v one model at a time; K reaches 15 at
        # 5 labels x 3 groups, where batched reductions round differently
        rng = np.random.default_rng(1000 * num_labels + num_sensitive)
        d = random_dataset(rng, 120, p=4, num_labels=num_labels, num_sensitive=num_sensitive)
        weights = rng.normal(size=(40, num_labels, 4))
        notions = [t for t in NOTIONS if num_labels == 2 or t != "demographic_parity_binary"]
        specs = [spec_for(d, notion)[0] for notion in notions]
        got = group_fairness_many(weights, d, specs)
        oracle = argmax_bincount_counts(weights, d, [spec.partition for spec in specs])
        for levels, counts, spec in zip(got, oracle, specs):
            sizes = np.bincount(spec.partition.assignment, minlength=spec.num_groups)
            assert levels.shape == (len(weights), spec.num_groups)
            for row, c in zip(levels, counts):
                v = np.divide(c, sizes, out=np.zeros(spec.num_groups), where=sizes > 0)
                assert np.all(row == spec.offsets + spec.coeffs @ v)


def _unit(rng, shape):
    direction = rng.normal(size=shape)
    return direction / np.linalg.norm(direction)


def _closing_draw(hstar, x, y):
    """h* + c(e_rival - e_y)x^T, rival the best other label at the example
    x of label y: the step moves the gap s_y - s_rival by -2c||x||^2, and c
    closes it.  The draw's largest label-row difference is D = 2|c| ||x||,
    so its reach D is exactly x's key |m|/||x||."""
    scores = hstar @ x
    rival = np.argmax(np.where(np.arange(len(hstar)) == y, -np.inf, scores))
    step = np.zeros(hstar.shape)
    step[rival], step[y] = x, -x
    return hstar + (scores[y] - scores[rival]) / (2.0 * x @ x) * step


def _model(hstar):
    return LinearModel(hstar, np.linalg.norm(hstar) + 1.0)


def _reference(hstar, d):
    return fairness.ScoringReference(_model(hstar), d)


def _keys(hstar, d):
    """|m|/||x|| at h* of each example of d, in data order: the key by
    which a scoring reference prunes."""
    margins = margins_many(_model(hstar), d.features, d.labels)
    return np.abs(margins) / np.linalg.norm(d.features, axis=1)


def _count_scored(call):
    """``call()`` and the (model, example) pairs it scored."""
    scored = []
    real = fairness._correct

    def counting(weights, features_t, y):
        scored.append(len(weights) * features_t.shape[1])
        return real(weights, features_t, y)

    with mock.patch.object(fairness, "_correct", counting):
        return call(), sum(scored)


class TestPrunedScoring:
    """A scoring reference skips the examples a model cannot flip; the
    counts must equal scoring every example."""

    @given(
        num_labels=st.integers(2, 5),
        num_sensitive=st.integers(1, 3),
        n=st.integers(1, 60),
        p=st.integers(1, 4),
        num_draws=st.integers(1, 30),
        block=st.integers(1, 30),
        score_block=st.integers(1, 400),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, database=None)
    def test_equals_every_row_counts(
        self, num_labels, num_sensitive, n, p, num_draws, block, score_block, integer, seed
    ):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, num_labels, n)
        sensitive = rng.integers(0, num_sensitive, n)
        if integer:
            # exact arithmetic: ties at h* are exact, and so are the draws'
            # scores however a matrix product orders its sums
            features = np.hstack([rng.integers(-2, 3, (n, p - 1)), np.ones((n, 1))])
            hstar = rng.integers(-1, 2, (num_labels, p)).astype(float)
            steps = rng.integers(-1, 2, (num_draws, num_labels, p))
            draws = hstar + steps * rng.integers(0, 3, (num_draws, 1, 1))
            # on a row whose squared norm is a power of two the closing
            # draw is exact too, so the gap closes to an exact tie
            exact = [i for i, q in enumerate(np.sum(features**2, axis=1).astype(int))
                     if q & (q - 1) == 0]
            for j in np.flatnonzero(rng.integers(0, 3, num_draws) == 0) if exact else []:
                i = rng.choice(exact)
                draws[j] = _closing_draw(hstar, features[i], labels[i])
        else:
            features = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))])
            hstar = rng.normal(size=(num_labels, p))
            # near-tie margins at h*: labels 0 and 1 score almost alike
            hstar[1] = hstar[0] + 1e-9 * rng.normal(size=p)
        # one more sensitive value than is drawn, so some groups are empty
        d = make_dataset(features, sensitive, labels, num_labels, num_sensitive + 1)
        radius = np.linalg.norm(hstar)
        reference = _reference(hstar, d)
        if not integer:
            # half of row i's key: far enough from h* for a draw to come
            # close to flipping row i
            near = _keys(hstar, d) / 2
            draws = []
            for kind in rng.integers(0, 5, num_draws):
                i = rng.integers(n)
                if kind == 0:  # distance 0
                    draws.append(hstar.copy())
                elif kind == 1:  # near row i, straight against its margin
                    rival = (labels[i] + 1 + rng.integers(num_labels - 1)) % num_labels
                    step = np.zeros((num_labels, p))
                    step[rival], step[labels[i]] = features[i], -features[i]
                    draws.append(hstar + near[i] * step / np.linalg.norm(step))
                elif kind == 2:  # near row i, in a random direction
                    draws.append(hstar + near[i] * _unit(rng, (num_labels, p)))
                elif kind == 3:  # beyond the ball's diameter
                    draws.append(hstar + (2 * radius + 1.0) * _unit(rng, (num_labels, p)))
                else:
                    draws.append(hstar + rng.exponential(0.3) * _unit(rng, (num_labels, p)))
            draws = np.stack(draws)
        notions = [t for t in NOTIONS if num_labels == 2 or t != "demographic_parity_binary"]
        specs = [spec_for(d, notion)[0] for notion in notions]
        with mock.patch.multiple(fairness, DRAW_BLOCK=block, SCORE_BLOCK=score_block):
            pruned = fairness._correct_counts(draws, d, reference)
            pruned_levels = group_fairness_many(draws, d, specs, reference)
        every_row = fairness._correct_counts(draws, d)
        assert pruned.dtype == np.int64 and np.array_equal(pruned, every_row)
        for a, b in zip(pruned_levels, group_fairness_many(draws, d, specs)):
            assert np.array_equal(a, b)

    def test_skips_rows_and_keeps_levels(self, rng):
        d = random_dataset(rng, 400, p=4, num_labels=3, num_sensitive=2)
        hstar = rng.normal(size=(3, 4))
        draws = hstar + 0.05 * rng.normal(size=(60, 3, 4))
        specs = [spec_for(d, notion)[0] for notion in ("equalized_odds", "accuracy_parity")]
        reference = _reference(hstar, d)
        pruned, scored = _count_scored(lambda: group_fairness_many(draws, d, specs, reference))
        assert scored < 0.5 * len(draws) * d.n
        for a, b in zip(pruned, group_fairness_many(draws, d, specs)):
            assert np.array_equal(a, b)

    def test_closing_draw_scores_its_row(self, rng):
        # the draw's reach D is exactly the row's key, and D' and the key
        # round either way; the widening of the reach covers that, so the
        # row is scored: the scored prefix holds every row of key at most
        # its key
        for num_labels, p in [(2, 1), (2, 3), (3, 2), (5, 4)]:
            d = random_dataset(rng, 40, p=p, num_labels=num_labels)
            hstar = rng.normal(size=(num_labels, p))
            reference = _reference(hstar, d)
            keys = _keys(hstar, d)
            for x, y, r in zip(d.features, d.labels, keys):
                draw = _closing_draw(hstar, x, y)[None]
                _, scored = _count_scored(lambda: fairness._correct_counts(draw, d, reference))
                assert scored >= np.sum(keys <= r)

    def test_label_rows_shifted_alike_score_no_row(self, rng):
        # W = h* + 1v^T moves every label's score by v.x, so no margin moves
        d = random_dataset(rng, 300, p=4, num_labels=3, num_sensitive=2)
        hstar = rng.normal(size=(3, 4))
        shifts = rng.normal(size=(40, 1, 4))
        draws = hstar + 0.5 * shifts / np.linalg.norm(shifts, axis=2, keepdims=True)
        reference = _reference(hstar, d)
        pruned, scored = _count_scored(lambda: fairness._correct_counts(draws, d, reference))
        assert scored == 0
        assert np.array_equal(pruned, fairness._correct_counts(draws, d))

    def test_two_label_gaussian_stack_scores_under_the_distance_limit(self, rng):
        # a margin is 2||x||-Lipschitz in the model, so a draw at Frobenius
        # distance d can flip only the rows whose key is at most 2d; for
        # two labels D = ||Delta_0 - Delta_1|| is about d, so the reach D
        # is about half of that
        d = random_dataset(rng, 2000, p=4, num_labels=2, num_sensitive=2)
        hstar = rng.normal(size=(2, 4))
        draws = hstar + 0.05 * rng.normal(size=(200, 2, 4))
        reference = _reference(hstar, d)
        with mock.patch.object(fairness, "DRAW_BLOCK", 1):
            pruned, scored = _count_scored(lambda: fairness._correct_counts(draws, d, reference))
        dists = np.linalg.norm(draws - hstar, axis=(1, 2))
        distance_limit = 2 * dists + reference.widening * (dists + reference.norm)
        distance_scored = np.sum(reference.key <= distance_limit[:, None])
        assert scored < 0.6 * distance_scored
        assert np.array_equal(pruned, fairness._correct_counts(draws, d))

    def test_reference_serves_every_notion_on_its_data_only(self, rng):
        d = random_dataset(rng, 50, num_sensitive=3)
        other = random_dataset(rng, 50, num_sensitive=3)
        hstar = rng.normal(size=(2, 3))
        reference = _reference(hstar, d)
        weights = hstar[None] + 0.1 * rng.normal(size=(20, 2, 3))
        # every spec, each built after the reference
        specs = [spec_for(d, notion)[0] for notion in NOTIONS]
        for a, b in zip(group_fairness_many(weights, d, specs, reference),
                        group_fairness_many(weights, d, specs)):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="scoring reference"):
            group_fairness_many(weights, other, [coefficients(other, "accuracy_parity")], reference)

    def test_one_label_reference_scores_no_row(self, rng):
        # a one-label h* has no margin, so every key is infinite; every
        # one-label model classifies every row correctly, as h* does
        d = random_dataset(rng, 30, num_labels=1)
        hstar = rng.normal(size=(1, 3))
        draws = hstar + rng.normal(size=(10, 1, 3))
        reference = _reference(hstar, d)
        assert np.isinf(reference.key).all()
        pruned, scored = _count_scored(lambda: fairness._correct_counts(draws, d, reference))
        assert scored == 0
        assert np.array_equal(pruned, fairness._correct_counts(draws, d))

    def test_partition_that_splits_a_cell_is_value_error(self, rng):
        d = random_dataset(rng, 50)
        m = LinearModel(rng.normal(size=(2, 3)), 10.0)
        # move one example of the largest cell out of its cell's group
        assignment = np.zeros(d.n, dtype=np.int64)
        assignment[np.flatnonzero(d.cells == np.argmax(np.bincount(d.cells)))[0]] = 1
        split_cell = GroupPartition(assignment, ("a", "b"))
        spec = FairnessSpec("accuracy_parity", split_cell, np.zeros(2), np.eye(2), ())
        with pytest.raises(ValueError, match="splits a"):
            group_fairness_many(m.weights[None], d, [spec])
        with pytest.raises(ValueError, match="splits a"):
            group_accuracies(m, d, split_cell)
        short = partition(d.subset(np.arange(49)), "by_sensitive")
        with pytest.raises(ValueError, match="one entry per example"):
            group_accuracies(m, d, short)
