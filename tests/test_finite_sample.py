import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairbound.dataset import GroupPartition
from fairbound.exceptions import ConfigError
from fairbound.fairness import FairnessSpec, coefficients
from fairbound.finite_sample import finite_sample_slacks, sample_size_sufficient

from conftest import random_dataset


def slack_spec(counts, coeffs):
    """Spec whose k-th group holds ``counts[k]`` examples, so its group
    proportions are counts / sum(counts), with the given coefficient
    matrix; the slack reads nothing else from it."""
    k = len(counts)
    part = GroupPartition(np.repeat(np.arange(k), counts), tuple(f"g{j}" for j in range(k)))
    return FairnessSpec(
        notion="accuracy",
        partition=part,
        offsets=np.zeros(k),
        coeffs=np.asarray(coeffs, dtype=float),
        flags=(),
    )


def uniform_spec(num_groups=4, coeff=0.5):
    return slack_spec(np.ones(num_groups, dtype=np.int64), np.full((num_groups, num_groups), coeff))


def group0(mode, num_groups=4, delta=0.05, n=10_000, coeff=0.5, num_labels=2, num_features=1,
           spec=None):
    """Slack of group 0 on a uniform spec (or ``spec``)."""
    spec = uniform_spec(num_groups, coeff) if spec is None else spec
    return finite_sample_slacks(spec, n, delta, num_labels, num_features, mode)[0]


def oracle_slack(spec, n, delta, num_labels, num_features, mode, k):
    """Slack of group k as a scalar loop over the two documented formulas,
    with B3 = 2(K+1), B4 = 2 and Natarajan dimension |Y|*p."""
    num_groups = spec.num_groups
    proportions = spec.partition.proportions
    b3, b4, natarajan_dim = 2.0 * (num_groups + 1), 2.0, num_labels * num_features
    total = math.sqrt(math.log(b3 * (2 * num_groups + 1) / delta) / (b4 * n))
    for kp in range(num_groups):
        weight = abs(float(spec.coeffs[k, kp]))
        if weight == 0.0 or proportions[kp] == 0.0:
            continue
        n_kp = n * float(proportions[kp])
        if mode == "independent":
            alpha = math.sqrt(math.log(2.0 * (2 * num_groups + 1) / delta) / n_kp)
        else:
            inner = (natarajan_dim * (math.log(n_kp / 2.0) + 2.0 * math.log(num_labels))
                     + math.log(8.0 * (2 * num_groups + 1) / delta))
            alpha = math.sqrt(64.0 * inner / n_kp)
        total += weight * alpha
    return total


class TestIndependentSlack:
    def test_frozen_transcription(self):
        # independent transcription of the two-term formula pinned this value
        assert group0("independent") == pytest.approx(0.11640433791749132, rel=1e-12)

    def test_quadrupling_n_halves(self):
        a = group0("independent", n=10_000)
        b = group0("independent", n=40_000)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_zero_coefficients_leave_only_constant_term(self):
        expected = math.sqrt(math.log(10.0 * 9 / 0.05) / (2.0 * 10_000))
        assert group0("independent", coeff=0.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_proportion_group_contributes_nothing(self):
        spec = slack_spec([1, 1, 1, 0], np.full((4, 4), 0.5))
        manual = math.sqrt(math.log(10.0 * 9 / 0.05) / (2.0 * 10_000))
        per_group = 0.5 * math.sqrt(math.log(2 * 9 / 0.05) / (10_000 / 3))
        assert group0("independent", spec=spec) == pytest.approx(manual + 3 * per_group, rel=1e-12)

    def test_undersized_sample_warns_but_returns(self):
        with pytest.warns(UserWarning, match="precondition"):
            value = group0("independent", n=10)
        assert value > 0


class TestDependentSlack:
    def test_dominates_independent_when_dimension_positive(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(200, 100_000))
            delta = float(rng.uniform(0.001, 0.2))
            spec = slack_spec(np.ones(k, dtype=np.int64), rng.uniform(0, 1, (k, k)))
            num_features = int(rng.integers(1, 20))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                slacks = {
                    mode: finite_sample_slacks(spec, n, delta, 2, num_features, mode)
                    for mode in ("independent", "dependent")
                }
            for g in range(k):
                assert slacks["dependent"][g] >= slacks["independent"][g] - 1e-12

    def test_sqrt_dimension_scaling(self):
        # at large d = |Y|*p the per-group term grows like sqrt(d)
        values = [group0("dependent", num_features=p, coeff=1.0, n=10**8)
                  for p in (50, 200, 800)]
        assert values[1] / values[0] == pytest.approx(2.0, rel=0.05)
        assert values[2] / values[1] == pytest.approx(2.0, rel=0.05)


class TestMonotonicity:
    def test_decreasing_in_n_increasing_in_k_and_inverse_delta(self):
        for mode in ("independent", "dependent"):
            assert group0(mode, n=20_000) < group0(mode)
            assert group0(mode, delta=0.005) > group0(mode)
        assert group0("independent", num_groups=8) > group0("independent")

    def test_decreasing_in_proportions(self):
        skewed = slack_spec([7, 1, 1, 1], np.full((4, 4), 0.5))
        # shrinking the smallest groups inflates the slack
        assert group0("independent", spec=skewed) > group0("independent")


class TestConstruction:
    def test_from_fairness_spec_defaults(self, rng):
        # the constants derive from the spec's K and the data's |Y| and p
        d = random_dataset(rng, 60)
        spec = coefficients(d, "equalized_odds")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for mode in ("independent", "dependent"):
                got = finite_sample_slacks(spec, d.n, 0.05, d.num_labels, d.p, mode)
                want = [oracle_slack(spec, d.n, 0.05, d.num_labels, d.p, mode, k)
                        for k in range(spec.num_groups)]
                assert got.tolist() == want

    def test_precondition_check(self):
        assert sample_size_sufficient(uniform_spec(), 10_000, 0.05)
        assert not sample_size_sufficient(uniform_spec(), 10, 0.05)

    def test_validation(self):
        with pytest.raises(ConfigError, match="delta"):
            group0("independent", delta=1.5)
        with pytest.raises(ConfigError, match="num_labels"):
            group0("independent", num_labels=1)
        with pytest.raises(ConfigError):
            group0("both")


@st.composite
def slack_cases(draw):
    k = draw(st.integers(1, 15))
    counts = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k).filter(any))
    total = sum(counts)
    coeff = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    coeffs = np.array(draw(st.lists(coeff, min_size=k * k, max_size=k * k))).reshape(k, k)
    spec = slack_spec(counts, coeffs)
    n = draw(st.integers(total, 10**7))  # every nonempty group holds >= 1 example
    delta = draw(st.floats(1e-6, 0.5))
    num_labels = draw(st.integers(2, 6))
    num_features = draw(st.integers(1, 30))
    mode = draw(st.sampled_from(["independent", "dependent"]))
    return spec, n, delta, num_labels, num_features, mode


class TestAgainstScalarLoop:
    @settings(max_examples=200, deadline=None, database=None)
    @given(slack_cases())
    def test_vector_pass_equals_scalar_loop(self, case):
        spec, n, delta, num_labels, num_features, mode = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = finite_sample_slacks(spec, n, delta, num_labels, num_features, mode)
        assert got.shape == (spec.num_groups,)
        for k in range(spec.num_groups):
            want = oracle_slack(spec, n, delta, num_labels, num_features, mode, k)
            assert got[k] == want, k

    def test_undersized_sample_warns_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            slack = finite_sample_slacks(uniform_spec(4), 10, 0.05, 2, 1, "independent")
        assert slack.shape == (4,)
        assert len(caught) == 1 and "precondition" in str(caught[0].message)
