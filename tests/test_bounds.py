import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairbound.bounds import (
    DIST_PROVENANCES,
    MarginProfile,
    bound_report,
    bound_reports,
    gap_bound,
    margin_profile,
    refined_lipschitz,
    theorem3_report,
)
from fairbound.dataset import GroupPartition
from fairbound.fairness import FairnessSpec, coefficients, group_fairness
from fairbound.model import LinearModel, distance, predict_many
from fairbound.trainer import constants

from conftest import make_dataset, random_dataset
from test_privacy import quiet_params


def single_group_spec(num_examples):
    return coefficient_spec(np.zeros(num_examples, dtype=np.int64), np.ones((1, 1)))


def coefficient_spec(groups, coeffs):
    """Spec with the given coefficient matrix over a fixed group assignment."""
    num_groups = coeffs.shape[0]
    return spec_on(group_partition(groups, num_groups), coeffs)


def group_partition(groups, num_groups):
    return GroupPartition(
        num_groups=num_groups,
        assignment=np.asarray(groups, dtype=np.int64),
        proportions=np.full(num_groups, 1.0 / num_groups),
        descriptions=tuple(f"g{k}" for k in range(num_groups)),
    )


def spec_on(part, coeffs):
    """Spec with the given coefficient matrix over a given partition."""
    num_groups = coeffs.shape[0]
    return FairnessSpec(
        notion="accuracy",
        partition=part,
        offsets=np.zeros(num_groups),
        coeffs=coeffs,
        flags=(),
    )


def single_entry(prof, dist, k=0, groups=None, num_groups=1):
    """Report entry of group k under the identity coefficient matrix; every
    example is in group 0 unless ``groups`` says otherwise."""
    if groups is None:
        groups = np.zeros(prof.n, dtype=np.int64)
    spec = coefficient_spec(groups, np.eye(num_groups))
    return bound_report(prof, spec, dist).entry(k)


def profile_from_ratios(margins, lipschitz):
    return MarginProfile(
        abs_margins=np.asarray(margins, dtype=float),
        lipschitz=np.asarray(lipschitz, dtype=float),
    )


def grid_search_chernoff(margins, lipschitz, group_size, dist, t_grid):
    """Independent dense-grid oracle for the truncated exponential-moment
    term; mirrors the documented composition, not the implementation."""
    ratios = np.array([
        (m / l) if l > 0 else math.inf for m, l in zip(margins, lipschitz)
    ])
    live = ratios[ratios <= dist]
    if live.size == 0:
        return 0.0
    values = [math.exp(t * dist) * float(np.sum(np.exp(-t * live))) / group_size for t in t_grid]
    return min(1.0, max(0.0, min(values)))


class TestMarginProfile:
    def test_hand_case(self):
        x = np.array([3.0, 4.0, 1.0])
        d = make_dataset(np.array([x]), [0], [0], num_sensitive=1)
        m = LinearModel(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 10.0)
        prof = margin_profile(m, d)
        assert prof.abs_margins[0] == pytest.approx(3.0)
        assert prof.lipschitz[0] == pytest.approx(2 * math.sqrt(26))

    def test_zero_model_zero_margins(self, rng):
        d = random_dataset(rng, 12)
        m = LinearModel(np.zeros((2, 3)), 1.0)
        prof = margin_profile(m, d)
        assert np.all(prof.abs_margins == 0.0)

    def test_high_margin_model_positive(self, desk_data):
        from fairbound.trainer import fit_erm

        m = fit_erm(desk_data, lam=0.01, tol=1e-8)
        prof = margin_profile(m, desk_data)
        assert np.all(prof.abs_margins >= 0.0)
        assert np.mean(prof.abs_margins > 0) > 0.99


    def test_ratios_saturate_without_warning(self):
        # the suite fails on a RuntimeWarning; |m|/L and L/|m| overflowed
        # with one outside the report's errstate
        assert MarginProfile(np.array([1e300]), np.array([1e-10])).ratio.tolist() == [math.inf]
        profile = MarginProfile(np.array([1e-320, 0.0, 0.5]), np.array([1e10, 0.0, 2.0]))
        assert profile.inverse_ratio.tolist() == [math.inf, 0.0, 4.0]
        assert profile.ratio.tolist() == [0.0, math.inf, 0.25]


class TestChi:
    def test_zero_coefficients(self):
        prof = profile_from_ratios([1.0, 2.0], [2.0, 2.0])
        spec = single_group_spec(2)
        zeroed = FairnessSpec(
            notion="accuracy",
            partition=spec.partition,
            offsets=np.zeros(1),
            coeffs=np.zeros((1, 1)),
            flags=(),
        )
        assert bound_report(prof, zeroed, 0.0).entry(0).chi == 0.0

    def test_hand_mean(self):
        # ratios L/|rho| = {1, 3} -> mean 2
        prof = profile_from_ratios([2.0, 2.0], [2.0, 6.0])
        spec = single_group_spec(2)
        assert bound_report(prof, spec, 0.0).entry(0).chi == pytest.approx(2.0)

    def test_zero_margin_gives_infinity(self):
        prof = profile_from_ratios([0.0, 1.0], [2.0, 2.0])
        spec = single_group_spec(2)
        assert bound_report(prof, spec, 0.0).entry(0).chi == math.inf

    def test_zero_lipschitz_contributes_nothing(self):
        prof = profile_from_ratios([0.0, 1.0], [0.0, 2.0])
        spec = single_group_spec(2)
        assert bound_report(prof, spec, 0.0).entry(0).chi == pytest.approx(1.0)  # only L/rho = 2/1... /2 examples

    def test_reorder_invariance(self, rng):
        d = random_dataset(rng, 30)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        spec = coefficients(d, "equalized_odds")
        prof = margin_profile(m, d)
        perm = rng.permutation(d.n)
        d2 = d.subset(perm)
        spec2 = coefficients(d2, "equalized_odds")
        prof2 = margin_profile(m, d2)
        chi1 = [e.chi for e in bound_report(prof, spec, 0.0).entries]
        chi2 = [e.chi for e in bound_report(prof2, spec2, 0.0).entries]
        for k in range(4):
            assert chi1[k] == pytest.approx(chi2[k], rel=1e-12)


class TestChernoffTerm:
    def test_never_exceeds_one(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 20))
            prof = profile_from_ratios(rng.uniform(0, 2, n), rng.uniform(0.1, 3, n))
            val = single_entry(prof, float(rng.uniform(0, 2))).chernoff
            assert 0.0 <= val <= 1.0

    def test_zero_margins_give_one(self):
        prof = profile_from_ratios([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert single_entry(prof, 0.5).chernoff == pytest.approx(1.0)

    def test_single_large_margin_truncates_to_zero(self):
        # |rho|/L = 1 > dist = 0.5: the example cannot flip, the term is 0
        prof = profile_from_ratios([1.0], [1.0])
        assert single_entry(prof, 0.5).chernoff == 0.0

    def test_matches_grid_search_oracle(self, rng):
        t_grid = np.linspace(0.0, 50.0, 20001)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            margins = rng.uniform(0, 1.5, n)
            lipschitz = rng.uniform(0.2, 2.5, n)
            dist = float(rng.uniform(0.05, 1.5))
            prof = profile_from_ratios(margins, lipschitz)
            impl = single_entry(prof, dist).chernoff
            oracle = grid_search_chernoff(margins, lipschitz, n, dist, t_grid)
            assert impl <= oracle + 1e-9  # implementation may only be tighter
            assert impl >= oracle - 1e-3  # and close to the dense grid value

    def test_frozen_mixture_value(self):
        # two examples, ratios {0.1, 5}; at dist 0.5 only the first is live,
        # the term collapses to the live fraction (dense grid oracle: 0.5)
        prof = profile_from_ratios([0.1, 5.0], [1.0, 1.0])
        assert single_entry(prof, 0.5).chernoff == pytest.approx(0.5, abs=1e-9)

    def test_empty_group(self):
        prof = profile_from_ratios([1.0], [1.0])
        entry = single_entry(prof, 0.5, k=1, groups=[0], num_groups=2)
        assert entry.chernoff == 0.0
        assert entry.flags == ("empty_group:1",)


class TestVariantBehavior:
    def test_markov_arithmetic(self):
        prof = profile_from_ratios([2.0, 2.0], [2.0, 6.0])  # chi = 2
        spec = single_group_spec(2)
        assert bound_report(prof, spec, 0.25).entry(0).markov == pytest.approx(0.5)
        assert bound_report(prof, spec, 0.0).entry(0).markov == 0.0

    def test_truncation_inactive_matches_markov(self):
        prof = profile_from_ratios([0.5, 0.2], [1.0, 1.0])
        spec = single_group_spec(2)
        dist = 10.0  # everything live
        entry = bound_report(prof, spec, dist).entry(0)
        assert entry.truncated == pytest.approx(entry.markov, rel=1e-12)

    def test_all_truncated_is_zero_and_predictions_stable(self, rng):
        # binary task: margins all above L*dist means no prediction can move
        for _ in range(20):
            d = random_dataset(rng, 15)
            h = LinearModel(rng.normal(size=(2, 3)) * 3, 100.0)
            prof = margin_profile(h, d)
            if np.any(prof.abs_margins == 0):
                continue
            ratios = prof.abs_margins / prof.lipschitz
            dist = 0.9 * float(np.min(ratios))
            if dist <= 0:
                continue
            spec = coefficients(d, "accuracy_parity")
            for entry in bound_report(prof, spec, dist).entries:
                assert entry.truncated == 0.0
            # any h' within dist keeps every prediction
            for _ in range(10):
                delta = rng.normal(size=(2, 3))
                delta *= rng.uniform(0, dist) / np.linalg.norm(delta)
                h2 = LinearModel(h.weights + delta, 100.0)
                assert np.array_equal(predict_many(h, d.features), predict_many(h2, d.features))

    def test_truncated_monotone_in_dist(self, rng):
        prof = profile_from_ratios(rng.uniform(0, 2, 20), rng.uniform(0.1, 2, 20))
        spec = single_group_spec(20)
        dists = np.sort(rng.uniform(0, 3, 15))
        values = [bound_report(prof, spec, float(t)).entry(0).truncated for t in dists]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_at_zero_for_all_variants(self, rng):
        d = random_dataset(rng, 20)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        spec = coefficients(d, "equalized_odds")
        prof = margin_profile(m, d)
        for k in range(4):
            for variant in ("markov", "truncated", "chernoff", "best"):
                assert gap_bound(prof, spec, k, 0.0, variant) == 0.0

    def test_best_never_exceeds_others(self, rng):
        for _ in range(50):
            d = random_dataset(rng, int(rng.integers(8, 30)))
            m = LinearModel(rng.normal(size=(2, 3)), 100.0)
            spec = coefficients(d, "equalized_odds")
            prof = margin_profile(m, d)
            dist = float(rng.uniform(0, 2))
            for k in range(4):
                best = gap_bound(prof, spec, k, dist, "best")
                trunc = gap_bound(prof, spec, k, dist, "truncated")
                mark = gap_bound(prof, spec, k, dist, "markov")
                assert best <= trunc * (1 + 1e-12) + 1e-15
                assert trunc <= mark * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("dist", [1e3, 1e308])
    def test_huge_distance_keeps_probability_terms_finite(self, rng, dist):
        d = random_dataset(rng, 40)
        m = LinearModel(rng.normal(size=(2, 3)), 100.0)
        spec = coefficients(d, "equalized_odds")
        report = bound_report(margin_profile(m, d), spec, dist)
        for k, entry in enumerate(report.entries):
            cap = float(np.sum(np.abs(spec.coeffs[k])))
            assert 0.0 <= entry.best <= entry.chernoff <= cap

    @pytest.mark.parametrize("dist", [-1.0, math.inf, math.nan])
    def test_distance_must_be_finite_and_nonnegative(self, dist):
        prof = profile_from_ratios([1.0], [1.0])
        with pytest.raises(ValueError):
            bound_report(prof, single_group_spec(1), dist)

    @pytest.mark.parametrize("spec_examples", [1, 3])
    def test_profile_must_cover_the_spec_examples(self, spec_examples):
        prof = profile_from_ratios([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="examples"):
            bound_report(prof, single_group_spec(spec_examples), 0.5)


def naive_entry(margins, lipschitz, groups, coeffs, k, dist):
    """Variants and flags of group k, one example at a time, straight from
    the documented definitions."""
    out = dict(chi=0.0, markov=0.0, truncated=0.0, chernoff=0.0, best=0.0)
    flags = []
    for kp in range(coeffs.shape[0]):
        weight = abs(float(coeffs[k, kp]))
        members = [i for i, g in enumerate(groups) if g == kp]
        if weight == 0.0:
            continue
        if not members:
            flags.append(f"empty_group:{kp}")
            continue
        mean_inv = trunc = at_risk = 0.0
        for i in members:
            m, l = float(margins[i]), float(lipschitz[i])
            inv = 0.0 if l == 0 else (math.inf if m == 0 else l / m)
            ratio = m / l if l > 0 else math.inf
            mean_inv += inv / len(members)
            if ratio <= dist:
                trunc += inv / len(members)
                at_risk += 1.0 / len(members)
        if mean_inv == math.inf:
            flags.append(f"zero_margin_in_group:{kp}")
        terms = (mean_inv * dist, trunc * dist, at_risk) if dist > 0 else (0.0, 0.0, 0.0)
        out["chi"] += weight * mean_inv
        out["markov"] += weight * terms[0]
        out["truncated"] += weight * terms[1]
        out["chernoff"] += weight * terms[2]
        out["best"] += weight * min(terms)
    return out, tuple(flags)


@st.composite
def profiles_and_specs(draw):
    num_groups = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    value = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    margins = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    lipschitz = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    groups = np.array(draw(st.lists(st.integers(0, num_groups - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    coeff = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    coeffs = np.array(draw(st.lists(coeff, min_size=num_groups**2, max_size=num_groups**2)))
    dist = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(0.0, 1e300)))
    prof = MarginProfile(margins, lipschitz)
    return prof, coefficient_spec(groups, coeffs.reshape(num_groups, num_groups)), dist


class TestAgainstNaiveLoop:
    @settings(max_examples=300, deadline=None, database=None)
    @given(profiles_and_specs())
    def test_report_matches_per_example_loop(self, case):
        prof, spec, dist = case
        report = bound_report(prof, spec, dist)
        for k, entry in enumerate(report.entries):
            expected, flags = naive_entry(prof.abs_margins, prof.lipschitz,
                                          spec.partition.assignment, spec.coeffs, k, dist)
            assert entry.flags == flags
            for field, want in expected.items():
                got = getattr(entry, field)
                if math.isinf(want):
                    assert got == want, (k, field)
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (k, field)
            assert entry.best <= entry.truncated <= entry.markov
            assert entry.best <= entry.chernoff <= float(np.sum(np.abs(spec.coeffs[k])))


@st.composite
def batched_cases(draw):
    """A profile, one to three specs over one or two partitions (a spec may
    take another's partition object, or an equal copy of it), and one to
    three distances with their provenances."""
    n = draw(st.integers(0, 20))
    value = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    margins = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    lipschitz = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    partitions = []
    for _ in range(draw(st.integers(1, 2))):
        num_groups = draw(st.integers(1, 15))
        groups = draw(st.lists(st.integers(0, num_groups - 1), min_size=n, max_size=n))
        partitions.append(group_partition(groups, num_groups))
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.integers(0, len(partitions)))
        part = (partitions[choice] if choice < len(partitions)
                else dataclasses.replace(partitions[0]))
        # up to 225 coefficients: seeded NumPy draws, about a third of them 0
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        k = part.num_groups
        coeffs = rng.uniform(-2.0, 2.0, (k, k)) * (rng.random((k, k)) < 2 / 3)
        specs.append(spec_on(part, coeffs))
    dists = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(0.0, 1e300)),
                          min_size=1, max_size=3))
    provenances = draw(st.lists(st.sampled_from(DIST_PROVENANCES),
                                min_size=len(dists), max_size=len(dists)))
    return MarginProfile(margins, lipschitz), specs, dists, provenances


def _every_case():
    """Zero margins, zero Lipschitz constants, empty groups, K = 15, dist 0
    and two specs on one partition, all in one case."""
    part = group_partition([0, 0, 1, 1, 14, 14], 15)
    coeffs = np.eye(15) - 1.0 / 15
    specs = [spec_on(part, coeffs), spec_on(part, 2 * coeffs),
             spec_on(dataclasses.replace(part), coeffs)]
    profile = MarginProfile(np.array([0.0, 1.0, 0.5, 0.0, 2.0, 0.1]),
                            np.array([1.0, 0.0, 2.0, 0.0, 1.0, 3.0]))
    return profile, specs, [0.0, 0.3, 1e300], ["lemma2", "measured", "lemma3"]


class TestBatchedReports:
    @settings(max_examples=300, deadline=None, database=None)
    @given(batched_cases())
    @example(_every_case())
    def test_equals_one_report_per_spec_and_distance(self, case):
        profile, specs, dists, provenances = case
        reports = bound_reports(profile, specs, dists, provenances)
        assert len(reports) == len(specs)
        for spec, spec_reports in zip(specs, reports):
            assert len(spec_reports) == len(dists)
            for report, dist, provenance in zip(spec_reports, dists, provenances):
                single = bound_report(profile, spec, dist, provenance)
                assert isinstance(report.entries, tuple)
                assert report == single  # every field, every entry, bit for bit

    def test_every_case_covers_its_conventions(self):
        profile, specs, dists, provenances = _every_case()
        report = bound_reports(profile, specs, dists, provenances)[0][1]
        flags = {f for entry in report.entries for f in entry.flags}
        assert "empty_group:2" in flags and "zero_margin_in_group:0" in flags
        assert math.isinf(report.entry(0).chi)

    def test_one_provenance_per_distance(self):
        profile, specs, _, _ = _every_case()
        with pytest.raises(ValueError, match="provenance"):
            bound_reports(profile, specs, [0.1, 0.2], ["measured"])


class TestValidity:
    def test_gap_always_within_every_variant(self, rng):
        notions = ["equalized_odds", "accuracy_parity", "demographic_parity_binary",
                   "equality_of_opportunity"]
        for trial in range(150):
            d = random_dataset(rng, int(rng.integers(8, 40)))
            h = LinearModel(rng.normal(size=(2, 3)), 100.0)
            h2 = LinearModel(
                h.weights + rng.normal(size=(2, 3)) * rng.uniform(0.01, 1.0), 100.0
            )
            dist = distance(h, h2)
            notion = notions[trial % 4]
            desirable = frozenset({1}) if notion == "equality_of_opportunity" else None
            spec = coefficients(d, notion, desirable=desirable)
            prof = margin_profile(h, d)
            k = int(rng.integers(spec.num_groups))
            gap = abs(group_fairness(h, d, spec, k) - group_fairness(h2, d, spec, k))
            for variant in ("markov", "truncated", "chernoff", "best"):
                bound = gap_bound(prof, spec, k, dist, variant)
                assert gap <= bound * (1 + 1e-12) + 1e-12, (trial, notion, k, variant)


def refined_profile(h, hprime, d):
    """h's margin profile with the direction-aware Lipschitz constants of
    h against hprime, composed as the sweep composes it."""
    return MarginProfile(margin_profile(h, d).abs_margins, refined_lipschitz(h, hprime, d))


class TestRefinedProfile:
    def test_orthogonal_direction_zero(self):
        d = make_dataset(np.array([[0.0, 1.0, 1.0]]), [0], [0], num_sensitive=1)
        h = LinearModel(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 10.0)
        h2 = LinearModel(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 10.0)
        # x = (0, 1, 1) is orthogonal to the only active direction (1, 0, 0)?
        # no: rows differ in coordinate 0 only, and x_0 = 0 -> projection 0
        prof = refined_profile(h, h2, d)
        assert prof.lipschitz[0] == 0.0

    def test_never_exceeds_standard(self, rng):
        for _ in range(50):
            d = random_dataset(rng, 15)
            h = LinearModel(rng.normal(size=(2, 3)), 100.0)
            h2 = LinearModel(rng.normal(size=(2, 3)), 100.0)
            refined = refined_profile(h, h2, d)
            standard = margin_profile(h, d)
            assert np.all(refined.lipschitz <= standard.lipschitz + 1e-12)

    def test_identical_models_zero_profile(self, rng):
        d = random_dataset(rng, 10)
        h = LinearModel(rng.normal(size=(2, 3)), 100.0)
        prof = refined_profile(h, h, d)
        assert np.all(prof.lipschitz == 0.0)
        spec = coefficients(d, "accuracy_parity")
        for k in range(2):
            assert gap_bound(prof, spec, k, 0.0, "best") == 0.0

    def test_refined_bounds_tighter_and_valid(self, rng):
        for _ in range(100):
            d = random_dataset(rng, int(rng.integers(8, 30)))
            h = LinearModel(rng.normal(size=(2, 3)), 100.0)
            h2 = LinearModel(h.weights + rng.normal(size=(2, 3)) * 0.4, 100.0)
            dist = distance(h, h2)
            spec = coefficients(d, "accuracy_parity")
            refined = refined_profile(h, h2, d)
            standard = margin_profile(h, d)
            for k in range(2):
                gap = abs(group_fairness(h, d, spec, k) - group_fairness(h2, d, spec, k))
                br = gap_bound(refined, spec, k, dist, "best")
                bs = gap_bound(standard, spec, k, dist, "best")
                assert gap <= br * (1 + 1e-12) + 1e-12
                assert br <= bs * (1 + 1e-12) + 1e-12


class TestTheorem3:
    def test_measured_provenance_substitution(self, desk_data):
        from fairbound.trainer import fit_erm

        hstar = fit_erm(desk_data, lam=1.0, tol=1e-8)
        c = constants(desk_data, 1.0, hstar.radius)
        pp = quiet_params(1.0, 1e-6, 0.01, "output_perturbation", seed=0)
        spec = coefficients(desk_data, "accuracy_parity")
        other = LinearModel(hstar.weights + 0.01, hstar.radius * 2)
        lemma = theorem3_report(hstar, desk_data, spec, c, desk_data.n, pp)
        measured = theorem3_report(hstar, desk_data, spec, c, desk_data.n, pp, other=other)
        assert lemma.dist_provenance == "lemma2"
        assert measured.dist_provenance == "measured"
        assert measured.dist == pytest.approx(distance(hstar, other))

    def test_markov_bound_halves_exactly_when_n_doubles(self, desk_data):
        from fairbound.trainer import fit_erm

        hstar = fit_erm(desk_data, lam=1.0, tol=1e-8)
        c = constants(desk_data, 1.0, hstar.radius)
        pp = quiet_params(1.0, 1e-6, 0.01, "output_perturbation", seed=0)
        spec = coefficients(desk_data, "accuracy_parity")
        r1 = theorem3_report(hstar, desk_data, spec, c, 1000, pp)
        r2 = theorem3_report(hstar, desk_data, spec, c, 2000, pp)
        for k in range(2):
            assert r2.entry(k).markov == r1.entry(k).markov / 2

    def test_dpsgd_provenance(self, desk_data):
        from fairbound.trainer import fit_erm

        hstar = fit_erm(desk_data, lam=1.0, tol=1e-8)
        c = constants(desk_data, 1.0, hstar.radius)
        pp = quiet_params(1.0, 1e-6, 0.5, "dp_sgd", seed=0)
        spec = coefficients(desk_data, "accuracy_parity")
        report = theorem3_report(hstar, desk_data, spec, c, desk_data.n, pp)
        assert report.dist_provenance == "lemma3"

    def test_report_flags_infinite_chi(self, rng):
        d = random_dataset(rng, 10)
        m = LinearModel(np.zeros((2, 3)), 1.0)  # all margins zero
        spec = coefficients(d, "accuracy_parity")
        prof = margin_profile(m, d)
        report = bound_report(prof, spec, 0.5, "measured")
        assert any("zero_margin" in f for f in report.entry(0).flags)
        assert report.entry(0).markov == math.inf
        assert report.entry(0).best <= 2.0  # chernoff keeps it finite
