"""Tests for the lifetime-estimation statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.lifetimes import ParetoLifetime
from repro.core.lifetime import (
    age_is_sufficient_statistic,
    conditional_remaining_curve,
    fit_pareto,
    kaplan_meier,
    rank_by_expected_remaining,
)


def pareto_samples(shape=2.5, scale=100.0, count=4000, seed=0):
    rng = np.random.default_rng(seed)
    dist = ParetoLifetime(shape=shape, scale=scale)
    return [dist.sample(rng) for _ in range(count)]


class TestFitPareto:
    def test_recovers_known_parameters(self):
        fit = fit_pareto(pareto_samples(shape=2.5, scale=100.0))
        assert fit.shape == pytest.approx(2.5, rel=0.1)
        assert fit.scale == pytest.approx(100.0, rel=0.05)

    def test_scale_is_sample_minimum(self):
        samples = [10.0, 20.0, 30.0]
        assert fit_pareto(samples).scale == 10.0

    def test_sample_size_recorded(self):
        assert fit_pareto([1.0, 2.0, 3.0]).sample_size == 3

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            fit_pareto([5.0])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            fit_pareto([1.0, 0.0])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_pareto([7.0, 7.0, 7.0])

    def test_agrees_with_scipy(self):
        """Cross-check the closed form against scipy's numerical fit.

        scipy is not a runtime dependency, so the test skips without it.
        """
        stats = pytest.importorskip("scipy.stats")
        samples = pareto_samples(shape=1.8, scale=50.0, count=3000, seed=4)
        ours = fit_pareto(samples)
        shape, _, scale = stats.pareto.fit(samples, floc=0)
        assert ours.shape == pytest.approx(shape, rel=0.05)
        assert ours.scale == pytest.approx(scale, rel=0.05)
        log_likelihood = stats.pareto.logpdf(samples, ours.shape, 0, ours.scale).sum()
        assert ours.log_likelihood == pytest.approx(log_likelihood, rel=1e-9)


class TestParetoFitMethods:
    def test_survival(self):
        fit = fit_pareto(pareto_samples())
        assert fit.survival(fit.scale / 2) == 1.0
        assert 0 < fit.survival(fit.scale * 10) < 1

    def test_expected_remaining_grows_above_scale(self):
        fit = fit_pareto(pareto_samples(shape=2.0))
        ages = [fit.scale, fit.scale * 2, fit.scale * 8]
        values = [fit.expected_remaining(a) for a in ages]
        assert values == sorted(values)

    def test_expected_remaining_negative_age(self):
        fit = fit_pareto(pareto_samples())
        with pytest.raises(ValueError):
            fit.expected_remaining(-1)

    def test_heavy_tail_infinite_remaining(self):
        fit = fit_pareto(pareto_samples(shape=0.8, count=3000, seed=2))
        if fit.shape <= 1.0:
            assert fit.expected_remaining(100) == float("inf")


class TestKaplanMeier:
    def test_no_censoring_matches_empirical(self):
        durations = [1.0, 2.0, 3.0, 4.0]
        curve = kaplan_meier(durations, [True] * 4)
        assert curve.at(2.5) == pytest.approx(0.5)
        assert curve.at(4.0) == pytest.approx(0.0)

    def test_full_censoring_stays_at_one(self):
        curve = kaplan_meier([5.0, 6.0], [False, False])
        assert curve.at(10.0) == 1.0

    def test_censoring_reduces_at_risk(self):
        # One death at t=2 among {censored@1, dead@2, alive beyond}.
        curve = kaplan_meier([1.0, 2.0, 3.0], [False, True, False])
        assert curve.at(2.0) == pytest.approx(1 - 1 / 2)

    def test_before_first_event_is_one(self):
        curve = kaplan_meier([5.0], [True])
        assert curve.at(1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            kaplan_meier([1.0], [True, False])
        with pytest.raises(ValueError):
            kaplan_meier([], [])
        with pytest.raises(ValueError):
            kaplan_meier([-1.0], [True])

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        durations = rng.exponential(10, 200)
        completed = rng.random(200) < 0.7
        curve = kaplan_meier(durations, completed)
        assert list(curve.probabilities) == sorted(
            curve.probabilities, reverse=True
        )


class TestRanking:
    def test_rank_prefers_older_above_scale(self):
        fit = fit_pareto(pareto_samples(shape=2.0, scale=10.0))
        ages = [15.0, 200.0, 50.0]
        assert rank_by_expected_remaining(ages, fit) == [1, 2, 0]

    def test_age_sufficiency_above_scale(self):
        fit = fit_pareto(pareto_samples(shape=2.2, scale=30.0))
        ages = list(np.linspace(fit.scale, fit.scale * 50, 40))
        assert age_is_sufficient_statistic(ages, fit)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_age_sufficiency_property(self, seed):
        fit = fit_pareto(pareto_samples(shape=1.7, scale=20.0, count=500, seed=seed))
        rng = np.random.default_rng(seed)
        ages = list(fit.scale + rng.random(20) * 1000)
        assert age_is_sufficient_statistic(ages, fit)

    def test_conditional_curve_shape(self):
        fit = fit_pareto(pareto_samples(shape=2.0, scale=10.0))
        curve = conditional_remaining_curve(fit, [10, 20, 40, 80])
        values = [v for _, v in curve]
        assert values == sorted(values)
