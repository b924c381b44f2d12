"""Tests for the paper's acceptation function and its properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acceptance import (
    DEFAULT_AGE_CAP,
    AcceptancePolicy,
    UniformAcceptancePolicy,
    acceptance_probability,
    acceptance_rule,
    minimum_probability,
)

ages = st.floats(min_value=0, max_value=1e6, allow_nan=False)


class TestFormula:
    def test_default_cap_is_90_days(self):
        assert DEFAULT_AGE_CAP == 90 * 24

    def test_equal_ages_give_probability_above_one_clamped(self):
        # f = (L - 0 + 1)/L = 1 + 1/L, clamped to 1.
        assert acceptance_probability(100, 100) == 1.0

    def test_older_candidate_always_accepted(self):
        assert acceptance_probability(50, 200) == 1.0
        assert acceptance_probability(0, 1) == 1.0

    def test_known_value(self):
        # L=100, s1=60, s2=10: (100 - 50 + 1)/100 = 0.51.
        assert acceptance_probability(60, 10, age_cap=100) == pytest.approx(0.51)

    def test_minimum_is_one_over_l(self):
        # Elder at the cap vs a brand-new peer: (L - L + 1)/L = 1/L.
        value = acceptance_probability(DEFAULT_AGE_CAP, 0)
        assert value == pytest.approx(1 / DEFAULT_AGE_CAP)
        assert value == pytest.approx(minimum_probability())

    def test_ages_above_cap_are_capped(self):
        cap = 100
        assert acceptance_probability(1000, 2000, age_cap=cap) == 1.0
        assert acceptance_probability(1000, 50, age_cap=cap) == pytest.approx(
            acceptance_probability(cap, 50, age_cap=cap)
        )

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(-1, 5)

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            acceptance_probability(1, 2, age_cap=0)
        with pytest.raises(ValueError):
            minimum_probability(0)


class TestPaperProperties:
    """The three properties stated in section 3.2."""

    @settings(max_examples=200, deadline=None)
    @given(ages, ages)
    def test_never_zero(self, own, other):
        assert acceptance_probability(own, other) >= 1 / DEFAULT_AGE_CAP

    @settings(max_examples=200, deadline=None)
    @given(ages, st.floats(min_value=0, max_value=1e6))
    def test_one_when_candidate_older(self, own, extra):
        assert acceptance_probability(own, own + extra) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0, max_value=DEFAULT_AGE_CAP - 2),
        st.floats(min_value=2, max_value=DEFAULT_AGE_CAP),
    )
    def test_asymmetric_below_cap(self, young, gap):
        # The formula's +1 forgives a one-round age gap, so true
        # asymmetry needs a gap of at least two rounds.
        old = min(young + gap, DEFAULT_AGE_CAP)
        forward = acceptance_probability(old, young)
        backward = acceptance_probability(young, old)
        assert backward == 1.0
        assert forward < backward

    @settings(max_examples=100, deadline=None)
    @given(ages, ages)
    def test_result_is_probability(self, own, other):
        value = acceptance_probability(own, other)
        assert 0.0 < value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1e5),
        st.floats(min_value=0, max_value=1e5),
    )
    def test_monotone_in_candidate_age(self, own, age_a, age_b):
        younger, older = sorted((age_a, age_b))
        assert acceptance_probability(own, older) >= acceptance_probability(
            own, younger
        )


class TestAcceptancePolicy:
    def test_decide_threshold_behaviour(self):
        policy = AcceptancePolicy(age_cap=100)
        probability = policy.probability(60, 10)
        assert policy.decide(60, 10, probability - 1e-9)
        assert not policy.decide(60, 10, probability + 1e-9)

    def test_decide_validates_uniform(self):
        policy = AcceptancePolicy()
        with pytest.raises(ValueError):
            policy.decide(1, 1, 1.0)
        with pytest.raises(ValueError):
            policy.decide(1, 1, -0.1)

    def test_mutual_probability(self):
        policy = AcceptancePolicy(age_cap=100)
        assert policy.mutual_probability(50, 50) == 1.0
        one_sided = policy.probability(80, 20)
        assert policy.mutual_probability(80, 20) == pytest.approx(one_sided)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            AcceptancePolicy(age_cap=0)


class TestMutualAcceptance:
    """Both sides' ``decide`` calls, as the engines' pool fills make them."""

    @staticmethod
    def mutual_accepts(policy, owner_age, candidate_age, trials, seed):
        uniforms = np.random.default_rng(seed).random((trials, 2))
        return sum(
            policy.decide(owner_age, candidate_age, float(u_owner))
            and policy.decide(candidate_age, owner_age, float(u_candidate))
            for u_owner, u_candidate in uniforms
        )

    def test_mutual_acceptance_probability_statistics(self):
        """Acceptance frequency matches the analytic mutual probability."""
        policy = AcceptancePolicy(age_cap=100)
        owner_age, candidate_age = 80.0, 30.0
        expected = policy.mutual_probability(owner_age, candidate_age)
        trials = 20_000
        accepted = self.mutual_accepts(policy, owner_age, candidate_age, trials, 0)
        assert accepted / trials == pytest.approx(expected, abs=0.02)

    def test_old_candidates_always_accepted_by_young_owner(self):
        policy = AcceptancePolicy(age_cap=100)
        uniforms = np.random.default_rng(8).random(200)
        # Owner side f(0, 200) = 1: the newborn accepts every elder ...
        assert all(policy.decide(0, 200, float(u)) for u in uniforms)
        # ... while the elder's side f(200, 0) = 1/L refuses most of them.
        refusals = sum(not policy.decide(200, 0, float(u)) for u in uniforms)
        assert refusals > 150


class TestUniformAcceptance:
    def test_always_accepts(self):
        policy = UniformAcceptancePolicy()
        assert policy.probability(1e6, 0) == 1.0
        assert policy.decide(1e6, 0, 0.999999)
        assert policy.mutual_probability(5, 500) == 1.0

    def test_still_validates_inputs(self):
        policy = UniformAcceptancePolicy()
        with pytest.raises(ValueError):
            policy.probability(-1, 0)
        with pytest.raises(ValueError):
            policy.decide(1, 1, 1.5)


class TestAcceptanceRule:
    def test_age_rule(self):
        assert isinstance(acceptance_rule("age"), AcceptancePolicy)

    def test_uniform_rule(self):
        assert isinstance(acceptance_rule("uniform"), UniformAcceptancePolicy)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            acceptance_rule("psychic")

    def test_cap_is_forwarded(self):
        assert acceptance_rule("age", age_cap=77).age_cap == 77
