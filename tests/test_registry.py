"""Tests for the typed component registry."""

import pytest

from repro.registry import (
    DuplicateComponentError,
    Registry,
    UnknownComponentError,
)


class TestRegistration:
    def test_direct_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1

    def test_decorator_register_returns_component(self):
        registry = Registry("widget")

        @registry.register("cls")
        class Widget:
            pass

        assert registry.get("cls") is Widget
        assert Widget.__name__ == "Widget"

    def test_duplicate_rejected(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(DuplicateComponentError):
            registry.register("a", 2)
        assert registry.get("a") == 1

    def test_replace_overrides(self):
        registry = Registry("widget")
        registry.register("a", 1)
        registry.register("a", 2, replace=True)
        assert registry.get("a") == 2

    def test_empty_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.register("", 1)
        with pytest.raises(ValueError):
            registry.register(None, 1)(2)

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.unregister("a") == 1
        assert "a" not in registry

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            Registry("")


class TestLookup:
    def test_unknown_name_lists_choices(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "widget" in message
        assert "alpha" in message and "beta" in message

    def test_unknown_name_suggests_close_match(self):
        registry = Registry("widget")
        registry.register("availability", 1)
        with pytest.raises(UnknownComponentError) as excinfo:
            registry.get("avaliability")
        assert "did you mean 'availability'" in str(excinfo.value)

    def test_unknown_is_value_error(self):
        """Call sites historically raised ValueError; keep that contract."""
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.check("missing")

    def test_create_calls_factory(self):
        registry = Registry("factory")
        registry.register("adder", lambda a, b=0: a + b)
        assert registry.create("adder", 2, b=3) == 5

    def test_create_rejects_non_callable(self):
        registry = Registry("value")
        registry.register("x", 42)
        with pytest.raises(TypeError):
            registry.create("x")


class TestMappingProtocol:
    def test_names_sorted(self):
        registry = Registry("widget")
        registry.register("b", 2)
        registry.register("a", 1)
        assert registry.names() == ["a", "b"]
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2
        assert registry.items() == [("a", 1), ("b", 2)]

    def test_contains(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert "a" in registry
        assert "b" not in registry


class TestBuiltinRegistries:
    """The shipped components are registered under their documented names."""

    def test_selection_strategies(self):
        from repro.core.selection import SELECTION_STRATEGIES

        assert SELECTION_STRATEGIES.names() == [
            "age", "availability", "oracle", "random",
        ]

    def test_acceptance_rules(self):
        from repro.core.acceptance import ACCEPTANCE_RULES

        assert ACCEPTANCE_RULES.names() == ["age", "uniform"]

    def test_lifetime_models(self):
        from repro.churn.lifetimes import LIFETIME_MODELS, lifetime_by_name

        assert LIFETIME_MODELS.names() == ["immortal", "pareto", "uniform"]
        assert lifetime_by_name("uniform", low=10, high=20).mean() == 15

    def test_churn_mixes(self):
        from repro.churn.profiles import CHURN_MIXES, PAPER_PROFILES

        assert "paper" in CHURN_MIXES
        assert CHURN_MIXES.get("paper") == PAPER_PROFILES
        for name in ("flash_crowd", "diurnal", "correlated_outage",
                     "heterogeneous", "slow_decay"):
            assert name in CHURN_MIXES

    def test_policy_presets(self):
        from repro.core.policy import POLICY_PRESETS, policy_by_name

        paper = policy_by_name("paper")
        assert (paper.k, paper.n, paper.repair_threshold) == (128, 256, 148)
        assert "scaled" in POLICY_PRESETS

    def test_register_mix_validates(self):
        from repro.churn.profiles import Profile, register_mix

        with pytest.raises(ValueError):
            register_mix("broken-mix", (Profile("Half", 0.5, None, 0.9),))
