"""Tests for the chainable Scenario builder."""

import numpy as np
import pytest

from repro.churn.profiles import CHURN_MIXES, Profile
from repro.core.selection import SELECTION_STRATEGIES, SelectionStrategy
from repro.registry import UnknownComponentError
from repro.scenarios import Scenario
from repro.sim.config import PAPER_OBSERVERS, SimulationConfig


class TestChaining:
    def test_issue_example_chain(self):
        """The composition API promised by the redesign, end to end."""
        config = (
            Scenario.paper()
            .with_churn("flash_crowd")
            .with_selection("availability")
            .observers(PAPER_OBSERVERS)
            .build()
        )
        assert isinstance(config, SimulationConfig)
        assert config.population == 25_000
        assert config.selection_strategy == "availability"
        assert config.observers == PAPER_OBSERVERS
        assert [p.name for p in config.profiles] == ["Core", "Regular", "Crowd"]

    def test_builder_is_immutable(self):
        base = Scenario.scaled(population=100, rounds=500)
        derived = base.with_selection("random").with_quota(99)
        assert base.build().selection_strategy == "age"
        assert base.build().quota != 99
        assert derived.build().selection_strategy == "random"
        assert derived.build().quota == 99

    def test_with_churn_accepts_explicit_profiles(self):
        profiles = (
            Profile("OnlyOne", 1.0, (24, 240), 0.5),
        )
        config = Scenario.scaled().with_churn(profiles).build()
        assert config.profiles == profiles

    def test_with_churn_validates_explicit_mix(self):
        with pytest.raises(ValueError):
            Scenario.scaled().with_churn((Profile("Half", 0.5, None, 0.9),))

    def test_unknown_names_fail_fast(self):
        with pytest.raises(UnknownComponentError):
            Scenario.scaled().with_churn("tsunami")
        with pytest.raises(UnknownComponentError):
            Scenario.scaled().with_selection("fortune-teller")
        with pytest.raises(UnknownComponentError):
            Scenario.scaled().with_acceptance("telepathy")

    def test_with_code_rescales_threshold(self):
        # scaled() default: k=16, n=32, k'=18 (slack 2/16).
        scenario = Scenario.scaled().with_code(8, 8)
        config = scenario.build()
        assert (config.data_blocks, config.parity_blocks) == (8, 8)
        assert config.data_blocks < config.repair_threshold <= 16

    def test_with_code_to_parity_free_target(self):
        config = Scenario.scaled().with_code(16, 0).build()
        assert config.parity_blocks == 0
        assert config.repair_threshold == 16

    def test_with_code_from_parity_free_base(self):
        base = SimulationConfig(
            data_blocks=16, parity_blocks=0, repair_threshold=16
        )
        config = Scenario.from_config(base).with_code(16, 16).build()
        assert config.total_blocks == 32
        assert config.repair_threshold == 16  # zero slack preserved

    def test_override_escape_hatch(self):
        config = Scenario.scaled().override(warmup_rounds=10).build()
        assert config.warmup_rounds == 10

    def test_named_and_describe(self):
        scenario = Scenario.scaled().named("my-workload", "a test workload")
        assert scenario.name == "my-workload"
        text = scenario.describe()
        assert "my-workload" in text and "a test workload" in text


class TestTerminalOperations:
    def test_run_executes_simulation(self):
        result = (
            Scenario.scaled(population=60, rounds=200)
            .with_seed(3)
            .run()
        )
        assert result.final_round == 200
        assert result.config.seed == 3

    def test_spec_round_trips_seeds(self):
        scenario = Scenario.scaled(population=60, rounds=200)
        spec = scenario.spec(seeds=(0, 1))
        cells = spec.cells()
        assert [cell.seed for cell in cells] == [0, 1]
        assert all(cell.config.population == 60 for cell in cells)

    def test_from_config(self):
        config = SimulationConfig.scaled(population=77)
        assert Scenario.from_config(config).build() is config


class TestUserRegisteredComponents:
    """A strategy registered from user code runs without core edits."""

    def test_custom_strategy_end_to_end(self):
        @SELECTION_STRATEGIES.register("test-youngest")
        class YoungestFirst(SelectionStrategy):
            name = "test-youngest"

            def order(self, pool, rng):
                return np.lexsort((rng.random(len(pool.ids)), pool.ages))

        try:
            result = (
                Scenario.scaled(population=60, rounds=200)
                .with_selection("test-youngest")
                .run()
            )
            assert result.config.selection_strategy == "test-youngest"
            assert result.final_round == 200
        finally:
            SELECTION_STRATEGIES.unregister("test-youngest")

    def test_custom_churn_mix_end_to_end(self):
        from repro.churn.profiles import register_mix

        register_mix(
            "test-bimodal",
            (
                Profile("Rock", 0.3, None, 0.9),
                Profile("Flit", 0.7, (24, 240), 0.5, mean_online_session=6.0),
            ),
        )
        try:
            result = (
                Scenario.scaled(population=60, rounds=200)
                .with_churn("test-bimodal")
                .run()
            )
            assert [p.name for p in result.config.profiles] == ["Rock", "Flit"]
        finally:
            CHURN_MIXES.unregister("test-bimodal")
