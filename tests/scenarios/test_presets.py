"""Tests for the shipped scenario presets."""

import pytest

from repro.exec import SweepExecutor
from repro.exec.spec import ExperimentSpec
from repro.scenarios import (
    SCENARIOS,
    Scenario,
    available_scenarios,
    register_scenario,
    scenario_by_name,
)
from repro.sim.config import DEFAULT_FIDELITY

#: The presets the redesign ships (plus the paper baseline).
SHIPPED = (
    "flash_crowd",
    "diurnal",
    "correlated_outage",
    "heterogeneous_quota",
    "slow_decay",
)


class TestRegistry:
    def test_at_least_five_shipped_presets(self):
        for name in SHIPPED:
            assert name in SCENARIOS
        assert "paper" in SCENARIOS
        assert len(available_scenarios()) >= 6

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            scenario_by_name("apocalypse")
        assert "flash_crowd" in str(excinfo.value)

    def test_presets_have_descriptions(self):
        for name in available_scenarios():
            assert scenario_by_name(name).description

    def test_register_scenario_roundtrip(self):
        scenario = Scenario.scaled(population=50, rounds=100).named("test-reg")
        register_scenario(scenario)
        try:
            assert scenario_by_name("test-reg") is scenario
        finally:
            SCENARIOS.unregister("test-reg")


class TestPresetConfigs:
    @pytest.mark.parametrize("name", SHIPPED + ("paper",))
    def test_preset_builds_valid_config(self, name):
        config = scenario_by_name(name).build()
        # Construction re-validates; spot-check the headline knobs.
        assert config.population > 0
        assert config.data_blocks <= config.repair_threshold <= config.total_blocks

    def test_heterogeneous_quota_is_tight(self):
        tight = scenario_by_name("heterogeneous_quota").build()
        baseline = scenario_by_name("paper").build()
        assert tight.quota / tight.total_blocks < baseline.quota / baseline.total_blocks

    def test_correlated_outage_has_grace(self):
        assert scenario_by_name("correlated_outage").build().grace_rounds > 0


class TestProtocolPresets:
    """The PR 5 protocol-fidelity presets."""

    PROTOCOL_PRESETS = ("constrained_uplink", "unfair_freeriders")

    @pytest.mark.parametrize("name", PROTOCOL_PRESETS)
    def test_registered_and_protocol_fidelity(self, name):
        config = scenario_by_name(name).build()
        assert config.fidelity == "protocol"

    def test_constrained_uplink_prices_big_archives(self):
        config = scenario_by_name("constrained_uplink").build()
        assert config.archive_bytes > SCENARIOS.get("paper").build().archive_bytes
        assert config.link_profile == "paper-dsl"

    def test_unfair_freeriders_enforces_fairness(self):
        assert scenario_by_name("unfair_freeriders").build().fairness_factor == 1.0

    @pytest.mark.parametrize("name", PROTOCOL_PRESETS)
    def test_preset_runs_end_to_end(self, name):
        result = (
            scenario_by_name(name)
            .with_population(60)
            .with_rounds(250)
            .run()
        )
        assert result.final_round == 250
        assert result.metrics.protocol["transfers_completed"] > 0

    def test_with_fidelity_round_trips_any_preset(self):
        protocol = scenario_by_name("paper").with_fidelity("protocol")
        assert protocol.build().fidelity == "protocol"
        # Immutability: the registered preset itself is untouched.
        assert scenario_by_name("paper").build().fidelity == DEFAULT_FIDELITY
        back = protocol.with_fidelity(DEFAULT_FIDELITY).build()
        assert back.fidelity == DEFAULT_FIDELITY

    def test_describe_mentions_fidelity(self):
        text = scenario_by_name("unfair_freeriders").describe()
        assert "fidelity=protocol" in text
        assert "fairness=1" in text
        # Default-fidelity scenarios (million_peers names it explicitly)
        # print no protocol knobs.
        for name in ("paper", "million_peers"):
            assert "fidelity=" not in scenario_by_name(name).describe()


class TestPresetSmokeRuns:
    @pytest.mark.parametrize("name", SHIPPED + ("paper",))
    def test_preset_runs_end_to_end(self, name):
        """Every shipped preset runs (shrunk) and produces activity."""
        result = (
            scenario_by_name(name)
            .with_population(60)
            .with_rounds(250)
            .run()
        )
        assert result.final_round == 250
        assert result.peers_created >= 60
        assert result.metrics.total_repairs >= 0


class TestScenarioAxis:
    def test_from_scenarios_spec(self):
        spec = ExperimentSpec.from_scenarios(
            ["flash_crowd", "slow_decay"], seeds=(0, 1)
        )
        assert spec.cell_count == 4
        configs = {cell.param("scenario"): cell.config for cell in spec.cells()}
        assert configs["flash_crowd"].profiles != configs["slow_decay"].profiles

    def test_from_scenarios_unknown_name(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_scenarios(["flash_crowd", "nope"])

    def test_from_scenarios_empty(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_scenarios([])

    def test_scenario_axis_executes(self):
        shrunk = []
        for name in ("flash_crowd", "diurnal"):
            scenario = (
                scenario_by_name(name)
                .with_population(50)
                .with_rounds(150)
                .named(f"test-{name}")
            )
            register_scenario(scenario)
            shrunk.append(scenario.name)
        try:
            sweep = SweepExecutor().run(
                ExperimentSpec.from_scenarios(shrunk, seeds=(0,))
            )
            by_scenario = sweep.by_axis("scenario")
            assert set(by_scenario) == set(shrunk)
            for results in by_scenario.values():
                assert results[0].final_round == 150
        finally:
            for name in shrunk:
                SCENARIOS.unregister(name)
