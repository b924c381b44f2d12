"""Tests for the adaptive repair-threshold controller (A5)."""

import pytest

from repro.core.adaptive import AdaptiveConfig, AdaptiveThreshold
from repro.core.policy import RepairPolicy


def controller(base=18, k=16, n=32, **config):
    policy = RepairPolicy(k, n, base)
    return AdaptiveThreshold(policy, AdaptiveConfig(**config))


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        AdaptiveConfig()

    @pytest.mark.parametrize("field,value", [
        ("raise_step", 0),
        ("lower_step", 0),
        ("decay_interval", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            AdaptiveConfig(**{field: value})


class TestThresholdMoves:
    def test_starts_at_base(self):
        assert controller().value == 18

    def test_blocked_raises(self):
        adaptive = controller()
        adaptive.on_blocked(now=10)
        assert adaptive.value == 19

    def test_starved_lowers(self):
        adaptive = controller()
        adaptive.on_starved(now=10)
        assert adaptive.value == 17

    def test_capped_at_n_minus_one(self):
        adaptive = controller(base=31)
        for _ in range(10):
            adaptive.on_blocked(now=10)
        assert adaptive.value == 31

    def test_floored_at_k_plus_one(self):
        adaptive = controller(base=17)
        for _ in range(10):
            adaptive.on_starved(now=10)
        assert adaptive.value == 17

    def test_base_clamped_into_band(self):
        # A base at n would leave no room; it clamps to n - 1.
        policy = RepairPolicy(16, 32, 32)
        adaptive = AdaptiveThreshold(policy)
        assert adaptive.base == 31

    def test_needs_repair_uses_current_value(self):
        adaptive = controller()
        assert adaptive.needs_repair(17)
        assert not adaptive.needs_repair(18)
        adaptive.on_blocked(now=1)  # threshold now 19
        assert adaptive.needs_repair(18)

    def test_needs_repair_validates(self):
        with pytest.raises(ValueError):
            controller().needs_repair(-1)


class TestDecay:
    def test_decays_back_toward_base_after_quiet(self):
        adaptive = controller(decay_interval=100)
        adaptive.on_blocked(now=0)
        adaptive.on_blocked(now=0)
        assert adaptive.value == 20
        adaptive.on_repair(now=250)  # 2 quiet intervals -> 2 steps down
        assert adaptive.value == 18

    def test_decay_never_overshoots_base(self):
        adaptive = controller(decay_interval=10)
        adaptive.on_blocked(now=0)
        adaptive.on_repair(now=10_000)
        assert adaptive.value == adaptive.base

    def test_decay_works_upward_too(self):
        adaptive = controller(base=20, decay_interval=10)
        adaptive.on_starved(now=0)
        adaptive.on_starved(now=0)
        assert adaptive.value == 18
        adaptive.on_repair(now=100)
        assert adaptive.value == 20

    def test_no_decay_before_interval(self):
        adaptive = controller(decay_interval=100)
        adaptive.on_blocked(now=0)
        adaptive.on_repair(now=50)
        assert adaptive.value == 19

    def test_repr_mentions_band(self):
        assert "band=[17, 31]" in repr(controller())


class TestSimulationIntegration:
    def test_adaptive_run_is_clean_and_deterministic(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.engine_soa import SoaSimulation

        config = SimulationConfig(
            population=80,
            rounds=800,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=10,
            quota=24,
            seed=3,
            adaptive_thresholds=True,
        )
        first = SoaSimulation(config)
        first_result = first.run()
        assert first.audit() == []
        second_result = SoaSimulation(config).run()
        assert (
            first_result.metrics.total_repairs
            == second_result.metrics.total_repairs
        )

    def test_controllers_attached_to_every_peer(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.engine_soa import SoaSimulation

        config = SimulationConfig(
            population=30,
            rounds=100,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=10,
            quota=24,
            adaptive_thresholds=True,
        )
        simulation = SoaSimulation(config)
        simulation.run()
        state = simulation.state
        for peer_id in range(state.count):
            if state.alive[peer_id]:
                assert simulation._adaptive.get(peer_id) is not None
