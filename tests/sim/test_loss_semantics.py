"""Behavioural tests of the loss and blocked-repair semantics.

DESIGN.md section 5: an archive is *lost* when fewer than k blocks
remain on live peers; a repair that sees fewer than k *online* blocks is
*blocked* and retried.  These tests force each regime with crafted
churn profiles.
"""

import pytest

from repro.churn.profiles import Profile
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation

#: Everyone dies within days: block loss is guaranteed to outrun repair
#: at a tight threshold.
DOOMED = (
    Profile("Doomed", 1.0, (24, 96), 0.9, mean_online_session=48.0),
)

#: Stable but very flaky: nobody ever leaves, yet peers are offline
#: two-thirds of the time — repairs get blocked, data is never lost.
FLAKY = (
    Profile("Flaky", 1.0, None, 0.34, mean_online_session=6.0),
)


class TestLossRegime:
    def test_doomed_population_loses_archives(self):
        config = SimulationConfig(
            population=60,
            rounds=1500,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=9,
            quota=24,
            profiles=DOOMED,
            seed=1,
        )
        result = run_simulation(config)
        assert result.metrics.total_losses > 0
        # Losses hit Newcomers: nobody in a doomed population ages out
        # of the first category.
        assert result.metrics.by_category["Newcomers"].losses == (
            sum(c.losses for c in result.metrics.by_category.values())
        )

    def test_lost_archives_are_reinjected(self):
        config = SimulationConfig(
            population=60,
            rounds=1500,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=9,
            quota=24,
            profiles=DOOMED,
            seed=1,
        )
        result = run_simulation(config)
        # Every loss is followed by a fresh placement (plus the initial
        # one per created peer), so placements strictly exceed peers.
        assert result.metrics.total_placements > result.peers_created * 0.5
        assert result.metrics.total_losses > 0

    def test_loss_requires_alive_below_k(self):
        """With immortal peers, no archive can ever be lost, no matter
        how flaky their sessions are."""
        config = SimulationConfig(
            population=60,
            rounds=2000,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=12,
            quota=24,
            profiles=FLAKY,
            seed=2,
        )
        result = run_simulation(config)
        assert result.metrics.total_losses == 0


class TestBlockedRegime:
    def test_flaky_population_blocks_but_recovers(self):
        config = SimulationConfig(
            population=60,
            rounds=2000,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=12,
            quota=24,
            profiles=FLAKY,
            seed=2,
        )
        simulation = SoaSimulation(config)
        result = simulation.run()
        blocked = sum(c.blocked for c in result.metrics.by_category.values())
        # With 34% availability the expected visible count of a 16-block
        # archive is ~5.4 < k=8: repairs block routinely...
        assert blocked > 0
        # ...but the data is safe and the state stays exact.
        assert result.metrics.total_losses == 0
        assert simulation.audit() == []

    def test_blocked_counts_attributed_to_archives(self):
        config = SimulationConfig(
            population=40,
            rounds=1200,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=12,
            quota=24,
            profiles=FLAKY,
            seed=3,
        )
        simulation = SoaSimulation(config)
        calls = []
        record_blocked = simulation.metrics.record_blocked

        def spy(round_number, age, observer_name=None):
            calls.append((round_number, age, observer_name))
            record_blocked(round_number, age, observer_name)

        simulation.metrics.record_blocked = spy
        result = simulation.run()
        global_blocked = sum(
            c.blocked for c in result.metrics.by_category.values()
        )
        # Every blocked attempt is recorded once, against the age of the
        # normal peer whose archive blocked (immortal peers joined at
        # round 0, so the age never exceeds the round).
        assert len(calls) == global_blocked > 0
        assert all(
            name is None and 0 <= age <= round_number
            for round_number, age, name in calls
        )


@pytest.mark.slow
class TestThresholdExtremes:
    @pytest.mark.parametrize("threshold", [9, 16])
    def test_extreme_thresholds_run_clean(self, threshold):
        config = SimulationConfig(
            population=50,
            rounds=800,
            data_blocks=8,
            parity_blocks=8,
            repair_threshold=threshold,
            quota=24,
            seed=4,
        )
        simulation = SoaSimulation(config)
        simulation.run()
        assert simulation.audit() == []

    def test_threshold_equal_to_n_repairs_constantly(self):
        low = run_simulation(SimulationConfig(
            population=50, rounds=800, data_blocks=8, parity_blocks=8,
            repair_threshold=9, quota=24, seed=4,
        ))
        max_threshold = run_simulation(SimulationConfig(
            population=50, rounds=800, data_blocks=8, parity_blocks=8,
            repair_threshold=16, quota=24, seed=4,
        ))
        assert max_threshold.metrics.total_repairs > low.metrics.total_repairs
