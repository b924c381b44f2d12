"""Integration tests for the default (``abstract_soa``) engine."""

import pytest

from repro.churn.profiles import Profile
from repro.sim.config import ObserverSpec, SimulationConfig
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation

#: A no-churn profile mix: everyone durable and always online.
CALM = (Profile("Calm", 1.0, None, 1.0, mean_online_session=1000.0),)


def tiny(**overrides):
    defaults = dict(
        population=80,
        rounds=600,
        data_blocks=8,
        parity_blocks=8,
        repair_threshold=10,
        quota=24,
        seed=3,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def alive_normal_ids(simulation):
    """Ids of the living non-observer peers of a finished run."""
    state = simulation.state
    return [
        peer_id
        for peer_id in range(state.n_observers, state.count)
        if state.alive[peer_id]
    ]


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = run_simulation(tiny())
        b = run_simulation(tiny())
        assert a.metrics.total_repairs == b.metrics.total_repairs
        assert a.metrics.total_losses == b.metrics.total_losses
        assert a.deaths == b.deaths
        assert a.metrics.rates_table() == b.metrics.rates_table()

    def test_different_seeds_diverge(self):
        a = run_simulation(tiny(seed=1))
        b = run_simulation(tiny(seed=2))
        assert (
            a.metrics.total_repairs != b.metrics.total_repairs
            or a.deaths != b.deaths
        )


class TestConsistency:
    def test_audit_clean_after_run(self):
        simulation = SoaSimulation(tiny(rounds=1000))
        simulation.run()
        assert simulation.audit() == []

    def test_audit_clean_with_observers_and_grace(self):
        config = tiny(
            observers=(ObserverSpec("Baby", 1), ObserverSpec("Elder", 500)),
            grace_rounds=12,
        )
        simulation = SoaSimulation(config)
        simulation.run()
        assert simulation.audit() == []

    def test_population_size_is_maintained(self):
        simulation = SoaSimulation(tiny())
        result = simulation.run()
        assert sum(simulation.state.alive) == 80
        assert result.peers_created == 80 + result.deaths

    def test_quota_never_exceeded(self):
        simulation = SoaSimulation(tiny(quota=12))
        simulation.run()
        assert max(simulation.state.quota_used) <= 12


class TestPlacementAndRepair:
    def test_calm_network_places_everyone_and_never_repairs(self):
        config = tiny(profiles=CALM, rounds=300)
        simulation = SoaSimulation(config)
        result = simulation.run()
        assert result.metrics.total_placements == 80
        assert result.metrics.total_repairs == 0
        assert result.metrics.total_losses == 0
        state = simulation.state
        for peer_id in alive_normal_ids(simulation):
            assert state.placed[peer_id]
            assert state.visible[peer_id] == config.total_blocks

    def test_initial_placement_counts_once_per_peer(self):
        result = run_simulation(tiny(profiles=CALM, rounds=200))
        assert result.metrics.total_placements == 80

    def test_churny_network_repairs(self):
        result = run_simulation(tiny(rounds=1500))
        assert result.metrics.total_repairs > 0

    def test_losses_only_from_low_thresholds(self):
        """With a generous threshold, losses should be rare or absent;
        alive-block counts can never go below k without being recorded."""
        simulation = SoaSimulation(tiny(rounds=1500, repair_threshold=12))
        result = simulation.run()
        state = simulation.state
        for peer_id in alive_normal_ids(simulation):
            if state.placed[peer_id]:
                assert len(state.holders[peer_id]) >= 0
        assert result.metrics.total_losses >= 0  # smoke: counter coherent

    def test_higher_threshold_means_more_repairs(self):
        low = run_simulation(tiny(rounds=1500, repair_threshold=9, seed=5))
        high = run_simulation(tiny(rounds=1500, repair_threshold=14, seed=5))
        assert high.metrics.total_repairs > low.metrics.total_repairs


class TestObservers:
    def observer_config(self, **overrides):
        return tiny(
            observers=(
                ObserverSpec("Baby", 1),
                ObserverSpec("Elder", 2160),
            ),
            rounds=1200,
            **overrides,
        )

    def test_observers_never_hold_blocks(self):
        simulation = SoaSimulation(self.observer_config())
        simulation.run()
        state = simulation.state
        for observer_id in range(state.n_observers):
            assert len(state.owners_row(observer_id)) == 0
            assert state.quota_used[observer_id] == 0

    def test_observer_blocks_do_not_consume_quota(self):
        simulation = SoaSimulation(self.observer_config(quota=16))
        simulation.run()
        state = simulation.state
        hosts_an_observer = 0
        for peer_id in alive_normal_ids(simulation):
            owners = list(state.owners_row(peer_id))
            normal = [owner for owner in owners if owner >= state.n_observers]
            hosts_an_observer += len(owners) > len(normal)
            # Observer-owned blocks never contribute to the quota count.
            assert state.quota_used[peer_id] == len(normal) <= 16
        assert hosts_an_observer > 0

    def test_observer_repairs_recorded_separately(self):
        result = run_simulation(self.observer_config())
        totals = result.observer_totals()
        assert set(totals) <= {"Baby", "Elder"}
        # Observer repairs must not pollute the per-category counters:
        # category peer-round exposure counts only normal peers.
        assert result.metrics.total_repairs >= 0

    def test_baby_repairs_at_least_as_much_as_elder(self):
        # A wider code (n = 32) and an age cap the observer ages straddle
        # are needed for the stratification signal to rise above the
        # partner-placement luck of a small run (DESIGN.md section 5).
        config = SimulationConfig(
            population=150,
            rounds=2500,
            data_blocks=16,
            parity_blocks=16,
            repair_threshold=18,
            quota=48,
            age_cap=324,
            seed=3,
            observers=(ObserverSpec("Baby", 1), ObserverSpec("Elder", 324)),
        )
        result = run_simulation(config)
        totals = result.observer_totals()
        assert totals.get("Baby", 0) >= totals.get("Elder", 0)

    def test_observers_survive_whole_run(self):
        simulation = SoaSimulation(self.observer_config())
        simulation.run()
        state = simulation.state
        assert state.n_observers == 2
        assert all(state.alive[o] and state.online[o] for o in range(2))


class TestKnobs:
    def test_staggered_start(self):
        result = run_simulation(tiny(staggered_join_rounds=200, rounds=800))
        assert result.metrics.total_placements > 0

    def test_grace_period_reduces_regeneration(self):
        eager = run_simulation(tiny(rounds=1500, grace_rounds=0, seed=9))
        patient = run_simulation(tiny(rounds=1500, grace_rounds=48, seed=9))
        regenerated_eager = sum(
            c.regenerated_blocks for c in eager.metrics.by_category.values()
        )
        regenerated_patient = sum(
            c.regenerated_blocks for c in patient.metrics.by_category.values()
        )
        assert regenerated_patient <= regenerated_eager

    def test_proactive_rate_runs(self):
        result = run_simulation(tiny(rounds=600, proactive_rate=0.01))
        assert result.final_round == 600

    def test_uniform_acceptance_runs_clean(self):
        simulation = SoaSimulation(tiny(acceptance_rule="uniform", rounds=800))
        simulation.run()
        assert simulation.audit() == []

    @pytest.mark.parametrize("strategy", ["age", "random", "availability", "oracle"])
    def test_all_strategies_run_clean(self, strategy):
        simulation = SoaSimulation(
            tiny(selection_strategy=strategy, rounds=500)
        )
        simulation.run()
        assert simulation.audit() == []

    def test_warmup_excludes_early_events(self):
        full = run_simulation(tiny(rounds=1000, warmup_rounds=0, seed=4))
        warm = run_simulation(tiny(rounds=1000, warmup_rounds=500, seed=4))
        warm_counted = sum(c.repairs for c in warm.metrics.by_category.values())
        full_counted = sum(c.repairs for c in full.metrics.by_category.values())
        assert warm_counted <= full_counted
        # The raw totals are identical: same seed, same trajectory.
        assert warm.metrics.total_repairs == full.metrics.total_repairs


class TestCheckRescheduling:
    """An earlier check must replace a pending later one (ISSUE 3).

    Before the fix, ``_schedule_check`` deduplicated purely on "a check
    is pending", so a block loss wanting a check at round 5 was silently
    swallowed by e.g. a placement retry already queued for round 12.
    """

    def test_earlier_check_cancels_and_replaces_later_one(self):
        simulation = SoaSimulation(tiny())
        state = simulation.state
        peer_id = simulation._spawn_peer(0)
        # Forget the join-time check so we control the pending state.
        state.check_scheduled[peer_id] = None
        state.check_handle[peer_id] = None

        simulation._schedule_check(peer_id, 12)
        later_handle = state.check_handle[peer_id]
        assert state.check_scheduled[peer_id] == 12

        # A later request is deduplicated away ...
        simulation._schedule_check(peer_id, 20)
        assert state.check_scheduled[peer_id] == 12
        assert state.check_handle[peer_id] is later_handle

        # ... but an earlier one cancels and replaces the pending check.
        simulation._schedule_check(peer_id, 5)
        assert state.check_scheduled[peer_id] == 5
        assert later_handle.cancelled
        assert state.check_handle[peer_id] is not later_handle
        assert not state.check_handle[peer_id].cancelled

    def test_check_state_cleared_when_check_runs(self):
        simulation = SoaSimulation(tiny(rounds=200))
        simulation.run()
        state = simulation.state
        for peer_id in alive_normal_ids(simulation):
            if state.check_scheduled[peer_id] is None:
                assert state.check_handle[peer_id] is None


class TestResultApi:
    def test_rates_cover_all_categories(self, tiny_config):
        result = run_simulation(tiny_config)
        assert set(result.repair_rates()) == set(tiny_config.categories.names())
        assert set(result.loss_rates()) == set(tiny_config.categories.names())

    def test_wall_clock_positive(self):
        result = run_simulation(tiny(rounds=100))
        assert result.wall_clock_seconds > 0
