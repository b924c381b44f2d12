"""Property tests of the simulation engine: state stays exact under any knobs.

The default engine's incremental columns (visible per archive, quota per
holder, bidirectional holder links) are recomputed from scratch by
``SoaSimulation.audit``; these tests drive randomized configurations
through short runs and require a spotless audit plus a handful of global
conservation laws.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.config import ObserverSpec, SimulationConfig
from repro.sim.engine_soa import SoaSimulation

knob_strategy = st.fixed_dictionaries(
    {
        "population": st.integers(min_value=30, max_value=90),
        "rounds": st.integers(min_value=200, max_value=700),
        "data_blocks": st.sampled_from([4, 8]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "grace_rounds": st.sampled_from([0, 12, 48]),
        "acceptance_rule": st.sampled_from(["age", "uniform"]),
        "selection_strategy": st.sampled_from(
            ["age", "random", "availability", "oracle"]
        ),
        "adaptive_thresholds": st.booleans(),
        "proactive": st.sampled_from([0.0, 0.02]),
        "staggered": st.sampled_from([0, 100]),
        "with_observers": st.booleans(),
    }
)


def build_config(knobs) -> SimulationConfig:
    k = knobs["data_blocks"]
    observers = ()
    if knobs["with_observers"]:
        observers = (ObserverSpec("Baby", 1), ObserverSpec("Elder", 500))
    return SimulationConfig(
        population=knobs["population"],
        rounds=knobs["rounds"],
        data_blocks=k,
        parity_blocks=k,
        repair_threshold=k + max(k // 4, 1),
        quota=3 * k,
        seed=knobs["seed"],
        grace_rounds=knobs["grace_rounds"],
        acceptance_rule=knobs["acceptance_rule"],
        selection_strategy=knobs["selection_strategy"],
        adaptive_thresholds=knobs["adaptive_thresholds"],
        proactive_rate=knobs["proactive"],
        staggered_join_rounds=knobs["staggered"],
        observers=observers,
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(knobs=knob_strategy)
def test_audit_clean_for_any_configuration(knobs):
    simulation = SoaSimulation(build_config(knobs))
    simulation.run()
    assert simulation.audit() == []


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(knobs=knob_strategy)
def test_conservation_laws(knobs):
    config = build_config(knobs)
    simulation = SoaSimulation(config)
    result = simulation.run()
    state = simulation.state
    alive = [peer_id for peer_id in range(state.count) if state.alive[peer_id]]

    # Population is maintained: alive normal peers == configured size.
    assert len(alive) == config.population + state.n_observers
    # Every death spawned exactly one replacement.
    assert result.peers_created == config.population + result.deaths

    # Block conservation: holder links match hosted rows, split by kind,
    # and only normal-owner links consume quota.
    hosted_normal = hosted_free = held_normal = held_free = 0
    for peer_id in alive:
        for owner_id in state.owners_row(peer_id):
            if owner_id < state.n_observers:
                hosted_free += 1
            else:
                hosted_normal += 1
        if peer_id < state.n_observers:
            held_free += len(state.holders[peer_id])
        else:
            held_normal += len(state.holders[peer_id])
    assert hosted_normal == held_normal
    assert hosted_free == held_free
    assert sum(state.quota_used[peer_id] for peer_id in alive) == held_normal

    # No archive ever exceeds n holders, and counters stay in range.
    for peer_id in alive:
        holders = len(state.holders[peer_id])
        assert holders <= config.total_blocks
        assert 0 <= state.visible[peer_id] <= holders


@pytest.mark.parametrize("seed", range(4))
def test_metrics_totals_match_archive_counters(seed):
    """Archives placed among *surviving* peers never exceed the global
    placement total, and the per-category counters add up to the
    headline totals (no warm-up, so every event is counted)."""
    config = SimulationConfig(
        population=60,
        rounds=900,
        data_blocks=8,
        parity_blocks=8,
        repair_threshold=10,
        quota=24,
        seed=seed,
    )
    simulation = SoaSimulation(config)
    result = simulation.run()
    state = simulation.state
    surviving_placed = sum(
        state.placed[peer_id]
        for peer_id in range(state.count)
        if state.alive[peer_id]
    )
    assert 0 < surviving_placed <= result.metrics.total_placements
    categories = result.metrics.by_category.values()
    assert sum(c.repairs for c in categories) == result.metrics.total_repairs
    assert sum(c.losses for c in categories) == result.metrics.total_losses
    assert sum(c.placements for c in categories) == result.metrics.total_placements
