"""Unit tests for the structure-of-arrays engine itself.

``test_soa_equivalence.py`` pins both kernel branches to the golden
digests metric for metric; this file covers what equivalence cannot see — the
internal consistency of the incremental columns (``audit``), same-seed
determinism within the backend, and registration through the fidelity
registry.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.churn.lifetimes import from_profile
from repro.experiments.common import PAPER_FOCUS_THRESHOLD, QUICK
from repro.scenarios import scenario_by_name
from repro.sim.engine import run_simulation
from repro.sim.engine_soa import SoaSimulation
from repro.sim.fidelity import available_fidelities, simulation_for
from repro.sim.rng import RngStreams


def _config(seed=3, population=150, rounds=1000):
    return (
        scenario_by_name("paper")
        .with_population(population)
        .with_rounds(rounds)
        .with_seed(seed)
        .with_fidelity("abstract_soa")
        .build()
    )


def test_registered_as_fidelity_backend():
    assert "abstract_soa" in available_fidelities()
    simulation = simulation_for(_config(rounds=10))
    assert isinstance(simulation, SoaSimulation)
    assert simulation.fidelity == "abstract_soa"


def test_audit_clean_after_full_run():
    """Every incremental column agrees with a from-scratch recompute."""
    simulation = SoaSimulation(_config())
    result = simulation.run()
    assert result.final_round == 1000
    assert simulation.audit() == []


def test_same_seed_is_deterministic():
    first = run_simulation(_config(seed=11))
    second = run_simulation(_config(seed=11))
    assert first.to_dict() == second.to_dict()


def test_different_seeds_diverge():
    first = run_simulation(_config(seed=11))
    second = run_simulation(_config(seed=12))
    assert first.to_dict() != second.to_dict()


def test_observer_and_category_activity_present():
    """The shrunk workload still exercises the metric surfaces."""
    result = run_simulation(_config())
    assert result.metrics.total_repairs > 0
    assert result.peers_created >= 150
    assert result.deaths > 0


def test_spawn_draws_match_scalar_generator_calls():
    """Batched spawn draws equal the scalar generator calls they replaced.

    The engine reads profile choices and lifetimes from block-buffered
    uniforms instead of calling ``Generator.choice(p=...)`` and
    ``Generator.uniform`` once per spawn, as the goldens' recording
    engine did.  Over the paper profile mix both must give the same
    profile and death round, peer by peer.
    """
    config = _config(rounds=10)
    simulation = SoaSimulation(config)
    peer_ids = [simulation._spawn_peer(7) for _ in range(3000)]
    reference = RngStreams(config.seed)
    weights = [profile.proportion for profile in config.profiles]
    profiles = set()
    for peer_id in peer_ids:
        index = int(reference.profiles.choice(len(weights), p=weights))
        lifetime = from_profile(config.profiles[index]).sample(reference.lifetimes)
        expected_death = (
            None if math.isinf(lifetime) else 7 + max(int(lifetime), 1)
        )
        assert simulation.state.profile[peer_id] == index
        assert simulation.state.death[peer_id] == expected_death
        profiles.add(index)
    assert profiles == set(range(len(weights)))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "_fill_pool checks the examined budget only between chunks, so one "
        "chunk of 4*needed+16 draws can evaluate past max_examined; capping "
        "evaluation at the remaining budget changes every golden digest and "
        "needs a cache schema bump of its own"
    ),
)
def test_one_fill_never_examines_more_than_its_budget():
    """A pool fill stops examining candidates at ``max_examined``.

    Young owners, whom older candidates mostly reject, are where the
    between-chunks check overshoots: the fig3 observer setup at a small
    scale shows it within a few hundred rounds.
    """
    scale = dataclasses.replace(QUICK, population=120, rounds=800)
    config = scale.config(
        paper_threshold=PAPER_FOCUS_THRESHOLD, with_observers=True
    )
    simulation = SoaSimulation(config)
    fill = simulation._fill_pool
    overshoots = []

    def counted(owner_id, now, target_size, max_examined):
        before = simulation.metrics.pool_examined
        filled = fill(owner_id, now, target_size, max_examined)
        examined = simulation.metrics.pool_examined - before
        if examined > max_examined:
            overshoots.append((owner_id, now, examined, max_examined))
        return filled

    simulation._fill_pool = counted
    simulation.run()
    assert simulation.metrics.pool_examined > 0
    assert overshoots == []
