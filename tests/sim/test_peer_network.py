"""Tests for per-peer state and the online candidate index.

Peers live in :class:`repro.sim.soa_state.StateTables` columns and the
engine derives what used to be per-object queries from them: ages
(``_age``), the candidate pool's measured availability and true
remaining lifetime columns (``_availability`` / ``_remaining``), quota
accounting (``quota_used``) and the
online candidate index (``_online_add`` / ``_online_discard`` over
the ``int64`` array ``_online_items``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import ObserverSpec, SimulationConfig
from repro.sim.engine_soa import SoaSimulation


def make_simulation(observers=(), quota=48):
    config = SimulationConfig(
        population=8,
        rounds=100,
        data_blocks=2,
        parity_blocks=2,
        repair_threshold=3,
        quota=quota,
        observers=observers,
    )
    return SoaSimulation(config)


def add_peer(simulation, join_round=0, death_round=None, online=True):
    """Register one normal peer directly in the tables (no events)."""
    peer_id = simulation.state.add_peer(0, join_round, death_round)
    simulation._online_pos.append(-1)
    if online:
        simulation._online_add(peer_id)
    else:
        simulation.state.online[peer_id] = 0
        simulation.state.last_offline[peer_id] = join_round
    return peer_id


def reserve_ids(simulation, count):
    """Make ids ``0 .. count-1`` addressable by the online index."""
    simulation._online_pos.extend([-1] * count)


def indexed(simulation):
    """The online index's members, in slot order."""
    return [int(i) for i in simulation._online_items[: simulation._online_size]]


def sample(simulation, u):
    """The member a selection uniform ``u`` picks, as the pool fill does."""
    size = simulation._online_size
    if not size:
        return None
    index = int(u * size)
    return int(simulation._online_items[index if index < size else size - 1])


def ids(*peer_ids):
    return np.array(peer_ids, dtype=np.int64)


def toggle(simulation, now, *peer_ids):
    simulation._process_toggle_batch(now, list(peer_ids))


class TestPeer:
    def test_age_grows_with_rounds(self):
        simulation = make_simulation()
        peer = add_peer(simulation, join_round=100)
        assert simulation._age(peer, 100) == 0
        assert simulation._age(peer, 150) == 50

    def test_age_never_negative(self):
        simulation = make_simulation()
        peer = add_peer(simulation, join_round=100)
        assert simulation._age(peer, 50) == 0

    def test_observer_age_is_pinned(self):
        simulation = make_simulation(observers=(ObserverSpec("Day", 24),))
        assert simulation._age(0, 0) == 24
        assert simulation._age(0, 10_000) == 24

    def test_quota_accounting(self):
        """Hosting for a normal owner charges quota; a full peer is skipped."""
        simulation = make_simulation(quota=1)
        owner, holder, spare = (add_peer(simulation) for _ in range(3))
        assert simulation._recruit(owner, 0, 2) == 2
        state = simulation.state
        assert state.quota_used[holder] == state.quota_used[spare] == 1
        # Both candidates are now at quota: a second owner finds no one.
        other = add_peer(simulation)
        assert simulation._recruit(other, 0, 2) == 1  # only ``owner`` is free
        assert state.holders[other] == [owner]
        assert simulation.audit() == []

    def test_observer_blocks_do_not_count(self):
        simulation = make_simulation(
            observers=(ObserverSpec("Day", 24),), quota=1
        )
        holder = add_peer(simulation)
        assert simulation._recruit(0, 0, 1) == 1
        assert simulation.state.holders[0] == [holder]
        assert simulation.state.quota_used[holder] == 0
        assert simulation.audit() == []

    def test_remaining_lifetime(self):
        simulation = make_simulation()
        peer = add_peer(simulation, join_round=0, death_round=500)
        assert simulation._remaining(ids(peer), 100).tolist() == [400.0]
        assert simulation._remaining(ids(peer), 600).tolist() == [0.0]

    def test_remaining_lifetime_durable(self):
        simulation = make_simulation()
        peer = add_peer(simulation, join_round=0, death_round=None)
        assert math.isinf(simulation._remaining(ids(peer), 100)[0])

    def test_uptime_accounting(self):
        simulation = make_simulation()
        simulation._needs_availability = simulation._track_uptime = True
        peer = add_peer(simulation, join_round=0)
        toggle(simulation, 10, peer)  # online 0..10, then offline
        assert simulation.state.online_rounds[peer] == 10
        availability = simulation._availability(ids(peer), 30)[0]
        assert availability == pytest.approx(10 / 30)

    def test_measured_availability_includes_current_session(self):
        simulation = make_simulation()
        simulation._needs_availability = simulation._track_uptime = True
        peer = add_peer(simulation, join_round=0)
        # Still online, never toggled: availability is 1 so far.
        assert simulation._availability(ids(peer), 100).tolist() == [1.0]

    def test_measured_availability_brand_new(self):
        simulation = make_simulation()
        simulation._needs_availability = simulation._track_uptime = True
        peer = add_peer(simulation, join_round=50)
        assert math.isnan(simulation._availability(ids(peer), 50)[0])


class TestSampleableSet:
    """The online index as a set: swap-pop adds and discards."""

    def test_add_and_contains(self):
        simulation = make_simulation()
        reserve_ids(simulation, 8)
        simulation._online_add(5)
        assert indexed(simulation) == [5]
        assert simulation._online_pos[5] == 0

    def test_add_idempotent(self):
        simulation = make_simulation()
        reserve_ids(simulation, 8)
        simulation._online_add(5)
        simulation._online_add(5)
        assert simulation._online_size == 1

    def test_discard(self):
        simulation = make_simulation()
        reserve_ids(simulation, 10)
        for item in range(10):
            simulation._online_add(item)
        simulation._online_discard(3)
        assert 3 not in indexed(simulation)
        assert simulation._online_pos[3] == -1
        # Swap-pop: the tail moved into the vacated slot.
        assert indexed(simulation)[3] == 9
        assert simulation._online_size == 9
        simulation._online_discard(3)  # idempotent
        assert simulation._online_size == 9

    def test_sample_empty(self):
        simulation = make_simulation()
        assert sample(simulation, 0.5) is None
        # The pool fill on an empty index examines nobody.
        reserve_ids(simulation, 1)
        ids, ages = simulation._fill_pool(0, 0, 4, 20)
        for column in (ids, ages):
            assert column.dtype == np.int64
            assert len(column) == 0
        assert simulation.metrics.pool_examined == 0

    def test_sample_returns_member(self):
        simulation = make_simulation()
        reserve_ids(simulation, 31)
        for item in (10, 20, 30):
            simulation._online_add(item)
        rng = np.random.default_rng(0)
        for u in rng.random(20):
            assert sample(simulation, u) in {10, 20, 30}

    def test_sample_is_roughly_uniform(self):
        simulation = make_simulation()
        reserve_ids(simulation, 5)
        for item in range(5):
            simulation._online_add(item)
        counts = {i: 0 for i in range(5)}
        for u in np.random.default_rng(0).random(10_000):
            counts[sample(simulation, u)] += 1
        for count in counts.values():
            assert count == pytest.approx(2000, rel=0.15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=60))
    def test_matches_reference_set(self, operations):
        """Stateful property: behaves exactly like a built-in set."""
        simulation = make_simulation()
        reserve_ids(simulation, 31)
        reference = set()
        for add, item in operations:
            if add:
                simulation._online_add(item)
                reference.add(item)
            else:
                simulation._online_discard(item)
                reference.discard(item)
        assert simulation._online_size == len(reference)
        assert set(indexed(simulation)) == reference
        for item in range(31):
            assert (simulation._online_pos[item] >= 0) == (item in reference)


class TestPopulation:
    """Membership of the online index as the engine maintains it."""

    def test_insert_and_lookup(self):
        simulation = make_simulation()
        peer = simulation._spawn_peer(0)
        assert simulation.state.count == 1
        assert simulation.state.alive[peer]
        assert indexed(simulation) == [peer]

    def test_duplicate_id_rejected(self):
        """Ids are allocated monotonically; observers must come first."""
        simulation = make_simulation()
        first = simulation._spawn_peer(0)
        second = simulation._spawn_peer(0)
        assert second == first + 1
        with pytest.raises(ValueError):
            simulation.state.add_observer(24, "Late")

    def test_online_peers_are_candidates(self):
        simulation = make_simulation()
        peer = simulation._spawn_peer(0)
        assert simulation._online_pos[peer] >= 0

    def test_observers_never_candidates(self):
        simulation = make_simulation(observers=(ObserverSpec("Day", 24),))
        assert simulation._online_pos[0] == -1
        assert simulation._online_size == 0
        # Observers aren't counted by the census either.
        uppers = simulation._census_uppers
        assert simulation.state.census_counts(0, uppers).sum() == 0

    def test_offline_toggle_updates_index(self):
        simulation = make_simulation()
        peer = simulation._spawn_peer(0)
        toggle(simulation, 5, peer)
        assert not simulation.state.online[peer]
        assert simulation._online_pos[peer] == -1
        toggle(simulation, 9, peer)
        assert simulation.state.online[peer]
        assert simulation._online_pos[peer] >= 0
        assert simulation.audit() == []

    def test_remove_clears_everything(self):
        simulation = make_simulation()
        peer = add_peer(simulation, death_round=10)
        simulation._handle_death(10, peer)
        state = simulation.state
        assert not state.alive[peer]
        assert not state.online[peer]
        assert simulation._online_pos[peer] == -1
        assert state.census_counts(10, simulation._census_uppers).sum() == 0

    def test_dead_peer_not_marked_online(self):
        simulation = make_simulation()
        peer = add_peer(simulation, death_round=10)
        simulation._handle_death(10, peer)
        toggle(simulation, 11, peer)  # a stale toggle for the dead id
        assert simulation._online_pos[peer] == -1
        assert not simulation.state.online[peer]

    def test_iterators(self):
        """Observers take the low ids; the census counts normal peers only."""
        simulation = make_simulation(observers=(ObserverSpec("Day", 24),))
        normal = simulation._spawn_peer(0)
        assert simulation.state.n_observers == 1
        assert normal == 1
        assert indexed(simulation) == [normal]
        counts = simulation.state.census_counts(0, simulation._census_uppers)
        assert counts.sum() == 1
