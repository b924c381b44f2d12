"""Unit tests for the reverse index of :class:`StateTables`.

At swarm scale (``vector_columns=True``) the holder -> owners index is a
fixed-width owner matrix whose width is the quota bound
``quota + n_observers``; at ordinary scale it is ragged lists.  The
engine-level tests only see it through whole runs, so the matrix's
own contract is pinned here.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.sim import soa_state
from repro.sim.engine_soa import _pair_keys
from repro.sim.soa_state import StateTables

QUOTA = 4
OBSERVERS = 2


def _tables(vector_columns=True, peers=6, capacity=16):
    state = StateTables(
        initial_capacity=capacity,
        vector_columns=vector_columns,
        row_width=QUOTA + OBSERVERS,
    )
    for index in range(OBSERVERS):
        state.add_observer(fixed_age=100, name=f"observer{index}")
    for _ in range(peers):
        state.add_peer(profile_index=0, join_round=0, death_round=None)
    return state


def _row(state, peer_id):
    return sorted(int(owner) for owner in state.owners_row(peer_id))


def test_vector_columns_need_a_row_width():
    with pytest.raises(ValueError, match="row width"):
        StateTables(vector_columns=True)


def test_full_row_refuses_another_owner():
    state = _tables()
    holder = OBSERVERS
    for owner in range(QUOTA + OBSERVERS):
        state.owners_append(holder, owner + 100)
    with pytest.raises(ValueError, match="row full"):
        state.owners_append(holder, 999)
    with pytest.raises(ValueError, match="row full"):
        state.owners_append_many(np.array([holder + 1, holder]), 999)
    # The refused batch wrote nothing, not even for the roomy holder.
    assert len(state.owners_row(holder + 1)) == 0
    assert len(state.owners_row(holder)) == QUOTA + OBSERVERS


def test_quota_plus_every_observer_fits_exactly():
    """A holder at quota that also hosts for every observer is full."""
    state = _tables()
    holder = state.count - 1
    normal_owners = list(range(OBSERVERS, OBSERVERS + QUOTA))
    for owner in normal_owners:
        state.owners_append(holder, owner)
    state.owners_append_many(np.array([holder]), 0)
    state.owners_append(holder, 1)
    assert _row(state, holder) == [0, 1] + normal_owners
    with pytest.raises(ValueError):
        state.owners_append(holder, OBSERVERS + QUOTA)


@pytest.mark.parametrize("vector_columns", [True, False])
def test_remove_missing_owner_raises(vector_columns):
    state = _tables(vector_columns)
    state.owners_append(3, 5)
    with pytest.raises(ValueError, match=r"peers \[3\]"):
        state.owners_remove_many([3], 6)
    with pytest.raises(ValueError, match=r"peers \[4\]"):
        state.owners_remove_many([4], 5)
    state.owners_remove_many([3], 5)
    with pytest.raises(ValueError, match=r"peers \[3\]"):
        state.owners_remove_many([3], 5)


def test_matrix_remove_names_every_missing_row_and_writes_nothing():
    state = _tables()
    state.owners_append_many(np.array([2, 3], dtype=np.int64), 5)
    with pytest.raises(ValueError, match=r"peers \[4, 6\]"):
        state.owners_remove_many([2, 4, 3, 6], 5)
    assert _row(state, 2) == [5] and _row(state, 3) == [5]


def test_matrix_remove_ignores_stale_slots_past_the_row_end():
    """A removed owner's old copy past ``len`` must not match again."""
    state = _tables()
    state.owners_append(3, 5)
    state.owners_append(3, 6)
    state.owners_remove_many([3], 6)  # slot 1 still holds a stale 6
    assert state._own_matrix[3, 1] == 6
    with pytest.raises(ValueError):
        state.owners_remove_many([3], 6)
    assert _row(state, 3) == [5]


@pytest.mark.parametrize("vector_columns", [True, False])
def test_append_many_remove_and_clear(vector_columns):
    state = _tables(vector_columns)
    state.owners_append_many(np.array([2, 4, 5], dtype=np.int64), 7)
    state.owners_append_many(np.array([4], dtype=np.int64), 3)
    state.owners_append(4, 6)
    assert _row(state, 4) == [3, 6, 7]
    state.owners_remove_many([4], 3)
    assert _row(state, 4) == [6, 7]
    state.owners_remove_many([2, 5], 7)
    assert _row(state, 2) == [] and _row(state, 5) == []
    state.owners_append_many(np.array([2, 5], dtype=np.int64), 7)
    assert sorted(state.owners_clear(4)) == [6, 7]
    assert _row(state, 4) == []
    assert _row(state, 2) == [7] and _row(state, 5) == [7]


def test_concat_is_the_rows_as_a_multiset():
    state = _tables(peers=12)
    draws = np.random.default_rng(3)
    for holder in range(OBSERVERS, state.count):
        owners = draws.permutation(state.count)[: draws.integers(QUOTA + 1)]
        for owner in owners.tolist():
            state.owners_append(holder, owner)
        if len(owners):
            state.owners_remove_many([holder], int(owners[0]))
    for size in (0, 1, 5, state.count):
        peer_ids = draws.choice(state.count, size=size, replace=False).tolist()
        peer_ids += peer_ids[:2]  # repeated holders count twice
        expected = Counter(
            owner for peer_id in peer_ids for owner in _row(state, peer_id)
        )
        gathered = state.owners_concat(peer_ids)
        assert gathered.dtype == np.int64
        assert Counter(gathered.tolist()) == expected


def test_rows_survive_capacity_doubling():
    state = _tables(peers=14, capacity=16)
    for holder in range(OBSERVERS, state.count):
        for owner in range(holder % QUOTA + 1):
            state.owners_append(holder, owner + 50)
    before = {peer_id: _row(state, peer_id) for peer_id in range(state.count)}
    objects = state.id_objects[: state.count].tolist()
    for _ in range(40):  # 16 -> 32 -> 64 rows
        state.add_peer(profile_index=0, join_round=1, death_round=None)
    assert state._own_matrix.shape == (64, QUOTA + OBSERVERS)
    for peer_id, row in before.items():
        assert _row(state, peer_id) == row
    # The id column keeps each id's one object across growth.
    assert all(
        state.id_objects[peer_id] is objects[peer_id]
        for peer_id in range(len(objects))
    )
    assert state.id_objects[: state.count].tolist() == list(range(state.count))
    assert all(_row(state, peer_id) == [] for peer_id in range(16, state.count))
    state.owners_append(state.count - 1, 9)
    assert _row(state, state.count - 1) == [9]


@pytest.mark.parametrize("vector_columns", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_remove_many_matches_a_multiset_reference(vector_columns, seed):
    """Random appends and batched removals against a multiset per row.

    The sequence reuses owners, so matrix rows carry stale copies of a
    removed owner past their end; a removal of that owner must neither
    match a stale slot nor leave the live rows out of step.
    """
    draws = np.random.default_rng(seed)
    state = _tables(vector_columns, peers=10)
    reference = {holder: Counter() for holder in range(state.count)}
    owners = range(OBSERVERS + 3)
    for _ in range(400):
        owner = int(draws.choice(owners))
        hosting = [h for h in reference if reference[h][owner]]
        if hosting and draws.random() < 0.5:
            size = int(draws.integers(1, len(hosting) + 1))
            batch = draws.choice(hosting, size=size, replace=False).tolist()
            state.owners_remove_many(batch, owner)
            for holder in batch:
                reference[holder][owner] -= 1
        else:
            free = [
                h for h in reference
                if not reference[h][owner]
                and sum(reference[h].values()) < QUOTA + OBSERVERS
            ]
            if not free:
                continue
            size = int(draws.integers(1, len(free) + 1))
            batch = draws.choice(free, size=size, replace=False)
            state.owners_append_many(batch.astype(np.int64), owner)
            for holder in batch.tolist():
                reference[holder][owner] += 1
        if draws.random() < 0.2:
            missing = [h for h in reference if not reference[h][owner]]
            if missing:
                with pytest.raises(ValueError):
                    state.owners_remove_many(missing[:1], owner)
        for holder, expected in reference.items():
            assert Counter(_row(state, holder)) == +expected


@pytest.mark.parametrize("vector_columns", [True, False])
def test_pair_keys_from_the_int32_matrix_match_int64(vector_columns):
    """Audit keys ``owner * count + holder`` pass 2^31 past ~46,341 peers.

    The owner matrix stores ``int32``; the reverse links it yields must
    be widened before ``_pair_keys`` multiplies them in place.
    """
    count = 70_000
    state = StateTables(
        initial_capacity=count,
        vector_columns=vector_columns,
        row_width=QUOTA + OBSERVERS,
    )
    for _ in range(count):
        state.add_peer(profile_index=0, join_round=0, death_round=None)
    links = {5: [69_999, 60_000, 2], 40_000: [69_998], 69_999: [50_000, 7]}
    for holder, owners in links.items():
        for owner in owners:
            state.owners_append(holder, owner)
    owners, lengths = state.reverse_links()
    assert owners.dtype == np.int64
    holders = np.repeat(np.arange(count, dtype=np.int64), lengths)
    alive = np.ones(count, dtype=bool)
    suspect = np.zeros(count, dtype=bool)
    keys = _pair_keys(owners, holders, alive, suspect)
    reference = sorted(
        owner * count + holder
        for holder, row in links.items()
        for owner in row
    )
    assert max(reference) > 2**31
    assert keys.tolist() == reference
    assert not suspect.any()


def test_capacity_guard_names_the_int32_limit(monkeypatch):
    """Ids must fit the int32 owner matrix; growth stops at the limit."""
    assert soa_state._MAX_CAPACITY == np.iinfo(np.int32).max
    monkeypatch.setattr(soa_state, "_MAX_CAPACITY", 40)
    with pytest.raises(ValueError, match="at most 40 peers"):
        StateTables(initial_capacity=41, vector_columns=True, row_width=2)
    state = _tables(peers=38, capacity=16)  # 16 -> 32 -> 40 rows
    assert state.count == 40
    assert state._own_matrix.shape[0] == 40
    with pytest.raises(ValueError, match="at most 40 peers"):
        state.add_peer(profile_index=0, join_round=0, death_round=None)
