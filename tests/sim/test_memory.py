"""Swarm-scale memory: shared id objects in the links, bare event keys.

Every ``holders`` row entry must be the id column's object for that id
(:attr:`repro.sim.soa_state.StateTables.id_objects`), not a fresh int
per link, on both toggle kernels and at ``protocol`` fidelity; and the
Python allocations a run makes stay under a bound per live link that a
fresh int per link would break (about 80 B per link with fresh ints,
about 55 B with shared ones, on the 2,000-peer swarm below).

A pending event is one int key in a queue bucket: after the swarm run
no object of a class defined in :mod:`repro.sim.events` other than the
queue and its kind enum is alive, and filing more events costs the
queue one int plus one list slot each (about 41 B on CPython 3.11; an
event object and its handle cost about 109 B).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

import repro.sim.events as events
from repro.scenarios import scenario_by_name
from repro.sim.engine_soa import SoaSimulation
from repro.sim.events import key_kind, key_peer
from repro.sim.fidelity import simulation_for

#: Traced bytes a run may allocate per live link (tracemalloc peak over
#: the run, construction excluded).
MAX_BYTES_PER_LINK = 70


def _swarm_config():
    """The swarm benchmark's smoke size: 2,000 peers joining over 12 rounds."""
    return (
        scenario_by_name("paper")
        .with_population(2_000)
        .with_rounds(60)
        .with_staggered_join(12)
        .with_seed(0)
        .build()
    )


def _assert_rows_share_id_objects(simulation):
    state = simulation.state
    objects = state.id_objects
    shared = 0
    for row in state.holders:
        for holder_id in row:
            assert holder_id is objects[holder_id], holder_id
            # Ids up to 256 are CPython's cached small ints either way.
            shared += holder_id > 256
    assert shared, "no link reached an id past the small-int cache"


@pytest.mark.parametrize("vector_kernel", [True, False])
def test_swarm_links_share_one_object_per_id(vector_kernel, monkeypatch):
    monkeypatch.setattr(
        SoaSimulation, "_VECTOR_POPULATION", 1 if vector_kernel else 10**9
    )
    simulation = simulation_for(_swarm_config())
    assert simulation._vector_kernel is vector_kernel
    tracemalloc.start()
    try:
        simulation.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    links = sum(map(len, simulation.state.holders))
    assert links > 30_000
    assert peak / links < MAX_BYTES_PER_LINK, (peak / links, links)
    _assert_rows_share_id_objects(simulation)
    assert simulation.audit() == []


def test_protocol_links_share_one_object_per_id():
    """Protocol files links after transfers; the rows share ids too."""
    config = (
        scenario_by_name("paper")
        .with_population(300)
        .with_rounds(300)
        .with_fidelity("protocol")
        .with_seed(0)
        .build()
    )
    simulation = simulation_for(config)
    simulation.run()
    _assert_rows_share_id_objects(simulation)
    assert simulation.audit() == []


def _events_bytes(snapshot):
    """Traced bytes allocated by ``sim/events.py`` in ``snapshot``."""
    only = snapshot.filter_traces([tracemalloc.Filter(True, events.__file__)])
    return sum(stat.size for stat in only.statistics("filename"))


@pytest.mark.parametrize("vector_kernel", [True, False])
def test_pending_events_are_bare_int_keys(vector_kernel, monkeypatch):
    monkeypatch.setattr(
        SoaSimulation, "_VECTOR_POPULATION", 1 if vector_kernel else 10**9
    )
    simulation = simulation_for(_swarm_config())
    simulation.run()
    queue = simulation.queue
    pending = [key for bucket in queue._buckets.values() for key in bucket]
    pending += queue._current
    assert len(pending) > 1_000
    assert all(type(key) is int for key in pending)
    event_classes = {
        value
        for value in vars(events).values()
        if isinstance(value, type)
        and value.__module__ == events.__name__
        and value not in (events.EventQueue, events.EventKind)
    }
    gc.collect()
    alive = [obj for obj in gc.get_objects() if type(obj) in event_classes]
    assert not alive, alive[:3]

    # File every pending generic event's (kind, peer) once more, into
    # one round past the horizon: what the queue allocates per event.
    far = simulation.config.rounds + 1_000
    tracemalloc.start()
    try:
        before = _events_bytes(tracemalloc.take_snapshot())
        for key in pending:
            queue.schedule(far, key_kind(key), key_peer(key))
        after = _events_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    # One int key plus one list slot, with the list's growth headroom.
    bound = sys.getsizeof(1 << 59) + 2 * 8
    assert (after - before) / len(pending) < bound, (
        (after - before) / len(pending),
        bound,
    )
