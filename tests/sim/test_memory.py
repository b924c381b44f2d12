"""Swarm-scale link memory: one shared int object per peer id.

Every ``holders`` row entry must be the id column's object for that id
(:attr:`repro.sim.soa_state.StateTables.id_objects`), not a fresh int
per link, on both toggle kernels and at ``protocol`` fidelity; and the
Python allocations a run makes stay under a bound per live link that a
fresh int per link would break (about 80 B per link with fresh ints,
about 55 B with shared ones, on the 2,000-peer swarm below).
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.scenarios import scenario_by_name
from repro.sim.engine_soa import SoaSimulation
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
