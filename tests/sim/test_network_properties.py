"""Property tests for the engine's online candidate index.

``SoaSimulation`` keeps the online peers in a swap-pop set
(``_online_add`` / ``_online_discard`` over ``_online_items`` and
``_online_pos``, the members in one ``int64`` array).  It must behave
exactly like a plain ``set`` under any interleaving of adds and discards, while sampling
only ever returns current members.  Hypothesis drives random operation
sequences; the reference model is the built-in ``set``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimulationConfig
from repro.sim.engine_soa import SoaSimulation
from repro.sim.rng import BatchedDraws

#: One operation: (op, value).  ``sample`` ignores its value.
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard", "sample"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=200,
)


def _index(ids=41):
    """An engine with an empty online index over ids ``0 .. ids-1``.

    The index starts with room for 20 members, so the larger examples
    also exercise its growth.
    """
    simulation = SoaSimulation(SimulationConfig(population=4, rounds=10))
    simulation._online_pos.extend([-1] * ids)
    assert len(simulation._online_items) < ids
    return simulation


def _members(simulation):
    return [int(i) for i in simulation._online_items[: simulation._online_size]]


def _sample(simulation, draws):
    """One member picked by a batched draw, as the pool fill indexes it."""
    size = simulation._online_size
    if not size:
        return None
    return int(simulation._online_items[draws.next_integer(size)])


@settings(max_examples=200, deadline=None)
@given(ops=operations, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_matches_reference_set_model(ops, seed):
    simulation = _index()
    draws = BatchedDraws(np.random.default_rng(seed + 1), block=16)
    model = set()
    for op, value in ops:
        if op == "add":
            simulation._online_add(value)
            model.add(value)
        elif op == "discard":
            simulation._online_discard(value)
            model.discard(value)
        else:
            picked = _sample(simulation, draws)
            if model:
                assert picked in model
            else:
                assert picked is None
        # Invariants after every step.
        members = _members(simulation)
        assert simulation._online_size == len(model)
        assert set(members) == model
        for position, member in enumerate(members):
            assert simulation._online_pos[member] == position
        for value in range(41):
            if value not in model:
                assert simulation._online_pos[value] == -1


@settings(max_examples=50, deadline=None)
@given(members=st.sets(st.integers(min_value=0, max_value=30), min_size=1))
def test_every_member_is_reachable_by_sampling(members):
    """Sampling must not systematically exclude any member."""
    simulation = _index()
    for member in members:
        simulation._online_add(member)
    draws = BatchedDraws(np.random.default_rng(0), block=64)
    seen = {_sample(simulation, draws) for _ in range(40 * len(members))}
    assert seen == members


def test_add_discard_idempotence():
    simulation = _index()
    simulation._online_add(1)
    simulation._online_add(1)
    assert simulation._online_size == 1
    simulation._online_discard(1)
    simulation._online_discard(1)
    assert simulation._online_size == 0
    assert _sample(simulation, BatchedDraws(np.random.default_rng(0))) is None
