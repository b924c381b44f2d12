"""The ISSUE 10 acceptance tests for the round-batched toggle kernel.

Two layers: unit tests of the event queue's dense toggle lane (the
bulk-drain API the kernel consumes), and a hypothesis property driving
randomized micro-populations through both branches of the batched
kernel — the scalar loops and the vectorised array passes, forced via
the ``_VECTOR_POPULATION`` cut-over — and requiring a clean audit of
each plus identical serialized results across interleaved toggles,
deaths and staggered joins.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.config import ObserverSpec, SimulationConfig
from repro.sim.engine_soa import SoaSimulation
from repro.sim.events import TOGGLE_BATCH_KEY, EventKind, EventQueue, key_kind
from repro.sim.fidelity import simulation_for
from repro.sim.rng import seeded_generator


#: A bound past every round these tests schedule.
FOREVER = 10**9


def _queue(seed: int = 0) -> EventQueue:
    return EventQueue(seeded_generator(seed))


class TestDenseToggleLane:
    """The queue API contract the batched kernel is built on."""

    def test_sentinel_delivered_before_generic_events(self):
        queue = _queue()
        queue.schedule(3, EventKind.REPAIR_CHECK, peer_id=9)
        queue.schedule_toggle(3, 7)
        queue.schedule_toggle(3, 2)
        now, key = queue.pop_until(FOREVER)
        assert (now, key_kind(key)) == (3, EventKind.TOGGLE_BATCH)
        assert queue.pop_round_batch() == [2, 7]
        now, key = queue.pop_until(FOREVER)
        assert (now, key_kind(key)) == (3, EventKind.REPAIR_CHECK)
        assert queue.pop_until(FOREVER) is None

    def test_batch_ids_ascending_regardless_of_filing_order(self):
        queue = _queue()
        for peer_id in (5, 1, 4, 2, 3):
            queue.schedule_toggle(1, peer_id)
        assert queue.pop_until(FOREVER) == (1, TOGGLE_BATCH_KEY)
        assert queue.pop_round_batch() == [1, 2, 3, 4, 5]

    def test_pop_round_batch_without_pending_batch_is_empty(self):
        queue = _queue()
        assert queue.pop_round_batch() == []

    def test_batch_is_the_lane_list_and_the_callers_own(self):
        """The kernel iterates the lane's sorted list as it is; draining
        leaves the queue holding no reference to it."""
        queue = _queue()
        queue.schedule_toggle(1, 4)
        queue.schedule_toggle(1, 3)
        queue.schedule_toggle(2, 9)
        assert queue.pop_until(FOREVER) == (1, TOGGLE_BATCH_KEY)
        batch = queue.pop_round_batch()
        assert type(batch) is list and batch == [3, 4]
        batch.append(99)
        assert queue.pop_round_batch() == []
        assert queue.pop_until(FOREVER) == (2, TOGGLE_BATCH_KEY)
        assert queue.pop_round_batch() == [9]
        assert len(queue) == 0

    def test_bulk_filing_matches_scalar_filing(self):
        """``schedule_toggle_batch`` takes the argsort path above 32
        events and must land every id in the same bucket as one-by-one
        filing."""
        rng = np.random.default_rng(11)
        rounds = rng.integers(1, 9, size=120)
        peer_ids = np.arange(120)
        scalar, bulk = _queue(1), _queue(1)
        for round_number, peer_id in zip(rounds.tolist(), peer_ids.tolist()):
            scalar.schedule_toggle(round_number, peer_id)
        bulk.schedule_toggle_batch(rounds, peer_ids)
        assert len(scalar) == len(bulk) == 120
        while True:
            a, b = scalar.pop_until(FOREVER), bulk.pop_until(FOREVER)
            assert a == b
            if a is None:
                break
            assert scalar.pop_round_batch() == bulk.pop_round_batch()

    def test_toggle_into_executing_round_rejected(self):
        queue = _queue()
        queue.schedule_toggle(2, 1)
        assert queue.pop_until(FOREVER) == (2, TOGGLE_BATCH_KEY)
        with pytest.raises(ValueError):
            queue.schedule_toggle(2, 8)
        with pytest.raises(ValueError):
            queue.schedule_toggle(-1, 8)

    def test_toggle_only_round_stays_live(self):
        """A round holding nothing but dense toggles must survive the
        dead-bucket purge (toggles carry no cancellation accounting)."""
        queue = _queue()
        queue.schedule_toggle(5, 3)
        assert len(queue) == 1 and bool(queue)
        assert queue.pop_until(4) is None
        assert queue.pop_until(5) == (5, TOGGLE_BATCH_KEY)
        assert queue.pop_round_batch() == [3]
        assert len(queue) == 0 and not queue
        assert queue.pop_until(FOREVER) is None

    def test_cancelled_generics_do_not_kill_a_toggle_round(self):
        queue = _queue()
        key = queue.schedule(4, EventKind.REPAIR_CHECK, peer_id=1)
        queue.schedule_toggle(4, 6)
        queue.cancel(4, key)
        assert queue.pop_until(4) == (4, TOGGLE_BATCH_KEY)
        assert queue.pop_round_batch() == [6]
        assert queue.pop_until(FOREVER) is None

    def test_pop_until_holds_future_batches(self):
        queue = _queue()
        queue.schedule_toggle(10, 2)
        assert queue.pop_until(9) is None
        assert len(queue) == 1
        assert queue.pop_until(10) == (10, TOGGLE_BATCH_KEY)
        assert queue.pop_round_batch() == [2]


knob_strategy = st.fixed_dictionaries(
    {
        "population": st.integers(min_value=30, max_value=80),
        "rounds": st.integers(min_value=200, max_value=600),
        "data_blocks": st.sampled_from([4, 8]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "acceptance_rule": st.sampled_from(["age", "uniform"]),
        "adaptive_thresholds": st.booleans(),
        "staggered": st.sampled_from([0, 120]),
        "with_observers": st.booleans(),
    }
)


def build_config(knobs) -> SimulationConfig:
    k = knobs["data_blocks"]
    observers = ()
    if knobs["with_observers"]:
        observers = (ObserverSpec("Baby", 1), ObserverSpec("Elder", 400))
    return SimulationConfig(
        population=knobs["population"],
        rounds=knobs["rounds"],
        data_blocks=k,
        parity_blocks=k,
        repair_threshold=k + max(k // 4, 1),
        quota=3 * k,
        seed=knobs["seed"],
        acceptance_rule=knobs["acceptance_rule"],
        adaptive_thresholds=knobs["adaptive_thresholds"],
        staggered_join_rounds=knobs["staggered"],
        observers=observers,
    )


class TestBatchedKernelProperty:
    """Randomized runs: the vectorised branch == the scalar branch.

    ``_VECTOR_POPULATION`` is the cut-over between the kernel's scalar
    loops and its vectorised array passes (which also switch the state
    tables to numpy columns, the reverse index to the owner matrix and
    the online pool to an array).  Forcing it to 1 runs micro-populations
    through the swarm-scale branch; left alone, they take the scalar
    branch.  Both face the same randomized churn and must agree on the
    whole serialized result.
    """

    @staticmethod
    def _run(config, vector_population):
        original = SoaSimulation._VECTOR_POPULATION
        if vector_population is not None:
            SoaSimulation._VECTOR_POPULATION = vector_population
        try:
            simulation = simulation_for(config)
            assert simulation._vector_kernel is (vector_population is not None)
            result = simulation.run()
            # State-for-state: every incremental column recomputed from
            # scratch must agree with itself.
            assert simulation.audit() == []
        finally:
            SoaSimulation._VECTOR_POPULATION = original
        return result.to_dict()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(knobs=knob_strategy)
    def test_matches_scalar_reference_state_for_state(self, knobs):
        config = build_config(knobs)
        assert config.fidelity == "abstract_soa"
        assert self._run(config, 1) == self._run(config, None)
