"""Tests for the RNG streams, batched draw buffers and the event queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventKind, EventQueue, key_kind, key_peer
from repro.sim.rng import BatchedDraws, STREAM_NAMES, RngStreams

#: A bound past every round these tests schedule.
FOREVER = 10**9


def pop(queue):
    """The next live event, whatever its round."""
    return queue.pop_until(FOREVER)


def event(item):
    """A popped ``(round, key)`` as ``(round, kind, peer_id)``."""
    round_number, key = item
    return round_number, key_kind(key), key_peer(key)


def drain(queue, last_round):
    """Pop events up to and including ``last_round``, in order."""
    drained = []
    while True:
        item = queue.pop_until(last_round)
        if item is None:
            return drained
        drained.append(item)


class TestRngStreams:
    def test_all_streams_exist(self):
        streams = RngStreams(0)
        for name in STREAM_NAMES:
            assert streams.stream(name) is not None

    def test_attribute_access(self):
        streams = RngStreams(0)
        assert streams.sessions is streams.stream("sessions")

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            RngStreams(0).stream("nope")
        with pytest.raises(AttributeError):
            RngStreams(0).nope

    def test_same_seed_same_draws(self):
        a, b = RngStreams(5), RngStreams(5)
        assert a.lifetimes.random(10).tolist() == b.lifetimes.random(10).tolist()

    def test_different_seeds_differ(self):
        a, b = RngStreams(5), RngStreams(6)
        assert a.lifetimes.random(10).tolist() != b.lifetimes.random(10).tolist()

    def test_streams_are_independent(self):
        """Consuming one stream must not shift another."""
        a, b = RngStreams(5), RngStreams(5)
        a.sessions.random(1000)  # burn only in a
        assert a.lifetimes.random(5).tolist() == b.lifetimes.random(5).tolist()

    def test_spawned_generators_deterministic(self):
        a, b = RngStreams(5), RngStreams(5)
        assert a.spawn().random(5).tolist() == b.spawn().random(5).tolist()

    def test_none_seed_accepted(self):
        assert RngStreams(None).sessions.random() is not None


class TestEventQueue:
    @pytest.fixture
    def queue(self):
        return EventQueue(np.random.default_rng(0))

    def test_pop_in_round_order(self, queue):
        queue.schedule(5, EventKind.DEATH, 1)
        queue.schedule(1, EventKind.JOIN)
        queue.schedule(3, EventKind.REPAIR_CHECK, 2)
        rounds = [pop(queue)[0] for _ in range(3)]
        assert rounds == [1, 3, 5]

    def test_same_round_order_is_randomised(self):
        orders = set()
        for seed in range(8):
            queue = EventQueue(np.random.default_rng(seed))
            for peer in range(6):
                queue.schedule(1, EventKind.REPAIR_CHECK, peer)
            order = tuple(key_peer(pop(queue)[1]) for _ in range(6))
            orders.add(order)
        assert len(orders) > 1

    def test_cancel_skips_event(self, queue):
        keep = queue.schedule(1, EventKind.JOIN)
        drop = queue.schedule(1, EventKind.DEATH, 9)
        queue.cancel(1, drop)
        assert len(queue) == 1
        round_number, kind, _ = event(pop(queue))
        assert kind == EventKind.JOIN
        assert pop(queue) is None
        del keep

    def test_cancel_twice_is_safe(self, queue):
        entry = queue.schedule(1, EventKind.JOIN)
        queue.cancel(1, entry)
        queue.cancel(1, entry)
        assert len(queue) == 0

    def test_cancel_after_pop_is_a_noop(self, queue):
        """Cancelling an executed event must not corrupt accounting."""
        executed = queue.schedule(1, EventKind.JOIN)
        live = queue.schedule(1, EventKind.DEATH, 3)
        first = pop(queue)
        key = executed if key_kind(first[1]) == EventKind.JOIN else live
        queue.cancel(1, key)  # already popped: no-op
        assert len(queue) == 1
        assert pop(queue) is not None
        assert pop(queue) is None
        assert len(queue) == 0

    def test_pop_empty(self, queue):
        assert pop(queue) is None
        assert not queue

    def test_peek_round(self, queue):
        """``pop_until`` short of the next round leaves it queued."""
        assert queue.pop_until(6) is None
        queue.schedule(7, EventKind.SAMPLE)
        assert queue.pop_until(6) is None
        assert len(queue) == 1
        assert queue.pop_until(7)[0] == 7

    def test_peek_skips_cancelled(self, queue):
        entry = queue.schedule(2, EventKind.SAMPLE)
        queue.schedule(9, EventKind.JOIN)
        queue.cancel(2, entry)
        assert queue.pop_until(8) is None
        assert queue.pop_until(9)[0] == 9

    def test_drain_until_respects_bound(self, queue):
        for round_number in (1, 5, 10, 15):
            queue.schedule(round_number, EventKind.SAMPLE)
        drained = drain(queue, 10)
        assert [r for r, _ in drained] == [1, 5, 10]
        assert len(queue) == 1
        assert pop(queue)[0] == 15

    def test_drain_processes_events_scheduled_during_drain(self, queue):
        queue.schedule(1, EventKind.JOIN)
        seen = []
        while True:
            item = queue.pop_until(10)
            if item is None:
                break
            round_number, kind, _ = event(item)
            seen.append((round_number, kind))
            if kind == EventKind.JOIN and round_number == 1:
                queue.schedule(1, EventKind.REPAIR_CHECK, 1)
                queue.schedule(4, EventKind.DEATH, 1)
        kinds = [kind for _, kind in seen]
        assert EventKind.REPAIR_CHECK in kinds
        assert EventKind.DEATH in kinds

    def test_negative_round_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.schedule(-1, EventKind.JOIN)

    def test_key_domain_guard(self, queue):
        """Kinds and peer ids the key cannot hold are refused by name."""
        for peer_id in (-2, 2**31, 2**40):
            with pytest.raises(ValueError, match=r"\[-1, 2\*\*31\)"):
                queue.schedule(1, EventKind.DEATH, peer_id)
        for kind in (0, 99, EventKind.TOGGLE_BATCH, "death"):
            with pytest.raises(ValueError, match="REPAIR_CHECK"):
                queue.schedule(1, kind, 3)
        assert len(queue) == 0
        # Both ends of the range fit, and decode without aliasing.
        top = queue.schedule(1, EventKind.TRANSFER_DONE, 2**31 - 1)
        bottom = queue.schedule(1, EventKind.SAMPLE)
        assert top < 2**60 and bottom < top
        assert {event(pop(queue)), event(pop(queue))} == {
            (1, EventKind.TRANSFER_DONE, 2**31 - 1),
            (1, EventKind.SAMPLE, -1),
        }

    def test_len_tracks_live_events(self, queue):
        entries = [queue.schedule(1, EventKind.JOIN) for _ in range(5)]
        queue.cancel(1, entries[0])
        assert len(queue) == 4

    def test_schedule_into_active_round_lands_in_it(self, queue):
        """An event scheduled for the round being drained still fires."""
        queue.schedule(3, EventKind.JOIN)
        queue.schedule(5, EventKind.SAMPLE)
        round_number, _ = pop(queue)
        assert round_number == 3
        queue.schedule(3, EventKind.DEATH, 7)
        round_number, kind, _ = event(pop(queue))
        assert round_number == 3
        assert kind == EventKind.DEATH


class TestTieOrder:
    """A cancelled and a live check of one peer can share a round.

    The engine cancels a peer's check at round 2 when an earlier one is
    filed at round 1, runs that one, and then files a fresh check at
    round 2.  The bucket is put in canonical order (ascending kind, then
    peer, ties in filing order) before its one shuffle, so the live
    check must run at the slot its own canonical position draws, not
    at the cancelled one's.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_live_check_runs_at_its_own_slot(self, seed):
        queue = EventQueue(np.random.default_rng(seed))
        filed = [
            (EventKind.DEATH, 3),
            (EventKind.REPAIR_CHECK, 5),  # cancelled below
            (EventKind.JOIN, -1),
            (EventKind.REPAIR_CHECK, 1),
            (EventKind.DEATH, 8),
        ]
        stale = None
        for kind, peer_id in filed:
            key = queue.schedule(2, kind, peer_id)
            if (kind, peer_id) == (EventKind.REPAIR_CHECK, 5):
                stale = key
        queue.cancel(2, stale)
        queue.schedule(1, EventKind.REPAIR_CHECK, 5)
        assert event(pop(queue)) == (1, EventKind.REPAIR_CHECK, 5)
        filed += [(EventKind.REPAIR_CHECK, 5), (EventKind.SAMPLE, -1)]
        for kind, peer_id in filed[-2:]:
            queue.schedule(2, kind, peer_id)

        # Reference: canonical order, one permutation, run from the end.
        slots = sorted(
            range(len(filed)),
            key=lambda index: (filed[index][0].value, filed[index][1]),
        )
        order = np.random.default_rng(seed).permutation(len(slots))
        shuffled = [slots[position] for position in order]
        stale_index = 1
        expected = [
            filed[index] for index in reversed(shuffled) if index != stale_index
        ]
        popped = [event(item)[1:] for item in drain(queue, 2)]
        assert popped == expected
        live_slot = [
            index for index in reversed(shuffled) if index != stale_index
        ].index(len(filed) - 2)
        assert popped[live_slot] == (EventKind.REPAIR_CHECK, 5)


class TestBatchedDraws:
    def test_uniforms_in_range_and_deterministic(self):
        a = BatchedDraws(np.random.default_rng(3), block=7)
        b = BatchedDraws(np.random.default_rng(3), block=7)
        draws = [a.next_uniform() for _ in range(50)]
        assert draws == [b.next_uniform() for _ in range(50)]
        assert all(0.0 <= value < 1.0 for value in draws)

    def test_block_size_does_not_change_the_sequence(self):
        small = BatchedDraws(np.random.default_rng(3), block=2)
        large = BatchedDraws(np.random.default_rng(3), block=512)
        assert [small.next_uniform() for _ in range(40)] == [
            large.next_uniform() for _ in range(40)
        ]

    def test_integers_in_range(self):
        draws = BatchedDraws(np.random.default_rng(4), block=16)
        values = [draws.next_integer(13) for _ in range(500)]
        assert all(0 <= value < 13 for value in values)
        assert set(values) == set(range(13))  # every bin reachable

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BatchedDraws(np.random.default_rng(0), block=0)
        with pytest.raises(ValueError):
            BatchedDraws(np.random.default_rng(0)).next_integer(0)

    def test_peek_then_advance_is_take_array(self):
        peeking = BatchedDraws(np.random.default_rng(5), block=10)
        taking = BatchedDraws(np.random.default_rng(5), block=10)
        assert peeking.available() == 0  # nothing drawn yet
        peeking.take_array(3)
        taking.take_array(3)
        assert peeking.available() == 7
        seen = peeking.peek(7).copy()
        peeking.advance(4)
        assert seen[:4].tolist() == taking.take_array(4).tolist()
        assert peeking.available() == 3
        # The unconsumed rest is still next, and the refill comes only
        # when a take crosses the block edge.
        assert peeking.take_array(5).tolist() == taking.take_array(5).tolist()
        assert peeking.next_uniform() == taking.next_uniform()

    def test_peek_and_advance_never_refill(self):
        draws = BatchedDraws(np.random.default_rng(5), block=10)
        draws.take_array(8)
        state = draws._rng.bit_generator.state
        with pytest.raises(ValueError):
            draws.peek(3)
        with pytest.raises(ValueError):
            draws.advance(3)
        assert draws.peek(2).shape == (2,)
        draws.advance(2)
        assert draws.available() == 0
        assert draws._rng.bit_generator.state == state


class TestCalendarQueueProperties:
    """Hypothesis-driven invariants of the calendar/bucket queue."""

    @settings(max_examples=120, deadline=None)
    @given(
        rounds=st.lists(st.integers(min_value=0, max_value=20), max_size=60),
        cancel_every=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_pop_order_and_cancellation(self, rounds, cancel_every, seed):
        queue = EventQueue(np.random.default_rng(seed))
        keys = [
            queue.schedule(round_number, EventKind.REPAIR_CHECK, index)
            for index, round_number in enumerate(rounds)
        ]
        cancelled = {
            key_peer(key) for index, key in enumerate(keys) if index % cancel_every == 0
        }
        for index, key in enumerate(keys):
            if index % cancel_every == 0:
                queue.cancel(rounds[index], key)
        assert len(queue) == len(rounds) - len(cancelled)

        drained = []
        while True:
            item = pop(queue)
            if item is None:
                break
            drained.append(item)
        # Every live event fires exactly once, none of the cancelled do.
        assert sorted(key_peer(key) for _, key in drained) == sorted(
            i for i in range(len(rounds)) if i not in cancelled
        )
        # Rounds come out non-decreasing and each event in its own round.
        popped_rounds = [r for r, _ in drained]
        assert popped_rounds == sorted(popped_rounds)
        for round_number, key in drained:
            assert rounds[key_peer(key)] == round_number
        assert len(queue) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.integers(min_value=0, max_value=8), min_size=1, max_size=40
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_intra_round_shuffle_is_deterministic_by_seed(self, rounds, seed):
        def run(queue_seed):
            queue = EventQueue(np.random.default_rng(queue_seed))
            for index, round_number in enumerate(rounds):
                queue.schedule(round_number, EventKind.REPAIR_CHECK, index)
            return drain(queue, 10)

        assert run(seed) == run(seed)
