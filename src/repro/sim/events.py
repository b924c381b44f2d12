"""Event queue of the round-based simulator.

PeerSim (the paper's simulator) executes peers sequentially inside each
round, in an order re-randomised every round.  The calendar queue files
events in per-round *buckets*; when a round becomes current its bucket
is sorted into canonical order and shuffled **once** with a batched
permutation, and an event filed into the executing round lands at a
uniformly random position among the events not yet run.

An event is one plain ``int`` *key*, nothing else: from the high bits
down, ``kind`` (3 bits), ``peer_id + 1`` (32 bits) and a ``serial`` (25
bits), so a key stays below ``2**60`` and sorting keys orders a bucket
by kind, peer, then serial.  :func:`key_kind` and :func:`key_peer`
decode a key (hot loops inline the same shifts).

Cancellation is lazy: :meth:`EventQueue.cancel` takes ``(round, key)``,
decrements the round's live count and adds the key to that round's set
of cancelled keys, which the pop skips.  The key stays in its bucket,
so the shuffle is as long as without the cancel; a round left with no
live event (and no toggles) is purged without a draw.  The serial is
the number of cancels so far (modulo ``2**25``): keys of one ``(kind,
peer)`` in one round sort in filing order, and a key filed after a
cancel differs from the cancelled one, so a peer's live check runs at
its own slot beside a cancelled one — exact while fewer than ``2**25``
cancels fall between the two filings (the engines file cancellable
events a few rounds ahead).  Equal keys in one round are
interchangeable: a cancel skips the first one reached.

Session toggles — the dominant event kind — get a *dense lane*:
:meth:`EventQueue.schedule_toggle` / :meth:`EventQueue.schedule_toggle_batch`
file bare peer ids into per-round buckets (no key, no live count), and
such a round yields one :data:`TOGGLE_BATCH_KEY` *before* its shuffled
generic events; the consumer then drains the whole batch as the lane's
own sorted id list with :meth:`EventQueue.pop_round_batch`.  Toggles are
order-independent within a round (the engines process the batch as one
transaction over final state), are never cancelled, and are always
scheduled at least one round ahead, which makes the dense lane safe.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .rng import BatchedDraws


class EventKind(IntEnum):
    """All event types the engine knows how to dispatch.

    The values order a round's canonical sort (lowest first).
    """

    JOIN = 1           # a fresh peer enters the system
    DEATH = 2          # a peer leaves definitively
    REPAIR_CHECK = 3   # re-evaluate an archive against the threshold
    SAMPLE = 4         # periodic metrics sampling
    TOP_UP = 5         # proactive-replication baseline (A4) top-up tick
    TRANSFER_DONE = 6  # a protocol-fidelity transfer finished
    TOGGLE_BATCH = 7   # sentinel: drain the round's dense toggle lane


#: Key layout (see the module docstring); peer ids lie in [-1, _PEER_LIMIT).
PEER_SHIFT = 25
PEER_MASK = (1 << 32) - 1
KIND_SHIFT = PEER_SHIFT + 32
_PEER_LIMIT = 1 << 31
_SERIAL_MASK = (1 << PEER_SHIFT) - 1

#: Kind -> its key bits, for every kind :meth:`EventQueue.schedule`
#: files (the sentinel is delivered, never filed).
_KIND_BITS = {
    kind: kind << KIND_SHIFT for kind in EventKind if kind != EventKind.TOGGLE_BATCH
}

#: The key :meth:`EventQueue.pop_until` returns for a dense toggle round.
TOGGLE_BATCH_KEY = EventKind.TOGGLE_BATCH << KIND_SHIFT


def key_kind(key: int) -> EventKind:
    """The kind of the event ``key`` names."""
    return EventKind(key >> KIND_SHIFT)


def key_peer(key: int) -> int:
    """The subject peer of the event ``key`` names (-1 for none)."""
    return ((key >> PEER_SHIFT) & PEER_MASK) - 1


class EventQueue:
    """Calendar queue of integer event keys with random intra-round order."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._draws = BatchedDraws(rng)
        #: future rounds -> unshuffled buckets of keys.
        self._buckets: Dict[int, List[int]] = {}
        #: future rounds -> dense toggle lane (bare peer ids, no keys).
        self._toggle_buckets: Dict[int, List[int]] = {}
        #: distinct bucket rounds (exactly one heap entry per round that
        #: has a generic and/or toggle bucket).
        self._round_heap: List[int] = []
        #: live (non-cancelled) *generic* events per round, bucket or
        #: current.  Dense toggles are not counted: they cannot be
        #: cancelled, so a round with a toggle bucket is live by
        #: construction and the lane skips the accounting entirely.
        self._live: Dict[int, int] = {}
        #: future rounds -> keys cancelled there and not yet reached.
        self._cancelled: Dict[int, Set[int]] = {}
        #: the serial of the next filed key (cancels so far).
        self._serial = 0
        #: the active round's shuffled remainder, consumed from the end,
        #: and the keys cancelled in it.
        self._current: List[int] = []
        self._current_cancelled: Set[int] = set()
        #: the active round's undelivered toggle batch (sorted), if any.
        self._current_toggles: Optional[List[int]] = None
        self._current_round: Optional[int] = None
        self._size = 0

    def schedule(self, round_number: int, kind: int, peer_id: int = -1) -> int:
        """File one event; returns its key, for :meth:`cancel`.

        Refuses a kind the queue does not file and a peer id outside
        ``[-1, 2**31)``, which the key's peer field cannot hold.
        """
        if round_number < 0:
            raise ValueError("cannot schedule in a negative round")
        bits = _KIND_BITS.get(kind)
        if bits is None:
            raise ValueError(
                f"cannot schedule event kind {kind!r}: the queue files "
                f"{', '.join(k.name for k in _KIND_BITS)}"
            )
        if not -1 <= peer_id < _PEER_LIMIT:
            raise ValueError(f"peer id {peer_id} outside the key's [-1, 2**31)")
        key = bits | ((peer_id + 1) << PEER_SHIFT) | self._serial
        if round_number == self._current_round:
            # The round is executing: insert at a uniform position among
            # the remaining events (the end of the list runs first, so
            # every slot of the remainder is equally likely).
            current = self._current
            if current:
                current.insert(self._draws.next_integer(len(current) + 1), key)
            else:
                current.append(key)
        else:
            bucket = self._buckets.get(round_number)
            if bucket is None:
                self._buckets[round_number] = [key]
                if round_number not in self._toggle_buckets:
                    heapq.heappush(self._round_heap, round_number)
            else:
                bucket.append(key)
        self._live[round_number] = self._live.get(round_number, 0) + 1
        self._size += 1
        return key

    def schedule_toggle(self, round_number: int, peer_id: int) -> None:
        """File one peer id into the dense toggle lane of a future round.

        No key is returned: dense toggles cannot be cancelled (the
        engines never cancel toggles — stale ones are filtered against
        the live column when the batch drains).  Scheduling into the
        round currently executing is an error: the batch for that round
        has already been delivered (or is being delivered) as one
        transaction, and durations are always ``>= 1`` round anyway.
        """
        if round_number < 0:
            raise ValueError("cannot schedule in a negative round")
        if round_number == self._current_round:
            raise ValueError(
                "cannot schedule a dense toggle into the executing round"
            )
        bucket = self._toggle_buckets.get(round_number)
        if bucket is None:
            self._toggle_buckets[round_number] = [peer_id]
            if round_number not in self._buckets:
                heapq.heappush(self._round_heap, round_number)
        else:
            bucket.append(peer_id)
        self._size += 1

    def schedule_toggle_batch(self, rounds, peer_ids) -> None:
        """Bulk-file dense toggles: one target round per peer id.

        ``rounds`` and ``peer_ids`` are equally long integer arrays (or
        sequences).  Large batches are grouped per round with one argsort
        instead of a scalar filing per event; the per-bucket append
        order is irrelevant because :meth:`_activate` sorts each toggle
        bucket before delivery.
        """
        count = len(rounds)
        if count == 0:
            return
        if count <= 32:
            for round_number, peer_id in zip(
                np.asarray(rounds).tolist(), np.asarray(peer_ids).tolist()
            ):
                self.schedule_toggle(round_number, peer_id)
            return
        rounds = np.asarray(rounds)
        peer_ids = np.asarray(peer_ids)
        order = np.argsort(rounds, kind="stable")
        rounds = rounds[order]
        peer_ids = peer_ids[order]
        starts = np.flatnonzero(rounds[1:] != rounds[:-1]) + 1
        round_list = rounds[np.concatenate(([0], starts))].tolist()
        bounds = starts.tolist() + [count]
        id_list = peer_ids.tolist()
        begin = 0
        for round_number, end in zip(round_list, bounds):
            self._file_toggles(round_number, id_list[begin:end])
            begin = end

    def _file_toggles(self, round_number: int, ids: List[int]) -> None:
        if round_number < 0:
            raise ValueError("cannot schedule in a negative round")
        if round_number == self._current_round:
            raise ValueError(
                "cannot schedule a dense toggle into the executing round"
            )
        bucket = self._toggle_buckets.get(round_number)
        if bucket is None:
            self._toggle_buckets[round_number] = list(ids)
            if round_number not in self._buckets:
                heapq.heappush(self._round_heap, round_number)
        else:
            bucket.extend(ids)
        self._size += len(ids)

    def cancel(self, round_number: int, key: int) -> None:
        """Lazily cancel the event ``key`` filed for ``round_number``.

        The key is skipped when its round reaches it.  Cancelling an
        event that already ran, or was already cancelled, is a no-op.
        """
        if round_number == self._current_round:
            if key not in self._current:
                return  # already ran
            cancelled = self._current_cancelled
        elif round_number in self._buckets:
            cancelled = self._cancelled.setdefault(round_number, set())
        else:
            return  # already ran, or its round was purged
        if key in cancelled:
            return
        cancelled.add(key)
        self._serial = (self._serial + 1) & _SERIAL_MASK
        self._size -= 1
        self._live[round_number] -= 1

    def _next_bucket_round(self) -> Optional[int]:
        """Earliest bucket round with live events, purging dead buckets."""
        heap = self._round_heap
        while heap:
            round_number = heap[0]
            if (
                round_number in self._toggle_buckets
                or self._live.get(round_number, 0) > 0
            ):
                return round_number
            heapq.heappop(heap)
            self._buckets.pop(round_number, None)
            self._toggle_buckets.pop(round_number, None)
            self._live.pop(round_number, None)
            self._cancelled.pop(round_number, None)
        return None

    def _activate(self, round_number: int) -> None:
        """Make ``round_number``'s bucket the current (shuffled) round.

        Called by :meth:`pop_until` only once the previous round is
        fully drained (no remainder, no undelivered toggle batch).
        """
        heapq.heappop(self._round_heap)  # == round_number by construction
        bucket = self._buckets.pop(round_number, None)
        toggles = self._toggle_buckets.pop(round_number, None)
        previous = self._current_round
        if previous is not None and self._live.get(previous) == 0:
            del self._live[previous]
        if bucket is None:
            bucket = []
        elif len(bucket) > 1:
            # Canonicalise before shuffling: the execution order must be
            # a pure function of the bucket's *content* (plus the one
            # permutation draw), never of the order the events happened
            # to be appended in.  Appending order leaks the engine's
            # internal iteration order (e.g. over a peer's partner sets),
            # so without this sort two state representations of the same
            # simulation could diverge while being semantically
            # identical.  Keys sort by kind, peer, then serial, so equal
            # (kind, peer) pairs keep their filing order.
            bucket.sort()
            order = self._rng.permutation(len(bucket))
            bucket = list(map(bucket.__getitem__, order.tolist()))
        self._current = bucket
        self._current_cancelled = self._cancelled.pop(round_number, None) or set()
        if toggles is not None:
            # Canonical batch order: ascending peer id.  The batch is
            # processed as one transaction, so any fixed order works —
            # sorting makes it a pure function of the bucket's content,
            # like the generic shuffle (without consuming a draw).
            toggles.sort()
        self._current_toggles = toggles
        self._current_round = round_number

    def pop_until(self, last_round: int) -> Optional[Tuple[int, int]]:
        """Pop the next live ``(round, key)``, or ``None`` past ``last_round``.

        The engines' main loops drain the queue through this one method.
        It skips the earliest-bucket lookup entirely while the current
        round still has events: buckets are keyed by the round they will
        execute in, and the engines only ever schedule into the current
        round's remainder or a future bucket, so while the current round
        is non-empty every bucket in the heap is strictly later than the
        current round.  (An event filed into a *past* round would run
        after the current round's remainder.)  Events past
        ``last_round`` stay in the queue untouched.

        A round with dense toggles yields one :data:`TOGGLE_BATCH_KEY`
        before its generic events; the caller must drain it with
        :meth:`pop_round_batch` before the next ``pop_until`` call.
        """
        live = self._live
        while True:
            round_number = self._current_round
            if self._current_toggles is not None:
                if round_number > last_round:
                    return None
                return round_number, TOGGLE_BATCH_KEY
            current = self._current
            if current:
                if round_number > last_round:
                    return None
                key = current.pop()
                cancelled = self._current_cancelled
                if cancelled and key in cancelled:
                    cancelled.remove(key)
                    continue
                self._size -= 1
                live[round_number] -= 1
                return round_number, key
            upcoming = self._next_bucket_round()
            if upcoming is None or upcoming > last_round:
                return None
            self._activate(upcoming)

    def pop_round_batch(self) -> List[int]:
        """Drain the delivered toggle batch as the lane's sorted id list.

        Valid right after :meth:`pop_until` returned the
        :data:`TOGGLE_BATCH_KEY`; returns an empty list when no batch
        is pending.  The ids are ascending and unique (at most one
        pending toggle per peer, an engine invariant), and the list is
        the caller's: the queue keeps no reference to it.
        """
        toggles = self._current_toggles
        if toggles is None:
            return []
        self._current_toggles = None
        self._size -= len(toggles)
        return toggles

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
