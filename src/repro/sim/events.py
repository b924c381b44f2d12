"""Event queue of the round-based simulator.

PeerSim (the paper's simulator) executes peers sequentially inside each
round, in an order re-randomised every round.  Earlier versions
reproduced that with a binary heap keyed by ``(round, random_tiebreak,
sequence)`` — one scalar RNG call and one rich-compare dataclass per
``schedule``, plus ``O(log n)`` comparisons per push/pop.  The calendar
queue here keeps the same semantics at a fraction of the cost:

* events land in a per-round *bucket* (``dict`` keyed by integer round);
* when a round becomes current its bucket is shuffled **once** with a
  batched permutation (one vectorised RNG call per round instead of one
  scalar draw per event);
* events scheduled into the round currently executing are inserted at a
  uniformly random position among the not-yet-executed events (the heap
  gave late arrivals a mild bias toward running sooner; uniform is the
  cleaner semantics and trajectories are re-seeded this PR anyway);
* cancellation stays lazy: a cancelled handle is skipped when reached.

A small heap of *distinct round numbers* (not events) provides the
"earliest non-empty bucket" lookup; its size is bounded by the number of
future rounds that have events, so its cost is negligible.

Session toggles — the dominant event kind — additionally get a *dense
lane*: :meth:`EventQueue.schedule_toggle` /
:meth:`EventQueue.schedule_toggle_batch` file bare peer ids into
per-round integer buckets (no ``Event``, no ``_Handle``, no per-event
heap traffic), and when such a round activates the queue emits a single
``TOGGLE_BATCH`` sentinel event *before* the round's shuffled generic
events.  The consumer must then call :meth:`EventQueue.pop_round_batch`
to drain the whole batch as one sorted id array.  Toggles are
order-independent within a round (the engines process the batch as one
transaction over final state), are never cancelled, and are always
scheduled at least one round ahead, which is what makes the dense
representation safe.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List, Optional, Tuple

import numpy as np

from .rng import BatchedDraws


class EventKind(Enum):
    """All event types the engine knows how to dispatch."""

    JOIN = auto()            # a fresh peer enters the system
    DEATH = auto()           # a peer leaves definitively
    TOGGLE = auto()          # a peer's online/offline session flips
    PLACEMENT = auto()       # initial (or post-loss) upload of all n blocks
    REPAIR_CHECK = auto()    # re-evaluate an archive against the threshold
    SAMPLE = auto()          # periodic metrics sampling
    TOP_UP = auto()          # proactive-replication baseline (A4) top-up tick
    TRANSFER_DONE = auto()   # a protocol-fidelity transfer finished
    TOGGLE_BATCH = auto()    # sentinel: drain the round's dense toggle lane


@dataclass(frozen=True)
class Event:
    """One scheduled event.

    ``peer_id`` is the subject peer (ignored for SAMPLE events).
    """

    kind: EventKind
    peer_id: int = -1


class _Handle:
    """A scheduled event plus its dead flag.

    ``cancelled`` is set both by :meth:`EventQueue.cancel` and when the
    event is popped (executed), so cancelling an already-consumed handle
    is a safe no-op instead of corrupting the queue's live accounting.

    ``key`` is the canonical intra-bucket sort key — ``(kind, peer_id)``
    packed into one integer so :meth:`EventQueue._activate` sorts on a
    C-compared int instead of calling a Python key function per element.
    Handles tie only when their events are value-identical (same kind,
    same peer) and therefore interchangeable: live events are unique per
    (kind, peer) — the engines deduplicate checks and schedule at most
    one toggle/death per peer — and the exceptions (JOIN and SAMPLE with
    ``peer_id == -1``, protocol transfer completions) carry no payload
    beyond the key, so any tie order is unobservable.
    """

    __slots__ = ("round", "event", "cancelled", "key")

    def __init__(self, round_number: int, event: Event):
        self.round = round_number
        self.event = event
        self.cancelled = False
        # kind value <= 8 and peer_id >= -1; 2**40 clears any realistic
        # population size.  ``_value_`` skips the enum's
        # DynamicClassAttribute descriptor (this runs once per schedule).
        self.key = event.kind._value_ * 1099511627776 + event.peer_id + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"_Handle(round={self.round}, event={self.event}{state})"


_HANDLE_KEY = operator.attrgetter("key")

#: The one sentinel instance handed out for every dense toggle round
#: (events are frozen value objects, so sharing it is invisible).
_TOGGLE_BATCH_EVENT = Event(EventKind.TOGGLE_BATCH)
_EMPTY_BATCH = np.empty(0, dtype=np.int64)


class EventQueue:
    """Calendar queue of events with random intra-round ordering."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._draws = BatchedDraws(rng)
        #: future rounds -> unshuffled buckets of handles.
        self._buckets: Dict[int, List[_Handle]] = {}
        #: future rounds -> dense toggle lane (bare peer ids, no handles).
        self._toggle_buckets: Dict[int, List[int]] = {}
        #: distinct bucket rounds (exactly one heap entry per round that
        #: has a generic and/or toggle bucket).
        self._round_heap: List[int] = []
        #: live (non-cancelled) *generic* events per round, bucket or
        #: current.  Dense toggles are not counted: they cannot be
        #: cancelled, so a round with a toggle bucket is live by
        #: construction and the lane skips the accounting entirely.
        self._live: Dict[int, int] = {}
        #: the active round's shuffled remainder, consumed from the end.
        self._current: List[_Handle] = []
        #: the active round's undelivered toggle batch (sorted), if any.
        self._current_toggles: Optional[List[int]] = None
        self._current_round: Optional[int] = None
        self._size = 0

    def schedule(self, round_number: int, event: Event) -> _Handle:
        """Add an event; returns a handle usable with :meth:`cancel`."""
        if round_number < 0:
            raise ValueError("cannot schedule in a negative round")
        handle = _Handle(round_number, event)
        if round_number == self._current_round:
            # The round is executing: insert at a uniform position among
            # the remaining events (the end of the list runs first, so
            # every slot of the remainder is equally likely).
            current = self._current
            if current:
                current.insert(self._draws.next_integer(len(current) + 1), handle)
            else:
                current.append(handle)
        else:
            bucket = self._buckets.get(round_number)
            if bucket is None:
                self._buckets[round_number] = [handle]
                if round_number not in self._toggle_buckets:
                    heapq.heappush(self._round_heap, round_number)
            else:
                bucket.append(handle)
        self._live[round_number] = self._live.get(round_number, 0) + 1
        self._size += 1
        return handle

    def schedule_toggle(self, round_number: int, peer_id: int) -> None:
        """File one peer id into the dense toggle lane of a future round.

        No handle is returned: dense toggles cannot be cancelled (the
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

    def cancel(self, handle: _Handle) -> None:
        """Lazily cancel a scheduled event (skipped when reached)."""
        if not handle.cancelled:
            handle.cancelled = True
            self._size -= 1
            self._live[handle.round] -= 1

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
            # identical.  Ties are unobservable (see ``_Handle.key``).
            bucket.sort(key=_HANDLE_KEY)
            order = self._rng.permutation(len(bucket))
            bucket = [bucket[i] for i in order]
        self._current = bucket
        if toggles is not None:
            # Canonical batch order: ascending peer id.  The batch is
            # processed as one transaction, so any fixed order works —
            # sorting makes it a pure function of the bucket's content,
            # like the generic shuffle (without consuming a draw).
            toggles.sort()
        self._current_toggles = toggles
        self._current_round = round_number

    def pop_until(self, last_round: int) -> Optional[Tuple[int, Event]]:
        """Pop the next live event, or ``None`` if it is past ``last_round``.

        The engines' main loops drain the queue through this one method.
        It skips the earliest-bucket lookup entirely while the current
        round still has events: buckets are keyed by the round they will
        execute in, and the engines only ever schedule into the current
        round's remainder or a future bucket, so while the current round
        is non-empty every bucket in the heap is strictly later than the
        current round.  (An event filed into a *past* round would run
        after the current round's remainder.)  Events past
        ``last_round`` stay in the queue untouched.

        A round with dense toggles yields one ``TOGGLE_BATCH`` sentinel
        before its generic events; the caller must drain it with
        :meth:`pop_round_batch` before the next ``pop_until`` call.
        """
        live = self._live
        while True:
            if self._current_toggles is not None:
                if self._current_round > last_round:
                    return None
                return self._current_round, _TOGGLE_BATCH_EVENT
            current = self._current
            if current:
                if self._current_round > last_round:
                    return None
                handle = current.pop()
                if handle.cancelled:
                    continue
                handle.cancelled = True  # consumed: late cancel() is a no-op
                self._size -= 1
                live[handle.round] -= 1
                return handle.round, handle.event
            upcoming = self._next_bucket_round()
            if upcoming is None or upcoming > last_round:
                return None
            self._activate(upcoming)

    def pop_round_batch(self) -> np.ndarray:
        """Drain the delivered toggle batch as one sorted id array.

        Valid right after :meth:`pop_until` returned the
        ``TOGGLE_BATCH`` sentinel; returns an empty array when no batch
        is pending.  The ids are ascending and unique (at most one
        pending toggle per peer, an engine invariant).
        """
        toggles = self._current_toggles
        if toggles is None:
            return _EMPTY_BATCH
        self._current_toggles = None
        self._size -= len(toggles)
        return np.array(toggles, dtype=np.int64)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
