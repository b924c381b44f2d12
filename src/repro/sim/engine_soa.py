"""The ``abstract_soa`` fidelity backend, the default engine.

Peers are structure-of-arrays columns (:mod:`repro.sim.soa_state`) and
block placements are two ragged adjacency tables; repairs, placements
and proactive top-ups execute as instantaneous state flips.  This is
the one simulation core: the ``protocol`` fidelity
(:class:`repro.sim.protocol.ProtocolSimulation`) subclasses it and
re-executes placement, repair and loss as message exchanges over the
same tables, through a handful of seams called once per spawn, death,
toggle batch or census (see "Backend seams" below), so both fidelities
of one config share their churn trajectory.  Results are pinned by the
committed golden digests in ``tests/golden/results.json``
(``scripts/record_goldens.py`` regenerates them).

What makes it fast (the layout that lets 10^6-peer populations fit in
memory, and runs ``paper`` at default scale, 800 peers x 14 000
rounds, in about a second):

* session toggles — the dominant event kind — are not dispatched one
  event at a time: the queue keeps each round's toggles in a dense
  per-round id bucket (:meth:`repro.sim.events.EventQueue.pop_round_batch`)
  and :meth:`_process_toggle_batch` runs the whole round as array
  passes — one masked row gather of every affected owner from the
  fixed-width owner matrix
  (:meth:`repro.sim.soa_state.StateTables.owners_concat`), one
  scatter-add on the ``visible`` column, one masked threshold compare,
  and one vectorised geometric draw for all reschedules
  (:func:`repro.sim.rng.geometric_from_uniforms`);
* recruitment stays in arrays end to end: the pool fill evaluates
  whole sample chunks — several at once when a fill continues — as
  numpy expressions over a stamped skip set, the acceptance rule's
  :meth:`repro.core.acceptance.AcceptancePolicy.accepts` included, and
  returns ``(ids, ages)`` vectors, the strategy orders them with
  :meth:`repro.core.selection.SelectionStrategy.order`, and the chosen
  partners are committed with one fancy-index write into the owner
  matrix
  (:meth:`repro.sim.soa_state.StateTables.owners_append_many`);
* the remaining scalar handlers (checks, deaths, repair bookkeeping)
  touch C-backed list slots instead of attribute-walking per-peer heap
  objects;
* the periodic census is one vectorised mask/searchsorted/bincount over
  the numpy mirror columns instead of a Python loop over every peer;
* per-peer ``SessionProcess``/lifetime objects are replaced by
  per-profile constants and bare ids in the queue's toggle buckets —
  the draws are issued in the same order, from the same streams;
* every other event is one int key in the queue's buckets
  (:mod:`repro.sim.events`), decoded with two shifts at dispatch.

Both toggle-kernel branches (scalar and vectorised) are
draw-identical, which leans on the event queue
canonicalising each round's bucket before shuffling
(:meth:`repro.sim.events.EventQueue._activate`): execution order
depends only on bucket *content*, never on the order events were filed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, List, Optional

import numpy as np

from ..core.acceptance import acceptance_rule
from ..churn.availability import session_duration_params
from ..core.adaptive import AdaptiveThreshold
from ..core.selection import CandidatePool, strategy_by_name
from .config import SimulationConfig
from .events import KIND_SHIFT, PEER_MASK, PEER_SHIFT, EventKind, EventQueue
from .fidelity import FIDELITY_BACKENDS
from .metrics import MetricsCollector
from .rng import (
    GEOMETRIC_SCALAR_LIMIT,
    RngStreams,
    geometric_from_uniforms,
    geometric_from_uniforms_scalar,
    pool_chunk_size,
)
from .soa_state import StateTables

#: Event kinds as module constants (an enum attribute lookup is slow).
_JOIN = EventKind.JOIN
_DEATH = EventKind.DEATH
_CHECK = EventKind.REPAIR_CHECK
_SAMPLE = EventKind.SAMPLE
_TOP_UP = EventKind.TOP_UP

#: A continuing pool fill evaluates up to this many times its next
#: chunk's draws in one pass (see ``SoaSimulation._fill_pool``).
_FILL_WINDOW_CHUNKS = 4


def _sorted_contains(ordered: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership of each of ``values`` in the sorted vector ``ordered``."""
    if not len(ordered):
        return np.zeros(len(values), dtype=bool)
    slots = np.searchsorted(ordered, values)
    np.minimum(slots, len(ordered) - 1, out=slots)
    return ordered[slots] == values


def _pair_keys(
    owners: np.ndarray, holders: np.ndarray, alive: np.ndarray, suspect: np.ndarray
) -> np.ndarray:
    """Sorted ``owner * count + holder`` keys of the audit's link pairs.

    Flags both ends of every pair with a dead end in ``suspect``, then
    builds the keys in ``owners``' own buffer (the audit's largest
    arrays are one int64 per link, so it keeps few of them alive).
    """
    dead = ~(alive[owners] & alive[holders])
    suspect[owners[dead]] = True
    suspect[holders[dead]] = True
    owners *= len(alive)
    owners += holders
    owners.sort()
    return owners


@FIDELITY_BACKENDS.register("abstract_soa")
class SoaSimulation:
    """The default fidelity: instantaneous repairs over state tables."""

    fidelity = "abstract_soa"

    #: population cut-over for the vectorised toggle-kernel branch
    #: (class attribute so tests can force either branch on micro
    #: populations).
    _VECTOR_POPULATION = 50_000

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.policy = config.policy()
        self.acceptance = acceptance_rule(config.acceptance_rule, config.age_cap)
        self.strategy = strategy_by_name(config.selection_strategy)
        self.rng = RngStreams(config.seed)
        self.queue = EventQueue(self.rng.ordering)
        self.metrics = MetricsCollector(config.categories, config.warmup_rounds)
        self.round = 0
        self.peers_created = 0
        self.deaths = 0
        # Profile choice by inverse CDF over batched uniforms: the
        # arithmetic of ``Generator.choice(p=...)`` (cumsum, normalise
        # by the last entry, right-side search of one uniform), so the
        # draws match ``profiles.choice(p=...)`` bit for bit.
        cdf = np.cumsum([p.proportion for p in config.profiles], dtype=np.float64)
        cdf /= cdf[-1]
        self._profile_cdf = cdf.tolist()
        self._needs_oracle = bool(getattr(self.strategy, "needs_oracle", False))
        self._needs_availability = bool(
            getattr(self.strategy, "needs_availability", False)
        )
        self._repair_threshold = self.policy.repair_threshold
        self._n = self.policy.n
        self._k = self.policy.k
        self._selection_draws = self.rng.batched("selection")
        self._acceptance_draws = self.rng.batched("acceptance")
        # Per-profile session/lifetime constants, replacing the per-peer
        # SessionProcess / LifetimeDistribution objects.  The log1p(-p)
        # terms feed the batched duration draw (session_duration_params
        # — NaN means "mean <= 1 round,
        # duration is 1 without consuming a draw"); ``online_p`` keeps
        # the spawn-time scalar geometric (None for the same clamp).
        self._session_params = []
        for profile in config.profiles:
            always_online, online_log1mp, offline_log1mp = session_duration_params(
                profile.availability, profile.mean_online_session
            )
            mean_online = float(profile.mean_online_session)
            online_p = 1.0 / mean_online if mean_online > 1.0 else None
            if profile.life_expectancy is None:
                lifetime = None
            else:
                low, high = profile.life_expectancy
                lifetime = (float(low), float(high))
            self._session_params.append(
                (always_online, online_p, lifetime, online_log1mp, offline_log1mp)
            )
        # Finite category upper bounds, for the vectorised census.
        categories = config.categories.categories
        self._census_uppers = np.array(
            [category.upper for category in categories[:-1]], dtype=np.int64
        )
        self._category_names = [category.name for category in categories]
        #: per-peer adaptive controllers (A5), or None when disabled.
        self._adaptive: Optional[Dict[int, AdaptiveThreshold]] = (
            {} if config.adaptive_thresholds else None
        )
        # Above this population the toggle kernel runs its vectorised
        # branch (owner-matrix gather + scatter-add over numpy columns);
        # below it, per-round batches are a handful of peers and the
        # scalar branch over list columns is faster.  Both branches execute
        # the identical passes, so the cut is invisible to results.
        self._vector_kernel = config.population >= self._VECTOR_POPULATION
        # The online candidate index: a swap-pop set (``_online_items``
        # holds the members in an ``int64`` array, ``_online_pos`` each
        # id's slot or -1), so uniform sampling is one index per draw,
        # the pool fill gathers a whole candidate chunk in one fancy
        # index, and the item layout is a pure function of the
        # add/discard sequence.
        capacity = config.population + len(config.observers) + 16
        self._online_items = np.zeros(capacity, dtype=np.int64)
        self._online_size = 0
        self._online_pos: List[int] = []
        #: the pool fill's stamped skip set and the next fill's floor
        #: (see ``_fill_pool``).
        self._pool_stamps = np.zeros(capacity, dtype=np.int64)
        self._pool_serial = 1
        # Owner rows are bounded by the quota plus one quota-free slot
        # per observer (see soa_state's owner-matrix notes).
        self.state = StateTables(
            initial_capacity=capacity,
            vector_columns=self._vector_kernel,
            row_width=config.quota + len(config.observers),
        )
        # Hot-path caches.  The bound methods skip
        # RngStreams.__getattr__ on every draw; the uptime fold only
        # matters when a selection strategy actually reads availability.
        self._geometric = self.rng.sessions.geometric
        self._session_draws = self.rng.batched("sessions")
        self._profile_draws = self.rng.batched("profiles")
        self._lifetime_draws = self.rng.batched("lifetimes")
        self._track_uptime = self._needs_availability
        self._setup()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        config = self.config
        state = self.state
        if config.staggered_join_rounds:
            # One vector draw: the same values, and the same generator
            # state afterwards, as one scalar ``integers`` call per peer.
            join_rounds = self.rng.placement.integers(
                config.staggered_join_rounds, size=config.population
            ).tolist()
        else:
            join_rounds = [0] * config.population
        for join_round in join_rounds:
            self.queue.schedule(join_round, _JOIN)
        for spec in config.observers:
            peer_id = state.add_observer(spec.fixed_age, spec.name)
            self._online_pos.append(-1)  # observers are never candidates
            if self._adaptive is not None:
                self._adaptive[peer_id] = AdaptiveThreshold(self.policy)
            self._schedule_check(peer_id, 0)
        self.queue.schedule(0, _SAMPLE)

    # ------------------------------------------------------------------
    # Backend seams (no-ops here; the protocol fidelity extends them).
    # Each runs once per spawn, death, toggle batch or census — never
    # once per link — so the default engine pays nothing per link.
    # ------------------------------------------------------------------
    def _on_spawn(self, peer_id: int) -> None:
        """A normal peer joined and is wired into the tables."""

    def _on_departure(self, peer_id: int) -> None:
        """A peer died: its links are detached, its owners not yet checked."""

    def _on_toggles(self, went_offline: List[int], went_online: List[int]) -> None:
        """A toggle batch flipped these peers; every check is filed."""

    def _census_extras(self, now: int) -> None:
        """Extend the periodic census with backend-specific data."""

    def _finalize(self) -> None:
        """Run after the last event, before the result is assembled."""

    def _dispatch_extra(self, now: int, key: int) -> None:
        """Handle an event key whose kind the core loop does not know."""
        raise ValueError(f"unexpected event kind {key >> KIND_SHIFT}")

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _age(self, peer_id: int, now: int) -> float:
        state = self.state
        if peer_id < state.n_observers:
            return float(state.fixed_age[peer_id])
        return float(max(now - state.join[peer_id], 0))

    def _observer_name(self, peer_id: int) -> Optional[str]:
        state = self.state
        if peer_id < state.n_observers:
            return state.observer_name[peer_id]
        return None

    def _needs_repair(self, peer_id: int, visible: int) -> bool:
        adaptive = self._adaptive
        if adaptive is not None:
            return adaptive[peer_id].needs_repair(visible)
        return visible < self._repair_threshold

    def _online_add(self, peer_id: int) -> None:
        """Append ``peer_id`` to the online index (idempotent)."""
        if self._online_pos[peer_id] >= 0:
            return
        size = self._online_size
        items = self._online_items
        if size >= len(items):
            bigger = np.zeros(len(items) * 2, dtype=np.int64)
            bigger[:size] = items
            self._online_items = items = bigger
        items[size] = peer_id
        self._online_pos[peer_id] = size
        self._online_size = size + 1

    def _online_discard(self, peer_id: int) -> None:
        """Remove ``peer_id`` by swapping the tail into its slot (idempotent)."""
        position = self._online_pos[peer_id]
        if position < 0:
            return
        size = self._online_size - 1
        items = self._online_items
        tail = items.item(size)
        if tail != peer_id:
            items[position] = tail
            self._online_pos[tail] = position
        self._online_pos[peer_id] = -1
        self._online_size = size

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------
    def _schedule_check(self, peer_id: int, when: int) -> None:
        state = self.state
        scheduled = state.check_scheduled[peer_id]
        if scheduled is not None:
            if when >= scheduled:
                return
            self.queue.cancel(scheduled, state.check_key[peer_id])
        state.check_scheduled[peer_id] = when
        state.check_key[peer_id] = self.queue.schedule(when, _CHECK, peer_id)

    def _schedule_toggle(self, peer_id: int, now: int) -> None:
        """File a fresh peer's first toggle (spawn-time, scalar draw).

        The one scalar geometric left on the ``sessions`` generator; the
        batch reschedules consume the same generator's buffered
        refills, so the two interleave identically in every run.
        """
        params = self._session_params[self.state.profile[peer_id]]
        if params[0]:
            return  # always online: no session process
        p = params[1]
        duration = 1 if p is None else int(self._geometric(p))
        self.queue.schedule_toggle(now + duration, peer_id)

    def _schedule_top_up(self, peer_id: int, now: int) -> None:
        interval = max(int(round(1.0 / self.config.proactive_rate)), 1)
        self.queue.schedule(now + interval, _TOP_UP, peer_id)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def _spawn_peer(self, now: int) -> int:
        config = self.config
        # Batched twins of ``profiles.choice(p=...)`` and
        # ``lifetimes.uniform(low, high)``: same uniforms, same
        # arithmetic (``bisect_right`` is ``searchsorted(side="right")``).
        index = bisect_right(self._profile_cdf, self._profile_draws.next_uniform())
        lifetime_bounds = self._session_params[index][2]
        death_round: Optional[int] = None
        if lifetime_bounds is not None:
            low, high = lifetime_bounds
            lifetime = low + (high - low) * self._lifetime_draws.next_uniform()
            death_round = now + max(int(lifetime), 1)
        peer_id = self.state.add_peer(index, now, death_round)
        self._online_pos.append(-1)
        self.peers_created += 1
        self._online_add(peer_id)
        if self._adaptive is not None:
            self._adaptive[peer_id] = AdaptiveThreshold(self.policy)
        if death_round is not None:
            self.queue.schedule(death_round, _DEATH, peer_id)
        self._on_spawn(peer_id)
        self._schedule_toggle(peer_id, now)
        self._schedule_check(peer_id, now)
        if config.proactive_rate > 0:
            self._schedule_top_up(peer_id, now)
        return peer_id

    def _handle_death(self, now: int, peer_id: int) -> None:
        state = self.state
        if not state.alive[peer_id] or peer_id < state.n_observers:
            return
        self.deaths += 1
        was_online = state.online[peer_id]
        if self._track_uptime:
            if was_online:
                state.online_rounds[peer_id] += (
                    now - state.last_state_change[peer_id]
                )
            state.last_state_change[peer_id] = now
        self._online_discard(peer_id)
        state.mark_dead(peer_id)
        holders = state.holders

        # The departed peer's own blocks disappear from its partners.
        self._drop_holders(peer_id, list(holders[peer_id]))

        # Blocks it hosted for others vanish "immediately" (section 4.1):
        # detach every link first, then evaluate loss/threshold once per
        # owner against its final post-death counters, in ascending
        # owner order (a loss exchanges messages at protocol fidelity,
        # so the order must not depend on the reverse index's layout).
        visible = state.visible
        affected = state.owners_clear(peer_id)
        if was_online:
            for owner_id in affected:
                holders[owner_id].remove(peer_id)
                visible[owner_id] -= 1
        else:
            for owner_id in affected:
                holders[owner_id].remove(peer_id)
        self._on_departure(peer_id)
        for owner_id in sorted(affected):
            self._after_block_loss(owner_id, now)

        # Immediate replacement by a fresh peer (section 4.1).
        self.queue.schedule(now, _JOIN)

    def _after_block_loss(self, owner_id: int, now: int) -> None:
        state = self.state
        if not state.placed[owner_id]:
            return
        if len(state.holders[owner_id]) < self._k:
            self._record_loss(owner_id, now)
            return
        if self._needs_repair(owner_id, state.visible[owner_id]):
            self._schedule_check(owner_id, now + 1)

    def _record_loss(self, owner_id: int, now: int) -> None:
        state = self.state
        self.metrics.record_loss(
            now, self._age(owner_id, now), self._observer_name(owner_id)
        )
        self._drop_holders(owner_id, list(state.holders[owner_id]))
        state.placed[owner_id] = 0
        state.fully_placed[owner_id] = 0
        # The user still has local data to back up again: a fresh
        # placement follows (next round at the earliest).
        self._schedule_check(owner_id, now + 1)

    def _drop_holders(self, owner_id: int, holder_ids: List[int]) -> None:
        """Owner abandons distinct holders (repair drops, loss or death).

        One batched reverse-index unlink; the owner's own row loses the
        holders one by one.
        """
        if not holder_ids:
            return
        state = self.state
        state.owners_remove_many(holder_ids, owner_id)
        online = state.online
        row = state.holders[owner_id]
        went = 0
        for holder_id in holder_ids:
            row.remove(holder_id)
            went += online[holder_id]
        state.visible[owner_id] -= went
        if owner_id >= state.n_observers:
            state.quota_used[holder_ids] -= 1

    # ------------------------------------------------------------------
    # Session toggles (the most frequent event kind, batched per round)
    # ------------------------------------------------------------------
    def _process_toggle_batch(self, now: int, peer_ids: List[int]) -> None:
        """Flip every session toggling this round in one batched pass.

        The queue hands over the round's whole toggle bucket (sorted
        ascending by peer id) and the kernel runs six fixed passes: dead
        filter, state flips, visibility fan-out, owner threshold checks
        on final counts, self-service checks for peers coming online,
        and one bulk duration draw for the reschedules.  At swarm scale
        the fan-out is one owner-matrix gather + scatter-add and the
        threshold scan one masked compare.
        """
        state = self.state
        alive = state.alive
        online = state.online
        track = self._track_uptime
        last_offline = state.last_offline
        params = self._session_params
        profile = state.profile
        went_offline: List[int] = []
        went_online: List[int] = []
        # Duration lists are accumulated during the flip pass (ascending
        # batch order); the draws themselves happen only after every
        # flip has landed.
        need_ids: List[int] = []
        need_log: List[float] = []
        ones_ids: List[int] = []
        for peer_id in peer_ids:
            if not alive[peer_id]:
                continue
            p = params[profile[peer_id]]
            if online[peer_id]:
                if track:
                    state.online_rounds[peer_id] += (
                        now - state.last_state_change[peer_id]
                    )
                    state.last_state_change[peer_id] = now
                online[peer_id] = 0
                self._online_discard(peer_id)
                last_offline[peer_id] = now
                went_offline.append(peer_id)
                log1mp = p[4]
            else:
                if track:
                    state.last_state_change[peer_id] = now
                online[peer_id] = 1
                self._online_add(peer_id)
                went_online.append(peer_id)
                log1mp = p[3]
            if p[0]:
                continue
            if log1mp == log1mp:  # not NaN: a real geometric draw
                need_ids.append(peer_id)
                need_log.append(log1mp)
            else:
                ones_ids.append(peer_id)
        if not (went_offline or went_online):
            return
        # Visibility fan-out and owner threshold checks (against final
        # post-batch counts, ascending owner order).  Two executions of
        # the same pass: typical rounds toggle a handful of peers, where
        # scalar loops over the ragged rows beat array machinery; large
        # batches (million-peer populations) take one gather of every
        # touched owner plus one scatter-add per direction.
        visible = state.visible
        placed = state.placed
        adaptive = self._adaptive
        if not self._vector_kernel:
            owners_of = state.owners_of
            affected = set()
            add = affected.add
            if adaptive is None:
                # Collect only owners observed below threshold mid-pass.
                # Exact: increments run after every decrement, so an
                # owner's post-offline count is its round minimum — any
                # owner finishing below threshold crossed it here.
                threshold = self._repair_threshold
                for holder_id in went_offline:
                    for owner_id in owners_of[holder_id]:
                        count = visible[owner_id] - 1
                        visible[owner_id] = count
                        if count < threshold:
                            add(owner_id)
            else:
                # Adaptive thresholds are per-owner state; no cheap
                # mid-pass filter, so collect every touched owner.
                for holder_id in went_offline:
                    for owner_id in owners_of[holder_id]:
                        visible[owner_id] -= 1
                        add(owner_id)
            for holder_id in went_online:
                for owner_id in owners_of[holder_id]:
                    visible[owner_id] += 1
            if adaptive is None:
                for owner_id in sorted(affected):
                    if visible[owner_id] < threshold and placed[owner_id]:
                        self._schedule_check(owner_id, now + 1)
            else:
                for owner_id in sorted(affected):
                    if placed[owner_id] and adaptive[owner_id].needs_repair(
                        int(visible[owner_id])
                    ):
                        self._schedule_check(owner_id, now + 1)
        else:
            off_owners = state.owners_concat(went_offline)
            if len(off_owners):
                np.subtract.at(visible, off_owners, 1)
            on_owners = state.owners_concat(went_online)
            if len(on_owners):
                np.add.at(visible, on_owners, 1)
            if len(off_owners):
                if adaptive is None:
                    # Mask before deduplicating: the test reads only
                    # per-owner state, so it commutes with np.unique.
                    hits = off_owners[
                        (placed[off_owners] != 0)
                        & (visible[off_owners] < self._repair_threshold)
                    ]
                    for owner_id in np.unique(hits).tolist():
                        self._schedule_check(owner_id, now + 1)
                else:
                    for owner_id in np.unique(off_owners).tolist():
                        if placed[owner_id] and adaptive[owner_id].needs_repair(
                            int(visible[owner_id])
                        ):
                            self._schedule_check(owner_id, now + 1)
        pending_check = state.pending_check
        placed = state.placed
        for peer_id in went_online:
            if pending_check[peer_id]:
                pending_check[peer_id] = 0
                self._schedule_check(peer_id, now)
            if placed[peer_id] and self._needs_repair(
                peer_id, int(visible[peer_id])
            ):
                self._schedule_check(peer_id, now)
        self._on_toggles(went_offline, went_online)
        # Bulk reschedule: one uniform per non-degenerate duration, in
        # batch (ascending id) order, inverted through the shared
        # geometric kernel.  Means <= 1 round clamp to a single round
        # without consuming a draw, like the spawn-time scalar draw.
        count = len(need_ids)
        if count:
            if count < GEOMETRIC_SCALAR_LIMIT:
                uniforms = self._session_draws.take(count)
                schedule_toggle = self.queue.schedule_toggle
                for peer_id, duration in zip(
                    need_ids, geometric_from_uniforms_scalar(uniforms, need_log)
                ):
                    schedule_toggle(now + duration, peer_id)
            else:
                uniforms = self._session_draws.take_array(count)
                durations = geometric_from_uniforms(uniforms, np.array(need_log))
                if not self._vector_kernel:
                    schedule_toggle = self.queue.schedule_toggle
                    for peer_id, duration in zip(need_ids, durations.tolist()):
                        schedule_toggle(now + duration, peer_id)
                else:
                    self.queue.schedule_toggle_batch(
                        now + durations, np.array(need_ids, dtype=np.int64)
                    )
        for peer_id in ones_ids:
            self.queue.schedule_toggle(now + 1, peer_id)

    # ------------------------------------------------------------------
    # Checks, placements and repairs
    # ------------------------------------------------------------------
    def _handle_check(self, now: int, peer_id: int) -> None:
        state = self.state
        state.check_scheduled[peer_id] = None
        state.check_key[peer_id] = None
        if not state.alive[peer_id]:
            return
        if not state.online[peer_id]:
            state.pending_check[peer_id] = 1
            return
        if not state.placed[peer_id]:
            self._run_placement(peer_id, now)
            return
        visible = state.visible[peer_id]
        if len(state.holders[peer_id]) < self._k:
            self._record_loss(peer_id, now)
            return
        if not self._needs_repair(peer_id, visible):
            if not state.fully_placed[peer_id]:
                # The initial upload of n blocks has not completed yet
                # (section 3.2: one operation that may span rounds when
                # the network is young or partners are scarce).
                self._run_placement(peer_id, now)
            return
        if visible < self._k:
            # A repair fired but cannot gather k blocks to decode.
            adaptive = self._adaptive
            if adaptive is not None:
                adaptive[peer_id].on_blocked(now)
            self.metrics.record_blocked(
                now, self._age(peer_id, now), self._observer_name(peer_id)
            )
            self._schedule_check(peer_id, now + 1)
            return
        self._run_repair(peer_id, now)

    def _run_placement(self, owner_id: int, now: int) -> None:
        needed = self._n - len(self.state.holders[owner_id])
        if needed > 0:
            self._recruit(owner_id, now, needed)
        self._finish_placement(owner_id, now)

    def _finish_placement(self, owner_id: int, now: int) -> None:
        """Post-upload placement accounting (section 3.2)."""
        state = self.state
        if len(state.holders[owner_id]) >= self._n:
            state.fully_placed[owner_id] = 1
        if state.visible[owner_id] >= self._repair_threshold and not state.placed[
            owner_id
        ]:
            state.placed[owner_id] = 1
            if owner_id >= state.n_observers:
                self.metrics.record_placement(now, self._age(owner_id, now))
        if not state.placed[owner_id] or not state.fully_placed[owner_id]:
            self._schedule_check(owner_id, now + 1)

    def _run_repair(self, owner_id: int, now: int) -> None:
        """Decode-and-reupload repair (paper section 2.2.3)."""
        state = self.state
        row = state.holders[owner_id]
        grace = self.config.grace_rounds
        online = state.online
        last_offline = state.last_offline
        dropped = [
            holder_id
            for holder_id in row
            if not online[holder_id] and now - last_offline[holder_id] >= grace
        ]
        self._drop_holders(owner_id, dropped)
        needed = self._n - len(row)
        recruited = self._recruit(owner_id, now, needed) if needed > 0 else 0
        self._finish_repair(owner_id, now, recruited)

    def _finish_repair(self, owner_id: int, now: int, recruited: int) -> None:
        """Post-upload repair accounting: record, then re-check threshold."""
        state = self.state
        adaptive = self._adaptive
        if recruited > 0:
            if adaptive is not None:
                adaptive[owner_id].on_repair(now)
            self.metrics.record_repair(
                now,
                self._age(owner_id, now),
                recruited,
                self._observer_name(owner_id),
            )
        else:
            if adaptive is not None:
                adaptive[owner_id].on_starved(now)
            self.metrics.record_starved()
        if len(state.holders[owner_id]) >= self._n:
            state.fully_placed[owner_id] = 1
        if self._needs_repair(owner_id, state.visible[owner_id]):
            self._schedule_check(owner_id, now + 1)

    def _handle_top_up(self, now: int, peer_id: int) -> None:
        state = self.state
        if not state.alive[peer_id]:
            return
        if state.online[peer_id] and state.placed[peer_id]:
            if len(state.holders[peer_id]) < self._n:
                self._recruit(peer_id, now, 1)
        self._schedule_top_up(peer_id, now)

    # ------------------------------------------------------------------
    # Partner recruitment
    # ------------------------------------------------------------------
    def _recruit(self, owner_id: int, now: int, needed: int) -> int:
        chosen = self._select_candidates(owner_id, now, needed)
        added = len(chosen)
        if not added:
            return 0
        # The chosen partners (distinct ids), committed in one pass as
        # fancy indexes.  No quota re-check: the fill admitted only
        # candidates below their quota, and nothing recruits between
        # the fill and this commit.  The row takes the id column's
        # shared int objects, not a fresh int per link.
        state = self.state
        state.holders[owner_id].extend(state.id_objects[chosen].tolist())
        state.visible[owner_id] += added
        if owner_id >= state.n_observers:
            state.quota_used[chosen] += 1
        state.owners_append_many(chosen, owner_id)
        return added

    def _select_candidates(
        self, owner_id: int, now: int, needed: int
    ) -> np.ndarray:
        """Pool-build then strategy-select the best ``needed`` partner ids.

        The pool fill returns the accepted ``(ids, ages)`` vectors; the
        columns the strategy declares a need for are added, and its
        :meth:`~repro.core.selection.SelectionStrategy.order` ranks the
        pool.  The chosen ids come back as an ``int64`` vector, most
        preferred first.
        """
        pool_target = int(math.ceil(self.config.pool_factor * needed))
        max_examined = int(self.config.max_examined_factor * needed) + 16
        ids, ages = self._fill_pool(owner_id, now, pool_target, max_examined)
        pool = CandidatePool(
            ids,
            ages,
            self._availability(ids, now) if self._needs_availability else None,
            self._remaining(ids, now) if self._needs_oracle else None,
        )
        return ids[self.strategy.order(pool, self.rng.selection)[:needed]]

    def _fill_pool(
        self, owner_id: int, now: int, target_size: int, max_examined: int
    ):
        """Fused candidate sampling and mutual acceptance (section 3.2).

        Draws are consumed in *chunks*: each chunk takes ``chunk_size``
        selection uniforms, filters the sampled candidates (first
        occurrence in the fill only, not the owner, not already a
        holder, quota not exhausted), then consumes the rule's
        ``draws_per_candidate`` acceptance uniforms per filtered
        candidate — two for the paper's rule, taken unconditionally even
        when the owner's own draw already rejected; none for the uniform
        rule.  Candidate *evaluation* (and the ``examined`` count) stops
        at the candidate that fills the pool, so the pool statistics
        keep one-at-a-time semantics; the loop bounds are re-checked
        only between chunks.  Returns the accepted ``(ids, ages)`` as
        two ``int64`` vectors in acceptance order.

        The chunks are a consumption pattern, not an evaluation unit:
        the keep mask ("first occurrence in the fill, not skipped, quota
        ok") and each candidate's acceptance do not depend on where the
        chunks end, only the stop point does.  So one numpy pass
        evaluates several chunks at once:

        * **stamped skip set** — ``_pool_stamps`` holds one ``int64``
          per peer and every fill starts a fresh serial ``floor``.  The
          owner and its holders are stamped ``floor``; each pass stamps
          its samples with ``np.maximum.at`` and values above ``floor``
          that fall as the position rises, so a sample is skipped iff
          its stamp was already ``>= floor`` and is its pass's first
          occurrence iff the stamp now equals its own value (exact
          whatever order numpy applies the updates in).  Older stamps
          all sit below the next floor: nothing is unmarked afterwards;
        * **continuation windows** — the first chunk is evaluated alone
          (most fills end there), its stop point read straight from the
          hit vector.  A continuing fill peeks a window of up to
          ``_FILL_WINDOW_CHUNKS`` times the next chunk, filters and
          accepts it in one pass, then walks the chunk boundaries the
          one-chunk loop would take (``pool_chunk_size`` of the running
          ``needed``, bisected against list copies of the fresh
          positions and the hits, made only for a window) to find where
          that loop stops and what it counts.  Both kinds of pass share
          the one stop-point step.
          Each stream then advances by what those chunks consumed, and
          the samples of the unconsumed tail get their old stamps back;
        * **no early refill** — a window never looks past the current
          block of either stream (``strategy.order`` draws from the
          selection generator directly between fills, so a refill must
          happen exactly where the one-chunk loop would do it).  When a
          window does not fit, one chunk is taken as a plain
          ``take_array``, refill included: a window of one chunk.
        """
        state = self.state
        n_online = self._online_size
        accepted_ids: List[np.ndarray] = []
        accepted_ages: List[np.ndarray] = []
        n_accepted = 0
        examined = 0
        if n_online:
            selection = self._selection_draws
            acceptance = self._acceptance_draws
            online_items = self._online_items
            sample_budget = 8 * n_online + 64
            owner_age = self._age(owner_id, now)
            check_quota = owner_id >= state.n_observers
            quota = self.config.quota
            join_np = state._join_np
            quota_used = state.quota_used
            accepts = self.acceptance.accepts
            draws = self.acceptance.draws_per_candidate
            stamps = self._pool_stamps
            if len(stamps) < state.count:
                grown = np.zeros(max(len(stamps) * 2, state.count), dtype=np.int64)
                grown[: len(stamps)] = stamps
                stamps = self._pool_stamps = grown
            floor = self._pool_serial
            row = state.holders[owner_id]
            if row:
                stamps[row] = floor
            stamps[owner_id] = floor
            serial = floor + 1
            continuing = False
            while (
                sample_budget > 0
                and examined < max_examined
                and n_accepted < target_size
            ):
                needed = target_size - n_accepted
                chunk = pool_chunk_size(needed)
                if chunk > sample_budget:
                    chunk = sample_budget
                width = chunk
                if continuing:
                    width = min(
                        _FILL_WINDOW_CHUNKS * chunk,
                        sample_budget,
                        selection.available(),
                    )
                windowed = width > chunk
                if windowed:
                    uniforms = selection.peek(width)
                else:
                    width = chunk
                    uniforms = selection.take_array(chunk)
                indices = (uniforms * n_online).astype(np.intp)
                np.minimum(indices, n_online - 1, out=indices)
                cand = online_items[indices]
                prior = stamps[cand]
                values = np.arange(serial + width - 1, serial - 1, -1)
                serial += width
                np.maximum.at(stamps, cand, values)
                first = stamps[cand] == values
                keep = first & (prior < floor)
                if check_quota:
                    keep &= quota_used[cand] < quota
                fresh_pos = keep.nonzero()[0]
                n_fresh = len(fresh_pos)
                # Acceptance uniforms for the fresh candidates, in order:
                # the first chunk's are mandatory (refill allowed, as in
                # the one-chunk loop); the rest only as far as the
                # current block reaches.
                if windowed:
                    positions = fresh_pos.tolist()
                    first_fresh = bisect_left(positions, chunk)
                else:
                    first_fresh = n_fresh
                left = acceptance.available()
                peeked = windowed and draws * first_fresh <= left
                if peeked:
                    n_eval = min(n_fresh, left // draws) if draws else n_fresh
                    acc_uniforms = acceptance.peek(draws * n_eval)
                else:
                    n_eval = first_fresh
                    acc_uniforms = acceptance.take_array(draws * n_eval)
                fresh = cand[fresh_pos[:n_eval]]
                ages = now - join_np[fresh]  # candidates are never observers
                hits = accepts(owner_age, ages, acc_uniforms).nonzero()[0]
                if windowed:
                    hit_list = hits.tolist()
                # Walk the one-chunk loop's boundaries through the pass:
                # a plain chunk is one step.  In a window the first chunk
                # always fits; a later one is consumed only if it lies
                # inside it and its fresh candidates were evaluated.
                end = 0
                fresh_end = 0
                hit_end = 0
                while True:
                    stop = end + chunk
                    if not windowed:
                        chunk_fresh, chunk_hits = n_fresh, len(hits)
                    else:
                        chunk_fresh = bisect_left(positions, stop, fresh_end)
                        if chunk_fresh > n_eval:
                            break
                        chunk_hits = bisect_left(hit_list, chunk_fresh, hit_end)
                    sample_budget -= chunk
                    end = stop
                    if chunk_hits - hit_end >= needed:
                        # Evaluation stops at the acceptance that fills
                        # the pool, although the draws cover the chunk.
                        hit_end += needed
                        examined += int(hits[hit_end - 1]) - fresh_end + 1
                        n_accepted += needed
                        fresh_end = chunk_fresh
                        break
                    examined += chunk_fresh - fresh_end
                    n_accepted += chunk_hits - hit_end
                    hit_end = chunk_hits
                    fresh_end = chunk_fresh
                    if not windowed or sample_budget <= 0 or examined >= max_examined:
                        break
                    needed = target_size - n_accepted
                    chunk = pool_chunk_size(needed)
                    if chunk > sample_budget:
                        chunk = sample_budget
                    if end + chunk > width:
                        break
                if windowed:
                    selection.advance(end)
                    if end < width:
                        tail_first = first[end:]
                        stamps[cand[end:][tail_first]] = prior[end:][tail_first]
                if peeked:
                    acceptance.advance(draws * fresh_end)
                if hit_end:
                    taken = hits[:hit_end]
                    accepted_ids.append(fresh[taken])
                    accepted_ages.append(ages[taken])
                continuing = True
            self._pool_serial = serial
        self.metrics.record_pool(examined, n_accepted)
        if len(accepted_ids) == 1:
            return accepted_ids[0], accepted_ages[0]
        if not accepted_ids:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(accepted_ids), np.concatenate(accepted_ages)

    def _availability(self, ids: np.ndarray, now: int) -> np.ndarray:
        """Measured uptime fraction of each id (NaN before its first round)."""
        state = self.state
        measured = []
        for peer_id in ids.tolist():
            span = now - state.join[peer_id]
            uptime = state.online_rounds[peer_id]
            if state.online[peer_id]:
                uptime += now - state.last_state_change[peer_id]
            measured.append(min(uptime / span, 1.0) if span > 0 else math.nan)
        return np.array(measured, dtype=np.float64)

    def _remaining(self, ids: np.ndarray, now: int) -> np.ndarray:
        """True remaining lifetime of each id (``inf`` for durable peers)."""
        death = self.state.death
        return np.array(
            [
                math.inf if death[peer_id] is None else max(death[peer_id] - now, 0)
                for peer_id in ids.tolist()
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------
    # Census
    # ------------------------------------------------------------------
    def _handle_sample(self, now: int) -> None:
        counts = self.state.census_counts(now, self._census_uppers)
        population = dict(zip(self._category_names, counts.tolist()))
        self.metrics.sample_counts(now, population, self.config.sample_interval)
        self._census_extras(now)
        upcoming = now + self.config.sample_interval
        if upcoming <= self.config.rounds:
            self.queue.schedule(upcoming, _SAMPLE)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self):
        """Execute the configured number of rounds and return the result."""
        import time

        from .engine import SimulationResult

        started = time.perf_counter()
        queue = self.queue
        last_round = self.config.rounds
        toggle_batch = int(EventKind.TOGGLE_BATCH)
        check = int(_CHECK)
        join = int(_JOIN)
        death = int(_DEATH)
        sample = int(_SAMPLE)
        top_up = int(_TOP_UP)
        pop_until = queue.pop_until
        while True:
            item = pop_until(last_round)
            if item is None:
                break
            now, key = item
            self.round = now
            kind = key >> KIND_SHIFT
            if kind == toggle_batch:
                self._process_toggle_batch(now, queue.pop_round_batch())
            elif kind == check:
                self._handle_check(now, ((key >> PEER_SHIFT) & PEER_MASK) - 1)
            elif kind == join:
                self._spawn_peer(now)
            elif kind == death:
                self._handle_death(now, ((key >> PEER_SHIFT) & PEER_MASK) - 1)
            elif kind == sample:
                self._handle_sample(now)
            elif kind == top_up:
                self._handle_top_up(now, ((key >> PEER_SHIFT) & PEER_MASK) - 1)
            else:
                self._dispatch_extra(now, key)
        self._finalize()
        elapsed = time.perf_counter() - started
        return SimulationResult(
            config=self.config,
            metrics=self.metrics,
            final_round=self.config.rounds,
            wall_clock_seconds=elapsed,
            peers_created=self.peers_created,
            deaths=self.deaths,
        )

    # ------------------------------------------------------------------
    # Consistency audit (used by integration and property tests)
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Recompute all incremental columns from scratch; return violations.

        Array passes over both link tables find every peer that breaks
        an invariant (a pair missing from either table, a duplicate, a
        dead end, a counter or an online-index entry that disagrees with
        its recount); only those peers are then walked one by one to
        name each fault.  The cost is a sort of the links, not a row
        scan per link.
        """
        state = self.state
        count = state.count
        peer_ids = np.arange(count, dtype=np.int64)
        alive = np.array(state.alive, dtype=bool)
        online = np.array(state.online, dtype=bool)
        suspect = np.zeros(count, dtype=bool)
        # Forward pairs (owner, holder) from the holder rows: recount
        # ``visible``, then key them.
        forward_len = np.fromiter(map(len, state.holders), np.int64, count)
        holders = np.fromiter(
            chain.from_iterable(state.holders), np.int64, forward_len.sum()
        )
        owners = np.repeat(peer_ids, forward_len)
        counted = alive[holders] & online[holders]
        visible = np.bincount(owners[counted], minlength=count)
        suspect |= visible != np.asarray(state.visible[:count])
        forward_keys = _pair_keys(owners, holders, alive, suspect)
        # Reverse pairs (owner read from a holder's row, holder):
        # recount the quota, then key them.
        owners, reverse_len = state.reverse_links()
        holders = np.repeat(peer_ids, reverse_len)
        counted = alive[owners] & (owners >= state.n_observers)
        quota_links = np.bincount(holders[counted], minlength=count)
        suspect |= quota_links != state.quota_used[:count]
        suspect |= quota_links > self.config.quota
        reverse_keys = _pair_keys(owners, holders, alive, suspect)
        del owners, holders, counted
        # A pair the other table lacks, or a repeated pair, flags both ends.
        for keys, other in (
            (forward_keys, reverse_keys),
            (reverse_keys, forward_keys),
        ):
            bad = ~_sorted_contains(other, keys)
            repeated = keys[1:] == keys[:-1]
            bad[1:] |= repeated
            bad[:-1] |= repeated
            for end in np.divmod(keys[bad], count):
                suspect[end] = True
        indexed = np.array(self._online_pos, dtype=np.int64) >= 0
        suspect |= indexed != (online & (peer_ids >= state.n_observers))
        problems: List[str] = []
        for peer_id in suspect.nonzero()[0].tolist():
            problems.extend(self._audit_peer(peer_id))
        return problems

    def _audit_peer(self, peer_id: int) -> List[str]:
        """Every invariant violation of one peer, as ``audit`` names them."""
        problems: List[str] = []
        state = self.state
        n_observers = state.n_observers
        quota = self.config.quota
        online_indexed = self._online_pos[peer_id] >= 0
        own_row = [int(owner_id) for owner_id in state.owners_row(peer_id)]
        if not state.alive[peer_id]:
            if state.holders[peer_id]:
                problems.append(f"peer {peer_id}: dead but still owns links")
            if own_row:
                problems.append(f"peer {peer_id}: dead but still hosts links")
            if online_indexed:
                problems.append(
                    f"peer {peer_id}: online index mismatch "
                    f"(indexed=True, online=False)"
                )
            return problems
        row = state.holders[peer_id]
        if len(set(row)) != len(row):
            problems.append(f"peer {peer_id}: duplicate holders in row")
        visible = 0
        for holder_id in row:
            if not state.alive[holder_id]:
                problems.append(f"peer {peer_id}: holder {holder_id} is dead")
                continue
            if state.online[holder_id]:
                visible += 1
            if peer_id not in list(state.owners_row(holder_id)):
                problems.append(
                    f"peer {peer_id}: holder {holder_id} misses back-link"
                )
        if visible != state.visible[peer_id]:
            problems.append(
                f"peer {peer_id}: visible counter {state.visible[peer_id]} "
                f"!= recount {visible}"
            )
        if len(set(own_row)) != len(own_row):
            problems.append(f"peer {peer_id}: duplicate owners in row")
        quota_links = 0
        for owner_id in own_row:
            if not state.alive[owner_id]:
                problems.append(f"peer {peer_id}: hosts for dead owner {owner_id}")
                continue
            if peer_id not in state.holders[owner_id]:
                problems.append(
                    f"peer {peer_id}: hosts for {owner_id} without forward link"
                )
            if owner_id >= n_observers:
                quota_links += 1
        if quota_links != state.quota_used[peer_id]:
            problems.append(
                f"peer {peer_id}: quota counter {state.quota_used[peer_id]} "
                f"!= recount {quota_links}"
            )
        if quota_links > quota:
            problems.append(
                f"peer {peer_id}: quota exceeded ({quota_links} > {quota})"
            )
        should_index = bool(state.online[peer_id] and peer_id >= n_observers)
        if online_indexed != should_index:
            problems.append(
                f"peer {peer_id}: online index mismatch "
                f"(indexed={online_indexed}, online={should_index})"
            )
        return problems
