"""The ``abstract_soa`` fidelity backend, the default engine.

Peers are structure-of-arrays columns (:mod:`repro.sim.soa_state`) and
block placements are two ragged adjacency tables; repairs, placements
and proactive top-ups execute as instantaneous state flips.  It draws
from the same named RNG streams, in the same order, as the object-graph
driver behind the ``protocol`` fidelity
(:class:`repro.sim.driver.SimulationDriver`), so both fidelities of one
config share their churn trajectory.  Its results are pinned by the
committed golden digests in ``tests/golden/results.json``
(``scripts/record_goldens.py`` regenerates them).

Why it is faster than the object-graph driver (the layout that makes
10^6-peer populations fit in memory, and sub-second ``paper``
default-scale runs):

* session toggles — the dominant event kind — are not dispatched one
  event at a time: the queue keeps each round's toggles in a dense
  per-round id bucket (:meth:`repro.sim.events.EventQueue.pop_round_batch`)
  and :meth:`_process_toggle_batch` runs the whole round as array
  passes — one CSR gather of every affected owner
  (:meth:`repro.sim.soa_state.StateTables.owners_concat`), one
  scatter-add on the ``visible`` column, one masked threshold compare,
  and one vectorised geometric draw for all reschedules
  (:func:`repro.sim.rng.geometric_from_uniforms`);
* the remaining scalar handlers (checks, deaths, repair bookkeeping)
  touch C-backed list slots instead of attribute-walking three heap
  objects per peer;
* the recruitment loop inlines the :class:`repro.sim.rng.BatchedDraws`
  buffer arithmetic (one bounds check + one index per draw, no method
  calls) while consuming the exact same draw sequence;
* the periodic census is one vectorised mask/searchsorted/bincount over
  the numpy mirror columns instead of a Python loop over every peer;
* per-peer ``SessionProcess``/lifetime/``Event`` objects are replaced
  by per-profile constants and bare ids in the queue's toggle buckets —
  the draws are issued in the same order, from the same streams.

The shared trajectory leans on two properties: the event queue
canonicalises each round's bucket before shuffling
(:meth:`repro.sim.events.EventQueue._activate`), so execution order
depends only on bucket *content*; and the batched toggle kernel is the
same six fixed passes here and in
:meth:`repro.sim.driver.SimulationDriver._process_toggle_batch`, so
the flips, checks and duration draws happen in the identical order.

Protocol-level runs use :mod:`repro.sim.protocol`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..core.acceptance import (
    AcceptancePolicy,
    UniformAcceptancePolicy,
    acceptance_rule,
)
from ..churn.availability import session_duration_params
from ..core.adaptive import AdaptiveThreshold
from ..core.selection import Candidate, strategy_by_name
from .config import SimulationConfig
from .events import Event, EventKind, EventQueue
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


@FIDELITY_BACKENDS.register("abstract_soa")
class SoaSimulation:
    """The default fidelity: instantaneous repairs over state tables."""

    fidelity = "abstract_soa"

    #: population cut-over for the vectorised toggle-kernel branch
    #: (class attribute so tests can force either branch on micro
    #: populations).
    _VECTOR_POPULATION = 50_000

    #: pool-size cut-over between the scalar and vectorised pool fills
    #: (both are draw-identical, so the cut is purely a speed knob).
    #: Measured at default scale: numpy dispatch overhead loses to the
    #: scalar loop for every ordinary pool size, so only swarm-scale
    #: populations (which take the vector kernel anyway) fill with
    #: arrays.
    _SCALAR_POOL_TARGET = 64

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
        self._profile_weights = [p.proportion for p in config.profiles]
        self._needs_oracle = bool(getattr(self.strategy, "needs_oracle", False))
        self._needs_availability = bool(
            getattr(self.strategy, "needs_availability", False)
        )
        self._fast_candidates = not (self._needs_oracle or self._needs_availability)
        if type(self.acceptance) is AcceptancePolicy:
            self._acceptance_kind = "age"
        elif type(self.acceptance) is UniformAcceptancePolicy:
            self._acceptance_kind = "uniform"
        else:
            self._acceptance_kind = "custom"
        self._repair_threshold = self.policy.repair_threshold
        self._n = self.policy.n
        self._k = self.policy.k
        self._selection_draws = self.rng.batched("selection")
        self._acceptance_draws = self.rng.batched("acceptance")
        # Per-profile session/lifetime constants, replacing the per-peer
        # SessionProcess / LifetimeDistribution objects.  The log1p(-p)
        # terms feed the batched duration draw (shared with the driver
        # via session_duration_params — NaN means "mean <= 1 round,
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
        # branch (CSR gather + scatter-add over numpy columns); below
        # it, per-round batches are a handful of peers and the scalar
        # branch over list columns is faster.  Both branches execute
        # the identical passes, so the cut is invisible to results.
        self._vector_kernel = config.population >= self._VECTOR_POPULATION
        # The online candidate index: a replica of the driver's
        # ``SampleableSet`` (same swap-pop updates, therefore the
        # identical item layout at every step — sampling must read the
        # same ids for the same draws).  Adaptive like the state
        # columns: a numpy array at swarm scale, where the pool fill
        # gathers whole candidate chunks in one fancy index; a plain
        # list below it, where scalar indexing dominates.
        capacity = config.population + len(config.observers) + 16
        if self._vector_kernel:
            self._online_items = np.zeros(capacity, dtype=np.int64)
        else:
            self._online_items = []
        self._online_size = 0
        self._online_pos: List[int] = []
        #: scratch column for the pool fill's skip-set (all False
        #: between fills; see ``_fill_pool_fast``).
        self._pool_marks = np.zeros(capacity, dtype=bool)
        self.state = StateTables(
            initial_capacity=capacity, vector_columns=self._vector_kernel
        )
        # Hot-path caches.  Events are frozen value objects, so reusing
        # one instance per (kind, peer) is invisible to the queue; the
        # bound methods skip RngStreams.__getattr__ on every draw; the
        # uptime fold only matters when a selection strategy actually
        # reads availability.
        self._geometric = self.rng.sessions.geometric
        self._session_draws = self.rng.batched("sessions")
        self._profile_choice = self.rng.profiles.choice
        self._lifetime_uniform = self.rng.lifetimes.uniform
        self._track_uptime = self._needs_availability
        self._join_event = Event(EventKind.JOIN)
        self._sample_event = Event(EventKind.SAMPLE)
        #: per-peer reusable check events, indexed by peer id (ids are
        #: dense).  Toggles need no Event objects at all: the queue's
        #: dense toggle lane files bare ids.
        self._check_events: List[Event] = []
        self._setup()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        config = self.config
        state = self.state
        for _ in range(config.population):
            if config.staggered_join_rounds:
                join_round = int(
                    self.rng.placement.integers(config.staggered_join_rounds)
                )
            else:
                join_round = 0
            self.queue.schedule(join_round, self._join_event)
        for spec in config.observers:
            peer_id = state.add_observer(spec.fixed_age, spec.name)
            self._check_events.append(Event(EventKind.REPAIR_CHECK, peer_id))
            self._online_pos.append(-1)  # observers are never candidates
            if self._adaptive is not None:
                self._adaptive[peer_id] = AdaptiveThreshold(self.policy)
            self._schedule_check(peer_id, 0)
        self.queue.schedule(0, self._sample_event)

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
        """Mirror of ``SampleableSet.add`` on the adaptive index."""
        if self._online_pos[peer_id] >= 0:
            return
        size = self._online_size
        items = self._online_items
        if self._vector_kernel:
            if size >= len(items):
                bigger = np.zeros(len(items) * 2, dtype=np.int64)
                bigger[:size] = items
                self._online_items = items = bigger
            items[size] = peer_id
        else:
            items.append(peer_id)
        self._online_pos[peer_id] = size
        self._online_size = size + 1

    def _online_discard(self, peer_id: int) -> None:
        """Mirror of ``SampleableSet.discard`` (swap with the tail)."""
        position = self._online_pos[peer_id]
        if position < 0:
            return
        size = self._online_size - 1
        items = self._online_items
        if self._vector_kernel:
            tail = int(items[size])
            if tail != peer_id:
                items[position] = tail
                self._online_pos[tail] = position
        else:
            tail = items.pop()
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
            self.queue.cancel(state.check_handle[peer_id])
        state.check_scheduled[peer_id] = when
        state.check_handle[peer_id] = self.queue.schedule(
            when, self._check_events[peer_id]
        )

    def _schedule_toggle(self, peer_id: int, now: int) -> None:
        """File a fresh peer's first toggle (spawn-time, scalar draw).

        Mirrors ``SimulationDriver._schedule_toggle``: the one scalar
        geometric left on the ``sessions`` generator, interleaving with
        the batched refills identically in both backends.
        """
        params = self._session_params[self.state.profile[peer_id]]
        if params[0]:
            return  # always online: no session process
        p = params[1]
        duration = 1 if p is None else int(self._geometric(p))
        self.queue.schedule_toggle(now + duration, peer_id)

    def _schedule_top_up(self, peer_id: int, now: int) -> None:
        interval = max(int(round(1.0 / self.config.proactive_rate)), 1)
        self.queue.schedule(now + interval, Event(EventKind.TOP_UP, peer_id))

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def _spawn_peer(self, now: int) -> int:
        config = self.config
        index = int(
            self._profile_choice(len(config.profiles), p=self._profile_weights)
        )
        lifetime_bounds = self._session_params[index][2]
        death_round: Optional[int] = None
        if lifetime_bounds is not None:
            lifetime = float(
                self._lifetime_uniform(lifetime_bounds[0], lifetime_bounds[1])
            )
            death_round = now + max(int(lifetime), 1)
        peer_id = self.state.add_peer(index, now, death_round)
        self._check_events.append(Event(EventKind.REPAIR_CHECK, peer_id))
        self._online_pos.append(-1)
        self.peers_created += 1
        self._online_add(peer_id)
        if self._adaptive is not None:
            self._adaptive[peer_id] = AdaptiveThreshold(self.policy)
        if death_round is not None:
            self.queue.schedule(death_round, Event(EventKind.DEATH, peer_id))
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
        quota_used = state.quota_used

        # The departed peer's own blocks disappear from its partners
        # (the dying peer is never an observer, so its links all counted
        # against their holders' quotas).
        row = holders[peer_id]
        if row:
            state.quota_np[row] -= 1
        for holder_id in row:
            state.owners_remove(holder_id, peer_id)
            quota_used[holder_id] -= 1
        row.clear()

        # Blocks it hosted for others vanish "immediately" (section 4.1):
        # detach every link first, then evaluate loss/threshold once per
        # owner against its final post-death counters.
        visible = state.visible
        affected = state.owners_clear(peer_id)
        if was_online:
            for owner_id in affected:
                holders[owner_id].remove(peer_id)
                visible[owner_id] -= 1
        else:
            for owner_id in affected:
                holders[owner_id].remove(peer_id)
        for owner_id in affected:
            self._after_block_loss(owner_id, now)

        # Immediate replacement by a fresh peer (section 4.1).
        self.queue.schedule(now, self._join_event)

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
        row = state.holders[owner_id]
        if owner_id < state.n_observers:
            for holder_id in row:
                state.owners_remove(holder_id, owner_id)
        else:
            quota_used = state.quota_used
            if row:
                state.quota_np[row] -= 1
            for holder_id in row:
                state.owners_remove(holder_id, owner_id)
                quota_used[holder_id] -= 1
        row.clear()
        state.visible[owner_id] = 0
        state.placed[owner_id] = 0
        state.fully_placed[owner_id] = 0
        # The user still has local data to back up again: a fresh
        # placement follows (next round at the earliest).
        self._schedule_check(owner_id, now + 1)

    # ------------------------------------------------------------------
    # Session toggles (the most frequent event kind, batched per round)
    # ------------------------------------------------------------------
    def _process_toggle_batch(self, now: int, peer_ids: np.ndarray) -> None:
        """Flip every session toggling this round in one batched pass.

        The same six fixed passes as
        ``SimulationDriver._process_toggle_batch`` — dead filter, state
        flips, visibility fan-out, owner threshold checks on final
        counts, self-service checks, bulk duration draw — but the
        fan-out is one CSR gather + scatter-add and the threshold scan
        one masked compare instead of per-owner Python loops.
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
        # Duration lists are accumulated during the flip pass (same
        # ascending batch order as the driver's separate pass, so the
        # bulk draw below consumes identical uniforms); the draws
        # themselves still happen only after every flip has landed.
        need_ids: List[int] = []
        need_log: List[float] = []
        ones_ids: List[int] = []
        for peer_id in peer_ids.tolist():
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
        # scalar loops over the CSR rows beat array machinery; large
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
                owners = np.unique(off_owners)
                if adaptive is None:
                    hits = owners[
                        (placed[owners] != 0)
                        & (visible[owners] < self._repair_threshold)
                    ]
                    for owner_id in hits.tolist():
                        self._schedule_check(owner_id, now + 1)
                else:
                    for owner_id in owners.tolist():
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
        # Bulk reschedule: one uniform per non-degenerate duration, in
        # batch (ascending id) order, inverted through the shared
        # geometric kernel.  Means <= 1 round clamp to a single round
        # without consuming a draw, mirroring the scalar path.
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
        state.check_handle[peer_id] = None
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
        state = self.state
        row = state.holders[owner_id]
        needed = self._n - len(row)
        if needed > 0:
            self._recruit(owner_id, now, needed)
        if len(row) >= self._n:
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
        if dropped:
            quota_free = owner_id < state.n_observers
            quota_used = state.quota_used
            quota_np = state.quota_np
            for holder_id in dropped:
                row.remove(holder_id)
                state.owners_remove(holder_id, owner_id)
                if not quota_free:
                    quota_used[holder_id] -= 1
                    quota_np[holder_id] -= 1
        needed = self._n - len(row)
        recruited = self._recruit(owner_id, now, needed) if needed > 0 else 0
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
        if len(row) >= self._n:
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
        state = self.state
        check_quota = owner_id >= state.n_observers
        quota = self.config.quota
        quota_used = state.quota_used
        row = state.holders[owner_id]
        added = 0
        for candidate_id in chosen:
            # Quota could have filled between sampling and selection.
            if check_quota and quota_used[candidate_id] >= quota:
                continue
            row.append(candidate_id)
            state.visible[owner_id] += 1
            state.owners_append(candidate_id, owner_id)
            if check_quota:
                quota_used[candidate_id] += 1
                state.quota_np[candidate_id] += 1
            added += 1
        return added

    def _select_candidates(self, owner_id: int, now: int, needed: int) -> List[int]:
        pool_target = int(math.ceil(self.config.pool_factor * needed))
        max_examined = int(self.config.max_examined_factor * needed) + 16
        if self._fast_candidates and self._acceptance_kind != "custom":
            # Small pools sample a few dozen candidates per chunk, where
            # the vectorised fill's array machinery costs more than
            # scalar evaluation; route them to its draw-identical
            # scalar twin.  Larger pools (hundreds of samples) amortise
            # the array dispatch and stay on the vector fill.
            if pool_target < self._SCALAR_POOL_TARGET and not self._vector_kernel:
                pool = self._fill_pool_small(
                    owner_id, now, pool_target, max_examined
                )
            else:
                pool = self._fill_pool_fast(
                    owner_id, now, pool_target, max_examined
                )
            return self.strategy.select_pairs(pool, needed, self.rng.selection)
        pool = self._fill_pool_generic(owner_id, now, pool_target, max_examined)
        if self._fast_candidates:
            return self.strategy.select_pairs(pool, needed, self.rng.selection)
        return self.strategy.select(pool, needed, self.rng.selection)

    def _fill_pool_fast(
        self, owner_id: int, now: int, target_size: int, max_examined: int
    ):
        """Swarm-scale recruitment: whole chunks as array operations.

        Replays ``SimulationDriver._fill_pool`` draw for draw — same
        chunk sizes from the same ``BatchedDraws`` buffers — but the
        dedup, the eligibility filters and the mutual-acceptance
        comparisons run once per chunk as numpy expressions instead of
        once per candidate as interpreted bytecode.  The acceptance
        expressions keep the driver's exact operation order, so the
        IEEE-754 results (and therefore the accepted set) are
        bit-identical.
        """
        state = self.state
        n_online = self._online_size
        accepted: List = []
        examined = 0
        if n_online:
            selection_take = self._selection_draws.take_array
            acceptance_take = self._acceptance_draws.take_array
            online_items = self._online_items
            if not self._vector_kernel:
                # The adaptive online index is a list at this scale;
                # one bulk conversion per fill keeps the chunk gathers
                # below as fancy indexes.
                online_items = np.array(online_items, dtype=np.int64)
            sample_budget = 8 * n_online + 64
            owner_age = self._age(owner_id, now)
            holder_row = state.holders[owner_id]
            check_quota = owner_id >= state.n_observers
            quota = self.config.quota
            join_np = state._join_np
            quota_np = state.quota_np
            by_age = self._acceptance_kind == "age"
            if by_age:
                cap = self.acceptance.age_cap
                s_owner = owner_age if owner_age < cap else cap
            # One reusable boolean column marks every id this fill must
            # skip — the owner, current holders, and every id already
            # sampled this fill (the driver's `seen` set).  A gather
            # against it replaces per-chunk np.isin sort-merges; the
            # marks are unset before returning so the column stays
            # all-False between fills.
            marks = self._pool_marks
            if len(marks) < state.count:
                grown = np.zeros(
                    max(len(marks) * 2, state.count), dtype=bool
                )
                grown[: len(marks)] = marks
                marks = self._pool_marks = grown
            marks[holder_row] = True
            marks[owner_id] = True
            chunks: List[np.ndarray] = []
            while (
                sample_budget > 0
                and examined < max_examined
                and len(accepted) < target_size
            ):
                needed = target_size - len(accepted)
                chunk_size = pool_chunk_size(needed)
                if chunk_size > sample_budget:
                    chunk_size = sample_budget
                sample_budget -= chunk_size
                uniforms = selection_take(chunk_size)
                indices = (uniforms * n_online).astype(np.intp)
                np.minimum(indices, n_online - 1, out=indices)
                cand = online_items[indices]
                chunks.append(cand)
                # First occurrence within the chunk: stable-sort the
                # ids, flag positions whose sorted neighbour differs,
                # scatter the flags back (np.unique minus its wrapper).
                order = cand.argsort(kind="stable")
                sorted_cand = cand[order]
                first_sorted = np.empty(len(cand), dtype=bool)
                first_sorted[0] = True
                np.not_equal(
                    sorted_cand[1:], sorted_cand[:-1], out=first_sorted[1:]
                )
                keep = np.empty(len(cand), dtype=bool)
                keep[order] = first_sorted
                keep &= ~marks[cand]
                if check_quota:
                    keep &= quota_np[cand] < quota
                marks[cand] = True
                fresh = cand[keep]
                ages = now - join_np[fresh]  # candidates are never observers
                if by_age:
                    # Inlined AcceptancePolicy: accept iff
                    # u < (L - s1 + s2 + 1)/L (min(p, 1) is free, u < 1).
                    # The scalar terms are pre-folded; all-integer
                    # arithmetic, so the driver's evaluation order gives
                    # bit-identical right-hand sides.
                    pairs = acceptance_take(2 * len(fresh))
                    s_cand = np.minimum(ages, cap)
                    ok = (pairs[0::2] * cap < s_cand + (cap - s_owner + 1)) & (
                        pairs[1::2] * cap < (cap + s_owner + 1) - s_cand
                    )
                    # Evaluation stops at the candidate that fills the
                    # pool (the driver breaks out of its scalar loop
                    # there), so `examined` keeps one-at-a-time
                    # semantics although the draws cover the chunk.
                    cum = np.cumsum(ok)
                    if len(cum) and cum[-1] >= needed:
                        cut = int(np.searchsorted(cum, needed)) + 1
                        examined += cut
                        ok = ok[:cut]
                        fresh = fresh[:cut]
                        ages = ages[:cut]
                    else:
                        examined += len(fresh)
                    fresh = fresh[ok]
                    ages = ages[ok]
                else:
                    if len(fresh) > needed:
                        fresh = fresh[:needed]
                        ages = ages[:needed]
                    examined += len(fresh)
                accepted.extend(zip(fresh.tolist(), ages.tolist()))
            marks[holder_row] = False
            marks[owner_id] = False
            for cand in chunks:
                marks[cand] = False
        self.metrics.record_pool(examined, len(accepted))
        return accepted

    def _fill_pool_small(
        self, owner_id: int, now: int, target_size: int, max_examined: int
    ):
        """Scalar twin of ``_fill_pool_fast`` for sub-vector populations.

        Identical draw consumption and acceptance arithmetic — same
        chunk sizes from the same ``BatchedDraws`` buffers, the same
        pre-folded integer acceptance bound — but evaluated candidate
        by candidate: at a few hundred samples per chunk the numpy
        dedup/filter/cumsum pipeline costs more than the loop it
        replaces.  Scalar-kernel mode only (``_online_items`` must be
        the list representation).
        """
        state = self.state
        n_online = self._online_size
        accepted: List = []
        examined = 0
        if n_online:
            selection_take = self._selection_draws.take
            acceptance_take = self._acceptance_draws.take
            online_items = self._online_items
            sample_budget = 8 * n_online + 64
            check_quota = owner_id >= state.n_observers
            quota = self.config.quota
            quota_used = state.quota_used
            join = state.join
            by_age = self._acceptance_kind == "age"
            if by_age:
                cap = self.acceptance.age_cap
                owner_age = self._age(owner_id, now)
                s_owner = owner_age if owner_age < cap else cap
            seen = set(state.holders[owner_id])
            seen.add(owner_id)
            last = n_online - 1
            while (
                sample_budget > 0
                and examined < max_examined
                and len(accepted) < target_size
            ):
                chunk_size = pool_chunk_size(target_size - len(accepted))
                if chunk_size > sample_budget:
                    chunk_size = sample_budget
                sample_budget -= chunk_size
                fresh: List[int] = []
                for u in selection_take(chunk_size):
                    index = int(u * n_online)
                    candidate_id = online_items[index if index < last else last]
                    if candidate_id in seen:
                        continue
                    seen.add(candidate_id)
                    if check_quota and quota_used[candidate_id] >= quota:
                        continue
                    fresh.append(candidate_id)
                if by_age:
                    pairs = acceptance_take(2 * len(fresh))
                    for position, candidate_id in enumerate(fresh):
                        if len(accepted) >= target_size:
                            break
                        examined += 1
                        age = now - join[candidate_id]
                        s_cand = age if age < cap else cap
                        if pairs[2 * position] * cap >= s_cand + (
                            cap - s_owner + 1
                        ):
                            continue
                        if pairs[2 * position + 1] * cap >= (
                            cap + s_owner + 1
                        ) - s_cand:
                            continue
                        accepted.append((candidate_id, age))
                else:
                    for candidate_id in fresh:
                        if len(accepted) >= target_size:
                            break
                        examined += 1
                        accepted.append((candidate_id, now - join[candidate_id]))
        self.metrics.record_pool(examined, len(accepted))
        return accepted

    def _fill_pool_generic(
        self, owner_id: int, now: int, target_size: int, max_examined: int
    ):
        """Cold-path pool fill for custom rules / data-needing strategies.

        A column-level mirror of ``SimulationDriver._fill_pool``: same
        chunk sizes, same draw consumption (two acceptance uniforms per
        examined candidate, unconditionally), scalar evaluation.
        """
        state = self.state
        selection = self._selection_draws
        acceptance = self._acceptance_draws
        seen = set()
        accepted = []
        examined = 0
        if self._online_size:
            sample_budget = 8 * self._online_size + 64
            owner_age = self._age(owner_id, now)
            holder_set = set(state.holders[owner_id])
            check_quota = owner_id >= state.n_observers
            quota = self.config.quota
            quota_used = state.quota_used
            join = state.join
            fast = self._fast_candidates
            rule = self._acceptance_kind
            if rule == "age":
                cap = self.acceptance.age_cap
                s_owner = owner_age if owner_age < cap else cap
            while (
                sample_budget > 0
                and examined < max_examined
                and len(accepted) < target_size
            ):
                chunk_size = pool_chunk_size(target_size - len(accepted))
                if chunk_size > sample_budget:
                    chunk_size = sample_budget
                sample_budget -= chunk_size
                if self._vector_kernel:
                    items = self._online_items[: self._online_size].tolist()
                else:
                    items = self._online_items
                n_items = len(items)
                chunk = []
                for u in selection.take(chunk_size):
                    index = int(u * n_items)
                    chunk.append(items[index if index < n_items else n_items - 1])
                fresh = []
                for candidate_id in chunk:
                    if candidate_id in seen:
                        continue
                    seen.add(candidate_id)
                    if candidate_id == owner_id or candidate_id in holder_set:
                        continue
                    if check_quota and quota_used[candidate_id] >= quota:
                        continue
                    fresh.append(candidate_id)
                pairs = (
                    acceptance.take(2 * len(fresh)) if rule != "uniform" else ()
                )
                for position, candidate_id in enumerate(fresh):
                    if len(accepted) >= target_size:
                        break
                    examined += 1
                    age = now - join[candidate_id]
                    if rule == "age":
                        s_cand = age if age < cap else cap
                        if pairs[2 * position] * cap >= cap - s_owner + s_cand + 1:
                            continue
                        if (
                            pairs[2 * position + 1] * cap
                            >= cap - s_cand + s_owner + 1
                        ):
                            continue
                    elif rule != "uniform":
                        decide = self.acceptance.decide
                        if not decide(owner_age, age, pairs[2 * position]):
                            continue
                        if not decide(age, owner_age, pairs[2 * position + 1]):
                            continue
                    if fast:
                        accepted.append((candidate_id, age))
                    else:
                        accepted.append(self._describe_candidate(candidate_id))
        del accepted[target_size:]
        self.metrics.record_pool(examined, len(accepted))
        return accepted

    def _describe_candidate(self, candidate_id: int) -> Candidate:
        state = self.state
        now = self.round
        availability = None
        remaining = None
        if self._needs_availability:
            span = now - state.join[candidate_id]
            if span > 0:
                online_rounds = state.online_rounds[candidate_id]
                if state.online[candidate_id]:
                    online_rounds += now - state.last_state_change[candidate_id]
                availability = min(online_rounds / span, 1.0)
        if self._needs_oracle:
            death_round = state.death[candidate_id]
            remaining = (
                math.inf
                if death_round is None
                else float(max(death_round - now, 0))
            )
        return Candidate(
            peer_id=candidate_id,
            age=self._age(candidate_id, now),
            availability=availability,
            true_remaining_lifetime=remaining,
        )

    # ------------------------------------------------------------------
    # Census
    # ------------------------------------------------------------------
    def _handle_sample(self, now: int) -> None:
        counts = self.state.census_counts(now, self._census_uppers)
        population = dict(zip(self._category_names, counts.tolist()))
        self.metrics.sample_counts(now, population, self.config.sample_interval)
        upcoming = now + self.config.sample_interval
        if upcoming <= self.config.rounds:
            self.queue.schedule(upcoming, self._sample_event)

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
        toggle_batch = EventKind.TOGGLE_BATCH
        check = EventKind.REPAIR_CHECK
        join = EventKind.JOIN
        death = EventKind.DEATH
        sample = EventKind.SAMPLE
        top_up = EventKind.TOP_UP
        pop_until = queue.pop_until
        while True:
            item = pop_until(last_round)
            if item is None:
                break
            now, event = item
            self.round = now
            kind = event.kind
            if kind is toggle_batch:
                self._process_toggle_batch(now, queue.pop_round_batch())
            elif kind is check:
                self._handle_check(now, event.peer_id)
            elif kind is join:
                self._spawn_peer(now)
            elif kind is death:
                self._handle_death(now, event.peer_id)
            elif kind is sample:
                self._handle_sample(now)
            elif kind is top_up:
                self._handle_top_up(now, event.peer_id)
            else:  # pragma: no cover - no other kinds are ever scheduled
                raise ValueError(f"unexpected event kind {kind}")
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
    # Consistency audit (mirrors SimulationDriver.audit on the tables)
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Recompute all incremental columns from scratch; return violations."""
        problems: List[str] = []
        state = self.state
        n_observers = state.n_observers
        quota = self.config.quota
        for peer_id in range(state.count):
            if not state.alive[peer_id]:
                if state.holders[peer_id]:
                    problems.append(f"peer {peer_id}: dead but still owns links")
                if len(state.owners_row(peer_id)):
                    problems.append(f"peer {peer_id}: dead but still hosts links")
                continue
            row = state.holders[peer_id]
            if len(set(row)) != len(row):
                problems.append(f"peer {peer_id}: duplicate holders in row")
            visible = 0
            for holder_id in row:
                if not state.alive[holder_id]:
                    problems.append(
                        f"peer {peer_id}: holder {holder_id} is dead"
                    )
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
            own_row = list(state.owners_row(peer_id))
            if len(set(own_row)) != len(own_row):
                problems.append(f"peer {peer_id}: duplicate owners in row")
            quota_links = 0
            for owner_id in own_row:
                if not state.alive[owner_id]:
                    problems.append(
                        f"peer {peer_id}: hosts for dead owner {owner_id}"
                    )
                    continue
                if peer_id not in state.holders[owner_id]:
                    problems.append(
                        f"peer {peer_id}: hosts for {owner_id} without "
                        "forward link"
                    )
                if owner_id >= n_observers:
                    quota_links += 1
            if quota_links != state.quota_used[peer_id]:
                problems.append(
                    f"peer {peer_id}: quota counter {state.quota_used[peer_id]} "
                    f"!= recount {quota_links}"
                )
            if int(state.quota_np[peer_id]) != state.quota_used[peer_id]:
                problems.append(
                    f"peer {peer_id}: quota mirror {int(state.quota_np[peer_id])} "
                    f"!= column {state.quota_used[peer_id]}"
                )
            if quota_links > quota:
                problems.append(
                    f"peer {peer_id}: quota exceeded ({quota_links} > {quota})"
                )
            online_indexed = self._online_pos[peer_id] >= 0
            should_index = bool(
                state.online[peer_id] and peer_id >= n_observers
            )
            if online_indexed != should_index:
                problems.append(
                    f"peer {peer_id}: online index mismatch "
                    f"(indexed={online_indexed}, online={should_index})"
                )
        return problems
