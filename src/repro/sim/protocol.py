"""The protocol fidelity backend: repairs as real message exchanges.

Where the default ``abstract_soa`` engine flips counters, this backend
executes the backup protocol's data plane for every normal peer:

* each peer owns a transport endpoint
  (:class:`repro.net.transport.InMemoryTransport`) and a quota-bounded
  :class:`repro.backup.store.BlockStore` that indexes its blocks by
  owner;
* placements and repairs issue real ``FetchRequest`` / ``StoreRequest``
  exchanges — a repair first downloads ``k`` blocks from visible
  holders, then uploads regenerated blocks to partners recruited
  through the *same* selection strategy and acceptance rule the
  default engine consults;
* transfer completion is gated by the access-link bandwidth model
  (:class:`repro.net.bandwidth.LinkScheduler`): the repair's archive
  links only materialise when its ``TRANSFER_DONE`` event fires, and
  concurrent transfers on one link queue behind each other;
* when configured (``SimulationConfig.fairness_factor``), partners
  refuse to store for peers whose lifetime consumption exceeds the
  factor times their contribution (the section 2.2.1 direct-exchange
  policy, enforced through the backup layer's fairness accounting); the
  pairwise balance of two partners is read from their two stores, not
  kept in a ledger of its own;
* a loss is confirmed by an actual restore attempt — fetch probes to
  the surviving holders — before the archive resets.

Everything upstream of execution — the churn trajectory, RNG streams,
metrics surface, event clock, partner selection and the ``StateTables``
columns that hold every peer and archive — is the default engine's own
(:class:`repro.sim.engine_soa.SoaSimulation`, which this backend
subclasses).  The data plane lives in id-keyed side tables (stores,
manifests, in-flight transfers, retry state, transport endpoints) wired
in through the core's once-per-event seams.  Same-seed
protocol runs are byte-identical after serialization, across repeated
runs, both toggle-kernel branches and all sweep-executor backends.

Deliberate simplifications, documented rather than hidden:

* a stored block is only its key — no message or store carries block
  content; transfer *times* come from the cost model (``archive_bytes
  / k`` per block), not from shipping real megabytes through the heap;
* the transfer occupies the repairing owner's link (the paper's
  owner-centric ``delta_repair = delta_download + delta_upload`` cost
  model); in addition each download source's uplink serves a block, and
  every block leg is priced at the pairwise gated rate ``min(sender
  uplink, receiver downlink)`` — partner downlinks gate uploads;
* exchanges cross the impairment layer
  (``SimulationConfig.impairment_profile``): a dropped exchange loses
  the whole round trip before any recipient-side effect, the sender
  observes a timeout and retries with capped exponential backoff up to
  ``retry_budget`` attempts, then gives up gracefully (the operation
  re-enqueues as an ordinary check);
* observers (the paper's measurement probes) keep the core engine's
  instantaneous path: they are instruments, not workload, and must not
  perturb quota, fairness or bandwidth accounting;
* a holder attached while offline (it left during the transfer) counts
  as invisible from the completion round, not from the round it went
  offline: the grace test reads ``max(last_offline, attach round)``;
* proactive replication (baseline A4) is not supported at this
  fidelity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..backup.fairness import GlobalFairness, exceeds_exchange_debt
from ..backup.store import BlockStore
from ..net.bandwidth import LINK_PROFILES, CostModel, LinkScheduler
from ..net.impairment import IMPAIRMENT_PROFILES
from ..net.message import (
    FetchReply,
    FetchRequest,
    Message,
    ReleaseNotice,
    StoreReply,
    StoreRequest,
)
from ..net.transport import (
    DroppedMessageError,
    InMemoryTransport,
    TransportError,
)
from .config import DEFAULT_FIDELITY, SimulationConfig
from .engine_soa import SoaSimulation
from .events import KIND_SHIFT, EventKind, key_peer
from .fidelity import FIDELITY_BACKENDS

_TRANSFER_DONE = EventKind.TRANSFER_DONE


class _PendingTransfer:
    """One in-flight placement or repair on an owner's access link.

    ``blocks`` maps each recruited holder to the block index it already
    accepted (the negotiation happened at initiation; the *data* is
    what takes time).  Holders that die mid-flight are removed, so at
    completion only surviving recruits become archive links.
    """

    __slots__ = ("owner_id", "kind", "blocks", "transfer", "finish", "key")

    def __init__(self, owner_id, kind, blocks, transfer, finish, key):
        self.owner_id = owner_id
        self.kind = kind  # "placement" | "repair"
        self.blocks: Dict[int, int] = blocks
        self.transfer = transfer
        #: the completion event's round and key (see ``EventQueue.cancel``)
        self.finish = finish
        self.key = key


@FIDELITY_BACKENDS.register("protocol")
class ProtocolSimulation(SoaSimulation):
    """Message-level fidelity over the shared state tables."""

    fidelity = "protocol"

    def __init__(self, config: SimulationConfig):
        if config.proactive_rate > 0:
            raise ValueError(
                "the protocol fidelity backend does not support proactive "
                "replication (proactive_rate > 0); run baseline A4 at "
                f"fidelity {DEFAULT_FIDELITY!r}"
            )
        # Protocol state must exist before the core engine's setup.
        self.transport = InMemoryTransport()
        self.link = LINK_PROFILES.get(config.link_profile)
        self.cost_model = CostModel(
            archive_size=config.archive_bytes,
            data_blocks=config.data_blocks,
            link=self.link,
        )
        self.links = LinkScheduler(round_seconds=config.round_seconds)
        self._stores: Dict[int, BlockStore] = {}
        self._fairness = GlobalFairness()
        #: Lifetime blocks a peer may consume beyond ``factor x
        #: contributed``: one archive's worth, so newcomers can place
        #: their first backup (the bootstrap concern the acceptation
        #: function's 1/L floor addresses at the partnership level).
        self._fairness_grace = config.data_blocks + config.parity_blocks
        self._pending: Dict[int, _PendingTransfer] = {}
        self._pending_by_holder: Dict[int, Set[int]] = {}
        #: owner -> holder -> block index (the owner-side manifest).
        self._manifest: Dict[int, Dict[int, int]] = {}
        self._next_index: Dict[int, int] = {}
        self._messages = 0
        self.impairment = IMPAIRMENT_PROFILES.get(config.impairment_profile)
        #: Exchanges lost to the impairment layer so far (operations
        #: snapshot it to tell a transient timeout from a dead partner).
        self._drop_count = 0
        #: Impairment latency accrued by the current operation's
        #: negotiation exchanges; folded into its transfer finish time.
        self._latency_pool = 0.0
        #: owner -> consecutive timed-out attempts of its current
        #: placement/repair operation (the per-exchange retry budget).
        self._attempts: Dict[int, int] = {}
        #: owner -> holder -> round its link was attached while the
        #: holder was offline (the holder is invisible from then on).
        self._attach_round: Dict[int, Dict[int, int]] = {}
        super().__init__(config)
        # Installed only for non-clean profiles: a clean run never
        # consumes the dedicated "impairment" stream, so pre-impairment
        # trajectories stay byte-identical.
        if not self.impairment.is_clean:
            self.transport.set_impairment(
                self.impairment.sampler(self.rng.batched("impairment"))
            )

    # ------------------------------------------------------------------
    # Messaging plumbing
    # ------------------------------------------------------------------
    def _send(self, message: Message):
        """Deliver one message; returns ``(reply, delivered)``.

        Every failure mode — departed recipient, offline endpoint — is a
        typed :class:`TransportError`, which at this fidelity is the
        moral equivalent of the real system's timeout.  Drops from the
        impairment layer are counted separately (``drops``): they are
        the *transient* timeouts the retry machinery exists for, unlike
        a departed partner which no retry can bring back.
        """
        self._messages += 1
        try:
            reply = self.transport.send(message)
        except DroppedMessageError:
            self._drop_count += 1
            self.metrics.bump("drops")
            return None, False
        except TransportError:
            return None, False
        delay = self.transport.last_delay_seconds
        if delay > 0.0:
            self._latency_pool += delay
            self.metrics.bump("impairment_delay_seconds", delay)
        return reply, True

    def _make_handler(self, peer_id: int) -> Callable[[Message], Optional[Message]]:
        def handle(message: Message) -> Optional[Message]:
            if isinstance(message, StoreRequest):
                return self._handle_store_request(peer_id, message)
            if isinstance(message, FetchRequest):
                store = self._stores[peer_id]
                owner_id, _, archive_id, index = message
                return FetchReply(
                    peer_id, owner_id, archive_id, index,
                    store.holds(owner_id, archive_id, index),
                )
            if isinstance(message, ReleaseNotice):
                self._release_stored(peer_id, message.sender, message.block_index)
                return None
            return None

        return handle

    def _handle_store_request(
        self, holder_id: int, message: StoreRequest
    ) -> StoreReply:
        """Holder-side store decision: fairness, then quota."""
        owner_id = message.sender
        store = self._stores[holder_id]
        reason = None
        factor = self.config.fairness_factor
        if factor is not None:
            # Both accountings of repro.backup.fairness are enforced:
            # the pairwise Samsara-style debt (this holder refuses an
            # owner already deep in direct-exchange debt with it) and
            # the [7]-style global policy (an owner whose lifetime
            # consumption exceeds ``factor x contribution`` plus one
            # archive of bootstrap grace is refused by everyone).  In
            # the one-archive-per-peer topology the global cap is the
            # one that bites; the pairwise cap matters once a pair
            # exchanges several blocks.
            fairness = self._fairness
            if exceeds_exchange_debt(
                *self._exchange_balance(holder_id, owner_id), factor
            ):
                reason = "fairness: pairwise exchange debt exceeded"
            elif (
                fairness.consumed.get(owner_id, 0) + 1
                > factor * fairness.contributed.get(owner_id, 0)
                + self._fairness_grace
            ):
                reason = "fairness: global exchange debt exceeded"
            if reason is not None:
                self.metrics.bump("fairness_refusals")
        if reason is None and not store.can_store():
            self.metrics.bump("store_refusals")
            reason = "quota full"
        if reason is not None:
            return StoreReply(
                holder_id, owner_id, message.archive_id, message.block_index,
                False, reason,
            )
        store.store(owner_id, message.archive_id, message.block_index)
        self._fairness.record_hosting(holder_id)
        self._fairness.record_placement(owner_id)
        return StoreReply(
            holder_id, owner_id, message.archive_id, message.block_index, True
        )

    def _exchange_balance(
        self, holder_id: int, partner_id: int
    ) -> Tuple[int, int]:
        """Pairwise balance of two live peers, read from their stores.

        Returns ``(blocks holder_id stores for partner_id, blocks
        partner_id stores for holder_id)``.
        """
        return (
            self._stores[holder_id].blocks_of(partner_id),
            self._stores[partner_id].blocks_of(holder_id),
        )

    def _release_stored(
        self, holder_id: int, owner_id: int, block_index: int
    ) -> None:
        """Holder-side release: drop the block if the holder still lives."""
        store = self._stores.get(holder_id)
        if store is not None:
            store.release(owner_id, self._archive_id(owner_id), block_index)

    @staticmethod
    def _archive_id(owner_id: int) -> str:
        """One archive per peer; block indices never recycle across losses."""
        return f"a{owner_id}"

    # ------------------------------------------------------------------
    # Core-engine seams
    # ------------------------------------------------------------------
    def _on_spawn(self, peer_id: int) -> None:
        self._stores[peer_id] = BlockStore(self.config.quota)
        self._manifest[peer_id] = {}
        self._next_index[peer_id] = 0
        self.transport.register(peer_id, self._make_handler(peer_id))

    def _on_toggles(self, went_offline: List[int], went_online: List[int]) -> None:
        set_online = self.transport.set_online
        for peer_id in went_offline:
            set_online(peer_id, False)
        for peer_id in went_online:
            set_online(peer_id, True)

    def _on_departure(self, peer_id: int) -> None:
        # Its own in-flight transfer dies with it, releasing the link
        # (cancel_peer must run before _cancel_pending marks the
        # transfer complete, or the release accounting sees nothing).
        cancelled = self.links.cancel_peer(peer_id)
        if cancelled:
            self.metrics.bump(
                "link_seconds_released", sum(t.seconds for t in cancelled)
            )
        pending = self._pending.pop(peer_id, None)
        if pending is not None:
            self._cancel_pending(pending, release_blocks=True)
        # Mid-retry churn: a backed-off operation whose owner dies must
        # not leave retry state behind (its pending check is swallowed
        # by the core's alive guard).
        self._attempts.pop(peer_id, None)
        self._attach_round.pop(peer_id, None)
        # It can no longer become a holder for anyone's pending transfer.
        for owner_id in sorted(self._pending_by_holder.pop(peer_id, ())):
            waiting = self._pending.get(owner_id)
            if waiting is not None and waiting.blocks.pop(peer_id, None) is not None:
                self.metrics.bump("blocks_cancelled")
        # Blocks it held vanish with its store; owners forget the entry.
        store = self._stores.pop(peer_id, None)
        if store is not None:
            for owner_id in store.owners():
                manifest = self._manifest.get(owner_id)
                if manifest is not None:
                    manifest.pop(peer_id, None)
        # Blocks it placed elsewhere are garbage: free the partners' quota.
        for holder_id in self._manifest.pop(peer_id, {}):
            holder_store = self._stores.get(holder_id)
            if holder_store is not None:
                holder_store.release_owner(peer_id)
        self._next_index.pop(peer_id, None)
        self.transport.unregister(peer_id)

    def _census_extras(self, now: int) -> None:
        protocol = self.metrics.protocol
        self.metrics.sample_protocol(
            now,
            in_flight=len(self._pending),
            queue_delay_seconds=protocol.get("queue_delay_seconds", 0),
            transfers_completed=protocol.get("transfers_completed", 0),
            messages=self._messages,
        )

    def _dispatch_extra(self, now: int, key: int) -> None:
        if key >> KIND_SHIFT == _TRANSFER_DONE:
            self._handle_transfer_done(now, key_peer(key))
        else:
            super()._dispatch_extra(now, key)

    def _finalize(self) -> None:
        # Always stamp the message counter so protocol-mode payloads are
        # recognisable even for degenerate runs with zero traffic.
        self.metrics.bump("messages_sent", self._messages)

    # ------------------------------------------------------------------
    # Timeout / retry machinery
    # ------------------------------------------------------------------
    def _retry_after_timeout(self, owner_id: int, now: int) -> None:
        """An operation lost exchanges to the network; retry or give up.

        Retries back off exponentially (``retry_backoff_base`` rounds,
        doubling per attempt, capped at ``retry_backoff_cap``) up to
        ``retry_budget`` attempts.  Exhaustion degrades gracefully: the
        operation re-enqueues as an ordinary next-round check — the
        archive keeps being maintained, it just stops being treated as
        a transient network hiccup.
        """
        self.metrics.bump("timeouts")
        attempts = self._attempts.get(owner_id, 0)
        if attempts >= self.config.retry_budget:
            self._attempts.pop(owner_id, None)
            self.metrics.bump("gave_up")
            self._schedule_check(owner_id, now + 1)
            return
        self._attempts[owner_id] = attempts + 1
        self.metrics.bump("retries")
        backoff = min(
            self.config.retry_backoff_base << attempts,
            self.config.retry_backoff_cap,
        )
        self._schedule_check(owner_id, now + backoff)

    # ------------------------------------------------------------------
    # Execution trio, message-level
    # ------------------------------------------------------------------
    def _run_placement(self, owner_id: int, now: int) -> None:
        if owner_id < self.state.n_observers:
            return super()._run_placement(owner_id, now)
        if owner_id in self._pending:
            return  # upload in flight; bookkeeping happens on completion
        needed = self._n - len(self.state.holders[owner_id])
        if needed > 0:
            drops_before = self._drop_count
            self._latency_pool = 0.0
            placed = self._store_blocks(owner_id, now, needed)
            if placed:
                self._attempts.pop(owner_id, None)
                self._begin_transfer(
                    owner_id, now, kind="placement", blocks=placed, sources=()
                )
                return
            if self._drop_count > drops_before:
                # Nothing placed and the network ate at least one store
                # exchange: a transient failure, not a refusal.
                self._retry_after_timeout(owner_id, now)
                return
        self._finish_placement(owner_id, now)

    def _run_repair(self, owner_id: int, now: int) -> None:
        state = self.state
        if owner_id < state.n_observers:
            return super()._run_repair(owner_id, now)
        if owner_id in self._pending:
            return  # one transfer at a time per archive
        row = state.holders[owner_id]
        grace = self.config.grace_rounds
        online = state.online
        last_offline = state.last_offline
        attach_round = self._attach_round.get(owner_id, {})
        dropped = []
        for holder_id in row:
            if online[holder_id]:
                continue
            since = max(last_offline[holder_id], attach_round.get(holder_id, -1))
            if now - since >= grace:
                dropped.append(holder_id)
        self._drop_holders(owner_id, dropped)
        # Download phase: fetch any k blocks from visible holders, as
        # real exchanges (the core's decode pre-check said this should
        # succeed; a shortfall means the stack lost a block — or, under
        # impairment, that the network ate some fetches).
        fetch_drops_before = self._drop_count
        self._latency_pool = 0.0
        sources = self._collect_blocks(owner_id)
        adaptive = self._adaptive
        if len(sources) < self._k:
            if adaptive is not None:
                adaptive[owner_id].on_blocked(now)
            self.metrics.record_blocked(now, self._age(owner_id, now))
            if self._drop_count > fetch_drops_before:
                self._retry_after_timeout(owner_id, now)
                return
            self.metrics.bump("fetch_shortfalls")
            self._schedule_check(owner_id, now + 1)
            return
        needed = self._n - len(row)
        store_drops_before = self._drop_count
        placed = self._store_blocks(owner_id, now, needed) if needed > 0 else {}
        if not placed:
            if self._drop_count > store_drops_before:
                # Every would-be recruit exchange drowned; the selection
                # pool itself may be fine, so back off and retry.
                self._retry_after_timeout(owner_id, now)
                return
            if adaptive is not None:
                adaptive[owner_id].on_starved(now)
            self.metrics.record_starved()
            if self._needs_repair(owner_id, state.visible[owner_id]):
                self._schedule_check(owner_id, now + 1)
            return
        self._attempts.pop(owner_id, None)
        self._begin_transfer(
            owner_id, now, kind="repair", blocks=placed, sources=sources
        )

    def _record_loss(self, owner_id: int, now: int) -> None:
        if owner_id < self.state.n_observers:
            return super()._record_loss(owner_id, now)
        # A loss aborts any in-flight transfer for the dead archive.
        # The owner is still alive, so its link watermark stays: the
        # aborted transfer's bytes were already committed to the wire,
        # and the uplink may also owe serve time to other peers'
        # repairs — neither is reclaimable (unlike a death, where
        # cancel_peer releases the whole link).
        pending = self._pending.pop(owner_id, None)
        if pending is not None:
            self._cancel_pending(pending, release_blocks=True)
        # The dead archive's retry state dies with it.
        self._attempts.pop(owner_id, None)
        # Restore attempt: the owner only accepts the loss after real
        # fetch exchanges against the remaining holders come back short.
        # A restore is a one-shot event (there is no later round to back
        # off to), so dropped probes are re-sent immediately, up to the
        # retry budget per holder.
        manifest = self._manifest.get(owner_id, {})
        archive_id = self._archive_id(owner_id)
        for holder_id in list(self.state.holders[owner_id]):
            index = manifest.get(holder_id)
            if index is None:
                continue
            probe = FetchRequest(owner_id, holder_id, archive_id, index)
            attempts = 0
            while True:
                drops_before = self._drop_count
                _, delivered = self._send(probe)
                if delivered or self._drop_count == drops_before:
                    break  # delivered, or a dead endpoint retries can't fix
                if attempts >= self.config.retry_budget:
                    self.metrics.bump("timeouts")
                    break
                attempts += 1
                self.metrics.bump("retries")
        self.metrics.bump("restore_attempts")
        super()._record_loss(owner_id, now)

    def _drop_holders(self, owner_id: int, holder_ids: List[int]) -> None:
        super()._drop_holders(owner_id, holder_ids)
        state = self.state
        if owner_id < state.n_observers or not state.alive[owner_id]:
            # Observers keep the instantaneous path; a dead owner's
            # manifest and stored blocks go wholesale in _on_departure.
            return
        attach_round = self._attach_round.get(owner_id)
        manifest = self._manifest.get(owner_id)
        archive_id = self._archive_id(owner_id)
        for holder_id in holder_ids:
            if attach_round:
                attach_round.pop(holder_id, None)
            index = manifest.pop(holder_id, None) if manifest else None
            if index is None:
                continue
            # Real release exchange when the holder is reachable; direct
            # cleanup otherwise (the real system garbage-collects the
            # block on next contact — modelled as immediate for quota
            # accounting).
            _, delivered = self._send(
                ReleaseNotice(owner_id, holder_id, archive_id, index)
            )
            if not delivered:
                self._release_stored(holder_id, owner_id, index)

    # ------------------------------------------------------------------
    # Transfer mechanics
    # ------------------------------------------------------------------
    def _collect_blocks(self, owner_id: int) -> List[int]:
        """Fetch up to ``k`` blocks from visible holders.

        Returns the holders that actually served a block — they are the
        repair's download *sources*, whose uplinks the transfer also
        occupies (see :meth:`_begin_transfer`).
        """
        online = self.state.online
        manifest = self._manifest[owner_id]
        archive_id = self._archive_id(owner_id)
        sources: List[int] = []
        for holder_id in self.state.holders[owner_id]:
            if len(sources) >= self._k:
                break
            if not online[holder_id]:
                continue  # invisible holder: not a download source
            index = manifest.get(holder_id)
            if index is None:
                continue
            reply, delivered = self._send(
                FetchRequest(owner_id, holder_id, archive_id, index)
            )
            if delivered and isinstance(reply, FetchReply) and reply.found:
                sources.append(holder_id)
        return sources

    def _store_blocks(
        self, owner_id: int, now: int, needed: int
    ) -> Dict[int, int]:
        """Recruit partners and place blocks on them, as real exchanges.

        Selection and mutual acceptance run through the core engine
        (:meth:`SoaSimulation._select_candidates`), which admits only
        candidates below their quota counter; each chosen candidate
        then receives a ``StoreRequest`` whose holder-side handler
        enforces its block store's quota and the fairness policy.  Returns
        ``holder -> block index`` for every accepted block.
        """
        archive_id = self._archive_id(owner_id)
        manifest = self._manifest[owner_id]
        pending_by_holder = self._pending_by_holder
        # The id column's shared objects: the manifest, the pending
        # tables and, once attached, the holder rows keep these ints.
        chosen = self.state.id_objects[
            self._select_candidates(owner_id, now, needed)
        ].tolist()
        placed: Dict[int, int] = {}
        for candidate_id in chosen:
            index = self._next_index[owner_id]
            reply, delivered = self._send(
                StoreRequest(owner_id, candidate_id, archive_id, index)
            )
            if (
                delivered
                and isinstance(reply, StoreReply)
                and reply.accepted
            ):
                self._next_index[owner_id] = index + 1
                placed[candidate_id] = index
                manifest[candidate_id] = index
                waiters = pending_by_holder.get(candidate_id)
                if waiters is None:
                    waiters = pending_by_holder[candidate_id] = set()
                waiters.add(owner_id)
        return placed

    def _begin_transfer(
        self,
        owner_id: int,
        now: int,
        kind: str,
        blocks: Dict[int, int],
        sources,
    ) -> None:
        """Occupy the links involved and schedule the completion event.

        The owner's asymmetric link carries the whole repair
        (``delta_download + delta_upload``, the paper's cost model); in
        addition each download *source* serves one block over its own
        uplink.  Every block leg is priced at the pairwise gated rate
        ``min(sender uplink, receiver downlink)`` — a recruited
        partner's starved downlink slows the owner's upload exactly as
        a slow source uplink slows a serve.  The transfer completes
        when the slowest involved link frees — which is where real
        queueing appears: concurrent repairs fetching from the same
        stable elder serialise on its uplink.  Impairment latency
        accrued by the operation's negotiation exchanges defers the
        completion signal without occupying any link.
        """
        block_size = self.cost_model.block_size
        now_second = now * self.links.round_seconds
        block_seconds = self.cost_model.block_transfer_seconds()
        seconds = (
            len(sources) * block_size / self.link.download_bps
            + len(blocks) * block_seconds
        )
        latency = self._latency_pool
        self._latency_pool = 0.0
        transfer = self.links.schedule(
            owner_id, seconds, now, latency_seconds=latency
        )
        delay = transfer.queue_delay(now_second)
        finish_second = transfer.finish_second
        for source_id in sources:
            serve = self.links.schedule(source_id, block_seconds, now)
            delay += serve.queue_delay(now_second)
            if serve.finish_second > finish_second:
                finish_second = serve.finish_second
            # The serve's queueing effect lives in the source's
            # busy_until watermark; drop the record itself so long-lived
            # popular holders do not accumulate bookkeeping.  A source
            # death still releases its link via cancel_peer.
            self.links.complete(serve)
        finish = self.links.round_for(finish_second, now)
        key = self.queue.schedule(finish, _TRANSFER_DONE, owner_id)
        self._pending[owner_id] = _PendingTransfer(
            owner_id, kind, blocks, transfer, finish, key
        )
        self.metrics.bump("transfers_started")
        self.metrics.bump("transfer_seconds", seconds)
        self.metrics.bump("queue_delay_seconds", delay)

    def _cancel_pending(
        self, pending: _PendingTransfer, release_blocks: bool
    ) -> None:
        """Abort an in-flight transfer (owner died or archive was lost)."""
        self.queue.cancel(pending.finish, pending.key)
        self.links.complete(pending.transfer)
        owner_id = pending.owner_id
        for holder_id, index in pending.blocks.items():
            waiters = self._pending_by_holder.get(holder_id)
            if waiters is not None:
                waiters.discard(owner_id)
                if not waiters:
                    del self._pending_by_holder[holder_id]
            if release_blocks:
                manifest = self._manifest.get(owner_id)
                if manifest is not None:
                    manifest.pop(holder_id, None)
                self._release_stored(holder_id, owner_id, index)
        self.metrics.bump("transfers_cancelled")

    def _handle_transfer_done(self, now: int, owner_id: int) -> None:
        pending = self._pending.pop(owner_id, None)
        if pending is None:
            return  # cancelled (lazily) before firing
        self.links.complete(pending.transfer)
        alive = self.state.alive
        if not alive[owner_id]:
            return  # departed owners cancel in the death seam; defensive
        attached = 0
        for holder_id in pending.blocks:
            waiters = self._pending_by_holder.get(holder_id)
            if waiters is not None:
                waiters.discard(owner_id)
                if not waiters:
                    del self._pending_by_holder[holder_id]
            if not alive[holder_id]:
                continue  # removed on death; defensive
            self._attach_holder(owner_id, holder_id, now)
            attached += 1
        self.metrics.bump("transfers_completed")
        if pending.kind == "placement":
            self._finish_placement(owner_id, now)
        else:
            self._finish_repair(owner_id, now, attached)

    def _attach_holder(self, owner_id: int, holder_id: int, now: int) -> None:
        """Materialise one transferred block as an archive link.

        Unlike the instantaneous recruitment commit, the holder may have
        gone offline while the transfer was in flight — it then joins
        as an invisible holder, invisible from this round on.
        """
        state = self.state
        row = state.holders[owner_id]
        if holder_id in row:
            return
        row.append(holder_id)
        state.owners_append(holder_id, owner_id)
        state.quota_used[holder_id] += 1
        if state.online[holder_id]:
            state.visible[owner_id] += 1
        else:
            self._attach_round.setdefault(owner_id, {})[holder_id] = now

    # ------------------------------------------------------------------
    # Consistency audit, extended to the data plane
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """State-table audit plus store/manifest/quota/retry mirror checks."""
        problems = super().audit()
        state = self.state
        for peer_id in range(state.n_observers, state.count):
            if not state.alive[peer_id]:
                continue
            manifest = self._manifest.get(peer_id, {})
            pending = self._pending.get(peer_id)
            pending_holders = set(pending.blocks) if pending else set()
            row = state.holders[peer_id]
            for holder_id in row:
                index = manifest.get(holder_id)
                if index is None:
                    problems.append(
                        f"peer {peer_id}: holder {holder_id} has no "
                        "manifest entry"
                    )
                    continue
                store = self._stores.get(holder_id)
                if store is None or not store.holds(
                    peer_id, self._archive_id(peer_id), index
                ):
                    problems.append(
                        f"peer {peer_id}: block {index} missing from "
                        f"holder {holder_id}'s store"
                    )
            for holder_id in manifest:
                if holder_id not in row and holder_id not in pending_holders:
                    problems.append(
                        f"peer {peer_id}: manifest entry for "
                        f"{holder_id} matches neither a link nor a "
                        "pending transfer"
                    )
        for peer_id, store in self._stores.items():
            if len(store) > self.config.quota:
                problems.append(
                    f"peer {peer_id}: block store over quota "
                    f"({len(store)} > {self.config.quota})"
                )
        for owner_id in sorted(self._attempts):
            if not state.alive[owner_id]:
                problems.append(
                    f"peer {owner_id}: retry state outlived its owner"
                )
        return problems
