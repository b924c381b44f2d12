"""The protocol fidelity backend: repairs as real message exchanges.

Where the default ``abstract_soa`` engine flips counters, this backend
executes the backup protocol's data plane for every normal peer:

* each peer owns a transport endpoint
  (:class:`repro.net.transport.InMemoryTransport`), a quota-bounded
  :class:`repro.backup.store.BlockStore` and a pairwise
  :class:`repro.backup.fairness.ExchangeLedger`;
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
  policy, enforced through the backup layer's fairness accounting);
* a loss is confirmed by an actual restore attempt — fetch probes to
  the surviving holders — before the archive resets.

Everything upstream of execution comes from
:class:`repro.sim.driver.SimulationDriver`, which draws the churn
trajectory, RNG streams, metrics surface and event clock exactly as the
default engine does.  Same-seed protocol runs are byte-identical after
serialization, across repeated runs and across all sweep-executor
backends.

Deliberate simplifications, documented rather than hidden:

* block payloads are empty sentinels — transfer *times* come from the
  cost model (``archive_bytes / k`` per block), not from shipping real
  megabytes through the heap;
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
* observers (the paper's measurement probes) keep the driver's
  instantaneous path: they are instruments, not workload, and must not
  perturb quota, fairness or bandwidth accounting;
* proactive replication (baseline A4) is not supported at this
  fidelity.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Set

from ..backup.fairness import ExchangeLedger, GlobalFairness
from ..backup.store import BlockStore
from ..erasure.codec import CodedBlock
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
from .driver import SimulationDriver
from .events import Event, EventKind
from .fidelity import FIDELITY_BACKENDS
from .peer import Peer

#: SHA-256 of the empty sentinel payload every simulated block carries.
_EMPTY_CHECKSUM = hashlib.sha256(b"").hexdigest()


class _PendingTransfer:
    """One in-flight placement or repair on an owner's access link.

    ``blocks`` maps each recruited holder to the block index it already
    accepted (the negotiation happened at initiation; the *data* is
    what takes time).  Holders that die mid-flight are removed, so at
    completion only surviving recruits become archive links.
    """

    __slots__ = ("owner_id", "kind", "blocks", "transfer", "handle")

    def __init__(self, owner_id, kind, blocks, transfer, handle):
        self.owner_id = owner_id
        self.kind = kind  # "placement" | "repair"
        self.blocks: Dict[int, int] = blocks
        self.transfer = transfer
        self.handle = handle


@FIDELITY_BACKENDS.register("protocol")
class ProtocolSimulation(SimulationDriver):
    """Message-level fidelity over the shared simulation driver."""

    fidelity = "protocol"

    def __init__(self, config: SimulationConfig):
        if config.proactive_rate > 0:
            raise ValueError(
                "the protocol fidelity backend does not support proactive "
                "replication (proactive_rate > 0); run baseline A4 at "
                f"fidelity {DEFAULT_FIDELITY!r}"
            )
        # Protocol state must exist before the driver's _setup spawns
        # peers (the spawn hook wires each peer into it).
        self.transport = InMemoryTransport()
        self.link = LINK_PROFILES.get(config.link_profile)
        self.cost_model = CostModel(
            archive_size=config.archive_bytes,
            data_blocks=config.data_blocks,
            link=self.link,
        )
        self.links = LinkScheduler(round_seconds=config.round_seconds)
        self._stores: Dict[int, BlockStore] = {}
        self._ledgers: Dict[int, ExchangeLedger] = {}
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
                block = store.fetch(
                    message.sender, message.archive_id, message.block_index
                )
                return FetchReply(
                    sender=peer_id,
                    recipient=message.sender,
                    archive_id=message.archive_id,
                    block_index=message.block_index,
                    payload=block.payload if block else None,
                )
            if isinstance(message, ReleaseNotice):
                self._release_stored(peer_id, message.sender, message.block_index)
                return None
            return None

        return handle

    def _handle_store_request(
        self, holder_id: int, message: StoreRequest
    ) -> StoreReply:
        """Holder-side store decision: fairness ledger, then quota."""
        owner_id = message.sender

        def refuse(reason: str) -> StoreReply:
            return StoreReply(
                sender=holder_id,
                recipient=owner_id,
                archive_id=message.archive_id,
                block_index=message.block_index,
                accepted=False,
                reason=reason,
            )

        factor = self.config.fairness_factor
        if factor is not None:
            # Both accountings of repro.backup.fairness are enforced:
            # the pairwise Samsara-style ledger (this holder refuses an
            # owner already deep in direct-exchange debt with it) and
            # the [7]-style global policy (an owner whose lifetime
            # consumption exceeds ``factor x contribution`` plus one
            # archive of bootstrap grace is refused by everyone).  In
            # the one-archive-per-peer topology the global cap is the
            # one that bites; the pairwise cap matters once a pair
            # exchanges several blocks.
            if self._ledgers[holder_id].would_exceed_debt(owner_id, factor):
                self.metrics.bump("fairness_refusals")
                return refuse("fairness: pairwise exchange debt exceeded")
            consumed = self._fairness.consumed.get(owner_id, 0)
            contributed = self._fairness.contributed.get(owner_id, 0)
            if consumed + 1 > factor * contributed + self._fairness_grace:
                self.metrics.bump("fairness_refusals")
                return refuse("fairness: global exchange debt exceeded")
        store = self._stores[holder_id]
        if not store.can_store():
            self.metrics.bump("store_refusals")
            return refuse("quota full")
        store.store(
            owner_id,
            message.archive_id,
            CodedBlock(
                index=message.block_index,
                payload=message.payload,
                checksum=_EMPTY_CHECKSUM,
            ),
        )
        self._ledgers[holder_id].record_stored_for(owner_id)
        owner_ledger = self._ledgers.get(owner_id)
        if owner_ledger is not None:
            owner_ledger.record_stored_by(holder_id)
        self._fairness.record_hosting(holder_id)
        self._fairness.record_placement(owner_id)
        return StoreReply(
            sender=holder_id,
            recipient=owner_id,
            archive_id=message.archive_id,
            block_index=message.block_index,
            accepted=True,
        )

    def _release_stored(
        self, holder_id: int, owner_id: int, block_index: int
    ) -> None:
        """Holder-side release: drop the block, settle the ledgers."""
        store = self._stores.get(holder_id)
        if store is None:
            return
        if store.release(owner_id, self._archive_id(owner_id), block_index):
            self._ledgers[holder_id].record_released_for(owner_id)
            owner_ledger = self._ledgers.get(owner_id)
            if owner_ledger is not None:
                owner_ledger.record_released_by(holder_id)

    @staticmethod
    def _archive_id(owner_id: int) -> str:
        """One archive per peer; block indices never recycle across losses."""
        return f"a{owner_id}"

    # ------------------------------------------------------------------
    # Driver hooks
    # ------------------------------------------------------------------
    def _on_peer_spawned(self, peer: Peer) -> None:
        peer_id = peer.peer_id
        self._stores[peer_id] = BlockStore(self.config.quota)
        self._ledgers[peer_id] = ExchangeLedger()
        self._manifest[peer_id] = {}
        self._next_index[peer_id] = 0
        self.transport.register(peer_id, self._make_handler(peer_id))

    def _on_session_flip(self, peer: Peer, now: int) -> None:
        self.transport.set_online(peer.peer_id, peer.online)

    def _on_peer_departed(self, peer: Peer, now: int) -> None:
        peer_id = peer.peer_id
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
        # by the driver's alive guard).
        self._attempts.pop(peer_id, None)
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
        self._ledgers.pop(peer_id, None)
        self._next_index.pop(peer_id, None)
        self.transport.unregister(peer_id)

    def _sample_extras(self, now: int) -> None:
        protocol = self.metrics.protocol
        self.metrics.sample_protocol(
            now,
            in_flight=len(self._pending),
            queue_delay_seconds=protocol.get("queue_delay_seconds", 0),
            transfers_completed=protocol.get("transfers_completed", 0),
            messages=self._messages,
        )

    def _extra_dispatch(self):
        return {
            EventKind.TRANSFER_DONE: lambda now, event: (
                self._handle_transfer_done(now, event.peer_id)
            ),
        }

    def _finalize(self, final_round: int) -> None:
        # Always stamp the message counter so protocol-mode payloads are
        # recognisable even for degenerate runs with zero traffic.
        self.metrics.bump("messages_sent", self._messages)

    # ------------------------------------------------------------------
    # Timeout / retry machinery
    # ------------------------------------------------------------------
    def _retry_after_timeout(self, owner: Peer, now: int) -> None:
        """An operation lost exchanges to the network; retry or give up.

        Retries back off exponentially (``retry_backoff_base`` rounds,
        doubling per attempt, capped at ``retry_backoff_cap``) up to
        ``retry_budget`` attempts.  Exhaustion degrades gracefully: the
        operation re-enqueues as an ordinary next-round check — the
        archive keeps being maintained, it just stops being treated as
        a transient network hiccup.
        """
        owner_id = owner.peer_id
        self.metrics.bump("timeouts")
        attempts = self._attempts.get(owner_id, 0)
        if attempts >= self.config.retry_budget:
            self._attempts.pop(owner_id, None)
            self.metrics.bump("gave_up")
            self._schedule_check(owner, now + 1)
            return
        self._attempts[owner_id] = attempts + 1
        self.metrics.bump("retries")
        backoff = min(
            self.config.retry_backoff_base << attempts,
            self.config.retry_backoff_cap,
        )
        self._schedule_check(owner, now + backoff)

    # ------------------------------------------------------------------
    # Execution trio, message-level
    # ------------------------------------------------------------------
    def _run_placement(self, owner: Peer, now: int) -> None:
        if owner.is_observer:
            return super()._run_placement(owner, now)
        if owner.peer_id in self._pending:
            return  # upload in flight; bookkeeping happens on completion
        archive = owner.archive
        needed = self.policy.n - len(archive.holders)
        if needed > 0:
            drops_before = self._drop_count
            self._latency_pool = 0.0
            placed = self._store_blocks(owner, now, needed)
            if placed:
                self._attempts.pop(owner.peer_id, None)
                self._begin_transfer(
                    owner, now, kind="placement", blocks=placed, sources=()
                )
                return
            if self._drop_count > drops_before:
                # Nothing placed and the network ate at least one store
                # exchange: a transient failure, not a refusal.
                self._retry_after_timeout(owner, now)
                return
        self._placement_bookkeeping(owner, now)

    def _placement_bookkeeping(self, owner: Peer, now: int) -> None:
        """The driver's post-upload placement accounting."""
        archive = owner.archive
        if len(archive.holders) >= self.policy.n:
            archive.fully_placed = True
        if archive.visible >= self.policy.repair_threshold and not archive.placed:
            archive.placed = True
            self.metrics.record_placement(now, owner.age(now))
        if not archive.placed or not archive.fully_placed:
            self._schedule_check(owner, now + 1)

    def _run_repair(self, owner: Peer, now: int) -> None:
        if owner.is_observer:
            return super()._run_repair(owner, now)
        if owner.peer_id in self._pending:
            return  # one transfer at a time per archive
        archive = owner.archive
        grace = self.config.grace_rounds
        for holder_id, invisible_since in list(archive.holders.items()):
            if invisible_since is not None and now - invisible_since >= grace:
                self._drop_holder(owner, self.population.get(holder_id))
        # Download phase: fetch any k blocks from visible holders, as
        # real exchanges (the driver's can_decode pre-check said this
        # should succeed; a shortfall means the stack lost a block —
        # or, under impairment, that the network ate some fetches).
        fetch_drops_before = self._drop_count
        self._latency_pool = 0.0
        sources = self._collect_blocks(owner)
        if len(sources) < self.policy.k:
            archive.blocked_count += 1
            if owner.adaptive is not None:
                owner.adaptive.on_blocked(now)
            self.metrics.record_blocked(now, owner.age(now), owner.observer_name)
            if self._drop_count > fetch_drops_before:
                self._retry_after_timeout(owner, now)
                return
            self.metrics.bump("fetch_shortfalls")
            self._schedule_check(owner, now + 1)
            return
        needed = self.policy.n - len(archive.holders)
        store_drops_before = self._drop_count
        placed = self._store_blocks(owner, now, needed) if needed > 0 else {}
        if not placed:
            if self._drop_count > store_drops_before:
                # Every would-be recruit exchange drowned; the selection
                # pool itself may be fine, so back off and retry.
                self._retry_after_timeout(owner, now)
                return
            if owner.adaptive is not None:
                owner.adaptive.on_starved(now)
            self.metrics.record_starved()
            if self._needs_repair(owner, archive.visible):
                self._schedule_check(owner, now + 1)
            return
        self._attempts.pop(owner.peer_id, None)
        self._begin_transfer(
            owner,
            now,
            kind="repair",
            blocks=placed,
            sources=sources,
        )

    def _record_loss(self, owner: Peer, now: int) -> None:
        if owner.is_observer:
            return super()._record_loss(owner, now)
        # A loss aborts any in-flight transfer for the dead archive.
        # The owner is still alive, so its link watermark stays: the
        # aborted transfer's bytes were already committed to the wire,
        # and the uplink may also owe serve time to other peers'
        # repairs — neither is reclaimable (unlike a death, where
        # cancel_peer releases the whole link).
        pending = self._pending.pop(owner.peer_id, None)
        if pending is not None:
            self._cancel_pending(pending, release_blocks=True)
        # The dead archive's retry state dies with it.
        self._attempts.pop(owner.peer_id, None)
        # Restore attempt: the owner only accepts the loss after real
        # fetch exchanges against the remaining holders come back short.
        # A restore is a one-shot event (there is no later round to back
        # off to), so dropped probes are re-sent immediately, up to the
        # retry budget per holder.
        for holder_id in list(owner.archive.holders):
            index = self._manifest.get(owner.peer_id, {}).get(holder_id)
            if index is None:
                continue
            probe = FetchRequest(
                sender=owner.peer_id,
                recipient=holder_id,
                archive_id=self._archive_id(owner.peer_id),
                block_index=index,
            )
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
        super()._record_loss(owner, now)

    def _drop_holder(self, owner: Peer, holder: Peer) -> None:
        super()._drop_holder(owner, holder)
        if owner.is_observer:
            return
        manifest = self._manifest.get(owner.peer_id)
        index = manifest.pop(holder.peer_id, None) if manifest else None
        if index is None:
            return
        # Real release exchange when the holder is reachable; direct
        # cleanup otherwise (the real system garbage-collects the block
        # on next contact — modelled as immediate for quota accounting).
        _, delivered = self._send(
            ReleaseNotice(
                sender=owner.peer_id,
                recipient=holder.peer_id,
                archive_id=self._archive_id(owner.peer_id),
                block_index=index,
            )
        )
        if not delivered:
            self._release_stored(holder.peer_id, owner.peer_id, index)

    # ------------------------------------------------------------------
    # Transfer mechanics
    # ------------------------------------------------------------------
    def _collect_blocks(self, owner: Peer) -> List[int]:
        """Fetch up to ``k`` blocks from visible holders.

        Returns the holders that actually served a block — they are the
        repair's download *sources*, whose uplinks the transfer also
        occupies (see :meth:`_begin_transfer`).
        """
        archive = owner.archive
        manifest = self._manifest[owner.peer_id]
        archive_id = self._archive_id(owner.peer_id)
        sources: List[int] = []
        for holder_id, invisible_since in archive.holders.items():
            if len(sources) >= self.policy.k:
                break
            if invisible_since is not None:
                continue  # invisible holder: not a download source
            index = manifest.get(holder_id)
            if index is None:
                continue
            reply, delivered = self._send(
                FetchRequest(
                    sender=owner.peer_id,
                    recipient=holder_id,
                    archive_id=archive_id,
                    block_index=index,
                )
            )
            if (
                delivered
                and isinstance(reply, FetchReply)
                and reply.payload is not None
            ):
                sources.append(holder_id)
        return sources

    def _store_blocks(
        self, owner: Peer, now: int, needed: int
    ) -> Dict[int, int]:
        """Recruit partners and place blocks on them, as real exchanges.

        Selection and mutual acceptance run through the shared driver
        (:meth:`SimulationDriver._select_candidates`); each chosen
        candidate then receives a ``StoreRequest`` whose holder-side
        handler enforces quota and the fairness policy.  Returns
        ``holder -> block index`` for every accepted block.
        """
        owner_id = owner.peer_id
        archive_id = self._archive_id(owner_id)
        manifest = self._manifest[owner_id]
        quota = self.config.quota
        placed: Dict[int, int] = {}
        for candidate_id in self._select_candidates(owner, now, needed):
            holder = self.population.get(candidate_id)
            # Quota could have filled between sampling and selection.
            if not holder.has_free_quota(quota):
                continue
            index = self._next_index[owner_id]
            reply, delivered = self._send(
                StoreRequest(
                    sender=owner_id,
                    recipient=candidate_id,
                    archive_id=archive_id,
                    block_index=index,
                    payload=b"",
                )
            )
            if (
                delivered
                and isinstance(reply, StoreReply)
                and reply.accepted
            ):
                self._next_index[owner_id] = index + 1
                placed[candidate_id] = index
                manifest[candidate_id] = index
                self._pending_by_holder.setdefault(candidate_id, set()).add(
                    owner_id
                )
        return placed

    def _begin_transfer(
        self,
        owner: Peer,
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
            owner.peer_id, seconds, now, latency_seconds=latency
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
        handle = self.queue.schedule(
            finish, Event(EventKind.TRANSFER_DONE, owner.peer_id)
        )
        self._pending[owner.peer_id] = _PendingTransfer(
            owner.peer_id, kind, blocks, transfer, handle
        )
        self.metrics.bump("transfers_started")
        self.metrics.bump("transfer_seconds", seconds)
        self.metrics.bump("queue_delay_seconds", delay)

    def _cancel_pending(
        self, pending: _PendingTransfer, release_blocks: bool
    ) -> None:
        """Abort an in-flight transfer (owner died or archive was lost)."""
        self.queue.cancel(pending.handle)
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
        owner = self.population.peers.get(owner_id)
        if owner is None or not owner.alive:
            return  # departed owners cancel in the death hook; defensive
        archive = owner.archive
        attached = 0
        for holder_id, _index in pending.blocks.items():
            waiters = self._pending_by_holder.get(holder_id)
            if waiters is not None:
                waiters.discard(owner_id)
                if not waiters:
                    del self._pending_by_holder[holder_id]
            holder = self.population.peers.get(holder_id)
            if holder is None or not holder.alive:
                continue  # removed on death; defensive
            self._attach_holder(owner, holder, now)
            attached += 1
        self.metrics.bump("transfers_completed")
        if pending.kind == "placement":
            self._placement_bookkeeping(owner, now)
            return
        if attached > 0:
            archive.repair_count += 1
            if owner.adaptive is not None:
                owner.adaptive.on_repair(now)
            self.metrics.record_repair(
                now, owner.age(now), attached, owner.observer_name
            )
        else:
            if owner.adaptive is not None:
                owner.adaptive.on_starved(now)
            self.metrics.record_starved()
        if len(archive.holders) >= self.policy.n:
            archive.fully_placed = True
        if self._needs_repair(owner, archive.visible):
            self._schedule_check(owner, now + 1)

    def _attach_holder(self, owner: Peer, holder: Peer, now: int) -> None:
        """Materialise one transferred block as an archive link.

        Unlike the instantaneous :meth:`_add_holder`, the holder may have
        gone offline while the transfer was in flight — it then joins
        as an invisible holder, exactly as if it had toggled right after
        an instantaneous store.
        """
        archive = owner.archive
        if holder.peer_id in archive.holders:
            return
        if holder.online:
            archive.holders[holder.peer_id] = None
            archive.visible += 1
        else:
            archive.holders[holder.peer_id] = now
        archive.alive += 1
        holder.hosted.add(owner.peer_id)

    # ------------------------------------------------------------------
    # Consistency audit, extended to the data plane
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """Driver audit plus store/manifest/link mirror checks."""
        problems = super().audit()
        for peer in self.population.peers.values():
            if not peer.alive or peer.is_observer:
                continue
            manifest = self._manifest.get(peer.peer_id, {})
            pending = self._pending.get(peer.peer_id)
            pending_holders = set(pending.blocks) if pending else set()
            for holder_id in peer.archive.holders:
                index = manifest.get(holder_id)
                if index is None:
                    problems.append(
                        f"peer {peer.peer_id}: holder {holder_id} has no "
                        "manifest entry"
                    )
                    continue
                store = self._stores.get(holder_id)
                if store is None or store.fetch(
                    peer.peer_id, self._archive_id(peer.peer_id), index
                ) is None:
                    problems.append(
                        f"peer {peer.peer_id}: block {index} missing from "
                        f"holder {holder_id}'s store"
                    )
            for holder_id in manifest:
                if (
                    holder_id not in peer.archive.holders
                    and holder_id not in pending_holders
                ):
                    problems.append(
                        f"peer {peer.peer_id}: manifest entry for "
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
            peer = self.population.peers.get(owner_id)
            if peer is None or not peer.alive:
                problems.append(
                    f"peer {owner_id}: retry state outlived its owner"
                )
        return problems
