"""Bandwidth and repair-cost model (paper section 2.2.4, artifact C1).

The paper evaluates the feasibility of maintenance on an asymmetric DSL
link: the full cost of a repair is

    delta_repair = delta_download + delta_upload

(decoding/encoding and metadata updates are negligible), where the peer
downloads ``k`` blocks and uploads the ``d`` regenerated blocks.  With
the paper's parameters (128 MB archives, k = 128 so 1 MB blocks, 32 kB/s
up, 256 kB/s down) a worst-case repair (d = 128) takes 69 + 8 = 77
minutes, which bounds feasible repairs at ~20 per day and motivates
keeping the per-archive repair rate below roughly one per month.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..registry import Registry

#: One kilobyte/megabyte in bytes, as the paper uses kB/MB units.
KILOBYTE = 1024
MEGABYTE = 1024 * KILOBYTE


@dataclass(frozen=True)
class LinkProfile:
    """An access link with asymmetric capacities, in bytes per second."""

    download_bps: float
    upload_bps: float
    name: str = "link"

    def __post_init__(self) -> None:
        if self.download_bps <= 0 or self.upload_bps <= 0:
            raise ValueError("link capacities must be positive")


#: The paper's reference DSL link: 256 kB/s down, 32 kB/s up.
PAPER_DSL = LinkProfile(
    download_bps=256 * KILOBYTE, upload_bps=32 * KILOBYTE, name="paper-dsl"
)

#: "modern DSL connections (in France) are at least four times faster".
MODERN_DSL = LinkProfile(
    download_bps=4 * 256 * KILOBYTE, upload_bps=4 * 32 * KILOBYTE, name="modern-dsl"
)

#: An FTTH-class link for the paper's closing remark.
FTTH = LinkProfile(
    download_bps=12_500 * KILOBYTE, upload_bps=12_500 * KILOBYTE, name="ftth"
)

#: Registry of access-link profiles.  ``SimulationConfig.link_profile``
#: names resolve here, so a custom link registers like any component::
#:
#:     LINK_PROFILES.register("satellite", LinkProfile(..., name="satellite"))
LINK_PROFILES: Registry[LinkProfile] = Registry("link profile")
LINK_PROFILES.register(PAPER_DSL.name, PAPER_DSL)
LINK_PROFILES.register(MODERN_DSL.name, MODERN_DSL)
LINK_PROFILES.register(FTTH.name, FTTH)


@dataclass(frozen=True)
class RepairCost:
    """Breakdown of one repair operation's transfer cost, in seconds."""

    download_seconds: float
    upload_seconds: float

    @property
    def total_seconds(self) -> float:
        """delta_repair = delta_download + delta_upload."""
        return self.download_seconds + self.upload_seconds

    @property
    def total_minutes(self) -> float:
        """Total cost in minutes (the unit of the paper's 77-minute figure)."""
        return self.total_seconds / 60.0


class CostModel:
    """The paper's transfer-only cost model for backup maintenance.

    Parameters
    ----------
    archive_size:
        Bytes per archive (paper: 128 MB).
    data_blocks:
        ``k`` (paper: 128); the block size is ``archive_size / k``.
    link:
        The access-link profile.
    """

    def __init__(
        self,
        archive_size: int = 128 * MEGABYTE,
        data_blocks: int = 128,
        link: LinkProfile = PAPER_DSL,
    ):
        if archive_size <= 0:
            raise ValueError("archive size must be positive")
        if data_blocks < 1:
            raise ValueError("k must be >= 1")
        self.archive_size = archive_size
        self.data_blocks = data_blocks
        self.link = link

    @property
    def block_size(self) -> float:
        """Bytes per block."""
        return self.archive_size / self.data_blocks

    def repair_cost(self, regenerated_blocks: int) -> RepairCost:
        """Cost of one repair that regenerates ``d`` blocks.

        The peer downloads ``k`` blocks (one archive's worth of data) and
        uploads ``d`` blocks.
        """
        if regenerated_blocks < 0:
            raise ValueError("d cannot be negative")
        download = self.archive_size / self.link.download_bps
        upload = regenerated_blocks * self.block_size / self.link.upload_bps
        return RepairCost(download_seconds=download, upload_seconds=upload)

    def max_repairs_per_day(self, regenerated_blocks: int) -> float:
        """How many such repairs fit in 24 hours of exclusive link use."""
        cost = self.repair_cost(regenerated_blocks).total_seconds
        return 86_400.0 / cost

    def feasible_repair_rate(
        self, archives: int, regenerated_blocks: int, budget_fraction: float = 1.0
    ) -> float:
        """Repairs per archive per day that fit a link-time budget.

        The paper's worked example: with 32 archives and one repair per
        day of total budget, the per-archive rate must stay below roughly
        one per month.
        """
        if archives < 1:
            raise ValueError("archives must be >= 1")
        if not 0 < budget_fraction <= 1.0:
            raise ValueError("budget fraction must be in (0, 1]")
        per_day = self.max_repairs_per_day(regenerated_blocks) * budget_fraction
        return per_day / archives

    @property
    def peer_transfer_bps(self) -> float:
        """Rate one block actually moves between two peers.

        A block leaves on the sender's uplink and arrives on the
        receiver's downlink; the slower of the two gates the transfer.
        With one (homogeneous) link profile per simulation that is
        ``min(upload_bps, download_bps)`` — on asymmetric DSL the uplink,
        but a custom profile with a starved downlink is gated correctly
        too.
        """
        return min(self.link.upload_bps, self.link.download_bps)

    def block_transfer_seconds(self) -> float:
        """Seconds to move one block peer-to-peer at the gated rate."""
        return self.block_size / self.peer_transfer_bps

    def backup_cost_seconds(self, total_blocks: int) -> float:
        """Initial upload of all ``n`` blocks (the d = n initial 'repair')."""
        if total_blocks < self.data_blocks:
            raise ValueError("n must be >= k")
        return total_blocks * self.block_size / self.link.upload_bps

    def restore_cost_seconds(self) -> float:
        """Download of ``k`` blocks to restore an archive."""
        return self.archive_size / self.link.download_bps


@dataclass(eq=False)
class ScheduledTransfer:
    """One transfer occupying a peer's access link for ``seconds``.

    ``start_second`` already accounts for queueing behind the peer's
    earlier transfers.  ``latency_seconds`` is propagation delay from
    the impairment layer: it pushes the completion signal
    (``finish_second``) without occupying the link — the link frees up
    at ``link_release_second``, so queued successors are not charged
    for time the wire spent merely in flight.  Transfers compare by
    identity: two records with equal fields are still two transfers.
    """

    peer_id: int
    seconds: float
    start_second: float
    latency_seconds: float = 0.0
    cancelled: bool = False

    @property
    def link_release_second(self) -> float:
        """Simulation second the peer's link frees up."""
        return self.start_second + self.seconds

    @property
    def finish_second(self) -> float:
        """Simulation second the transfer completes (latency included)."""
        return self.start_second + self.seconds + self.latency_seconds

    def queue_delay(self, requested_second: float) -> float:
        """Seconds spent waiting for the link before the transfer began."""
        return self.start_second - requested_second


class LinkScheduler:
    """Serialises each peer's transfers on its access link.

    The cost model above prices one transfer in isolation; under churn a
    peer's repairs can overlap, and the paper's feasibility argument
    (at most ~20 repairs/day of link time) only holds if concurrent
    transfers *queue* rather than magically sharing the link.  The
    scheduler keeps one ``busy_until`` watermark per peer: a new
    transfer starts at ``max(now, busy_until)`` and pushes the watermark
    to the moment its bytes stop flowing, which yields both the
    completion time (for the event clock) and the queueing delay (a
    protocol-fidelity metric).  Transfer durations themselves are priced
    at the pairwise gated rate ``min(sender uplink, receiver downlink)``
    (see :meth:`CostModel.block_transfer_seconds`), so a partner's
    starved downlink slows a transfer just as a slow source uplink does.
    Impairment latency defers only the completion signal (see
    :meth:`schedule`).

    When a peer departs mid-transfer, :meth:`cancel_peer` drops its
    queued transfers and releases the link immediately — capacity never
    leaks to a dead peer (see ``tests/net/test_bandwidth.py``).
    """

    def __init__(self, round_seconds: float = 3600.0):
        if round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        self.round_seconds = float(round_seconds)
        self._busy_until: Dict[int, float] = {}
        self._active: Dict[int, List[ScheduledTransfer]] = {}

    def schedule(
        self,
        peer_id: int,
        seconds: float,
        now_round: int,
        latency_seconds: float = 0.0,
    ) -> ScheduledTransfer:
        """Enqueue a transfer of ``seconds`` on ``peer_id``'s link.

        ``latency_seconds`` (impairment-layer propagation delay) defers
        the transfer's *completion* without extending the link's busy
        window: the next queued transfer starts as soon as the bytes
        stop flowing, not when the last one lands.
        """
        if seconds < 0:
            raise ValueError("transfer duration cannot be negative")
        if latency_seconds < 0:
            raise ValueError("latency cannot be negative")
        now_second = now_round * self.round_seconds
        start = max(now_second, self._busy_until.get(peer_id, 0.0))
        transfer = ScheduledTransfer(
            peer_id=peer_id,
            seconds=seconds,
            start_second=start,
            latency_seconds=latency_seconds,
        )
        self._busy_until[peer_id] = transfer.link_release_second
        self._active.setdefault(peer_id, []).append(transfer)
        return transfer

    def round_for(self, finish_second: float, now_round: int) -> int:
        """The round a transfer finishing at ``finish_second`` completes.

        Rounds are the engine's clock granularity; a transfer shorter
        than a round still lands in the next round, matching the
        default engine's repairs-execute-next-round semantics.
        """
        completed = int(math.ceil(finish_second / self.round_seconds))
        return max(completed, now_round + 1)

    def finish_round(self, transfer: ScheduledTransfer, now_round: int) -> int:
        """:meth:`round_for` of one transfer's own finish time."""
        return self.round_for(transfer.finish_second, now_round)

    def complete(self, transfer: ScheduledTransfer) -> None:
        """Mark a transfer done (drops it from the active index)."""
        active = self._active.get(transfer.peer_id)
        if active is None:
            return
        try:
            active.remove(transfer)
        except ValueError:
            return
        if not active:
            del self._active[transfer.peer_id]

    def cancel_peer(self, peer_id: int) -> List[ScheduledTransfer]:
        """The peer left: cancel its transfers, release its link.

        Returns the cancelled transfers (flagged ``cancelled``) so the
        caller can account for the wasted link time.
        """
        cancelled = self._active.pop(peer_id, [])
        for transfer in cancelled:
            transfer.cancelled = True
        self._busy_until.pop(peer_id, None)
        return cancelled

    def busy_until(self, peer_id: int) -> float:
        """Simulation second the peer's link frees up (0.0 when idle)."""
        return self._busy_until.get(peer_id, 0.0)

    def in_flight(self) -> int:
        """Number of transfers currently scheduled and not completed."""
        return sum(len(active) for active in self._active.values())


def paper_cost_table() -> dict:
    """Reproduce the section 2.2.4 arithmetic exactly (artifact C1).

    Returns the numbers the paper states: the >512 s download bound, the
    per-block 32 s upload bound, the 69 + 8 = 77 minute worst-case repair
    and the <=20 repairs/day feasibility limit.
    """
    model = CostModel()
    worst = model.repair_cost(regenerated_blocks=128)
    return {
        "download_seconds": worst.download_seconds,
        "upload_seconds_per_block": model.block_size / model.link.upload_bps,
        "worst_case_upload_minutes": worst.upload_seconds / 60.0,
        "worst_case_download_minutes": worst.download_seconds / 60.0,
        "worst_case_total_minutes": worst.total_minutes,
        "max_repairs_per_day": math.floor(model.max_repairs_per_day(128)),
    }
