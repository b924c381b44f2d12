"""Peer and archive state inside the simulator.

State is kept deliberately mutable and slotted: a full-scale run touches
these objects hundreds of millions of times.  All invariants that matter
("the owner's holder set and the holder's hosted set mirror each other",
"the visible counter equals the recount") are enforced by the engine's
mutation helpers and verified by integration tests via
:func:`repro.sim.driver.SimulationDriver.audit`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..churn.profiles import Profile


class ArchiveState:
    """The owner-side view of one backed-up archive.

    ``holders`` maps each partner id to the round it was last seen going
    *invisible* (``None`` while it is visible): that timestamp implements
    the optional grace period before a repair abandons the partner.

    ``visible`` counts holders that are alive *and* online; ``alive``
    counts holders that have not left the system.  Both counters are
    maintained incrementally by the engine.
    """

    __slots__ = (
        "holders",
        "visible",
        "alive",
        "placed",
        "fully_placed",
        "lost_count",
        "repair_count",
        "blocked_count",
    )

    def __init__(self):
        self.holders: Dict[int, Optional[int]] = {}
        self.visible = 0
        self.alive = 0
        #: the peer is "included in the network" (visible >= threshold).
        self.placed = False
        #: the initial upload of all n blocks completed at least once;
        #: from then on maintenance is strictly threshold-driven.
        self.fully_placed = False
        self.lost_count = 0
        self.repair_count = 0
        self.blocked_count = 0

    def reset(self) -> None:
        """Forget all placement state after a loss (fresh backup follows)."""
        self.holders.clear()
        self.visible = 0
        self.alive = 0
        self.placed = False
        self.fully_placed = False


class Peer:
    """One simulated peer.

    Observers (paper section 4.2.2) are peers whose age is pinned to
    ``fixed_age``, that other peers can never pick as partners, and whose
    blocks do not consume their holders' quota.
    """

    __slots__ = (
        "peer_id",
        "profile",
        "join_round",
        "death_round",
        "online",
        "alive",
        "archive",
        "hosted",
        "hosted_free",
        "is_observer",
        "fixed_age",
        "observer_name",
        "check_scheduled",
        "check_handle",
        "pending_check",
        "last_state_change",
        "online_rounds",
        "adaptive",
    )

    def __init__(
        self,
        peer_id: int,
        profile: Profile,
        join_round: int,
        death_round: Optional[int] = None,
        is_observer: bool = False,
        fixed_age: Optional[int] = None,
        observer_name: Optional[str] = None,
    ):
        self.peer_id = peer_id
        self.profile = profile
        self.join_round = join_round
        self.death_round = death_round
        self.online = True
        self.alive = True
        self.archive = ArchiveState()
        #: owners (normal peers) whose block this peer stores; counts quota.
        self.hosted: set = set()
        #: observer owners whose block this peer stores; free of quota.
        self.hosted_free: set = set()
        self.is_observer = is_observer
        self.fixed_age = fixed_age
        self.observer_name = observer_name
        #: round for which a REPAIR_CHECK is already queued (dedup).
        self.check_scheduled: Optional[int] = None
        #: queue handle of that check, so an earlier check can cancel it.
        self.check_handle = None
        #: a check was wanted while the peer was offline.
        self.pending_check = False
        #: bookkeeping for the measured-availability baseline.
        self.last_state_change = join_round
        self.online_rounds = 0
        #: per-peer adaptive threshold controller (A5), or None.
        self.adaptive = None

    def age(self, current_round: int) -> float:
        """Age in rounds (pinned for observers)."""
        if self.fixed_age is not None:
            return float(self.fixed_age)
        return float(max(current_round - self.join_round, 0))

    def stored_blocks(self) -> int:
        """Blocks currently hosted that count against the quota."""
        return len(self.hosted)

    def has_free_quota(self, quota: int) -> bool:
        """Whether this peer can accept one more quota-counted block."""
        return len(self.hosted) < quota

    def remaining_lifetime(self, current_round: int) -> float:
        """True rounds left before departure (oracle-only knowledge)."""
        if self.death_round is None:
            return math.inf
        return float(max(self.death_round - current_round, 0))

    def accumulate_uptime(self, current_round: int) -> None:
        """Fold the elapsed span into the online-rounds counter."""
        if self.online:
            self.online_rounds += current_round - self.last_state_change
        self.last_state_change = current_round

    def measured_availability(self, current_round: int) -> Optional[float]:
        """Lifetime online fraction, or ``None`` for a brand-new peer.

        This stands in for the monitoring protocol's windowed query; over
        windows shorter than the peer's age the lifetime average converges
        to the same duty cycle.
        """
        span = current_round - self.join_round
        if span <= 0:
            return None
        online = self.online_rounds
        if self.online:
            online += current_round - self.last_state_change
        return min(online / span, 1.0)

    def __repr__(self) -> str:
        flags = []
        if self.is_observer:
            flags.append(f"observer={self.observer_name}")
        if not self.alive:
            flags.append("dead")
        if not self.online:
            flags.append("offline")
        suffix = (" " + " ".join(flags)) if flags else ""
        return f"Peer(id={self.peer_id}, profile={self.profile.name}{suffix})"
