"""Direct-exchange fairness accounting (paper section 2.2.1).

"If the backup system contains a direct exchange mechanism, these n
partners will be allowed to store one or more blocks of data on the peer
in exchange for the space they have provided.  Some systems might prefer
a more global policy of fairness, where space is exchanged globally (see
[7] for example) instead of between partners."

This module implements both accountings:

* :class:`ExchangeLedger` — the pairwise (Samsara-style [7]) view: per
  partner, blocks I store for them vs blocks they store for me, with a
  debt test used to refuse storage to free-riding partners;
* :class:`GlobalFairness` — the global view: blocks contributed vs
  consumed per peer across the whole system, with one contribution
  ratio per peer and the inequality of those ratios.

The protocol fidelity (:class:`repro.sim.protocol.ProtocolSimulation`)
enforces both when ``SimulationConfig.fairness_factor`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ExchangeBalance:
    """Pairwise storage balance with one partner, in blocks."""

    stored_for_partner: int = 0   # blocks I hold for them
    stored_by_partner: int = 0    # blocks they hold for me


class ExchangeLedger:
    """Per-peer pairwise exchange accounting.

    Parameters
    ----------
    grace_blocks:
        Debt every partner is allowed before enforcement kicks in; a
        newcomer that has not been asked to store anything yet must
        still be able to place its first blocks (the same bootstrapping
        concern the acceptation function's ``1/L`` floor addresses).
    """

    def __init__(self, grace_blocks: int = 4):
        if grace_blocks < 0:
            raise ValueError("grace_blocks cannot be negative")
        self.grace_blocks = grace_blocks
        self._balances: Dict[int, ExchangeBalance] = {}

    def balance_with(self, partner_id: int) -> ExchangeBalance:
        """Fetch-or-create the balance with one partner."""
        return self._balances.setdefault(partner_id, ExchangeBalance())

    def record_stored_for(self, partner_id: int, blocks: int = 1) -> None:
        """I accepted ``blocks`` of the partner's data."""
        if blocks < 0:
            raise ValueError("blocks cannot be negative")
        self.balance_with(partner_id).stored_for_partner += blocks

    def record_stored_by(self, partner_id: int, blocks: int = 1) -> None:
        """The partner accepted ``blocks`` of my data."""
        if blocks < 0:
            raise ValueError("blocks cannot be negative")
        self.balance_with(partner_id).stored_by_partner += blocks

    def record_released_for(self, partner_id: int, blocks: int = 1) -> None:
        """I dropped ``blocks`` of the partner's data."""
        balance = self.balance_with(partner_id)
        balance.stored_for_partner = max(balance.stored_for_partner - blocks, 0)

    def record_released_by(self, partner_id: int, blocks: int = 1) -> None:
        """The partner dropped ``blocks`` of my data."""
        balance = self.balance_with(partner_id)
        balance.stored_by_partner = max(balance.stored_by_partner - blocks, 0)

    def would_exceed_debt(
        self, partner_id: int, fairness_factor: float, extra_blocks: int = 1
    ) -> bool:
        """Would accepting ``extra_blocks`` push the partner past its debt cap?

        The cap is ``fairness_factor x stored_by_partner + grace``: a
        partner may consume up to ``fairness_factor`` times the space it
        provides to me, plus the bootstrap grace.
        """
        if fairness_factor <= 0:
            raise ValueError("fairness_factor must be positive")
        balance = self.balance_with(partner_id)
        ceiling = fairness_factor * balance.stored_by_partner + self.grace_blocks
        return balance.stored_for_partner + extra_blocks > ceiling


@dataclass
class GlobalFairness:
    """System-wide contributed/consumed accounting (the [7]-style policy)."""

    contributed: Dict[int, int] = field(default_factory=dict)  # blocks hosted
    consumed: Dict[int, int] = field(default_factory=dict)     # blocks placed

    def record_hosting(self, peer_id: int, blocks: int = 1) -> None:
        """``peer_id`` stores ``blocks`` for someone."""
        self.contributed[peer_id] = self.contributed.get(peer_id, 0) + blocks

    def record_placement(self, peer_id: int, blocks: int = 1) -> None:
        """``peer_id`` placed ``blocks`` of its own data in the system."""
        self.consumed[peer_id] = self.consumed.get(peer_id, 0) + blocks

    def ratio(self, peer_id: int) -> float:
        """Contribution ratio: hosted / placed (inf for pure contributors)."""
        placed = self.consumed.get(peer_id, 0)
        hosted = self.contributed.get(peer_id, 0)
        if placed == 0:
            return float("inf") if hosted else 1.0
        return hosted / placed

    def free_riders(self, minimum_ratio: float = 1.0) -> List[int]:
        """Peers contributing less than ``minimum_ratio`` of their usage."""
        if minimum_ratio <= 0:
            raise ValueError("minimum_ratio must be positive")
        peers = set(self.contributed) | set(self.consumed)
        return sorted(p for p in peers if self.ratio(p) < minimum_ratio)

    def gini_coefficient(self) -> float:
        """Inequality of contribution ratios across peers (0 = equal).

        Infinite ratios are clipped to the largest finite one; an empty
        or single-peer system reports 0.
        """
        peers = sorted(set(self.contributed) | set(self.consumed))
        if len(peers) < 2:
            return 0.0
        ratios = [self.ratio(p) for p in peers]
        finite = [r for r in ratios if r != float("inf")]
        ceiling = max(finite) if finite else 1.0
        values = sorted(min(r, ceiling) for r in ratios)
        total = sum(values)
        if total == 0:
            return 0.0
        n = len(values)
        cumulative = sum((index + 1) * value for index, value in enumerate(values))
        return (2.0 * cumulative) / (n * total) - (n + 1.0) / n
