"""Per-peer storage and fairness state of the protocol fidelity.

:class:`BlockStore` is one peer's quota-bounded block storage and
:mod:`.fairness` the exchange accounting (paper section 2.2.1); the
protocol backend (:class:`repro.sim.protocol.ProtocolSimulation`) keeps
one store per live peer and reads pairwise balances from the stores.
"""

from .fairness import GlobalFairness, exceeds_exchange_debt
from .store import BlockStore, QuotaExceededError

__all__ = [
    "GlobalFairness",
    "exceeds_exchange_debt",
    "BlockStore",
    "QuotaExceededError",
]
