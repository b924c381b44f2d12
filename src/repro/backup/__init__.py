"""Per-peer storage and fairness state of the protocol fidelity.

:class:`BlockStore` is one peer's quota-bounded block storage and
:mod:`.fairness` its exchange accounting (paper section 2.2.1); the
protocol backend (:class:`repro.sim.protocol.ProtocolSimulation`) keeps
one of each per live peer.
"""

from .fairness import ExchangeBalance, ExchangeLedger, GlobalFairness
from .store import BlockStore, QuotaExceededError, StoredBlock

__all__ = [
    "ExchangeBalance",
    "ExchangeLedger",
    "GlobalFairness",
    "BlockStore",
    "QuotaExceededError",
    "StoredBlock",
]
