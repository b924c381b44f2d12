"""Network substrate: cost model, link impairment, messages and transport."""

from .bandwidth import (
    FTTH,
    KILOBYTE,
    LINK_PROFILES,
    MEGABYTE,
    MODERN_DSL,
    PAPER_DSL,
    CostModel,
    LinkProfile,
    LinkScheduler,
    RepairCost,
    ScheduledTransfer,
    paper_cost_table,
)
from .message import (
    FetchReply,
    FetchRequest,
    Message,
    ReleaseNotice,
    StoreReply,
    StoreRequest,
)
from .transport import (
    DepartedEndpointError,
    Endpoint,
    InMemoryTransport,
    OfflineEndpointError,
    TransportError,
    UnknownEndpointError,
)

__all__ = [
    "FTTH",
    "KILOBYTE",
    "LINK_PROFILES",
    "MEGABYTE",
    "MODERN_DSL",
    "PAPER_DSL",
    "CostModel",
    "LinkProfile",
    "LinkScheduler",
    "RepairCost",
    "ScheduledTransfer",
    "paper_cost_table",
    "FetchReply",
    "FetchRequest",
    "Message",
    "ReleaseNotice",
    "StoreReply",
    "StoreRequest",
    "DepartedEndpointError",
    "Endpoint",
    "InMemoryTransport",
    "OfflineEndpointError",
    "TransportError",
    "UnknownEndpointError",
]
