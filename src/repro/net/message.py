"""Message types exchanged by the backup protocol.

The protocol fidelity (:class:`repro.sim.protocol.ProtocolSimulation`)
speaks a small message vocabulary modelled on section 2.2: store, fetch
and release one coded block.  Messages are plain frozen dataclasses so
they can be asserted on and routed by the in-memory transport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_MESSAGE_COUNTER = itertools.count()


@dataclass(frozen=True)
class Message:
    """Base class: every message has a source, destination and unique id."""

    sender: int
    recipient: int
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))

    def __post_init__(self) -> None:
        if self.sender == self.recipient:
            raise ValueError("a peer cannot message itself")


@dataclass(frozen=True)
class StoreRequest(Message):
    """Ask a partner to store one coded block."""

    archive_id: str = ""
    block_index: int = 0
    payload: bytes = b""


@dataclass(frozen=True)
class StoreReply(Message):
    """Partner's answer to a store request."""

    archive_id: str = ""
    block_index: int = 0
    accepted: bool = False
    reason: Optional[str] = None


@dataclass(frozen=True)
class FetchRequest(Message):
    """Ask a partner for a block it stores (restore or repair download)."""

    archive_id: str = ""
    block_index: int = 0


@dataclass(frozen=True)
class FetchReply(Message):
    """Block content, or a miss."""

    archive_id: str = ""
    block_index: int = 0
    payload: Optional[bytes] = None


@dataclass(frozen=True)
class ReleaseNotice(Message):
    """Owner tells a partner it no longer needs the stored block."""

    archive_id: str = ""
    block_index: int = 0
