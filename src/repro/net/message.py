"""Message types exchanged by the backup protocol.

The protocol fidelity (:class:`repro.sim.protocol.ProtocolSimulation`)
speaks a small message vocabulary modelled on section 2.2: store, fetch
and release one coded block.  A block is named by its address (archive
id and block index) alone: the simulator moves no bytes, so no message
carries block content.  Messages are immutable slotted records
(``NamedTuple`` subclasses whose constructor rejects self-sends), so one
exchange costs a tuple, not an object with a ``__dict__``; they can be
asserted on and routed by the in-memory transport.  Like every tuple
they compare by field values alone.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

_SELF_SEND = "a peer cannot message itself"


class _Envelope(NamedTuple):
    sender: int
    recipient: int


class _BlockAddress(NamedTuple):
    sender: int
    recipient: int
    archive_id: str
    block_index: int


class _FetchReply(NamedTuple):
    sender: int
    recipient: int
    archive_id: str
    block_index: int
    found: bool


class _StoreReply(NamedTuple):
    sender: int
    recipient: int
    archive_id: str
    block_index: int
    accepted: bool
    reason: Optional[str]


class Message(_Envelope):
    """Base record: every message has a source and a destination."""

    __slots__ = ()

    def __new__(cls, sender: int, recipient: int):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        return tuple.__new__(cls, (sender, recipient))


class StoreRequest(_BlockAddress, Message):
    """Ask a partner to store one coded block."""

    __slots__ = ()

    def __new__(cls, sender, recipient, archive_id="", block_index=0):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        return tuple.__new__(cls, (sender, recipient, archive_id, block_index))


class StoreReply(_StoreReply, Message):
    """Partner's answer to a store request."""

    __slots__ = ()

    def __new__(
        cls, sender, recipient, archive_id="", block_index=0,
        accepted=False, reason=None,
    ):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        fields = (sender, recipient, archive_id, block_index, accepted, reason)
        return tuple.__new__(cls, fields)


class FetchRequest(_BlockAddress, Message):
    """Ask a partner for a block it stores (restore or repair download)."""

    __slots__ = ()

    def __new__(cls, sender, recipient, archive_id="", block_index=0):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        return tuple.__new__(cls, (sender, recipient, archive_id, block_index))


class FetchReply(_FetchReply, Message):
    """Whether the partner served the block (``found``) or missed."""

    __slots__ = ()

    def __new__(
        cls, sender, recipient, archive_id="", block_index=0, found=False
    ):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        fields = (sender, recipient, archive_id, block_index, found)
        return tuple.__new__(cls, fields)


class ReleaseNotice(_BlockAddress, Message):
    """Owner tells a partner it no longer needs the stored block."""

    __slots__ = ()

    def __new__(cls, sender, recipient, archive_id="", block_index=0):
        if sender == recipient:
            raise ValueError(_SELF_SEND)
        return tuple.__new__(cls, (sender, recipient, archive_id, block_index))
