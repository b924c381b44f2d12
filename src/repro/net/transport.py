"""In-memory transport connecting protocol endpoints.

The paper assumes "full connectivity between peers" (section 2.1) —
firewalled peers are relayed and not discussed further.  The transport
honours that assumption: any online endpoint can deliver to any other
online endpoint; messages to offline endpoints fail immediately (the
caller sees the same signal the real system would get from a timeout).

Deliveries are synchronous in wall-clock terms, but the link between the
endpoints can be impaired: an installed :mod:`repro.net.impairment`
sampler may drop an exchange (raising :class:`DroppedMessageError`, the
sender's view of a timeout) or charge it latency, which the transport
accumulates in :attr:`InMemoryTransport.last_delay_seconds` for the
caller to fold into transfer finish times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .message import Message

Handler = Callable[[Message], Optional[Message]]


class TransportError(Exception):
    """Raised when a message cannot be delivered."""


class UnknownEndpointError(TransportError):
    """The peer id was never registered on this transport."""


class DepartedEndpointError(TransportError):
    """The peer id was registered once but has left the system.

    Distinguished from :class:`UnknownEndpointError` because the two
    mean different things under churn: an unknown id is a programming
    error (nobody handed out that address), while a departed id is the
    routine fate of every partner — callers such as the protocol
    simulation backend treat it exactly like a timeout in the real
    system.
    """


class OfflineEndpointError(TransportError):
    """The endpoint exists but is currently unreachable (offline)."""


class DroppedMessageError(TransportError):
    """The network lost the exchange in flight (impairment layer).

    Both endpoints were alive and online; the link simply ate the
    message.  This is the sender's view of a timeout — unlike the
    endpoint errors above it says nothing about the partner's state,
    so callers should treat it as transient and retry with backoff.
    The recipient's handler never ran: a dropped exchange loses the
    whole round trip before any recipient-side effect.
    """


@dataclass
class Endpoint:
    """One addressable protocol participant."""

    peer_id: int
    handler: Handler
    online: bool = True


class InMemoryTransport:
    """Synchronous message router for simulated peers."""

    def __init__(self):
        self._endpoints: Dict[int, Endpoint] = {}
        self._departed: set = set()
        self._impairment = None
        #: One-way latency charged to the most recent :meth:`send`
        #: (doubled for exchanges that produced a reply).  Callers that
        #: model time read it immediately after a successful send.
        self.last_delay_seconds = 0.0
        #: Exchanges lost to the impairment layer since construction.
        self.dropped_messages = 0

    def set_impairment(self, sampler) -> None:
        """Install (or clear) the link-condition sampler for all sends.

        ``sampler`` follows :class:`repro.net.impairment.ImpairmentSampler`:
        one ``sample()`` call per exchange.  ``None`` restores the
        perfect link.
        """
        self._impairment = sampler

    def register(self, peer_id: int, handler: Handler) -> Endpoint:
        """Attach an endpoint; replaces any previous registration."""
        endpoint = Endpoint(peer_id=peer_id, handler=handler)
        self._endpoints[peer_id] = endpoint
        self._departed.discard(peer_id)
        return endpoint

    def unregister(self, peer_id: int) -> None:
        """Remove an endpoint (the peer left the system definitively).

        Later deliveries to the id raise :class:`DepartedEndpointError`
        rather than the unknown-endpoint error, so callers can tell a
        churned-out partner from a bad address.
        """
        if self._endpoints.pop(peer_id, None) is not None:
            self._departed.add(peer_id)

    def _missing(self, peer_id: int, role: str) -> TransportError:
        """The precise typed error for an id with no endpoint."""
        if peer_id in self._departed:
            return DepartedEndpointError(f"{role} {peer_id} has left the system")
        return UnknownEndpointError(f"unknown {role} {peer_id}")

    def set_online(self, peer_id: int, online: bool) -> None:
        """Toggle an endpoint's reachability."""
        endpoint = self._endpoints.get(peer_id)
        if endpoint is None:
            raise self._missing(peer_id, "endpoint")
        endpoint.online = online

    def is_online(self, peer_id: int) -> bool:
        """Whether a peer is currently reachable."""
        endpoint = self._endpoints.get(peer_id)
        return endpoint is not None and endpoint.online

    def send(self, message: Message) -> Optional[Message]:
        """Deliver a message and return the recipient's synchronous reply.

        Raises a typed :class:`TransportError` subclass when either end
        cannot deliver — exactly the failure a store, fetch or release
        exchange observes under churn: :class:`DepartedEndpointError` for a
        peer that left the system, :class:`UnknownEndpointError` for an
        address that never existed, :class:`OfflineEndpointError` for a
        peer that is merely disconnected, :class:`DroppedMessageError`
        when the impairment layer loses the exchange in flight.
        """
        endpoints = self._endpoints
        sender = endpoints.get(message.sender)
        if sender is None:
            raise self._missing(message.sender, "sender")
        if not sender.online:
            raise OfflineEndpointError(f"sender {message.sender} is offline")
        recipient = endpoints.get(message.recipient)
        if recipient is None:
            raise self._missing(message.recipient, "recipient")
        if not recipient.online:
            raise OfflineEndpointError(
                f"recipient {message.recipient} is offline"
            )

        self.last_delay_seconds = 0.0
        if self._impairment is not None:
            outcome = self._impairment.sample()
            if outcome.dropped:
                # The sender paid to transmit; the network ate it before
                # the recipient saw anything.
                self.dropped_messages += 1
                raise DroppedMessageError(
                    f"message from {message.sender} to {message.recipient} "
                    "lost in flight"
                )
            self.last_delay_seconds = outcome.delay_seconds

        reply = recipient.handler(message)
        if reply is not None:
            # The reply rides the same impaired link back: charge the
            # one-way latency once more for the full round trip.
            self.last_delay_seconds *= 2.0
        return reply

    def __len__(self) -> int:
        return len(self._endpoints)
