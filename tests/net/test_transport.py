"""Tests for the in-memory transport."""

import pytest

from repro.net.message import FetchReply, FetchRequest, Message
from repro.net.transport import (
    DepartedEndpointError,
    InMemoryTransport,
    OfflineEndpointError,
    TransportError,
    UnknownEndpointError,
)


def echo_handler(peer_id):
    def handle(message):
        if isinstance(message, FetchRequest):
            return FetchReply(
                sender=peer_id,
                recipient=message.sender,
                archive_id=message.archive_id,
                block_index=message.block_index,
                found=True,
            )
        return None

    return handle


@pytest.fixture
def transport():
    t = InMemoryTransport()
    t.register(1, echo_handler(1))
    t.register(2, echo_handler(2))
    return t


class TestRegistration:
    def test_len_counts_endpoints(self, transport):
        assert len(transport) == 2

    def test_unregister(self, transport):
        transport.unregister(2)
        assert len(transport) == 1
        with pytest.raises(TransportError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_is_online(self, transport):
        assert transport.is_online(1)
        transport.set_online(1, False)
        assert not transport.is_online(1)
        assert not transport.is_online(99)

    def test_set_online_unknown_peer(self, transport):
        with pytest.raises(TransportError):
            transport.set_online(99, True)


class TestDelivery:
    def test_request_reply(self, transport):
        reply = transport.send(FetchRequest(sender=1, recipient=2, archive_id="a"))
        assert isinstance(reply, FetchReply)
        assert reply.found
        assert reply.recipient == 1

    def test_unknown_recipient(self, transport):
        with pytest.raises(TransportError):
            transport.send(FetchRequest(sender=1, recipient=9))

    def test_unknown_sender(self, transport):
        with pytest.raises(TransportError):
            transport.send(FetchRequest(sender=9, recipient=1))

    def test_offline_recipient(self, transport):
        transport.set_online(2, False)
        with pytest.raises(TransportError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_offline_sender(self, transport):
        transport.set_online(1, False)
        with pytest.raises(TransportError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(sender=1, recipient=1)


class TestTypedFailures:
    """Every delivery failure raises the precise TransportError subclass,
    and a departed peer is distinguishable from a bad address."""

    def test_departed_recipient_raises_departed_error(self, transport):
        transport.unregister(2)
        with pytest.raises(DepartedEndpointError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_departed_sender_raises_departed_error(self, transport):
        transport.unregister(1)
        with pytest.raises(DepartedEndpointError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_never_registered_raises_unknown_error(self, transport):
        with pytest.raises(UnknownEndpointError):
            transport.send(FetchRequest(sender=1, recipient=9))

    def test_offline_raises_offline_error(self, transport):
        transport.set_online(2, False)
        with pytest.raises(OfflineEndpointError):
            transport.send(FetchRequest(sender=1, recipient=2))

    def test_all_subclasses_are_transport_errors(self):
        for subclass in (
            DepartedEndpointError, UnknownEndpointError, OfflineEndpointError
        ):
            assert issubclass(subclass, TransportError)

    def test_set_online_distinguishes_departed(self, transport):
        transport.unregister(2)
        with pytest.raises(DepartedEndpointError):
            transport.set_online(2, True)
        with pytest.raises(UnknownEndpointError):
            transport.set_online(99, True)

    def test_departed_peer_is_not_online(self, transport):
        transport.unregister(2)
        assert not transport.is_online(2)

    def test_reregistration_clears_departed_state(self, transport):
        transport.unregister(2)
        transport.register(2, echo_handler(2))
        reply = transport.send(FetchRequest(sender=1, recipient=2))
        assert isinstance(reply, FetchReply)

