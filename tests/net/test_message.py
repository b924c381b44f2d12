"""Tests for the protocol message vocabulary."""

import pytest

from repro.net.message import (
    FetchReply,
    FetchRequest,
    Message,
    ReleaseNotice,
    StoreReply,
    StoreRequest,
)


class TestBaseMessage:
    def test_sender_recipient_recorded(self):
        message = Message(sender=1, recipient=2)
        assert (message.sender, message.recipient) == (1, 2)

    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            Message(sender=3, recipient=3)

    def test_messages_are_frozen(self):
        message = Message(sender=1, recipient=2)
        with pytest.raises(AttributeError):
            message.sender = 9


class TestPayloadMessages:
    def test_store_request_defaults(self):
        request = StoreRequest(sender=1, recipient=2)
        assert request.payload == b""
        assert request.block_index == 0

    def test_store_request_payload(self):
        request = StoreRequest(
            sender=1, recipient=2, archive_id="a", block_index=3,
            payload=b"\x00\x01",
        )
        assert request.payload == b"\x00\x01"

    def test_store_reply_reason(self):
        reply = StoreReply(
            sender=2, recipient=1, accepted=False, reason="quota full"
        )
        assert not reply.accepted
        assert reply.reason == "quota full"

    def test_fetch_round_trip_fields(self):
        request = FetchRequest(sender=1, recipient=2, archive_id="a", block_index=7)
        reply = FetchReply(
            sender=2, recipient=1, archive_id=request.archive_id,
            block_index=request.block_index, payload=b"data",
        )
        assert reply.archive_id == "a"
        assert reply.block_index == 7

    def test_fetch_miss_is_none_payload(self):
        reply = FetchReply(sender=2, recipient=1)
        assert reply.payload is None


class TestControlMessages:
    def test_release_notice_fields(self):
        notice = ReleaseNotice(
            sender=1, recipient=2, archive_id="a", block_index=5
        )
        assert notice.block_index == 5
