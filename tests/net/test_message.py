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
    """Messages about one block, named by archive id and index alone."""

    def test_store_request_defaults(self):
        request = StoreRequest(sender=1, recipient=2)
        assert request.archive_id == ""
        assert request.block_index == 0

    def test_store_request_payload(self):
        # A request carries no payload: it is exactly its block address.
        request = StoreRequest(
            sender=1, recipient=2, archive_id="a", block_index=3,
        )
        assert tuple(request) == (1, 2, "a", 3)
        assert not hasattr(request, "payload")

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
            block_index=request.block_index, found=True,
        )
        assert reply.archive_id == "a"
        assert reply.block_index == 7
        assert reply.found

    def test_fetch_miss_is_none_payload(self):
        # A miss carries no block: a reply defaults to found=False.
        reply = FetchReply(sender=2, recipient=1)
        assert reply.found is False


class TestControlMessages:
    def test_release_notice_fields(self):
        notice = ReleaseNotice(
            sender=1, recipient=2, archive_id="a", block_index=5
        )
        assert notice.block_index == 5
